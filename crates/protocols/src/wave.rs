//! The broadcast–convergecast wave engine.
//!
//! Every primitive protocol in the paper (MIN, MAX, COUNT, COUNTP,
//! APX_COUNT — §2.2) is a single **wave**: the root disseminates a request
//! down the spanning tree, each node computes a local contribution from
//! its items, and partial aggregates are merged on the way back up. The
//! root-driven algorithms (MEDIAN, APX_MEDIAN, APX_MEDIAN2) are sequences
//! of waves with decisions between them.
//!
//! A [`WaveProtocol`] defines one aggregate family: the request and
//! partial types, their bit-exact encodings, the per-node contribution and
//! the in-place merge of a child's partial. [`WaveSubstrate`] is the
//! contract for executing waves; [`WaveRunner`] implements it by owning a
//! simulator plus tree and running waves to quiescence; per-node bit
//! statistics accumulate in the underlying [`saq_netsim::stats::NetStats`].
//!
//! ## Reliability
//!
//! With [`Reliability::None`] (the paper's lossless setting) messages are
//! sent once. With [`Reliability::Ack`] every hop is acknowledged and
//! retransmitted on timeout, with duplicate suppression at the receiver —
//! enough to complete waves under independent packet loss, at a constant
//! bit-cost factor (measured in experiment E9's loss sweep).

use crate::cache::{CacheKey, CacheStats, PartialCache};
use crate::error::ProtocolError;
use crate::obs::NodeTraceEntry;
use crate::row::{RowKernel, RowSource};
use crate::tree::SpanningTree;
use saq_netsim::link::FrameClass;
use saq_netsim::sim::{Context, NodeId, NodeRuntime, SimConfig, Simulator};
use saq_netsim::stats::NetStats;
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_netsim::wire::{gamma_len, varint_len, BitReader, BitString, BitWriter};
use saq_netsim::NetsimError;
use std::collections::HashSet;
use std::fmt::Debug;

/// One aggregate family runnable as tree waves.
///
/// The protocol value itself is the network-wide *configuration* (value
/// widths, sketch sizes, seeds...), cloned to every node at deployment;
/// encodings may therefore depend on it without shipping schema bits in
/// every message.
pub trait WaveProtocol: Clone {
    /// Request disseminated root-to-leaves.
    type Request: Clone + Debug;
    /// Partial aggregate merged leaves-to-root.
    type Partial: Clone + Debug;
    /// Per-node data item. `PartialEq` lets the runner detect no-op item
    /// replacements ([`WaveSubstrate::set_items`] with identical items) and
    /// leave caches untouched.
    type Item: Clone + Debug + PartialEq;
    /// One item replacement ([`WaveSubstrate::set_items`]) as this
    /// protocol's cached partials see it: derived once per update by
    /// [`WaveProtocol::item_delta`], then folded into every cached entry
    /// on the updated node's root path by
    /// [`WaveProtocol::apply_item_delta`]. Each substrate keeps one value
    /// and reuses it for every update, so buffers kept in here are
    /// allocated once, not per update or per entry. Protocols that do not
    /// delta-maintain their caches use `()`.
    type ItemDelta: Default + Debug;
    /// A cache key parsed into what [`WaveProtocol::apply_item_delta`]
    /// needs ([`WaveProtocol::delta_key`]). It is parsed once, when the
    /// entry is stored, and kept beside the entry, so an item update
    /// never re-reads a key. Protocols that do not delta-maintain their
    /// caches use `()`.
    type DeltaKey: Clone + Debug;

    /// Serializes a request. Pure: a runner may encode a request for a
    /// frame, for its width or not at all, and bills what it sends
    /// through [`note_request_copies`](Self::note_request_copies).
    fn encode_request(&self, req: &Self::Request, w: &mut BitWriter);

    /// Accounts for `copies` transmissions of `req`'s encoding — one
    /// per child a node forwards `req` to (retransmissions excluded).
    /// Every runner calls it for every fan-out, so a protocol that
    /// attributes the bits it sends (the mux envelope's [`MuxLedger`])
    /// bills requests here and its ledger matches the network tally.
    /// Protocols without such side-state ignore this.
    fn note_request_copies(&self, _req: &Self::Request, _copies: u64) {}

    /// Deserializes a request.
    ///
    /// **The request law:** reading back what
    /// [`encode_request`](Self::encode_request) wrote returns exactly
    /// the request that was encoded — `decode(encode(req)) == req`,
    /// every field included — and consumes exactly those bits. A request
    /// is therefore the same value on both ends of a tree edge, which is
    /// what lets the flat runner hand a child its parent's request
    /// instead of a frame to decode; the boxed runner decodes every
    /// delivered request.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on malformed input.
    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<Self::Request, NetsimError>;

    /// Serializes a partial aggregate. The wave's request is available as
    /// context: both endpoints of a hop know it (the receiver joined the
    /// wave before any partial flows), so the partial encoding may depend
    /// on it without shipping schema bits. Pure, like
    /// [`encode_request`](Self::encode_request): a runner bills what it
    /// sends through [`partial_width`](Self::partial_width).
    fn encode_partial(&self, req: &Self::Request, p: &Self::Partial, w: &mut BitWriter);

    /// Exactly how many bits [`encode_partial`](Self::encode_partial)
    /// writes for `p` — **the width law**, `partial_width(req, p) ==
    /// encode(p).len_bits()` — accounting for one transmission of it.
    /// Every runner calls it once per partial it sends (retransmissions
    /// excluded): the flat runner bills a partial by its width and never
    /// encodes it, the boxed runner encodes its frame and bills through
    /// this. A protocol that attributes the bits it sends (the mux
    /// envelope's [`MuxLedger`]) bills partials here. The default
    /// encodes `p` into a per-thread scratch buffer and measures it; a
    /// protocol overrides it with its codec's size rules in closed form.
    fn partial_width(&self, req: &Self::Request, p: &Self::Partial) -> u64 {
        encode_scratch(|w| self.encode_partial(req, p, w), BitString::len_bits)
    }

    /// Deserializes a partial aggregate of the wave identified by `req`.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on malformed input.
    fn decode_partial(
        &self,
        req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<Self::Partial, NetsimError>;

    /// This node's contribution to the wave. May rescale the values of
    /// the local items in place — that is how value-remapping waves
    /// (Fig. 4 line 3.2 of the paper) are expressed — but never changes
    /// how many there are: only [`WaveSubstrate::set_items`] does that.
    fn local(&self, node: NodeId, items: &mut [Self::Item], req: &Self::Request) -> Self::Partial;

    /// Drops what a spent accumulator owns beyond its own container,
    /// once its reply is encoded and before it waits on the flat
    /// runner's free list for [`fill_row`](Self::fill_row): an idle
    /// accumulator must not keep a merged subtree's data alive. The
    /// default does nothing.
    fn release_partial(&self, _p: &mut Self::Partial) {}

    /// Merges one child's partial into `acc` in place, reading the child
    /// by reference — what every runner does with every report: the flat
    /// runner with the child's staged accumulator, the boxed oracle and
    /// rings with the partial they decoded off the child's frame. The
    /// merge must be commutative and associative, so tree shape does not
    /// matter. The child is merged in its **wire-normal form**, the value
    /// its parent would decode off the wire, whatever child it is handed:
    /// afterwards `acc` holds the merge of its old value and
    /// `decode_partial(encode_partial(child))`, so state the codec does
    /// not carry (a min/max runner-up) or clips (a saturating counter)
    /// never crosses an edge. `first_of` is `Some(children)` for the
    /// first of a node's `children` reports, so a protocol can size `acc`
    /// once for all of them from the first report's shape instead of
    /// growing it child by child.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireDecode`] on an accumulator or child
    /// whose shape does not match `req`; `acc` is then unspecified (the
    /// wave fails).
    fn absorb_partial(
        &self,
        req: &Self::Request,
        acc: &mut Self::Partial,
        child: &Self::Partial,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError>;

    // --- subtree partial caching hooks (see `crate::cache`) -----------
    //
    // A protocol opts into caching by keying its deterministic requests
    // ([`WaveProtocol::cache_key`]); envelope protocols additionally
    // expose their sub-requests as independently cacheable *slots* by
    // overriding the slot family below. The defaults describe a plain
    // single-slot protocol with caching disabled, so existing protocols
    // compile (and behave) unchanged.

    /// Cache key under which this request's subtree partial may be
    /// stored, or `None` when it must never be cached. A key is the
    /// request's exact [`encode_request`](Self::encode_request) bits:
    /// envelope protocols key a slot by the bits it carries, without
    /// re-encoding it. Requests that mutate items
    /// ([`WaveProtocol::invalidates_cache`]) or whose `local` draws
    /// fresh randomness outside the request encoding MUST return `None`
    /// — a later hit would replay stale or mismatched state. Randomized
    /// requests that embed their seed nonce in the encoding are safe to
    /// key: a hit reproduces the identical instance.
    fn cache_key(&self, _req: &Self::Request) -> Option<crate::cache::CacheKey> {
        None
    }

    /// Whether [`WaveProtocol::cache_key`] keys this request, without
    /// building the key. Protocols with a cheap test override this and
    /// build `cache_key` on it.
    fn cacheable(&self, req: &Self::Request) -> bool {
        self.cache_key(req).is_some()
    }

    /// Whether executing this request mutates item state. Nodes clear
    /// their entire subtree-partial cache before executing such a wave,
    /// and never serve or store any of its slots.
    fn invalidates_cache(&self, _req: &Self::Request) -> bool {
        false
    }

    /// Calls `f(i, key)` for every independently cacheable sub-unit
    /// (*slot*) of the request, in slot order: `key` is slot `i`'s cache
    /// key, or `None` when the slot is uncacheable. Plain protocols are a
    /// single slot — the whole request; envelope protocols override to
    /// lend each sub-request's key, borrowed where they hold it already.
    fn for_each_slot_key(
        &self,
        req: &Self::Request,
        f: &mut dyn FnMut(usize, Option<&crate::cache::CacheKey>),
    ) {
        f(0, self.cache_key(req).as_ref());
    }

    /// Width of slot `i` of a reply to `req`, given as its single-slot
    /// partial `part` (the form the cache stores, see
    /// [`WaveProtocol::split_slots`]). The widths of every slot add up
    /// to — and bill exactly what — [`partial_width`](Self::partial_width)
    /// of their [`join_slots`](Self::join_slots), so a node answering
    /// from cache is billed straight from the entries. The default
    /// serves plain single-slot protocols.
    fn slot_width(&self, req: &Self::Request, _i: usize, part: &Self::Partial) -> u64 {
        self.partial_width(req, part)
    }

    /// [`absorb_partial`](Self::absorb_partial) of one slot: merges slot
    /// `j` of `part` into slot `i` of `acc`, which is aligned with `req`
    /// — a cache entry (`j = 0`, the single-slot form the cache stores)
    /// or one slot of a reply computed for a subset of `req`. Absorbing
    /// every slot of a reply equals absorbing their
    /// [`join_slots`](Self::join_slots), so a parent merges a child's
    /// cached and computed slots where they lie. The default serves
    /// plain single-slot protocols.
    ///
    /// # Errors
    ///
    /// As [`absorb_partial`](Self::absorb_partial).
    fn absorb_slot(
        &self,
        req: &Self::Request,
        acc: &mut Self::Partial,
        _i: usize,
        part: &Self::Partial,
        _j: usize,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        self.absorb_partial(req, acc, part, first_of)
    }

    // --- fixed-width slots as rows of words (see `crate::row`) --------
    //
    // The flat runner keeps a slot whose partial is a few words in a row
    // of `u64` per node instead of in `Partial`. The defaults describe a
    // protocol with no row: every slot rides in `Partial`.

    /// The [`RowKernel`] slot `i` of `req` rides in on a flat wave, or
    /// `None` (the default) when it rides in [`Partial`](Self::Partial).
    /// A request's row lays its row slots' words out back to back, in
    /// slot order ([`RowKernel::words`] each); every other method of this
    /// family reads a row that way.
    fn row_kernel(&self, _req: &Self::Request, _i: usize) -> Option<RowKernel> {
        None
    }

    /// Fills words of `row` from `src`: a node's local step folds its
    /// items into every row slot of `req` and its other slots into the
    /// accumulator `RowSource::Local` lends — a spent one from the flat
    /// runner's per-thread free list, which a protocol whose partial is
    /// a container refills in place so a warm node allocates nothing;
    /// it then holds those slots alone, in slot order (the *rest
    /// form*), equal to what [`local`](Self::local) returns for them. A
    /// cached or joined partial's slot converts to its words exactly.
    /// The default has no row: the local step is
    /// [`local`](Self::local).
    ///
    /// # Errors
    ///
    /// [`NetsimError::WireDecode`] for a `RowSource::Slot` that is out
    /// of range or whose partial does not answer its row slot, as
    /// [`absorb_slot`](Self::absorb_slot) refuses a misaligned slot. A
    /// local step never fails.
    fn fill_row(
        &self,
        req: &Self::Request,
        src: RowSource<'_, Self>,
        _row: &mut [u64],
    ) -> Result<(), NetsimError> {
        match src {
            RowSource::Local { node, items, rest } => {
                *rest = Some(self.local(node, items, req));
                Ok(())
            }
            RowSource::Slot { .. } => Err(NetsimError::WireDecode(
                "a protocol without a row has no row slot",
            )),
        }
    }

    /// Bits the row slots of `row` (aligned with `req`) take in a reply —
    /// each slot's [`RowKernel::width`] — accounting for one
    /// transmission, as [`partial_width`](Self::partial_width) does for
    /// the accumulator's slots. The default has no row: 0.
    fn row_width(&self, _req: &Self::Request, _row: &[u64]) -> u64 {
        0
    }

    /// The partial aligned with `req` whose row slots are read off `row`
    /// and whose other slots are moved out of `rest` (the rest form;
    /// `None` when `req` has no slot outside its row) — what a cache
    /// entry stores and the root answers. What is left in `rest` is a
    /// spent accumulator, for the free list. The default has no row:
    /// `rest` is taken whole.
    ///
    /// # Panics
    ///
    /// When `rest` is `None` but `req` has a slot outside its row.
    fn row_partial(
        &self,
        _req: &Self::Request,
        rest: &mut Option<Self::Partial>,
        _row: &[u64],
    ) -> Self::Partial {
        rest.take()
            .expect("a request without a row keeps every slot in its accumulator")
    }

    /// The request containing only the slots `keep` (ascending slot
    /// indices, as [`WaveProtocol::for_each_slot_key`] numbers them) —
    /// what a node forwards to its children when the other slots were
    /// served from cache. Plain single-slot protocols are never subset
    /// (`keep` is all slots), so the default returns the request
    /// unchanged.
    fn subset_request(&self, req: &Self::Request, _keep: &[usize]) -> Self::Request {
        req.clone()
    }

    /// Splits a partial into per-slot partials, each shaped as if its
    /// slot were a single-slot request (the form stored in the cache),
    /// and hands them to `f` in slot order with their slot positions.
    /// Inverse of [`WaveProtocol::join_slots`]. A partial's slots are its
    /// own shape, so no request is needed: a flat parent stores its
    /// child's slots without the request the child forwarded.
    fn split_slots(&self, p: Self::Partial, f: &mut dyn FnMut(usize, Self::Partial)) {
        f(0, p);
    }

    /// A copy of the partial [`split_slots`](WaveProtocol::split_slots)
    /// hands over for slot position `i` of `p`, leaving `p` whole.
    fn slot_partial(&self, _req: &Self::Request, p: &Self::Partial, _i: usize) -> Self::Partial {
        p.clone()
    }

    /// Reassembles per-slot partials (ordered by slot index, one per
    /// slot of `req`) into one partial aligned with `req`.
    fn join_slots(&self, _req: &Self::Request, slots: Vec<Self::Partial>) -> Self::Partial {
        slots
            .into_iter()
            .next()
            .expect("a request has at least one slot")
    }

    /// Releases spare capacity `p` kept from merging, before `p` rests in
    /// a subtree cache. Executing nodes *move* their computed partials
    /// into the cache rather than copying them, so without this a partial
    /// that grew while absorbing its children would keep that working
    /// capacity for as long as its entry lives. The default does nothing.
    fn shrink_partial(&self, _p: &mut Self::Partial) {}

    /// Parses a cache key for delta maintenance, or `None` when entries
    /// under it must be invalidated by every item update (the default).
    /// Called once per stored entry.
    fn delta_key(&self, _key: &CacheKey) -> Option<Self::DeltaKey> {
        None
    }

    /// Derives into `delta` what replacing `old_items` with `new_items` at
    /// node `origin` means to a cached partial. `delta` still holds the
    /// previous update's value: overwrite it, reusing its buffers. Called
    /// once per update, before any [`WaveProtocol::apply_item_delta`].
    /// The default leaves `delta` untouched.
    fn item_delta(
        &self,
        _origin: NodeId,
        _old_items: &[Self::Item],
        _new_items: &[Self::Item],
        _delta: &mut Self::ItemDelta,
    ) {
    }

    /// Delta-maintains one cached subtree partial through the item
    /// replacement [`WaveProtocol::item_delta`] derived into `delta`
    /// (at a node somewhere in the subtree the partial summarizes). `key`
    /// is the entry's parsed cache key ([`WaveProtocol::delta_key`]) —
    /// for deterministic requests, the sub-request itself, i.e. which
    /// aggregate the partial belongs to.
    ///
    /// Return `true` after updating `partial` in place to exactly (or,
    /// for certified-approximation aggregates, equivalently) what a fresh
    /// re-aggregation over the updated subtree would produce; return
    /// `false` to have the entry invalidated instead — the loud fallback
    /// the continuous-aggregate layer relies on. The default declines
    /// every delta, preserving invalidate-on-mutation for protocols that
    /// do not opt in.
    fn apply_item_delta(
        &self,
        _key: &Self::DeltaKey,
        _partial: &mut Self::Partial,
        _delta: &Self::ItemDelta,
    ) -> bool {
        false
    }

    // --- request admission and clone hooks ----------------------------

    /// Validates a request at the API boundary, *before* the root
    /// injects it into the network. This is where wire-format bounds are
    /// enforced in release builds (encoding itself is infallible inside
    /// node handlers): a request that would emit out-of-range framing
    /// must be rejected here with [`NetsimError::WireEncode`].
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::WireEncode`] when the request exceeds the
    /// wire format's declared bounds.
    fn validate_request(&self, _req: &Self::Request) -> Result<(), NetsimError> {
        Ok(())
    }

    /// Folds the side-state a clone of this protocol accumulated (the
    /// bits a [`MultiplexWave`] clone billed to its own [`MuxLedger`])
    /// into this instance, **draining** the clone's copy. A runner keeps
    /// the protocol it was built with and runs clones of it — one per
    /// node in the boxed [`WaveRunner`], one per worker group in the
    /// flat runner — and folds every clone after every wave, failed
    /// waves included, in a fixed order, so merged tallies are
    /// deterministic regardless of thread timing. The default is a
    /// no-op.
    fn absorb_shard(&self, _shard: &Self) {}
}

/// A snapshot of the per-node transport state a wave execution
/// accumulates — the quantities that *must* stay bounded for the
/// long-running streaming engine's unbounded round stream (PR 3's
/// per-wave seq epoching purges the dedup set at wave completion; this
/// type makes the bound observable so experiments can assert it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportFootprint {
    /// Entries across all receiver-side ARQ dedup sets (`(from, wave,
    /// seq)` keys). Purged when a node **admits** its next wave, so
    /// between waves each node holds at most one wave's worth of
    /// entries — one per reporting child plus at most one duplicate
    /// request key — never a total that grows with wave count. (The
    /// purge is at admission rather than completion so the residue is a
    /// pure function of link fates, reproducible by every runner
    /// representation.) Zero under [`Reliability::None`].
    pub dedup_entries: u64,
    /// Un-ACKed frames held for retransmission; zero between waves and
    /// under [`Reliability::None`].
    pub pending_frames: u64,
    /// Child partials buffered for canonical merges; zero between waves.
    pub buffered_partials: u64,
    /// Resident subtree-cache entries — bounded by the configured
    /// per-node capacity times the node count, *not* by wave count.
    pub cache_entries: u64,
}

impl TransportFootprint {
    /// Sum of all components (a scalar to compare across rounds).
    pub fn total(&self) -> u64 {
        self.dedup_entries + self.pending_frames + self.buffered_partials + self.cache_entries
    }

    /// Accumulates another footprint (used to aggregate nodes).
    pub fn absorb(&mut self, other: TransportFootprint) {
        self.dedup_entries += other.dedup_entries;
        self.pending_frames += other.pending_frames;
        self.buffered_partials += other.buffered_partials;
        self.cache_entries += other.cache_entries;
    }
}

/// Per-hop delivery discipline for wave messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Reliability {
    /// Fire-and-forget (the paper's reliable-link model).
    #[default]
    None,
    /// Stop-and-wait ARQ per message with the given retransmit timeout.
    Ack {
        /// Retransmission timeout.
        timeout: SimDuration,
    },
}

/// Bits of the per-message ARQ sequence number appended to the wave
/// header of every non-ACK frame under [`Reliability::Ack`] — fixed
/// width (sequence numbers are uniform in `0..2^16` within a wave, so a
/// varint would only pay).
pub const SEQ_BITS: u64 = 16;

/// Bits of node-layer framing per non-ACK message of wave `wave` under
/// [`Reliability::None`]: the 2-bit kind plus the wave ordinal, which
/// rides as an LEB-style varint — 8 bits while `wave < 128`, 16 bits up
/// to 16383 (ARQ appends [`SEQ_BITS`]). Headers are node-layer bits,
/// never attributed to a [`MuxLedger`] slot.
pub fn header_bits(wave: u16) -> u64 {
    2 + varint_len(wave as u64)
}

/// Bits of one ACK frame of wave `wave`: kind, wave ordinal and the
/// acknowledged sequence number (an ACK carries no sequence number of
/// its own).
pub fn ack_bits(wave: u16) -> u64 {
    header_bits(wave) + SEQ_BITS
}

/// Writes a frame header's wave ordinal (a varint; see [`header_bits`]).
fn write_wave(w: &mut BitWriter, wave: u16) {
    w.write_varint(wave as u64);
}

/// Reads a wave ordinal written by [`write_wave`].
///
/// # Errors
///
/// Returns [`NetsimError::WireDecode`] on truncation or a varint
/// outside the 16-bit wave space.
fn read_wave(r: &mut BitReader<'_>) -> Result<u16, NetsimError> {
    u16::try_from(r.read_varint()?)
        .map_err(|_| NetsimError::WireDecode("wave ordinal out of range"))
}

/// Encodes with `encode` into a writer backed by this thread's scratch
/// buffer and hands the result to `read`, so measuring or checking an
/// encoding allocates nothing once the buffer is warm.
pub(crate) fn encode_scratch<T>(
    encode: impl FnOnce(&mut BitWriter),
    read: impl FnOnce(&BitString) -> T,
) -> T {
    thread_local! {
        static SCRATCH: std::cell::Cell<Vec<u64>> = const { std::cell::Cell::new(Vec::new()) };
    }
    let mut w = BitWriter::with_scratch(SCRATCH.take());
    encode(&mut w);
    let frame = w.finish();
    let out = read(&frame);
    SCRATCH.set(frame.into_words());
    out
}

const KIND_REQUEST: u64 = 0;
const KIND_PARTIAL: u64 = 1;
const KIND_ACK: u64 = 2;

/// Timer tag namespace: retransmissions are tagged
/// `RETX_BASE + (wave << 16) + seq`. Including the wave id keeps a stale
/// timer from a finished wave from ever matching a live entry of the
/// current wave, whose per-wave sequence numbers restart at zero.
const RETX_BASE: u64 = 1 << 34;
/// Tag used by [`WaveRunner`] to start a wave at the root.
const TAG_START: u64 = 1;

const fn retx_tag(wave: u16, seq: u16) -> u64 {
    RETX_BASE + ((wave as u64) << 16) + seq as u64
}

#[derive(Debug, Clone)]
struct PendingMsg {
    seq: u16,
    wave: u16,
    to: NodeId,
    payload: BitString,
}

/// What a node's subtree cache stores: a partial, and its key parsed
/// for delta maintenance (`None`: the entry declines every delta).
#[derive(Debug)]
pub(crate) struct CachedPartial<P: WaveProtocol> {
    pub(crate) partial: P::Partial,
    delta_key: Option<P::DeltaKey>,
}

impl<P: WaveProtocol> Clone for CachedPartial<P> {
    fn clone(&self) -> Self {
        CachedPartial {
            partial: self.partial.clone(),
            delta_key: self.delta_key.clone(),
        }
    }
}

impl<P: WaveProtocol> CachedPartial<P> {
    /// Wraps a partial about to be stored under `key`.
    pub(crate) fn new(proto: &P, key: &CacheKey, partial: P::Partial) -> Self {
        CachedPartial {
            partial,
            delta_key: proto.delta_key(key),
        }
    }

    /// Folds an item update in ([`WaveProtocol::apply_item_delta`]);
    /// `false` means the entry must be invalidated.
    pub(crate) fn apply(&mut self, proto: &P, delta: &P::ItemDelta) -> bool {
        self.delta_key
            .as_ref()
            .is_some_and(|key| proto.apply_item_delta(key, &mut self.partial, delta))
    }
}

/// One node's subtree-cache bookkeeping for the current wave, shared by
/// both runners: [`CacheResolution::resolve`] probes the request's slots
/// at admission, and the completion methods turn the node's merged
/// accumulator into its reply, storing what it computed.
///
/// Hits are recorded as *positions* in the node's cache, not copies:
/// nothing touches a node's cache between its admission and its
/// completion, so a position stays valid for the whole wave, and a
/// reply served from cache is billed ([`CacheResolution::hits_width`])
/// and merged into the parent straight from the entries.
#[derive(Debug, Default)]
pub(crate) struct CacheResolution {
    /// Cache hits: `(slot index in the request, position in the cache)`.
    pub(crate) hits: Vec<(usize, usize)>,
    /// Slot indices of the cache misses — the slots of the forwarded
    /// request, in order.
    pub(crate) miss: Vec<usize>,
    /// Partials to store on completion: `(position within the forwarded
    /// request's slots, cache key)`.
    store: Vec<(usize, CacheKey)>,
}

impl CacheResolution {
    /// Resolves `req` against the node's cache. An item-mutating wave
    /// clears the cache *before* anything is served and never caches
    /// itself; otherwise every cacheable slot is probed (each probe
    /// traced when `trace` is given), hits are set aside and misses
    /// recorded for the forwarded request and for storing. Returns
    /// whether every slot hit — the node then answers from cache and
    /// its subtree stays silent.
    pub(crate) fn resolve<P: WaveProtocol>(
        &mut self,
        proto: &P,
        cache: Option<&mut PartialCache<CachedPartial<P>>>,
        req: &P::Request,
        mut trace: Option<&mut Vec<NodeTraceEntry>>,
    ) -> bool {
        self.hits.clear();
        self.miss.clear();
        self.store.clear();
        let Some(cache) = cache else {
            return false;
        };
        if proto.invalidates_cache(req) {
            cache.clear();
            return false;
        }
        let CacheResolution { hits, miss, store } = self;
        proto.for_each_slot_key(req, &mut |i, key| {
            let Some(key) = key else {
                miss.push(i);
                return;
            };
            let slot = i as u32;
            match cache.position(key) {
                Some(pos) => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(NodeTraceEntry::CacheHit { slot });
                    }
                    hits.push((i, pos));
                }
                None => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(NodeTraceEntry::CacheMiss { slot });
                    }
                    store.push((miss.len(), key.clone()));
                    miss.push(i);
                }
            }
        });
        !self.hits.is_empty() && self.miss.is_empty()
    }

    /// The reply of a node whose every slot hit, as an owned partial
    /// (the hits cloned and joined). Clears the hits: the reply is
    /// complete, and completion has nothing left to interleave.
    pub(crate) fn take_cached_reply<P: WaveProtocol>(
        &mut self,
        proto: &P,
        cache: &PartialCache<CachedPartial<P>>,
        req: &P::Request,
    ) -> P::Partial {
        let slots = self
            .hits
            .drain(..)
            .map(|(_, pos)| cache.at(pos).partial.clone())
            .collect();
        proto.join_slots(req, slots)
    }

    /// The width of the slots served from cache, billed straight from
    /// the entries ([`WaveProtocol::slot_width`]): for a node whose every
    /// slot hit, what [`WaveProtocol::partial_width`] of
    /// [`take_cached_reply`](Self::take_cached_reply) returns and bills,
    /// without a copy.
    pub(crate) fn hits_width<P: WaveProtocol>(
        &self,
        proto: &P,
        cache: &PartialCache<CachedPartial<P>>,
        req: &P::Request,
    ) -> u64 {
        self.hits
            .iter()
            .map(|&(i, pos)| proto.slot_width(req, i, &cache.at(pos).partial))
            .sum()
    }

    /// Completion of an executing node: turns the merged accumulator
    /// (aligned with `fwd`) into the full reply (aligned with `req`),
    /// storing the freshly computed subtree partials on the way. Hits
    /// are copied out before anything is stored — a store may evict
    /// one.
    pub(crate) fn assemble<P: WaveProtocol>(
        &mut self,
        proto: &P,
        cache: Option<&mut PartialCache<CachedPartial<P>>>,
        req: &P::Request,
        fwd: &P::Request,
        acc: P::Partial,
    ) -> P::Partial {
        if self.hits.is_empty() && self.store.is_empty() {
            // No caching activity this wave (disabled, invalidating, or
            // no cacheable slot).
            return acc;
        }
        let cache = cache.expect("resolved slots imply a cache");
        let hits: Vec<(usize, P::Partial)> = self
            .hits
            .drain(..)
            .map(|(i, pos)| (i, cache.at(pos).partial.clone()))
            .collect();
        for (pos, key) in self.store.drain(..) {
            let entry = CachedPartial::new(proto, &key, proto.slot_partial(fwd, &acc, pos));
            cache.insert(key, entry);
        }
        if hits.is_empty() {
            return acc; // nothing was served from cache: `fwd` is `req`
        }
        // Interleave cached and computed slot partials by slot index.
        let mut hits = hits.into_iter().peekable();
        let mut miss = self.miss.iter();
        let mut slots = Vec::with_capacity(hits.len() + miss.len());
        proto.split_slots(acc, &mut |_, part| {
            let i = *miss.next().expect("one computed slot per missed slot");
            while let Some((_, hit)) = hits.next_if(|&(h, _)| h < i) {
                slots.push(hit);
            }
            slots.push(part);
        });
        debug_assert_eq!(miss.len(), 0, "slot split shape");
        slots.extend(hits.map(|(_, hit)| hit));
        proto.join_slots(req, slots)
    }

    /// Whether this wave's resolution hit the cache or will store into
    /// it — the nodes whose reply the flat runner stages in full form.
    pub(crate) fn touches_cache(&self) -> bool {
        !self.hits.is_empty() || !self.store.is_empty()
    }

    /// Moves the computed slot partials of `acc` this wave keyed into the
    /// cache — no copy, no join — each shrunk to its size first
    /// ([`WaveProtocol::shrink_partial`]). Run once every hit was read.
    /// When nothing is stored, `acc` is handed back for reuse as a later
    /// node's accumulator. The flat runner calls it from a node's parent,
    /// once the parent read the node's hits.
    pub(crate) fn store_by_move<P: WaveProtocol>(
        &mut self,
        proto: &P,
        cache: &mut PartialCache<CachedPartial<P>>,
        acc: P::Partial,
    ) -> Option<P::Partial> {
        if self.store.is_empty() {
            return Some(acc);
        }
        let mut store = self.store.drain(..).peekable();
        proto.split_slots(acc, &mut |pos, mut part| {
            if let Some((_, key)) = store.next_if(|&(p, _)| p == pos) {
                proto.shrink_partial(&mut part);
                let entry = CachedPartial::new(proto, &key, part);
                cache.insert(key, entry);
            }
        });
        None
    }
}

/// Node state machine executing [`WaveProtocol`] waves over a spanning
/// tree.
#[derive(Debug)]
pub struct AggNode<P: WaveProtocol> {
    proto: P,
    /// This node's input items (the paper's local multiset, §5).
    items: Vec<P::Item>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    reliability: Reliability,

    /// Wave id of the wave this node last participated in.
    wave: u16,
    req: Option<P::Request>,
    waiting: Vec<NodeId>,
    acc: Option<P::Partial>,
    /// Completed result; only ever set at the root.
    result: Option<P::Partial>,
    /// Request staged by the driver before kicking the root.
    staged: Option<(u16, P::Request)>,

    /// Subtree partial cache (`None` = caching disabled, the default).
    cache: Option<PartialCache<CachedPartial<P>>>,
    /// The cache-reduced request forwarded to children this wave, when a
    /// partial cache hit subset `req`; `None` forwards `req` itself.
    /// Child partials and `acc` align with the forwarded request.
    fwd_req: Option<P::Request>,
    /// The current wave's cache hits, misses and pending stores.
    resolved: CacheResolution,
    /// Child partials buffered for the **canonical merge**: partials are
    /// merged in fixed child order once every child reported, never in
    /// arrival order. Arrival order depends on link jitter and event
    /// interleaving; merging canonically makes the convergecast result a
    /// pure function of the tree and the inputs, which is what lets
    /// the flat runner reproduce this runner's answers bit-for-bit
    /// even for merges that are only multiset-commutative (collect) or
    /// tie-sensitive (quantile summaries).
    child_partials: Vec<(NodeId, P::Partial)>,

    /// Per-wave ARQ sequence counter. **Epoched**: reset to zero by
    /// every `begin_wave`, so one node would need 2^16 messages *within
    /// a single wave* to wrap — at which point framing, dedup and timer
    /// tags would collide. Cross-wave reuse of the same sequence numbers
    /// is disambiguated by the wave id carried in every frame (including
    /// ACKs) and in the dedup/timer keys.
    next_seq: u16,
    pending: Vec<PendingMsg>,
    /// Receiver-side ARQ dedup set, keyed `(from, wave, seq)`. Scoped to
    /// a wave: cleared when the node **admits** a wave, so the set never
    /// outgrows one wave's traffic — the bound a long-running engine
    /// needs. Purging at admission (not completion) makes the residue
    /// left between waves a pure function of link fates — at most one
    /// entry per reporting child plus one for a duplicate request
    /// delivery — which is what lets the flat runner reproduce
    /// [`TransportFootprint`] bit-for-bit.
    seen: HashSet<(NodeId, u16, u16)>,

    /// Telemetry switch: when set, the node buffers canonically-ordered
    /// [`NodeTraceEntry`]s for the driver to drain after the wave.
    trace_on: bool,
    /// Buffered trace entries (peer-free — see [`crate::obs`]).
    trace: Vec<NodeTraceEntry>,
}

impl<P: WaveProtocol> AggNode<P> {
    fn new(
        proto: P,
        items: Vec<P::Item>,
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        reliability: Reliability,
    ) -> Self {
        AggNode {
            proto,
            items,
            parent,
            children,
            reliability,
            wave: 0,
            req: None,
            waiting: Vec::new(),
            acc: None,
            result: None,
            staged: None,
            cache: None,
            fwd_req: None,
            resolved: CacheResolution::default(),
            child_partials: Vec::new(),
            next_seq: 0,
            pending: Vec::new(),
            seen: HashSet::new(),
            trace_on: false,
            trace: Vec::new(),
        }
    }

    /// Buffers a telemetry entry when tracing is on (no-op otherwise —
    /// one branch on a resident bool, the zero-overhead contract).
    #[inline]
    fn trace_push(&mut self, entry: NodeTraceEntry) {
        if self.trace_on {
            self.trace.push(entry);
        }
    }

    /// The node's current items.
    pub fn items(&self) -> &[P::Item] {
        &self.items
    }

    /// This node's contribution to a [`TransportFootprint`].
    fn transport_footprint(&self) -> TransportFootprint {
        TransportFootprint {
            dedup_entries: self.seen.len() as u64,
            pending_frames: self.pending.len() as u64,
            buffered_partials: self.child_partials.len() as u64,
            cache_entries: self.cache.as_ref().map_or(0, |c| c.stats().entries),
        }
    }

    /// Delta-maintains this node's subtree cache through an item
    /// replacement at this node or a descendant, already derived into
    /// `delta`: every resident entry either absorbs it in place
    /// ([`WaveProtocol::apply_item_delta`]) or is invalidated — the
    /// fine-grained, per-entry successor of the old whole-cache clear.
    /// Returns the `(applied, invalidated)` entry counts.
    fn delta_maintain_cache(&mut self, delta: &P::ItemDelta) -> (u64, u64) {
        let AggNode { proto, cache, .. } = self;
        cache.as_mut().map_or((0, 0), |cache| {
            cache.delta_maintain(|entry| entry.apply(proto, delta))
        })
    }

    /// Writes an outgoing message's header into `w`: kind, varint wave
    /// id, then an ARQ sequence number when reliable (consuming
    /// `next_seq`), which it returns. The caller encodes the body with
    /// its own protocol, so every bill lands in this node's ledger.
    fn write_header(&mut self, w: &mut BitWriter, kind: u64, wave: u16) -> Option<u16> {
        w.write_bits(kind, 2);
        write_wave(w, wave);
        match self.reliability {
            Reliability::None => None,
            Reliability::Ack { .. } => {
                let s = self.next_seq;
                self.next_seq = self.next_seq.wrapping_add(1);
                w.write_bits(s as u64, 16);
                Some(s)
            }
        }
    }

    /// Sends a framed message, keeping a copy for retransmission when it
    /// carries a sequence number. Returns its size in bits (telemetry
    /// needs the full on-wire frame size).
    fn send_frame(
        &mut self,
        ctx: &mut Context<'_>,
        to: NodeId,
        wave: u16,
        seq: Option<u16>,
        payload: BitString,
    ) -> u64 {
        let bits = payload.len_bits();
        if let (Some(seq), Reliability::Ack { timeout }) = (seq, self.reliability) {
            self.pending.push(PendingMsg {
                seq,
                wave,
                to,
                payload: payload.clone(),
            });
            ctx.set_timer(timeout, retx_tag(wave, seq));
        }
        ctx.send(to, payload);
        bits
    }

    /// ACK frames carry the acknowledged message's wave id as well as
    /// its sequence number: per-wave sequence numbers restart at zero,
    /// so a late ACK from a finished wave must never cancel a live
    /// retransmission entry of the current wave that happens to reuse
    /// the sequence number.
    fn send_ack(&mut self, ctx: &mut Context<'_>, to: NodeId, wave: u16, seq: u16) {
        let mut w = ctx.writer();
        w.write_bits(KIND_ACK, 2);
        write_wave(&mut w, wave);
        w.write_bits(seq as u64, 16);
        // ACKs ride their own per-edge fate stream (`FrameClass::Ack`):
        // data and ACK frames interleave on the shared edge in
        // timing-dependent order, and separate streams keep that
        // interleaving unobservable to the fate schedule.
        ctx.send_classed(to, w.finish(), FrameClass::Ack);
    }

    /// Joins wave `wave`: admits `req` ([`AggNode::admit_wave`]), then
    /// either replies from the subtree cache at once, or contributes
    /// locally and forwards the (possibly cache-reduced) request to the
    /// children.
    fn begin_wave(&mut self, ctx: &mut Context<'_>, wave: u16, req: P::Request) {
        if self.admit_wave(wave, req) {
            // Every slot served from cache: the entire subtree stays
            // silent — no local computation, no child messages.
            self.finish_wave(ctx);
            return;
        }
        let fwd = self.fwd_req.as_ref().or(self.req.as_ref());
        let fwd = fwd.expect("an admitted wave has a request");
        self.acc = Some(self.proto.local(ctx.node_id(), &mut self.items, fwd));
        if self.waiting.is_empty() {
            self.finish_wave(ctx);
            return;
        }
        self.proto
            .note_request_copies(fwd, self.children.len() as u64);
        if matches!(self.reliability, Reliability::None) {
            // Without per-message sequence numbers the request frame is
            // bit-identical for every child: encode it once and fan out
            // pool-backed copies instead of re-encoding per child.
            let mut w = ctx.writer();
            w.write_bits(KIND_REQUEST, 2);
            write_wave(&mut w, wave);
            self.proto.encode_request(fwd, &mut w);
            let frame = w.finish();
            let last = self.children.len() - 1;
            for i in 0..last {
                let copy = ctx.duplicate(&frame);
                ctx.send(self.children[i], copy);
            }
            ctx.send(self.children[last], frame);
        } else {
            for i in 0..self.children.len() {
                let mut w = ctx.writer();
                let seq = self.write_header(&mut w, KIND_REQUEST, wave);
                let fwd = self.fwd_req.as_ref().or(self.req.as_ref());
                self.proto
                    .encode_request(fwd.expect("an admitted wave has a request"), &mut w);
                self.send_frame(ctx, self.children[i], wave, seq, w.finish());
            }
        }
    }

    /// Resets per-wave state and resolves the subtree cache for `req` —
    /// everything a node does on joining a wave short of touching the
    /// network or its items. Returns `true` when every slot was served
    /// from cache: the complete reply is then in `self.acc` and the
    /// subtree stays silent. Otherwise the caller computes the local
    /// contribution into `self.acc` and forwards `self.fwd_req` — or,
    /// when nothing hit, `self.req` — to the children.
    fn admit_wave(&mut self, wave: u16, req: P::Request) -> bool {
        self.wave = wave;
        // `clone_from` reuses the buffer's capacity: after the first
        // wave this list refills without touching the allocator.
        self.waiting.clone_from(&self.children);
        self.child_partials.clear();
        // Per-wave ARQ scope: sequence numbers restart, retransmission
        // state of any superseded wave is dropped (its partials would be
        // rejected by wave-id checks anyway), and the dedup set is
        // cleared — duplicates across waves are rejected by the
        // (from, wave, seq) keying, and an unbounded set would leak.
        self.next_seq = 0;
        self.pending.clear();
        self.seen.clear();

        // Subtree partial cache resolution: hits are set aside and only
        // the misses proceed as a (possibly reduced) wave.
        let AggNode {
            proto,
            cache,
            resolved,
            trace,
            trace_on,
            ..
        } = self;
        let trace = trace_on.then_some(trace);
        let cached = resolved.resolve(proto, cache.as_mut(), &req, trace);
        if cached {
            // The oracle keeps it simple: the reply is copied out of the
            // cache and encoded when the wave finishes.
            let cache = cache.as_ref().expect("a cache hit implies a cache");
            self.acc = Some(resolved.take_cached_reply(proto, cache, &req));
            self.waiting.clear();
        }
        // Forward only the cache-miss slots: a subset envelope exists
        // only when something hit.
        self.fwd_req = (!cached && !resolved.hits.is_empty())
            .then(|| proto.subset_request(&req, &resolved.miss));
        self.req = Some(req);
        cached
    }

    /// Absorbs the buffered child partials into the accumulator in
    /// place, in **fixed child order** (the canonical merge — see the
    /// field doc of `child_partials`), the first told how many children
    /// report, as the flat runner tells it. Call only when every child
    /// has reported.
    ///
    /// # Errors
    ///
    /// The first [`WaveProtocol::absorb_partial`] error: the node then
    /// sends no reply, so the wave ends without a result.
    fn merge_children(&mut self) -> Result<(), NetsimError> {
        let AggNode {
            proto,
            children,
            req,
            fwd_req,
            acc,
            child_partials,
            ..
        } = self;
        if child_partials.is_empty() {
            return Ok(());
        }
        let fwd = fwd_req.as_ref().or(req.as_ref());
        let fwd = fwd.expect("merging children requires a forward request");
        let acc = acc.as_mut().expect("active wave has an accumulator");
        let mut first_of = Some(children.len());
        for child in children.iter() {
            if let Some(pos) = child_partials.iter().position(|(c, _)| c == child) {
                let (_, p) = child_partials.swap_remove(pos);
                proto.absorb_partial(fwd, acc, &p, first_of.take())?;
            }
        }
        Ok(())
    }

    /// Completes the wave at this node: stores fresh subtree partials in
    /// the cache, reassembles cache hits with the computed slots into a
    /// partial aligned with the request this node *received*, and hands
    /// it to the parent (or records it as the root result).
    fn finish_wave(&mut self, ctx: &mut Context<'_>) {
        // The ARQ dedup scope (`seen`) is NOT purged here: the next
        // `admit_wave` clears it, which bounds memory just as well (one
        // wave's traffic) while leaving a between-wave residue that is a
        // pure function of link fates — completion time is
        // schedule-dependent, admission order is not, and the flat
        // runner must reproduce the footprint exactly.
        let acc = self.acc.take().expect("wave has an accumulator");
        let full = self.assemble_partial(acc);
        match self.parent {
            None => self.result = Some(full),
            Some(parent) => {
                let wave = self.wave;
                let mut w = ctx.writer();
                let seq = self.write_header(&mut w, KIND_PARTIAL, wave);
                let header = w.len_bits();
                let req = self.req.as_ref().expect("active wave has a request");
                self.proto.encode_partial(req, &full, &mut w);
                // The frame is real; the bill is its width, which must
                // be what was written (the width law, checked end to end).
                let width = self.proto.partial_width(req, &full);
                debug_assert_eq!(header + width, w.len_bits(), "the width law");
                let bits = self.send_frame(ctx, parent, wave, seq, w.finish());
                self.trace_push(NodeTraceEntry::PartialSent { bits });
            }
        }
    }

    /// Turns the merged accumulator (aligned with the forwarded request)
    /// into the full reply (aligned with `req`), populating the cache
    /// with the freshly computed subtree partials on the way. A reply
    /// answered from cache is already whole: its hits were taken.
    fn assemble_partial(&mut self, acc: P::Partial) -> P::Partial {
        let AggNode {
            proto,
            cache,
            resolved,
            req,
            fwd_req,
            ..
        } = self;
        let req = req.as_ref().expect("active wave has a request");
        let fwd = fwd_req.as_ref().unwrap_or(req);
        resolved.assemble(proto, cache.as_mut(), req, fwd, acc)
    }
}

impl<P: WaveProtocol> NodeRuntime for AggNode<P> {
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TAG_START {
            if let Some((wave, req)) = self.staged.take() {
                self.begin_wave(ctx, wave, req);
            }
            return;
        }
        if tag >= RETX_BASE {
            let seq = (tag & 0xFFFF) as u16;
            let wave = ((tag >> 16) & 0xFFFF) as u16;
            if let Some(idx) = self
                .pending
                .iter()
                .position(|m| m.seq == seq && m.wave == wave)
            {
                let msg = self.pending[idx].clone();
                if let Reliability::Ack { timeout } = self.reliability {
                    ctx.set_timer(timeout, tag);
                    ctx.send(msg.to, msg.payload);
                }
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &BitString) {
        let mut r = BitReader::new(payload);
        let Ok(kind) = r.read_bits(2) else { return };
        let Ok(wave) = read_wave(&mut r) else { return };
        if kind == KIND_ACK {
            let Ok(seq) = r.read_bits(16) else { return };
            self.pending
                .retain(|m| !(m.seq == seq as u16 && m.wave == wave && m.to == from));
            return;
        }
        // Reliable mode: ack and dedup before processing. The dedup key
        // includes the wave id: per-wave sequence numbers restart at
        // zero, so a late retransmission from a finished wave must not
        // shadow a fresh message of the current wave.
        if let Reliability::Ack { .. } = self.reliability {
            let Ok(seq) = r.read_bits(16) else { return };
            let seq = seq as u16;
            self.send_ack(ctx, from, wave, seq);
            if !self.seen.insert((from, wave, seq)) {
                return; // duplicate delivery or retransmission
            }
        }
        match kind {
            KIND_REQUEST => {
                if wave == self.wave && self.req.is_some() {
                    return; // duplicate request for the current wave
                }
                let Ok(req) = self.proto.decode_request(&mut r) else {
                    return;
                };
                self.trace_push(NodeTraceEntry::RequestRecv {
                    bits: payload.len_bits(),
                });
                // A new wave resets per-wave reliable state: partials from
                // older waves must not be confused with this one's.
                self.begin_wave(ctx, wave, req);
            }
            KIND_PARTIAL => {
                if wave != self.wave {
                    return; // stale partial from a previous wave
                }
                let Some(pos) = self.waiting.iter().position(|&c| c == from) else {
                    return; // duplicate or unexpected child report
                };
                // Children answer the request this node *forwarded* (the
                // cache-miss subset of what it received).
                let Some(req) = self.fwd_req.as_ref().or(self.req.as_ref()) else {
                    return; // partial for a wave this node never joined
                };
                let Ok(partial) = self.proto.decode_partial(req, &mut r) else {
                    return;
                };
                self.waiting.swap_remove(pos);
                // Buffer rather than merge: once the last child reports,
                // partials are merged in fixed child order (the canonical
                // merge), so the result is independent of arrival order.
                self.child_partials.push((from, partial));
                if self.waiting.is_empty() && self.merge_children().is_ok() {
                    self.finish_wave(ctx);
                }
            }
            _ => {}
        }
    }
}

/// The wave-execution contract a driver programs against: a network of
/// nodes over a spanning tree that runs [`WaveProtocol`] waves to
/// completion and bills every frame to its endpoints. Implemented by the
/// event-driven [`WaveRunner`] (the timing-faithful oracle) and by the
/// columnar [`FlatWaveRunner`](crate::flat::FlatWaveRunner) (the
/// parallel substrate); every observable below — answers, per-node bits,
/// cache counters, transport footprint, trace entries — is identical
/// across the two (ARCHITECTURE §10).
pub trait WaveSubstrate<P: WaveProtocol>: Debug {
    /// Short name of the substrate (`"single"` or `"flat"`), for
    /// routing assertions and experiment banners.
    fn name(&self) -> &'static str;

    /// The protocol the substrate was built with. Its side-state (a
    /// [`MultiplexWave`]'s [`MuxLedger`]) holds everything the waves
    /// billed so far: the substrate folds the clones it runs into it
    /// after every wave ([`WaveProtocol::absorb_shard`]).
    fn protocol(&self) -> &P;

    /// Runs one wave with the given request and returns the root's merged
    /// result.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NoResult`] if the wave quiesced without the root
    /// completing (e.g. loss with [`Reliability::None`]);
    /// [`ProtocolError::WorkerPanicked`] when the protocol panicked on a
    /// worker thread (the substrate stays usable); validation and
    /// simulator errors are propagated.
    fn run_wave(&mut self, req: P::Request) -> Result<P::Partial, ProtocolError>;

    /// Accumulated per-node communication statistics, indexed by node id.
    fn stats(&self) -> &NetStats;

    /// Clears accumulated statistics.
    fn reset_stats(&mut self);

    /// Number of nodes.
    fn len(&self) -> usize;

    /// Whether the network has no nodes (never true once constructed).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the aggregation tree.
    fn tree_height(&self) -> u32;

    /// Maximum communication degree in the aggregation tree.
    fn tree_max_degree(&self) -> usize;

    /// Current items of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn items(&self, node: NodeId) -> &[P::Item];

    /// Replaces the items of `node` (driver-side setup; not charged as
    /// communication), **delta-maintaining** the subtree partial caches
    /// of `node` and every ancestor up to the root: the replacement is
    /// diffed once ([`WaveProtocol::item_delta`]), then each resident
    /// entry whose aggregate supports deltas
    /// ([`WaveProtocol::apply_item_delta`]) is updated in place and keeps
    /// serving refreshes; every other entry is invalidated individually —
    /// the fine-grained successor of the old whole-path cache clear.
    /// Replacing items with identical ones is a no-op and touches no
    /// cache at all. Once warm, the walk allocates nothing.
    ///
    /// Returns the `(applied, invalidated)` entry counts of this update
    /// (the growth of [`CacheStats::delta_applied`] and
    /// [`CacheStats::delta_invalidated`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn set_items(&mut self, node: NodeId, items: Vec<P::Item>) -> (u64, u64);

    /// Enables subtree partial caching at every node, each holding at
    /// most `capacity` entries (see [`crate::cache`]). Waves then serve
    /// repeated cacheable requests by re-merging stored subtree partials
    /// instead of re-contributing leaf items; invalidation is automatic
    /// on item-mutating waves and [`WaveSubstrate::set_items`]. Enabling
    /// resets any previously cached state.
    fn enable_partial_cache(&mut self, capacity: usize);

    /// Network-wide cache counters: the sum of every node's hit/miss/
    /// occupancy statistics (zero when caching is disabled).
    fn cache_stats(&self) -> CacheStats;

    /// Network-wide transport-state occupancy (see
    /// [`TransportFootprint`]). Between waves of a quiesced run the
    /// retransmit and merge-buffer components are zero; the dedup
    /// component (zero under [`Reliability::None`]) is bounded by one
    /// wave's traffic — at most one entry per tree edge plus one per
    /// duplicate request delivery, purged at the next admission — so an
    /// unbounded round stream observes it staying flat: the memory-bound
    /// contract behind the long-running streaming engine.
    fn transport_footprint(&self) -> TransportFootprint;

    /// Switches per-node telemetry tracing on or off, discarding any
    /// buffered entries. With tracing off (the default) the per-node
    /// cost is one resident bool test per would-be entry.
    fn set_tracing(&mut self, on: bool);

    /// Drains every node's buffered trace entries into `sink`, tagged
    /// with the node id and its spanning-tree parent (`None` at the
    /// root), in ascending node id order — the canonical drain order
    /// shared by both substrates (see [`crate::obs`]). The entries are
    /// handed over in place; draining allocates nothing.
    fn drain_trace(&mut self, sink: &mut dyn FnMut(NodeId, Option<NodeId>, NodeTraceEntry));

    /// Under [`Reliability::Ack`], the next transmission index of each
    /// fate stream of the tree edge above `node` (global id), in
    /// [`FateReplay`](crate::FateReplay)'s row order `[down data, up ack,
    /// up data, down ack]`: where a replay resumes to stay in step with
    /// this substrate's transport. All zero at the root.
    fn edge_fate_positions(&self, node: NodeId) -> [u64; 4];

    /// Node-layer framing bits (kind + varint wave ordinal) each non-ACK
    /// message of the **most recent** wave carried — what exact header
    /// accounting must bill per message ([`header_bits`] of that wave's
    /// ordinal: a property of the run, not a constant).
    fn last_header_bits(&self) -> u64;

    /// Frames transmitted during the **most recent** wave — requests,
    /// partials and, under ARQ, retransmissions and ACKs: the sum of
    /// every node's `tx_packets` growth over that wave, counted as the
    /// frames were billed rather than by summing N counters.
    fn last_wave_frames(&self) -> u64;
}

/// Executes [`WaveProtocol`] waves over a topology + spanning tree, event
/// by event in the discrete-event simulator — the [`WaveSubstrate`]
/// oracle.
#[derive(Debug)]
pub struct WaveRunner<P: WaveProtocol> {
    /// The protocol the runner was built with: each node runs a clone
    /// of it, whose side-state is folded back into it after every wave.
    proto: P,
    sim: Simulator<AggNode<P>>,
    root: NodeId,
    next_wave: u16,
    /// Frames the simulator transmitted during the most recent wave.
    last_wave_frames: u64,
    tree_height: u32,
    tree_max_degree: usize,
    /// The last item update's delta, reused by the next.
    item_delta: P::ItemDelta,
}

impl<P: WaveProtocol> WaveRunner<P> {
    /// Builds a runner from a topology, a spanning tree over it, the
    /// protocol configuration and per-node item vectors.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::ShapeMismatch`] if `items` does not have
    /// exactly one entry per node or the tree does not match the topology.
    pub fn new(
        topo: &Topology,
        cfg: SimConfig,
        tree: &SpanningTree,
        proto: P,
        items: Vec<Vec<P::Item>>,
        reliability: Reliability,
    ) -> Result<Self, ProtocolError> {
        if items.len() != topo.len() {
            return Err(ProtocolError::ShapeMismatch("items vector vs topology"));
        }
        tree.validate(topo)?;
        let mut items = items;
        let nodes: Vec<AggNode<P>> = (0..topo.len())
            .map(|v| {
                AggNode::new(
                    proto.clone(),
                    std::mem::take(&mut items[v]),
                    tree.parent(v),
                    tree.children(v).to_vec(),
                    reliability,
                )
            })
            .collect();
        Ok(WaveRunner {
            proto,
            sim: Simulator::with_nodes(topo.clone(), cfg, nodes),
            root: tree.root(),
            next_wave: 0,
            last_wave_frames: 0,
            tree_height: tree.height(),
            tree_max_degree: tree.max_degree(),
            item_delta: P::ItemDelta::default(),
        })
    }

    /// Virtual time elapsed so far.
    pub fn now(&self) -> saq_netsim::SimTime {
        self.sim.now()
    }
}

impl<P: WaveProtocol + Debug> WaveSubstrate<P> for WaveRunner<P> {
    fn name(&self) -> &'static str {
        "single"
    }

    fn protocol(&self) -> &P {
        &self.proto
    }

    fn run_wave(&mut self, req: P::Request) -> Result<P::Partial, ProtocolError> {
        // Wire-format bounds are enforced here, at the API boundary, in
        // release builds too — inside node handlers encoding is
        // infallible by construction (decoded inputs already passed the
        // mirror checks).
        self.proto
            .validate_request(&req)
            .map_err(ProtocolError::from)?;
        self.next_wave = self.next_wave.wrapping_add(1);
        let wave = self.next_wave;
        let root = self.root;
        {
            let node = self.sim.node_mut(root);
            node.staged = Some((wave, req));
            node.result = None;
        }
        let sent_before = self.sim.frames_transmitted();
        self.sim.kick(root, TAG_START);
        let run = self.sim.run_until_quiescent();
        self.last_wave_frames = self.sim.frames_transmitted() - sent_before;
        // Every node billed its own clone: fold them in id order, after
        // a failed wave too, so no bill waits into the next wave.
        for v in 0..self.sim.len() {
            self.proto.absorb_shard(&self.sim.node(v).proto);
        }
        run?;
        self.sim
            .node_mut(root)
            .result
            .take()
            .ok_or(ProtocolError::NoResult)
    }

    fn stats(&self) -> &NetStats {
        self.sim.stats()
    }

    fn reset_stats(&mut self) {
        self.sim.reset_stats();
    }

    fn len(&self) -> usize {
        self.sim.len()
    }

    fn tree_height(&self) -> u32 {
        self.tree_height
    }

    fn tree_max_degree(&self) -> usize {
        self.tree_max_degree
    }

    fn items(&self, node: NodeId) -> &[P::Item] {
        self.sim.node(node).items()
    }

    fn set_items(&mut self, node: NodeId, items: Vec<P::Item>) -> (u64, u64) {
        let n = self.sim.node_mut(node);
        let old = std::mem::replace(&mut n.items, items);
        if old == n.items {
            return (0, 0); // nothing observable changed: caches stay valid as-is
        }
        self.proto
            .item_delta(node, &old, &n.items, &mut self.item_delta);
        let (mut applied, mut invalidated) = (0, 0);
        let mut v = node;
        loop {
            let n = self.sim.node_mut(v);
            let (a, i) = n.delta_maintain_cache(&self.item_delta);
            applied += a;
            invalidated += i;
            match n.parent {
                Some(parent) => v = parent,
                None => break,
            }
        }
        (applied, invalidated)
    }

    fn enable_partial_cache(&mut self, capacity: usize) {
        for v in 0..self.sim.len() {
            self.sim.node_mut(v).cache = Some(PartialCache::new(capacity));
        }
    }

    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for v in 0..self.sim.len() {
            if let Some(cache) = &self.sim.node(v).cache {
                total.absorb(cache.stats());
            }
        }
        total
    }

    fn transport_footprint(&self) -> TransportFootprint {
        let mut fp = TransportFootprint::default();
        for v in 0..self.sim.len() {
            fp.absorb(self.sim.node(v).transport_footprint());
        }
        fp
    }

    fn set_tracing(&mut self, on: bool) {
        for v in 0..self.sim.len() {
            let n = self.sim.node_mut(v);
            n.trace_on = on;
            n.trace.clear();
        }
    }

    fn drain_trace(&mut self, sink: &mut dyn FnMut(NodeId, Option<NodeId>, NodeTraceEntry)) {
        for v in 0..self.sim.len() {
            let node = self.sim.node_mut(v);
            for entry in node.trace.drain(..) {
                sink(v, node.parent, entry);
            }
        }
    }

    fn edge_fate_positions(&self, node: NodeId) -> [u64; 4] {
        let Some(parent) = self.sim.node(node).parent else {
            return [0; 4];
        };
        let at = |src, dst, class| self.sim.fate_index(src, dst, class);
        [
            at(parent, node, FrameClass::Data),
            at(node, parent, FrameClass::Ack),
            at(node, parent, FrameClass::Data),
            at(parent, node, FrameClass::Ack),
        ]
    }

    fn last_header_bits(&self) -> u64 {
        header_bits(self.next_wave)
    }

    fn last_wave_frames(&self) -> u64 {
        self.last_wave_frames
    }
}

/// Per-sub-aggregate bit tallies of a [`MultiplexWave`] (transmit-side:
/// every delivered message is also received once, so the network-wide
/// tx+rx cost of a slot is twice its tally under lossless links).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxSlotBits {
    /// Bits this slot's sub-requests occupied in request envelopes.
    pub request_bits: u64,
    /// Bits this slot's sub-partials occupied in partial envelopes.
    pub partial_bits: u64,
}

impl MuxSlotBits {
    /// Request plus partial bits.
    pub fn total(&self) -> u64 {
        self.request_bits + self.partial_bits
    }
}

/// Transmit-side accounting for multiplexed waves: who pays for which bits
/// when several sub-aggregates share one envelope.
///
/// Aligned to 128 bytes (an adjacent-line prefetch pair) so that the
/// flat runner's per-group ledgers, which each group's worker adds to
/// at every node, never share a cache line with one another or with
/// anything else.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub struct MuxLedger {
    slots: Vec<MuxSlotBits>,
    /// Envelope framing bits (the slot-count prefix) not attributable to
    /// any single slot.
    envelope_bits: u64,
}

impl MuxLedger {
    /// Clears the tallies and sizes the ledger for `slots` sub-aggregates.
    pub fn reset(&mut self, slots: usize) {
        self.slots.clear();
        self.slots.resize(slots, MuxSlotBits::default());
        self.envelope_bits = 0;
    }

    /// Per-slot tallies since the last reset.
    pub fn slots(&self) -> &[MuxSlotBits] {
        &self.slots
    }

    /// Envelope framing bits since the last reset.
    pub fn envelope_bits(&self) -> u64 {
        self.envelope_bits
    }

    /// Adds another ledger's tallies into this one, slot-wise. This is
    /// the runners' fold: every node (boxed) or worker group (flat)
    /// accumulates into its own ledger during a wave, and the runner
    /// folds them back in a fixed order once it ends.
    pub fn absorb(&mut self, other: &MuxLedger) {
        for (i, s) in other.slots.iter().enumerate() {
            let m = self.slot_mut(i);
            m.request_bits += s.request_bits;
            m.partial_bits += s.partial_bits;
        }
        self.envelope_bits += other.envelope_bits;
    }

    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut MuxSlotBits {
        if i >= self.slots.len() {
            self.slots.resize(i + 1, MuxSlotBits::default());
        }
        &mut self.slots[i]
    }
}

/// One sub-request of a multiplexed envelope, tagged with the [`MuxLedger`]
/// slot it bills to.
///
/// The tag exists because envelopes can be **subset** mid-tree: a node
/// serving some slots from its subtree partial cache forwards only the
/// remainder to its children. Positional attribution would then bill the
/// wrong queries at deeper nodes, so every entry carries its original
/// slot explicitly (and on the wire, where a single "dense" flag bit
/// covers the common un-subset case — see
/// [`MultiplexWave::encode_request`] for the frame layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxEntry<R> {
    /// The ledger slot (position in the original batch) this
    /// sub-request's bits are attributed to.
    pub slot: u32,
    /// The inner protocol's sub-request. Its wire bits were captured
    /// when the entry was made: build a new entry rather than edit it.
    pub req: R,
    /// The sub-request's exact wire bits, captured when the entry is
    /// made — encoded by [`MuxEntry::new`], read off the frame by
    /// [`MultiplexWave::decode_request`]. Every encode of the envelope
    /// re-emits them as a word-level bit copy, every width is their
    /// length and every slot key is lent from them, so no sub-request
    /// is encoded twice.
    raw: BitString,
    /// The [`RowKernel`] the sub-request's partial rides in on a flat
    /// wave ([`WaveProtocol::row_kernel`] of the inner protocol),
    /// resolved with the raw bits: the multiplexer folds, merges and
    /// measures a row slot through it and never asks the inner protocol
    /// again.
    row: Option<RowKernel>,
}

impl<R> MuxEntry<R> {
    /// An entry billing `slot`, with `req`'s wire bits encoded by
    /// `inner` — the deployment's codec, so that they are the bits
    /// every node of the deployment would write — and its row kernel
    /// resolved by it.
    pub fn new<P: WaveProtocol<Request = R>>(inner: &P, slot: u32, req: R) -> Self {
        let mut w = BitWriter::new();
        inner.encode_request(&req, &mut w);
        MuxEntry {
            slot,
            row: inner.row_kernel(&req, 0),
            req,
            raw: w.finish(),
        }
    }
}

/// The multiplexed frame format: one request/partial envelope carrying `N`
/// independent sub-aggregates of an inner [`WaveProtocol`].
///
/// A request is a vector of slot-tagged sub-requests ([`MuxEntry`]) and a
/// partial a parallel vector of sub-partials; position `i` of every
/// partial answers position `i` of the request. Encodings are the inner
/// protocol's, prefixed by a gamma-coded slot count, so `k` queries
/// batched into one wave share a single per-message header instead of
/// paying `k` of them — the saving experiment E12 in `saq-bench`
/// measures.
///
/// Every transmitted bit is attributed in a [`MuxLedger`]:
/// sub-request and sub-partial bits to their entry's declared slot, the
/// count prefix, dense flag and any explicit slot tags to
/// [`MuxLedger::envelope_bits`]. Requests and partials are billed as a
/// runner sends them ([`WaveProtocol::note_request_copies`],
/// [`WaveProtocol::partial_width`]), so encoding either is pure. Every instance bills a ledger of its own, and a clone starts
/// with an empty one. A runner runs clones — the boxed runner one per
/// node, the flat runner one per worker group, whose one worker bills
/// it without a lock — and after every wave folds them, in a fixed
/// order, into the protocol it was built with
/// ([`WaveProtocol::absorb_shard`]; read through
/// [`WaveSubstrate::protocol`]), so that ledger then holds the wave's
/// exact transmit-side cost split: tallies are sums.
/// Tallies are exact under [`Reliability::None`]. Under ARQ each logical
/// message is charged **once** — retransmissions resend the cached
/// payload unbilled, and ACK frames are never attributed — so per-slot
/// tallies under loss are a lower bound on wire bits.
///
/// With subtree partial caching enabled (see [`crate::cache`]) each
/// entry is an independently cacheable slot: nodes answer cached
/// sub-requests locally and forward reduced envelopes carrying only the
/// misses, with the slot tags keeping attribution honest at every depth.
///
/// On a flat wave an entry whose inner partial is fixed-width — the
/// inner protocol names its [`RowKernel`] ([`WaveProtocol::row_kernel`],
/// resolved once, when the entry is made) — rides in the node's row of
/// words instead of in the partial `Vec` (see [`crate::row`]): the
/// multiplexer folds each such entry through the inner protocol
/// ([`WaveProtocol::fill_row`]), measures and bills it through its
/// kernel ([`WaveProtocol::row_width`]) and never asks the inner
/// protocol which aggregate answers it again. The partial `Vec` then
/// holds the other entries alone, in order (the *rest form*, told
/// apart from the full form by its length), and
/// [`WaveProtocol::row_partial`] inserts the row entries' partials back
/// at their positions. The boxed runner never keeps a row: its partials
/// are always in full form.
#[derive(Debug)]
pub struct MultiplexWave<P: WaveProtocol> {
    inner: P,
    /// This instance's own ledger, on 128-byte blocks of its own
    /// ([`MuxLedger`] is aligned to them), so worker groups billing
    /// theirs never write to one cache line.
    ledger: std::cell::RefCell<MuxLedger>,
}

impl<P: WaveProtocol> Clone for MultiplexWave<P> {
    /// The same configuration, billing an empty ledger of its own.
    fn clone(&self) -> Self {
        MultiplexWave::new(self.inner.clone())
    }
}

impl<P: WaveProtocol> MultiplexWave<P> {
    /// Wraps an inner protocol.
    pub fn new(inner: P) -> Self {
        MultiplexWave {
            inner,
            ledger: Default::default(),
        }
    }

    /// The inner protocol configuration.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Borrows this instance's ledger, to reset or read it.
    ///
    /// # Panics
    ///
    /// Panics while another borrow from `ledger_mut` is alive.
    pub fn ledger_mut(&self) -> std::cell::RefMut<'_, MuxLedger> {
        self.ledger.borrow_mut()
    }

    /// Builds the dense envelope billing sub-request `i` to ledger slot
    /// `i`, encoded by the deployment's `inner` codec — the form every
    /// root-issued batch starts in.
    pub fn envelope(inner: &P, reqs: Vec<P::Request>) -> Vec<MuxEntry<P::Request>> {
        reqs.into_iter()
            .enumerate()
            .map(|(i, req)| MuxEntry::new(inner, i as u32, req))
            .collect()
    }

    /// Width, in bits, of `req`'s request encoding — its framing plus
    /// every sub-request's captured width, in closed form: what
    /// [`WaveProtocol::note_request_copies`] bills per copy.
    pub fn request_width(req: &[MuxEntry<P::Request>]) -> u64 {
        Self::framing_bits(req) + req.iter().map(|e| e.raw.len_bits()).sum::<u64>()
    }

    /// The envelope's own bits: gamma slot count, dense flag and, in a
    /// sparse envelope, each entry's gamma slot tag.
    fn framing_bits(req: &[MuxEntry<P::Request>]) -> u64 {
        let tags: u64 = if is_dense(req) {
            0
        } else {
            req.iter().map(|e| gamma_len(e.slot as u64 + 1)).sum()
        };
        gamma_len(req.len() as u64 + 1) + 1 + tags
    }
}

/// Whether entry `i` of `req` bills slot `i` — the un-subset envelope
/// a root issues, framed without slot tags.
fn is_dense<R>(req: &[MuxEntry<R>]) -> bool {
    req.iter().enumerate().all(|(i, e)| e.slot as usize == i)
}

/// Whether a partial of `len` sub-partials aligned with `req` is in
/// **rest form** — one sub-partial per entry without a row kernel, a
/// flat wave's accumulator whose row slots sit in a row of words —
/// rather than in full form, one per entry. The two lengths differ
/// exactly when `req` has a row slot, so the length tells them apart;
/// any other length does not align.
fn rest_form<R>(req: &[MuxEntry<R>], len: usize) -> Result<bool, NetsimError> {
    if len == req.len() {
        Ok(false)
    } else if req.iter().filter(|e| e.row.is_none()).count() == len {
        Ok(true)
    } else {
        Err(NetsimError::WireDecode(
            "mux partial does not align with its request",
        ))
    }
}

/// The entries a partial aligned with `req` holds a sub-partial for, in
/// order: all of them, or in rest form those without a row kernel.
fn held<R>(req: &[MuxEntry<R>], rest: bool) -> impl Iterator<Item = &MuxEntry<R>> {
    req.iter().filter(move |e| !rest || e.row.is_none())
}

/// Exclusive bound on multiplexed slot counts and slot tags: the slot
/// space is 16-bit, so `slot < MUX_MAX_SLOTS` and `len < MUX_MAX_SLOTS`.
/// Enforced on decode (a malformed frame cannot force an allocation
/// storm) and, via [`WaveProtocol::validate_request`], on the encode
/// side at the API boundary — in release builds too.
pub const MUX_MAX_SLOTS: u64 = 1 << 16;

impl<P: WaveProtocol> WaveProtocol for MultiplexWave<P> {
    type Request = Vec<MuxEntry<P::Request>>;
    type Partial = Vec<P::Partial>;
    type Item = P::Item;
    type ItemDelta = P::ItemDelta;
    type DeltaKey = P::DeltaKey;

    /// Frame layout: gamma slot count, a 1-bit *dense* flag (set when
    /// entry `i` bills slot `i`, the un-subset common case), then per
    /// entry an optional gamma slot tag (sparse envelopes only) followed
    /// by the inner sub-request — its captured bits, copied word by
    /// word. Bills nothing: see
    /// [`note_request_copies`](Self::note_request_copies).
    fn encode_request(&self, req: &Self::Request, w: &mut BitWriter) {
        let dense = is_dense(req);
        w.write_gamma(req.len() as u64 + 1);
        w.write_bits(dense as u64, 1);
        for entry in req {
            // Out-of-range slots are rejected by `validate_request` at
            // the root before any frame is sent; this is a backstop.
            debug_assert!((entry.slot as u64) < MUX_MAX_SLOTS, "mux slot out of range");
            if !dense {
                w.write_gamma(entry.slot as u64 + 1);
            }
            w.write_bitstring(&entry.raw);
        }
    }

    /// Bills `copies` transmissions of `req`'s encoding without encoding
    /// it: the count, flag and tags to the envelope (gamma widths, in
    /// closed form), each sub-request's captured width to its slot.
    fn note_request_copies(&self, req: &Self::Request, copies: u64) {
        if copies == 0 {
            return;
        }
        let mut ledger = self.ledger_mut();
        for entry in req {
            ledger.slot_mut(entry.slot as usize).request_bits += entry.raw.len_bits() * copies;
        }
        ledger.envelope_bits += Self::framing_bits(req) * copies;
    }

    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<Self::Request, NetsimError> {
        let n = r.read_gamma()? - 1;
        if n >= MUX_MAX_SLOTS {
            return Err(NetsimError::WireDecode("mux slot count out of range"));
        }
        let dense = r.read_bits(1)? == 1;
        (0..n)
            .map(|i| {
                let slot = if dense { i } else { r.read_gamma()? - 1 };
                if slot >= MUX_MAX_SLOTS {
                    return Err(NetsimError::WireDecode("mux slot tag out of range"));
                }
                // Decode the sub-request, then capture the exact bit
                // range it occupied: by the request law these are the
                // bits `MuxEntry::new` would have encoded.
                let before = r.remaining();
                let req = self.inner.decode_request(r)?;
                let used = before - r.remaining();
                r.rewind(used)?;
                let raw = r.read_bitstring(used)?;
                // In per-thread scratch, so the check does not put an
                // allocation on every decode (the allocation gates run
                // in debug too).
                #[cfg(debug_assertions)]
                encode_scratch(
                    |w| self.inner.encode_request(&req, w),
                    |chk| {
                        debug_assert_eq!(*chk, raw, "captured slot bits must equal the re-encoding")
                    },
                );
                Ok(MuxEntry {
                    slot: slot as u32,
                    row: self.inner.row_kernel(&req, 0),
                    req,
                    raw,
                })
            })
            .collect()
    }

    /// The sub-partials back to back, with no framing: the request is
    /// the schema. Bills nothing: see
    /// [`partial_width`](Self::partial_width). A rest-form partial (see
    /// [`fill_row`](Self::fill_row)) encodes the slots it holds.
    fn encode_partial(&self, req: &Self::Request, p: &Self::Partial, w: &mut BitWriter) {
        let rest = rest_form(req, p.len());
        debug_assert!(rest.is_ok(), "mux partial must align with request");
        for (entry, sub) in held(req, rest.unwrap_or(false)).zip(p.iter()) {
            self.inner.encode_partial(&entry.req, sub, w);
        }
    }

    /// Every sub-partial's width ([`WaveProtocol::partial_width`] of the
    /// inner protocol), billed to its entry's ledger slot — in rest form
    /// the slots outside the row, which
    /// [`row_width`](Self::row_width) bills.
    fn partial_width(&self, req: &Self::Request, p: &Self::Partial) -> u64 {
        let rest = rest_form(req, p.len());
        debug_assert!(rest.is_ok(), "mux partial must align with request");
        let mut ledger = self.ledger_mut();
        held(req, rest.unwrap_or(false))
            .zip(p.iter())
            .map(|(entry, sub)| {
                let bits = self.inner.partial_width(&entry.req, sub);
                ledger.slot_mut(entry.slot as usize).partial_bits += bits;
                bits
            })
            .sum()
    }

    fn decode_partial(
        &self,
        req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<Self::Partial, NetsimError> {
        req.iter()
            .map(|entry| self.inner.decode_partial(&entry.req, r))
            .collect()
    }

    fn local(&self, node: NodeId, items: &mut [Self::Item], req: &Self::Request) -> Self::Partial {
        req.iter()
            .map(|entry| self.inner.local(node, items, &entry.req))
            .collect()
    }

    fn release_partial(&self, p: &mut Self::Partial) {
        p.clear();
    }

    /// One pass over the slots: the child's sub-partial `i` is merged
    /// into `acc[i]` where it lies ([`WaveProtocol::absorb_partial`] of
    /// the inner protocol), `first_of` passed on to every slot. Both may
    /// be in rest form (a flat wave's, see [`fill_row`](Self::fill_row)),
    /// alike. An accumulator or child that aligns with `req` in neither
    /// form, or not in the same one, is an error, not a panic or a
    /// partial merge.
    fn absorb_partial(
        &self,
        req: &Self::Request,
        acc: &mut Self::Partial,
        child: &Self::Partial,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        let rest = rest_form(req, acc.len())?;
        if child.len() != acc.len() {
            return Err(NetsimError::WireDecode(
                "mux partial does not align with its request",
            ));
        }
        for ((entry, sub), part) in held(req, rest).zip(acc).zip(child) {
            self.inner.absorb_partial(&entry.req, sub, part, first_of)?;
        }
        Ok(())
    }

    /// `part[j]` merged into slot `i` of `acc` alone — `acc[i]`, or in
    /// rest form the sub-partial slot `i` holds there; a misaligned
    /// accumulator, a row slot of a rest-form one or a slot out of range
    /// is an error.
    fn absorb_slot(
        &self,
        req: &Self::Request,
        acc: &mut Self::Partial,
        i: usize,
        part: &Self::Partial,
        j: usize,
        first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        let at = match rest_form(req, acc.len()) {
            Ok(false) => Some(i),
            Ok(true) => req
                .get(i)
                .filter(|e| e.row.is_none())
                .map(|_| held(&req[..i], true).count()),
            Err(_) => None,
        };
        match (req.get(i), at.and_then(|k| acc.get_mut(k)), part.get(j)) {
            (Some(entry), Some(sub), Some(part)) => {
                self.inner.absorb_partial(&entry.req, sub, part, first_of)
            }
            _ => Err(NetsimError::WireDecode(
                "mux slot does not align with its request",
            )),
        }
    }

    // --- fixed-width slots: each entry's row kernel, resolved once ---

    /// Entry `i`'s kernel, resolved when the entry was made.
    fn row_kernel(&self, req: &Self::Request, i: usize) -> Option<RowKernel> {
        req.get(i).and_then(|e| e.row)
    }

    /// A node's local step in entry order — so a rescaling slot
    /// rescales the items every later slot sees, as in
    /// [`local`](WaveProtocol::local) — with each row slot folded into
    /// its words by the inner protocol and every other slot's
    /// [`local`](WaveProtocol::local) pushed onto the lent accumulator,
    /// cleared first (or onto a new one), sized for those slots alone. A
    /// slot of a partial converts through the inner protocol.
    fn fill_row(
        &self,
        req: &Self::Request,
        src: RowSource<'_, Self>,
        row: &mut [u64],
    ) -> Result<(), NetsimError> {
        match src {
            RowSource::Local { node, items, rest } => {
                let others = || held(req, true).count();
                if let Some(out) = rest.as_mut() {
                    out.clear();
                    out.reserve(others());
                }
                let (mut off, mut none) = (0, None);
                for entry in req {
                    match entry.row {
                        Some(k) => {
                            let local = RowSource::Local {
                                node,
                                items: &mut *items,
                                rest: &mut none,
                            };
                            let words = &mut row[off..off + k.words()];
                            self.inner.fill_row(&entry.req, local, words)?;
                            off += k.words();
                        }
                        None => rest
                            .get_or_insert_with(|| Vec::with_capacity(others()))
                            .push(self.inner.local(node, items, &entry.req)),
                    }
                }
                Ok(())
            }
            RowSource::Slot { i, partial, j } => match (req.get(i), partial.get(j)) {
                (Some(entry), Some(part)) => {
                    let slot = RowSource::Slot {
                        i: 0,
                        partial: part,
                        j: 0,
                    };
                    self.inner.fill_row(&entry.req, slot, row)
                }
                _ => Err(NetsimError::WireDecode(
                    "mux slot does not align with its request",
                )),
            },
        }
    }

    /// Each row slot's [`RowKernel::width`], billed to its entry's
    /// ledger slot. In debug builds each slot is also converted
    /// ([`row_partial`](WaveProtocol::row_partial) of the inner
    /// protocol) and encoded in per-thread scratch, and the width law
    /// checked: a runner bills a row slot by this width alone.
    fn row_width(&self, req: &Self::Request, row: &[u64]) -> u64 {
        let mut ledger = self.ledger_mut();
        let mut off = 0;
        let mut total = 0;
        for entry in req {
            let Some(k) = entry.row else { continue };
            let words = &row[off..off + k.words()];
            off += k.words();
            let bits = k.width(words);
            #[cfg(debug_assertions)]
            {
                let part = self.inner.row_partial(&entry.req, &mut None, words);
                encode_scratch(
                    |w| self.inner.encode_partial(&entry.req, &part, w),
                    |frame| debug_assert_eq!(frame.len_bits(), bits, "the width law of a row slot"),
                );
            }
            ledger.slot_mut(entry.slot as usize).partial_bits += bits;
            total += bits;
        }
        total
    }

    /// The full form in a new `Vec`: each row slot's partial
    /// ([`row_partial`](WaveProtocol::row_partial) of the inner
    /// protocol) at its entry's position, the others moved out of
    /// `rest` — which keeps its buffer, emptied, for reuse. A request
    /// without a row slot takes `rest` whole.
    fn row_partial(
        &self,
        req: &Self::Request,
        rest: &mut Option<Self::Partial>,
        row: &[u64],
    ) -> Self::Partial {
        if rest.as_ref().map_or(0, Vec::len) == req.len() {
            return rest.take().unwrap_or_default(); // no row slot
        }
        let mut out = Vec::with_capacity(req.len());
        let mut others = rest.iter_mut().flat_map(|v| v.drain(..));
        let mut off = 0;
        for entry in req {
            match entry.row {
                Some(k) => {
                    let words = &row[off..off + k.words()];
                    out.push(self.inner.row_partial(&entry.req, &mut None, words));
                    off += k.words();
                }
                None => out.extend(others.next()),
            }
        }
        debug_assert_eq!(out.len(), req.len(), "mux partial must align with request");
        out
    }

    // --- subtree partial caching: every entry is one cacheable slot ---

    fn invalidates_cache(&self, req: &Self::Request) -> bool {
        req.iter()
            .any(|entry| self.inner.invalidates_cache(&entry.req))
    }

    /// A slot's key is its sub-request's wire bits, lent from the
    /// entry's captured bits.
    fn for_each_slot_key(&self, req: &Self::Request, f: &mut dyn FnMut(usize, Option<&CacheKey>)) {
        for (i, entry) in req.iter().enumerate() {
            f(i, self.inner.cacheable(&entry.req).then_some(&entry.raw));
        }
    }

    /// Slot `i`'s inner width, billed to its entry's ledger slot just
    /// as [`partial_width`](WaveProtocol::partial_width) bills it. In
    /// debug builds the slot is also encoded (in per-thread scratch) and
    /// the width law checked: a runner bills a cached slot by this width
    /// alone.
    fn slot_width(&self, req: &Self::Request, i: usize, part: &Self::Partial) -> u64 {
        debug_assert_eq!(part.len(), 1, "a cached mux partial holds one slot");
        let entry = &req[i];
        let bits = self.inner.partial_width(&entry.req, &part[0]);
        #[cfg(debug_assertions)]
        encode_scratch(
            |w| self.inner.encode_partial(&entry.req, &part[0], w),
            |frame| debug_assert_eq!(frame.len_bits(), bits, "the width law"),
        );
        self.ledger_mut().slot_mut(entry.slot as usize).partial_bits += bits;
        bits
    }

    fn subset_request(&self, req: &Self::Request, keep: &[usize]) -> Self::Request {
        keep.iter().map(|&i| req[i].clone()).collect()
    }

    fn split_slots(&self, p: Self::Partial, f: &mut dyn FnMut(usize, Self::Partial)) {
        for (i, sub) in p.into_iter().enumerate() {
            f(i, vec![sub]);
        }
    }

    fn slot_partial(&self, _req: &Self::Request, p: &Self::Partial, i: usize) -> Self::Partial {
        vec![p[i].clone()]
    }

    fn join_slots(&self, _req: &Self::Request, slots: Vec<Self::Partial>) -> Self::Partial {
        slots.into_iter().flatten().collect()
    }

    fn shrink_partial(&self, p: &mut Self::Partial) {
        for sub in p {
            self.inner.shrink_partial(sub);
        }
    }

    /// Cached multiplex entries are single-slot partials keyed by the
    /// **inner** sub-request encoding (see `for_each_slot_key` above), so
    /// keys parse and deltas dispatch straight to the inner protocol.
    fn delta_key(&self, key: &CacheKey) -> Option<Self::DeltaKey> {
        self.inner.delta_key(key)
    }

    fn item_delta(
        &self,
        origin: NodeId,
        old_items: &[Self::Item],
        new_items: &[Self::Item],
        delta: &mut Self::ItemDelta,
    ) {
        self.inner.item_delta(origin, old_items, new_items, delta);
    }

    fn apply_item_delta(
        &self,
        key: &Self::DeltaKey,
        partial: &mut Self::Partial,
        delta: &Self::ItemDelta,
    ) -> bool {
        match partial.as_mut_slice() {
            [sub] => self.inner.apply_item_delta(key, sub, delta),
            _ => false, // only single-slot shapes are ever cached
        }
    }

    // --- request admission and worker groups --------------------------

    /// Rejects envelopes that exceed the 16-bit slot space (count or any
    /// slot tag `≥` [`MUX_MAX_SLOTS`]) with a real error — the release
    /// build's counterpart of the encode-side `debug_assert`.
    fn validate_request(&self, req: &Self::Request) -> Result<(), NetsimError> {
        if req.len() as u64 >= MUX_MAX_SLOTS {
            return Err(NetsimError::WireEncode("mux slot count out of range"));
        }
        for entry in req {
            if entry.slot as u64 >= MUX_MAX_SLOTS {
                return Err(NetsimError::WireEncode("mux slot tag out of range"));
            }
            self.inner.validate_request(&entry.req)?;
        }
        Ok(())
    }

    /// Drains the clone's ledger into this one — slot tallies and
    /// envelope bits add, so the merged ledger equals what a single
    /// instance billing every frame would have accumulated. The clone
    /// keeps its emptied slot buffer for the next wave. A ledger
    /// borrowed already (`shard` is `self`) has nothing to move.
    fn absorb_shard(&self, shard: &Self) {
        let mut ledger = self.ledger_mut();
        if let Ok(mut theirs) = shard.ledger.try_borrow_mut() {
            ledger.absorb(&theirs);
            theirs.reset(0);
        }
        self.inner.absorb_shard(&shard.inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_protocols::SumBelow;
    use saq_netsim::link::LinkConfig;
    use saq_netsim::wire::width_for_max;

    fn runner_on(
        topo: Topology,
        items: Vec<Vec<u64>>,
        cfg: SimConfig,
        reliability: Reliability,
    ) -> WaveRunner<SumBelow> {
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        WaveRunner::new(
            &topo,
            cfg,
            &tree,
            SumBelow {
                value_width: width_for_max(1000),
            },
            items,
            reliability,
        )
        .unwrap()
    }

    #[test]
    fn absorb_shard_drains_the_group_ledger_in_place() {
        let root = MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        });
        let group = root.clone();
        root.note_request_copies(&MultiplexWave::envelope(root.inner(), vec![5]), 1);
        let sparse = vec![
            MuxEntry::new(root.inner(), 0, 7),
            MuxEntry::new(root.inner(), 2, 9),
        ];
        group.note_request_copies(&sparse, 1);
        assert_eq!(group.partial_width(&sparse, &vec![3, 4]), 64);
        let before = root.ledger_mut().clone();
        let added = group.ledger_mut().clone();
        assert_eq!(added.slots().len(), 3);
        assert!(added.envelope_bits() > 0);

        root.absorb_shard(&group);
        let mut expected = before;
        expected.absorb(&added);
        let merged = root.ledger_mut().clone();
        assert_eq!(merged.slots(), expected.slots());
        assert_eq!(merged.envelope_bits(), expected.envelope_bits());
        let drained = group.ledger_mut();
        assert!(drained.slots().is_empty());
        assert_eq!(drained.envelope_bits(), 0);
        assert!(
            drained.slots.capacity() >= 3,
            "the group keeps its slot buffer for the next wave"
        );
        drop(drained);

        // A fresh clone has billed nothing: absorbing it moves nothing.
        root.absorb_shard(&root.clone());
        assert_eq!(root.ledger_mut().slots(), merged.slots());
        assert_eq!(root.ledger_mut().envelope_bits(), merged.envelope_bits());
    }

    #[test]
    fn a_clone_bills_an_empty_ledger_of_its_own() {
        let root = MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        });
        let req = MultiplexWave::envelope(root.inner(), vec![5]);
        root.note_request_copies(&req, 3);
        let clones: Vec<_> = (0..4).map(|_| root.clone()).collect();
        // Each ledger fills 128-byte blocks of its own.
        assert_eq!(
            std::mem::size_of::<std::cell::RefCell<MuxLedger>>() % 128,
            0
        );
        let mut blocks: Vec<usize> = std::iter::once(&root)
            .chain(&clones)
            .map(|c| {
                let addr = &c.ledger as *const std::cell::RefCell<MuxLedger> as usize;
                assert_eq!(addr % 128, 0, "ledger at {addr:#x} is not 128-aligned");
                addr / 128
            })
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), 5, "two ledgers share a 128-byte block");
        assert!(clones.iter().all(|c| c.ledger_mut().slots().is_empty()));
        clones[0].note_request_copies(&req, 1);
        assert_eq!(root.ledger_mut().slots()[0].request_bits, 30);
        assert!(clones[1].ledger_mut().slots().is_empty());
        // A clone of a clone starts empty too.
        let copy = clones[0].clone();
        copy.note_request_copies(&req, 2);
        assert_eq!(clones[0].ledger_mut().slots()[0].request_bits, 10);
        assert_eq!(copy.ledger_mut().slots()[0].request_bits, 20);
        for c in clones.iter().chain([&copy]) {
            root.absorb_shard(c);
        }
        assert_eq!(root.ledger_mut().slots()[0].request_bits, 60);
    }

    #[test]
    fn single_wave_sums_correctly() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let mut r = runner_on(topo, items, SimConfig::default(), Reliability::None);
        let sum = r.run_wave(1000).unwrap();
        assert_eq!(sum, (0..16).sum::<u64>());
        let below8 = r.run_wave(8).unwrap();
        assert_eq!(below8, (0..8).sum::<u64>());
    }

    #[test]
    fn multiple_items_per_node() {
        let topo = Topology::line(3).unwrap();
        let items = vec![vec![1, 2, 3], vec![], vec![10, 20]];
        let mut r = runner_on(topo, items, SimConfig::default(), Reliability::None);
        assert_eq!(r.run_wave(1000).unwrap(), 36);
        assert_eq!(r.run_wave(10).unwrap(), 6);
    }

    #[test]
    fn singleton_network_no_communication() {
        let topo = Topology::line(1).unwrap();
        let mut r = runner_on(topo, vec![vec![7]], SimConfig::default(), Reliability::None);
        assert_eq!(r.run_wave(100).unwrap(), 7);
        assert_eq!(r.stats().max_node_bits(), 0);
    }

    #[test]
    fn wave_bits_accounted_per_node() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut r = runner_on(topo, items, SimConfig::default(), Reliability::None);
        r.run_wave(1000).unwrap();
        // Line 0-1-2-3, wave 1 (its varint ordinal rides in 8 bits): request goes down 3 hops (2+8+10 = 20 bits each),
        // partials up 3 hops (2+8+32 = 42 bits each).
        let req_bits = 2 + 8 + width_for_max(1000) as u64;
        let part_bits = 2 + 8 + 32;
        // Node 0: tx request, rx partial.
        assert_eq!(r.stats().node(0).tx_bits, req_bits);
        assert_eq!(r.stats().node(0).rx_bits, part_bits);
        // Node 3 (leaf): rx request, tx partial.
        assert_eq!(r.stats().node(3).tx_bits, part_bits);
        assert_eq!(r.stats().node(3).rx_bits, req_bits);
        // Middle nodes do all four.
        assert_eq!(r.stats().node(1).total_bits(), 2 * (req_bits + part_bits));
    }

    #[test]
    fn sequential_waves_accumulate_stats() {
        let topo = Topology::grid(3, 3).unwrap();
        let items: Vec<Vec<u64>> = (0..9).map(|i| vec![i as u64]).collect();
        let mut r = runner_on(topo, items, SimConfig::default(), Reliability::None);
        r.run_wave(1000).unwrap();
        let after_one = r.stats().max_node_bits();
        r.run_wave(1000).unwrap();
        assert_eq!(r.stats().max_node_bits(), 2 * after_one);
        r.reset_stats();
        assert_eq!(r.stats().max_node_bits(), 0);
        // Waves still work after a stats reset.
        assert_eq!(r.run_wave(1000).unwrap(), 36);
    }

    #[test]
    fn loss_without_reliability_yields_no_result() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(1.0))
            .with_seed(1);
        let mut r = runner_on(topo, items, cfg, Reliability::None);
        assert!(matches!(r.run_wave(1000), Err(ProtocolError::NoResult)));
    }

    #[test]
    fn ack_mode_survives_heavy_loss() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(0.4))
            .with_seed(3);
        let mut r = runner_on(
            topo,
            items,
            cfg,
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
    }

    #[test]
    fn transport_footprint_is_empty_between_waves_even_under_arq() {
        // The streaming engine's bounded-memory contract: whatever a
        // wave accumulates in dedup sets, retransmit buffers and merge
        // buffers is gone by the time the wave completes — repeating
        // waves must not grow the footprint.
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(0.3).with_duplication(0.3))
            .with_seed(5);
        let mut r = runner_on(
            topo,
            items,
            cfg,
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        assert_eq!(r.transport_footprint(), TransportFootprint::default());
        // Per-node residual bound: entries from frames that straggled in
        // after the node completed its wave — at most one per child
        // retransmission plus the parent's request/late ACK window.
        let residual_bound = (r.len() * 5) as u64;
        for _ in 0..5 {
            assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
            let fp = r.transport_footprint();
            assert!(
                fp.dedup_entries <= residual_bound,
                "dedup residue {} exceeds one wave's traffic bound {residual_bound}",
                fp.dedup_entries
            );
            assert_eq!(fp.pending_frames, 0, "all frames ACKed at quiescence");
            assert_eq!(fp.buffered_partials, 0, "merge buffers drained");
        }
    }

    #[test]
    fn ack_mode_correct_under_duplication() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_duplication(0.5))
            .with_seed(9);
        let mut r = runner_on(
            topo,
            items,
            cfg,
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        // Duplicated partials must not be double-merged.
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
    }

    #[test]
    fn duplication_without_acks_still_correct_on_tree() {
        // Tree convergecast dedups by child identity, so COUNT-style
        // aggregates survive duplication here (contrast: rings overlay).
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_duplication(0.7))
            .with_seed(11);
        let mut r = runner_on(topo, items, cfg, Reliability::None);
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
    }

    #[test]
    fn item_mutation_waves() {
        /// A protocol whose waves double every item and report the count.
        #[derive(Debug, Clone)]
        struct Doubler;
        impl WaveProtocol for Doubler {
            type Request = ();
            type Partial = u64;
            type Item = u64;
            type ItemDelta = ();
            type DeltaKey = ();
            fn encode_request(&self, _req: &(), _w: &mut BitWriter) {}
            fn decode_request(&self, _r: &mut BitReader<'_>) -> Result<(), NetsimError> {
                Ok(())
            }
            fn encode_partial(&self, _req: &(), p: &u64, w: &mut BitWriter) {
                w.write_bits(*p, 16);
            }
            fn decode_partial(&self, _req: &(), r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
                r.read_bits(16)
            }
            fn local(&self, _node: NodeId, items: &mut [u64], _req: &()) -> u64 {
                for x in items.iter_mut() {
                    *x *= 2;
                }
                items.len() as u64
            }
            fn absorb_partial(
                &self,
                _req: &(),
                acc: &mut u64,
                child: &u64,
                _first_of: Option<usize>,
            ) -> Result<(), NetsimError> {
                *acc += child;
                Ok(())
            }
        }
        let topo = Topology::line(3).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let mut r = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            Doubler,
            vec![vec![1], vec![2], vec![3]],
            Reliability::None,
        )
        .unwrap();
        assert_eq!(r.run_wave(()).unwrap(), 3);
        assert_eq!(r.items(0), &[2]);
        assert_eq!(r.items(2), &[6]);
        r.run_wave(()).unwrap();
        assert_eq!(r.items(2), &[12]);
    }

    fn env(reqs: Vec<u64>) -> Vec<MuxEntry<u64>> {
        let inner = SumBelow {
            value_width: width_for_max(1000),
        };
        MultiplexWave::envelope(&inner, reqs)
    }

    fn mux_runner_on(topo: Topology, items: Vec<Vec<u64>>) -> WaveRunner<MultiplexWave<SumBelow>> {
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            MultiplexWave::new(SumBelow {
                value_width: width_for_max(1000),
            }),
            items,
            Reliability::None,
        )
        .unwrap()
    }

    #[test]
    fn mux_wave_answers_all_slots() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let mut r = mux_runner_on(topo, items);
        let out = r.run_wave(env(vec![1000, 8, 4])).unwrap();
        assert_eq!(
            out,
            vec![
                (0..16).sum::<u64>(),
                (0..8).sum::<u64>(),
                (0..4).sum::<u64>()
            ]
        );
    }

    #[test]
    fn mux_singleton_matches_plain_protocol() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut plain = runner_on(
            topo.clone(),
            items.clone(),
            SimConfig::default(),
            Reliability::None,
        );
        let mut mux = mux_runner_on(topo, items);
        assert_eq!(plain.run_wave(1000).unwrap(), 6);
        assert_eq!(mux.run_wave(env(vec![1000])).unwrap(), vec![6]);
        // Envelope overhead: gamma(2) = 3 bits plus the dense-slot flag
        // bit per request message; the partial envelope is countless (the
        // slot count is implied by the request both endpoints already
        // hold).
        let plain_bits = plain.stats().node(0).tx_bits + plain.stats().node(0).rx_bits;
        let mux_bits = mux.stats().node(0).tx_bits + mux.stats().node(0).rx_bits;
        assert_eq!(mux_bits, plain_bits + 4);
    }

    #[test]
    fn mux_batching_cheaper_than_sequential_waves() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let mut seq = mux_runner_on(topo.clone(), items.clone());
        seq.run_wave(env(vec![1000])).unwrap();
        seq.run_wave(env(vec![8])).unwrap();
        seq.run_wave(env(vec![4])).unwrap();
        let mut batched = mux_runner_on(topo, items);
        batched.run_wave(env(vec![1000, 8, 4])).unwrap();
        assert!(
            batched.stats().max_node_bits() < seq.stats().max_node_bits(),
            "batched {} !< sequential {}",
            batched.stats().max_node_bits(),
            seq.stats().max_node_bits()
        );
    }

    #[test]
    fn mux_ledger_attributes_all_bits() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut r = mux_runner_on(topo.clone(), items.clone());
        let mut r2 = mux_runner_on(topo, items);
        r2.protocol().ledger_mut().reset(2);
        r2.run_wave(env(vec![1000, 8])).unwrap();
        let led = r2.protocol().ledger_mut();
        // Wave headers (kind + varint wave id) are charged by the node
        // layer, not the protocol encoding: ledger totals must equal tx
        // bits minus per-message headers. Line of 4 nodes: 3 request
        // transmissions + 3 partial transmissions, all in wave 1.
        let attributed: u64 =
            led.slots().iter().map(|s| s.total()).sum::<u64>() + led.envelope_bits();
        let tx_total: u64 = (0..4).map(|v| r2.stats().node(v).tx_bits).sum();
        assert_eq!(attributed + 6 * header_bits(1), tx_total);
        assert!(led.slots()[0].request_bits > 0);
        assert!(led.slots()[1].partial_bits > 0);
        drop(led);
        // Independent earlier runner still works (separate ledger).
        assert_eq!(r.run_wave(env(vec![4])).unwrap(), vec![6]);
    }

    #[test]
    fn boxed_ledger_is_folded_after_every_wave_failed_ones_too() {
        // Lossy links without ARQ: some waves lose a frame and end in
        // `NoResult`. Every frame a node transmitted was still encoded
        // by its own clone, so after every wave — failed or not — the
        // folded ledger plus the headers must equal the wave's tx bits.
        let topo = Topology::grid(4, 4).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(0.05))
            .with_seed(4);
        let proto = MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        });
        let mut r = WaveRunner::new(&topo, cfg, &tree, proto, items, Reliability::None).unwrap();
        let (mut ok, mut failed) = (0, 0);
        for wave in 0..40u64 {
            let reqs = vec![1000, 8 + wave % 5];
            r.protocol().ledger_mut().reset(reqs.len());
            r.reset_stats();
            match r.run_wave(env(reqs)) {
                Ok(_) => ok += 1,
                Err(ProtocolError::NoResult) => failed += 1,
                Err(e) => panic!("unexpected error {e:?}"),
            }
            let led = r.protocol().ledger_mut();
            let attributed: u64 =
                led.slots().iter().map(|s| s.total()).sum::<u64>() + led.envelope_bits();
            let tx: u64 = r.stats().iter().map(|s| s.tx_bits).sum();
            assert_eq!(
                attributed + r.last_header_bits() * r.last_wave_frames(),
                tx,
                "wave {wave}"
            );
        }
        assert!(ok > 0 && failed > 0, "{ok} complete, {failed} failed waves");
    }

    #[test]
    fn sparse_envelope_roundtrips_and_bills_declared_slots() {
        let proto = MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        });
        proto.ledger_mut().reset(5);
        // A subset envelope as an interior node would forward it: entries
        // billing original slots 1 and 4.
        let req = vec![
            MuxEntry::new(proto.inner(), 1, 8u64),
            MuxEntry::new(proto.inner(), 4, 300u64),
        ];
        let mut w = BitWriter::new();
        proto.encode_request(&req, &mut w);
        proto.note_request_copies(&req, 1);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert_eq!(proto.decode_request(&mut r).unwrap(), req);
        assert_eq!(r.remaining(), 0);
        let led = proto.ledger_mut();
        assert!(led.slots()[1].request_bits > 0, "slot 1 billed");
        assert!(led.slots()[4].request_bits > 0, "slot 4 billed");
        assert_eq!(led.slots()[0].request_bits, 0);
        assert_eq!(led.slots()[2].request_bits, 0);
        assert_eq!(led.slots()[3].request_bits, 0);
    }

    #[test]
    fn cached_repeat_wave_costs_zero_bits() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let mut r = mux_runner_on(topo, items);
        r.enable_partial_cache(16);
        let first = r.run_wave(env(vec![1000, 8])).unwrap();
        let cold_bits = r.stats().max_node_bits();
        assert!(cold_bits > 0);
        // The repeat is answered entirely from the root's cache: the
        // identical result at zero additional communication.
        let again = r.run_wave(env(vec![1000, 8])).unwrap();
        assert_eq!(first, again);
        assert_eq!(r.stats().max_node_bits(), cold_bits, "repeat sent bits");
        assert!(r.cache_stats().hits >= 2, "root served both slots");
    }

    #[test]
    fn cache_partial_hit_forwards_only_misses() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let mut cold = mux_runner_on(topo.clone(), items.clone());
        cold.run_wave(env(vec![8])).unwrap();
        let one_slot_bits = cold.stats().max_node_bits();
        let mut cold2 = mux_runner_on(topo.clone(), items.clone());
        cold2.run_wave(env(vec![1000, 8])).unwrap();
        let two_slot_bits = cold2.stats().max_node_bits();

        let mut r = mux_runner_on(topo, items);
        r.enable_partial_cache(16);
        r.run_wave(env(vec![1000])).unwrap();
        r.reset_stats();
        // Mixed wave: slot 0 cached, slot 1 fresh — the subtree only ever
        // carries slot 1 (plus its explicit slot tag, 3 bits per request
        // hop), so the cost sits between the one-slot and two-slot waves.
        let out = r.run_wave(env(vec![1000, 8])).unwrap();
        assert_eq!(out, vec![(0..16).sum::<u64>(), (0..8).sum::<u64>()]);
        let mixed = r.stats().max_node_bits();
        assert!(
            mixed < two_slot_bits,
            "mixed {mixed} !< full {two_slot_bits}"
        );
        assert!(
            (one_slot_bits..one_slot_bits + 16).contains(&mixed),
            "mixed {mixed} vs one-slot {one_slot_bits}"
        );
    }

    #[test]
    fn set_items_invalidates_node_and_ancestors() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut r = mux_runner_on(topo, items);
        r.enable_partial_cache(16);
        assert_eq!(r.run_wave(env(vec![1000])).unwrap(), vec![6]);
        // Mutate the deepest leaf: SumBelow declines deltas (the default
        // hook), so its ancestors' cached partials — which embed the
        // stale value — are invalidated and recomputed.
        r.set_items(3, vec![100]);
        assert_eq!(r.run_wave(env(vec![1000])).unwrap(), vec![103]);
        // And a genuine repeat afterwards still serves from cache.
        let bits = r.stats().max_node_bits();
        assert_eq!(r.run_wave(env(vec![1000])).unwrap(), vec![103]);
        assert_eq!(r.stats().max_node_bits(), bits);
    }

    #[test]
    fn set_items_with_identical_items_touches_no_cache() {
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut r = mux_runner_on(topo, items);
        r.enable_partial_cache(16);
        assert_eq!(r.run_wave(env(vec![1000])).unwrap(), vec![6]);
        let entries = r.cache_stats().entries;
        assert!(entries > 0);
        // A no-op replacement must not invalidate anything…
        r.set_items(3, vec![3]);
        assert_eq!(r.cache_stats().entries, entries);
        let bits = r.stats().max_node_bits();
        // …so the repeat is still a pure root-cache hit.
        assert_eq!(r.run_wave(env(vec![1000])).unwrap(), vec![6]);
        assert_eq!(r.stats().max_node_bits(), bits);
    }

    /// SumBelow with the delta hook implemented: cached sums absorb item
    /// replacements in place, so mutations cost no cache entries and a
    /// post-mutation repeat still moves zero bits — the wave-layer core
    /// of the continuous-aggregate ("standing query") machinery.
    #[derive(Debug, Clone)]
    struct DeltaSum {
        inner: SumBelow,
    }

    impl WaveProtocol for DeltaSum {
        type Request = u64;
        type Partial = u64;
        type Item = u64;
        /// The origin's items before and after the update.
        type ItemDelta = (Vec<u64>, Vec<u64>);
        /// The sum's threshold.
        type DeltaKey = u64;

        fn encode_request(&self, req: &u64, w: &mut BitWriter) {
            self.inner.encode_request(req, w);
        }
        fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.inner.decode_request(r)
        }
        fn encode_partial(&self, req: &u64, p: &u64, w: &mut BitWriter) {
            self.inner.encode_partial(req, p, w);
        }
        fn partial_width(&self, req: &u64, p: &u64) -> u64 {
            self.inner.partial_width(req, p)
        }
        fn decode_partial(&self, req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.inner.decode_partial(req, r)
        }
        fn local(&self, node: NodeId, items: &mut [u64], req: &u64) -> u64 {
            self.inner.local(node, items, req)
        }
        fn absorb_partial(
            &self,
            req: &u64,
            acc: &mut u64,
            child: &u64,
            first_of: Option<usize>,
        ) -> Result<(), NetsimError> {
            self.inner.absorb_partial(req, acc, child, first_of)
        }
        fn cache_key(&self, req: &u64) -> Option<CacheKey> {
            self.inner.cache_key(req)
        }
        fn item_delta(
            &self,
            _origin: NodeId,
            old_items: &[u64],
            new_items: &[u64],
            (old, new): &mut (Vec<u64>, Vec<u64>),
        ) {
            old.clear();
            old.extend_from_slice(old_items);
            new.clear();
            new.extend_from_slice(new_items);
        }
        fn delta_key(&self, key: &CacheKey) -> Option<u64> {
            self.decode_request(&mut BitReader::new(key)).ok()
        }
        fn apply_item_delta(
            &self,
            &threshold: &u64,
            partial: &mut u64,
            (old, new): &(Vec<u64>, Vec<u64>),
        ) -> bool {
            let sum = |items: &[u64]| items.iter().filter(|&&x| x < threshold).sum::<u64>();
            match partial.checked_sub(sum(old)) {
                Some(rest) => {
                    *partial = rest + sum(new);
                    true
                }
                None => false,
            }
        }
    }

    #[test]
    fn set_items_delta_maintains_supporting_entries_for_free_repeats() {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let mut r = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            MultiplexWave::new(DeltaSum {
                inner: SumBelow {
                    value_width: width_for_max(1000),
                },
            }),
            items,
            Reliability::None,
        )
        .unwrap();
        r.enable_partial_cache(16);
        assert_eq!(
            r.run_wave(env(vec![1000, 8])).unwrap(),
            vec![(0..16).sum::<u64>(), (0..8).sum::<u64>()]
        );
        let entries = r.cache_stats().entries;
        let warm_bits = r.stats().max_node_bits();
        // Mutate a leaf: every cached sum (both thresholds, every node on
        // the leaf's root path) absorbs the delta in place…
        r.set_items(15, vec![100]);
        assert_eq!(r.cache_stats().entries, entries, "no entry invalidated");
        assert!(r.cache_stats().delta_applied > 0);
        assert_eq!(r.cache_stats().delta_invalidated, 0);
        // …so the refreshed answers are served from the root cache for
        // zero additional bits, already reflecting the new item (the
        // below-8 sum is untouched: neither 15 nor 100 is below 8).
        let refreshed = r.run_wave(env(vec![1000, 8])).unwrap();
        assert_eq!(
            refreshed,
            vec![(0..15).sum::<u64>() + 100, (0..8).sum::<u64>()],
        );
        assert_eq!(r.stats().max_node_bits(), warm_bits, "refresh moved bits");
    }

    #[test]
    fn mux_decode_rejects_out_of_range_slot_count() {
        let proto = MultiplexWave::new(SumBelow { value_width: 10 });
        // A frame claiming MUX_MAX_SLOTS + 1 sub-requests: strictly
        // beyond the declared bound (caught by `>` and `>=` alike).
        let mut w = BitWriter::new();
        w.write_gamma(MUX_MAX_SLOTS + 2); // count = MUX_MAX_SLOTS + 1
        w.write_bits(1, 1); // dense
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert!(matches!(
            proto.decode_request(&mut r),
            Err(NetsimError::WireDecode("mux slot count out of range"))
        ));
        // The boundary itself: the previous off-by-one (`>`) accepted
        // exactly MUX_MAX_SLOTS; the `>=` fix must reject it.
        let mut w = BitWriter::new();
        w.write_gamma(MUX_MAX_SLOTS + 1); // count = MUX_MAX_SLOTS
        w.write_bits(1, 1);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert!(matches!(
            proto.decode_request(&mut r),
            Err(NetsimError::WireDecode("mux slot count out of range"))
        ));
    }

    #[test]
    fn mux_decode_rejects_out_of_range_slot_tag() {
        let proto = MultiplexWave::new(SumBelow { value_width: 10 });
        // Sparse envelope with one entry tagged slot = MUX_MAX_SLOTS:
        // one past the 16-bit slot space.
        let mut w = BitWriter::new();
        w.write_gamma(1 + 1); // one entry
        w.write_bits(0, 1); // sparse
        w.write_gamma(MUX_MAX_SLOTS + 1); // slot tag
        w.write_bits(5, 10); // inner request
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        assert!(matches!(
            proto.decode_request(&mut r),
            Err(NetsimError::WireDecode("mux slot tag out of range"))
        ));
    }

    #[test]
    fn run_wave_rejects_out_of_range_slots_in_release_builds_too() {
        // The encode-side bound is a real error at the API boundary, not
        // just a debug_assert: a request with a slot tag outside the
        // 16-bit space never reaches the network.
        let topo = Topology::line(2).unwrap();
        let items: Vec<Vec<u64>> = vec![vec![1], vec![2]];
        let mut r = mux_runner_on(topo, items);
        let bad = vec![MuxEntry::new(
            &SumBelow {
                value_width: width_for_max(1000),
            },
            MUX_MAX_SLOTS as u32,
            10u64,
        )];
        let err = r.run_wave(bad).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::Netsim(NetsimError::WireEncode("mux slot tag out of range"))
        ));
        // An over-long dense envelope is rejected up front as well
        // (validated before any allocation-heavy encoding).
        let proto = MultiplexWave::new(SumBelow { value_width: 10 });
        let too_many = MultiplexWave::envelope(proto.inner(), vec![0u64; MUX_MAX_SLOTS as usize]);
        assert!(matches!(
            proto.validate_request(&too_many),
            Err(NetsimError::WireEncode("mux slot count out of range"))
        ));
        // And the runner still works after the rejection.
        assert_eq!(r.run_wave(env(vec![10])).unwrap(), vec![3]);
    }

    #[test]
    fn reliable_seq_space_is_epoched_per_wave() {
        // Regression for the u16 sequence wraparound: before the per-wave
        // epoch, `next_seq` ran on across waves and wrapped after 65536
        // messages, colliding (from, seq) dedup entries and
        // RETX_BASE + seq timer tags. Force the pre-wrap state and check
        // a lossy reliable wave still completes correctly and re-epochs.
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(0.3).with_duplication(0.2))
            .with_seed(21);
        let mut r = runner_on(
            topo,
            items,
            cfg,
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
        // Push every node to the brink of the 16-bit boundary; without
        // the epoch the next wave would wrap mid-flight.
        for v in 0..r.sim.len() {
            r.sim.node_mut(v).next_seq = u16::MAX - 1;
        }
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
        for v in 0..r.sim.len() {
            let node = r.sim.node(v);
            // The epoch reset: per-wave sequence numbers restart at zero,
            // so after a 16-node wave no counter is anywhere near the
            // boundary it was pushed to.
            assert!(
                node.next_seq < 1000,
                "node {v} next_seq {} not re-epoched",
                node.next_seq
            );
            // And the dedup scope was purged at wave completion: at most
            // a handful of post-completion retransmission entries remain
            // (each re-cleared by the next wave), never a whole wave's
            // traffic — no memory grows across waves of a long-running
            // engine.
            assert!(
                node.seen.len() <= node.children.len() + 2,
                "node {v} retains {} dedup entries",
                node.seen.len()
            );
            assert!(node.pending.is_empty(), "node {v} retains pending ARQ");
        }
        // A third wave from the epoched state is still correct.
        assert_eq!(r.run_wave(8).unwrap(), (0..8).sum::<u64>());
    }

    #[test]
    fn canonical_merge_is_fixed_child_order() {
        /// A deliberately order-sensitive merge: concatenation. The
        /// canonical merge must make the result a pure function of the
        /// tree (fixed child order), not of arrival timing.
        #[derive(Debug, Clone)]
        struct Concat;
        impl WaveProtocol for Concat {
            type Request = ();
            type Partial = Vec<u64>;
            type Item = u64;
            type ItemDelta = ();
            type DeltaKey = ();
            fn encode_request(&self, _req: &(), _w: &mut BitWriter) {}
            fn decode_request(&self, _r: &mut BitReader<'_>) -> Result<(), NetsimError> {
                Ok(())
            }
            fn encode_partial(&self, _req: &(), p: &Vec<u64>, w: &mut BitWriter) {
                w.write_bits(p.len() as u64, 8);
                for v in p {
                    w.write_bits(*v, 16);
                }
            }
            fn decode_partial(
                &self,
                _req: &(),
                r: &mut BitReader<'_>,
            ) -> Result<Vec<u64>, NetsimError> {
                let n = r.read_bits(8)? as usize;
                (0..n).map(|_| r.read_bits(16)).collect()
            }
            fn local(&self, _node: NodeId, items: &mut [u64], _req: &()) -> Vec<u64> {
                items.to_vec()
            }
            fn absorb_partial(
                &self,
                _req: &(),
                acc: &mut Vec<u64>,
                child: &Vec<u64>,
                _first_of: Option<usize>,
            ) -> Result<(), NetsimError> {
                acc.extend_from_slice(child);
                Ok(())
            }
        }
        // A star: all four leaves report directly to the root, with
        // default link jitter scrambling arrival order per seed.
        let topo = Topology::star(5).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        for seed in [1u64, 7, 13, 99] {
            let mut r = WaveRunner::new(
                &topo,
                SimConfig::default().with_seed(seed),
                &tree,
                Concat,
                vec![vec![0], vec![10], vec![20], vec![30], vec![40]],
                Reliability::None,
            )
            .unwrap();
            // Local contribution first, then children in fixed (sorted)
            // child order — for every jitter seed.
            assert_eq!(r.run_wave(()).unwrap(), vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn arq_with_zero_loss_matches_none_with_pinned_ack_bill() {
        // Reliability edge case: ARQ over a lossless link answers
        // identically to fire-and-forget, and its overhead is exactly
        // the deterministic ACK bill — one 16-bit sequence number per
        // data frame plus one 34-bit ACK per delivered copy. Pinned so
        // the frame layout can never drift silently.
        let topo = Topology::line(4).unwrap();
        let items: Vec<Vec<u64>> = (0..4).map(|i| vec![i as u64]).collect();
        let mut plain = runner_on(
            topo.clone(),
            items.clone(),
            SimConfig::default(),
            Reliability::None,
        );
        let mut arq = runner_on(
            topo,
            items,
            SimConfig::default(),
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        assert_eq!(plain.run_wave(1000).unwrap(), arq.run_wave(1000).unwrap());
        // Per node: every data frame it sends or receives grows by
        // SEQ_BITS, and every data frame it receives is answered by an
        // ACK frame (billed tx at the receiver, rx at the sender). All
        // traffic is in wave 1, so the ACK width is ack_bits(1).
        let ack = ack_bits(1);
        for v in 0..4 {
            let p = plain.stats().node(v);
            let a = arq.stats().node(v);
            let data_tx = p.tx_packets; // lossless: every frame is data, sent once
            let data_rx = p.rx_packets;
            assert_eq!(a.tx_bits, p.tx_bits + data_tx * SEQ_BITS + data_rx * ack);
            assert_eq!(a.rx_bits, p.rx_bits + data_rx * SEQ_BITS + data_tx * ack);
            assert_eq!(a.tx_packets, data_tx + data_rx);
            assert_eq!(a.rx_packets, data_rx + data_tx);
        }
        // The absolute pin for the root on a line of 4 (one 20-bit
        // request down, one 42-bit partial up under None).
        assert_eq!(arq.stats().node(0).tx_bits, 20 + 16 + ack);
        assert_eq!(arq.stats().node(0).rx_bits, 42 + 16 + ack);
    }

    #[test]
    fn corrupt_fates_are_redrawn_per_retransmission() {
        // Each retransmission is a new transmission index on the edge's
        // fate stream, so a corrupt fate is re-drawn, never replayed. If
        // fates were keyed per logical message instead, corruption 0.9
        // would pin some hop's every retransmission corrupt and the wave
        // could never complete.
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<Vec<u64>> = (0..16).map(|i| vec![i as u64]).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_corruption(0.9))
            .with_seed(17);
        let mut r = runner_on(
            topo,
            items,
            cfg,
            Reliability::Ack {
                timeout: SimDuration::from_millis(50),
            },
        );
        assert_eq!(r.run_wave(1000).unwrap(), (0..16).sum::<u64>());
        // Corrupt copies were billed to receivers without ever reaching
        // the protocol: strictly more receptions than the lossless wave
        // would perform, yet the answer is exact.
        let rx_packets: u64 = (0..16).map(|v| r.stats().node(v).rx_packets).sum();
        assert!(rx_packets > 30, "corruption never exercised: {rx_packets}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let topo = Topology::line(3).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let err = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            SumBelow { value_width: 10 },
            vec![vec![1]], // wrong length
            Reliability::None,
        )
        .unwrap_err();
        assert!(matches!(err, ProtocolError::ShapeMismatch(_)));
    }
}
