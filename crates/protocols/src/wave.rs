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
//! the in-place merge of a child's partial; a tree runner drives it through
//! [`Envelope`]. [`WaveSubstrate`] is the contract for executing waves;
//! [`WaveRunner`] implements it by owning a simulator plus tree and running
//! waves to quiescence; per-node bit statistics accumulate in the
//! underlying [`saq_netsim::stats::NetStats`].
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
use crate::mux::Envelope;
use crate::obs::NodeTraceEntry;
use crate::row::{RowKernel, RowSource};
use crate::tree::SpanningTree;
use saq_netsim::link::FrameClass;
use saq_netsim::sim::{Context, NodeId, NodeRuntime, SimConfig, Simulator};
use saq_netsim::stats::NetStats;
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_netsim::wire::{varint_len, BitReader, BitString, BitWriter};
use saq_netsim::NetsimError;
use std::collections::HashSet;
use std::fmt::Debug;

/// One aggregate family runnable as waves: the contract a protocol
/// author writes.
///
/// The protocol value itself is the network-wide *configuration* (value
/// widths, sketch sizes, seeds...), cloned to every node at deployment;
/// encodings may therefore depend on it without shipping schema bits in
/// every message.
///
/// An author writes the four codecs, [`local`](Self::local) and
/// [`absorb_partial`](Self::absorb_partial); every other hook has a
/// default. Slots, their caching and billing are an [`Envelope`]'s.
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
    /// What [`WaveProtocol::apply_item_delta`] needs to know of a cached
    /// entry's request ([`WaveProtocol::delta_key`]). It is derived
    /// once, when the entry is stored, and kept beside the entry, so an
    /// item update never re-reads a request. Protocols that do not
    /// delta-maintain their caches use `()`.
    type DeltaKey: Clone + Debug;

    /// Serializes a request. Pure: a runner may encode a request for a
    /// frame, for its width or not at all, and bills what it sends
    /// through [`Envelope::note_request_copies`].
    fn encode_request(&self, req: &Self::Request, w: &mut BitWriter);

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
    /// wave before any partials flow), so the partial encoding may depend
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
    ///
    /// [`MuxLedger`]: crate::mux::MuxLedger
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

    /// Whether this request's subtree partial may be cached, under its
    /// exact [`encode_request`](Self::encode_request) bits. Requests
    /// that mutate items ([`WaveProtocol::invalidates_cache`]) or whose
    /// `local` draws fresh randomness outside the request encoding MUST
    /// return `false` — a later hit would replay stale or mismatched
    /// state. Randomized requests that embed their seed nonce in the
    /// encoding are safe to cache: a hit reproduces the identical
    /// instance. The default caches nothing.
    fn cacheable(&self, _req: &Self::Request) -> bool {
        false
    }

    /// Whether executing this request mutates item state. Nodes clear
    /// their entire subtree-partial cache before executing such a wave,
    /// and never serve or store any of its slots.
    fn invalidates_cache(&self, _req: &Self::Request) -> bool {
        false
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
    /// [`Envelope::absorb_slot`] refuses a misaligned slot. A local
    /// step never fails.
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

    /// Releases spare capacity `p` kept from merging, before `p` rests in
    /// a subtree cache. Executing nodes *move* their computed partials
    /// into the cache rather than copying them, so without this a partial
    /// that grew while absorbing its children would keep that working
    /// capacity for as long as its entry lives. The default does nothing.
    fn shrink_partial(&self, _p: &mut Self::Partial) {}

    /// What delta maintenance needs of `req`, a cacheable request — a
    /// slot's sub-request, as its entry is keyed — or `None` when
    /// entries of it must be invalidated by every item update (the
    /// default). Called once per stored entry.
    fn delta_key(&self, _req: &Self::Request) -> Option<Self::DeltaKey> {
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
    /// is what [`WaveProtocol::delta_key`] derived from the entry's
    /// request — for deterministic requests, the sub-request itself,
    /// i.e. which aggregate the partial belongs to.
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
///
/// [`MuxLedger`]: crate::mux::MuxLedger
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

/// What a node's subtree cache stores: a partial, and what delta
/// maintenance needs of its request ([`WaveProtocol::delta_key`];
/// `None`: the entry declines every delta).
#[derive(Debug)]
pub(crate) struct CachedPartial<P: WaveProtocol> {
    pub(crate) partial: P::Partial,
    delta_key: Option<P::DeltaKey>,
}

impl<P: WaveProtocol> CachedPartial<P> {
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
    pub(crate) fn resolve<P: Envelope>(
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
        proto.for_each_slot_key(req, &mut |i, slot| {
            let Some((key, _)) = slot else {
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
    pub(crate) fn take_cached_reply<P: Envelope>(
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
    /// the entries ([`Envelope::slot_width`]): for a node whose every
    /// slot hit, what [`WaveProtocol::partial_width`] of
    /// [`take_cached_reply`](Self::take_cached_reply) returns and bills,
    /// without a copy.
    pub(crate) fn hits_width<P: Envelope>(
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
    pub(crate) fn assemble<P: Envelope>(
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
            let delta_key = slot_delta_key(proto, req, self.miss[pos]);
            let partial = proto.slot_partial(fwd, &acc, pos);
            cache.insert(key, CachedPartial { partial, delta_key });
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
    /// node's accumulator. The node's parent calls it with the request it
    /// forwarded to the node (`req`), once it read the node's hits.
    pub(crate) fn store_by_move<P: Envelope>(
        &mut self,
        proto: &P,
        cache: &mut PartialCache<CachedPartial<P>>,
        req: &P::Request,
        acc: P::Partial,
    ) -> Option<P::Partial> {
        if self.store.is_empty() {
            return Some(acc);
        }
        let CacheResolution { miss, store, .. } = self;
        let mut store = store.drain(..).peekable();
        proto.split_slots(acc, &mut |pos, mut partial| {
            if let Some((_, key)) = store.next_if(|&(p, _)| p == pos) {
                proto.shrink_partial(&mut partial);
                let delta_key = slot_delta_key(proto, req, miss[pos]);
                cache.insert(key, CachedPartial { partial, delta_key });
            }
        });
        None
    }
}

/// Slot `i`'s delta key, as [`Envelope::for_each_slot_key`] lends it off
/// `req`: taken at store time, so no store list keeps one from the miss.
fn slot_delta_key<P: Envelope>(proto: &P, req: &P::Request, i: usize) -> Option<P::DeltaKey> {
    let mut out = None;
    proto.for_each_slot_key(req, &mut |j, slot| {
        if j == i {
            out = slot.and_then(|(_, delta_key)| delta_key());
        }
    });
    out
}

/// Node state machine executing [`WaveProtocol`] waves over a spanning
/// tree.
#[derive(Debug)]
pub struct AggNode<P: Envelope> {
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

impl<P: Envelope> AggNode<P> {
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

impl<P: Envelope> NodeRuntime for AggNode<P> {
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
pub trait WaveSubstrate<P: Envelope>: Debug {
    /// Short name of the substrate (`"single"` or `"flat"`), for
    /// routing assertions and experiment banners.
    fn name(&self) -> &'static str;

    /// The protocol the substrate was built with. Its side-state (a
    /// [`MultiplexWave`]'s [`MuxLedger`]) holds everything the waves
    /// billed so far: the substrate folds the clones it runs into it
    /// after every wave ([`Envelope::absorb_shard`]).
    ///
    /// [`MultiplexWave`]: crate::mux::MultiplexWave
    /// [`MuxLedger`]: crate::mux::MuxLedger
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
pub struct WaveRunner<P: Envelope> {
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

impl<P: Envelope> WaveRunner<P> {
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

impl<P: Envelope + Debug> WaveSubstrate<P> for WaveRunner<P> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::{MultiplexWave, MuxEntry, MUX_MAX_SLOTS};
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
        impl Envelope for Doubler {}
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
        fn cacheable(&self, req: &u64) -> bool {
            self.inner.cacheable(req)
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
        fn delta_key(&self, &threshold: &u64) -> Option<u64> {
            Some(threshold)
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
        impl Envelope for Concat {}
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
