//! The envelope: [`Envelope`], the slot, cache and billing hooks a tree
//! runner drives beyond [`WaveProtocol`], and [`MultiplexWave`], which
//! carries `N` sub-requests of an inner protocol in one wave and bills
//! every bit to its slot in a [`MuxLedger`].

use crate::cache::CacheKey;
use crate::row::{RowKernel, RowSource};
use crate::wave::{encode_scratch, WaveProtocol};
use saq_netsim::sim::NodeId;
use saq_netsim::wire::{gamma_len, BitReader, BitString, BitWriter};
use saq_netsim::NetsimError;

/// A cacheable slot as [`Envelope::for_each_slot_key`] lends it: its key
/// and its sub-request's [`delta_key`](WaveProtocol::delta_key), on demand.
pub type SlotKey<'a, P> = (
    &'a CacheKey,
    &'a dyn Fn() -> Option<<P as WaveProtocol>::DeltaKey>,
);

/// The hooks a tree runner drives beyond the aggregate, which an envelope
/// writes: a request's **slots**, their cache keys, per-slot billing and
/// merges, and the side-state a clone bills. Each default is the
/// single-slot body, so a plain protocol a tree runner runs bare opts in
/// with an empty `impl Envelope for X {}`; rings need none of it.
pub trait Envelope: WaveProtocol {
    /// Accounts for `copies` transmissions of `req`'s encoding — one
    /// per child a node forwards `req` to (retransmissions excluded).
    /// Every tree runner calls it for every fan-out, so an envelope that
    /// attributes the bits it sends (the [`MuxLedger`]) bills requests
    /// here and its ledger matches the network tally. The default bills
    /// nothing.
    fn note_request_copies(&self, _req: &Self::Request, _copies: u64) {}

    /// Drops what a spent accumulator owns beyond its own container,
    /// once its reply is encoded and before it waits on the flat
    /// runner's free list for [`fill_row`](WaveProtocol::fill_row): an
    /// idle accumulator must not keep a merged subtree's data alive. The
    /// default does nothing.
    fn release_partial(&self, _p: &mut Self::Partial) {}

    /// Calls `f(i, slot)` for every slot of the request, in slot order.
    /// `slot` is `None` for an uncacheable slot; for a cacheable one it
    /// is the slot's cache key — its sub-request's exact
    /// [`encode_request`](WaveProtocol::encode_request) bits — and a
    /// function returning the sub-request's
    /// [`delta_key`](WaveProtocol::delta_key), which the cache calls
    /// only for a slot it will store. The default is one slot, keyed by
    /// encoding the request; an envelope lends each sub-request's key,
    /// borrowed where it holds it already.
    fn for_each_slot_key(
        &self,
        req: &Self::Request,
        f: &mut dyn FnMut(usize, Option<SlotKey<'_, Self>>),
    ) {
        if !self.cacheable(req) {
            return f(0, None);
        }
        let mut w = BitWriter::new();
        self.encode_request(req, &mut w);
        f(0, Some((&w.finish(), &|| self.delta_key(req))));
    }

    /// Width of slot `i` of a reply to `req`, given as its single-slot
    /// partial `part` (the form the cache stores, see
    /// [`Envelope::split_slots`]). The widths of every slot add up
    /// to — and bill exactly what —
    /// [`partial_width`](WaveProtocol::partial_width) of their
    /// [`join_slots`](Self::join_slots), so a node answering from cache
    /// is billed straight from the entries.
    fn slot_width(&self, req: &Self::Request, _i: usize, part: &Self::Partial) -> u64 {
        self.partial_width(req, part)
    }

    /// [`absorb_partial`](WaveProtocol::absorb_partial) of one slot:
    /// merges slot `j` of `part` into slot `i` of `acc`, which is aligned
    /// with `req` — a cache entry (`j = 0`, the single-slot form the
    /// cache stores) or one slot of a reply computed for a subset of
    /// `req`. Absorbing every slot of a reply equals absorbing their
    /// [`join_slots`](Self::join_slots), so a parent merges a child's
    /// cached and computed slots where they lie.
    ///
    /// # Errors
    ///
    /// As [`absorb_partial`](WaveProtocol::absorb_partial).
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

    /// The request containing only the slots `keep` (ascending slot
    /// indices, as [`Envelope::for_each_slot_key`] numbers them) — what
    /// a node forwards to its children when the other slots were served
    /// from cache. A single slot is never subset (`keep` is all slots),
    /// so the default returns the request unchanged.
    fn subset_request(&self, req: &Self::Request, _keep: &[usize]) -> Self::Request {
        req.clone()
    }

    /// Splits a partial into per-slot partials, each shaped as if its
    /// slot were a single-slot request (the form stored in the cache),
    /// and hands them to `f` in slot order with their slot positions.
    /// Inverse of [`Envelope::join_slots`]. A partial's slots are its
    /// own shape, so no request is needed: a flat parent stores its
    /// child's slots without the request the child forwarded.
    fn split_slots(&self, p: Self::Partial, f: &mut dyn FnMut(usize, Self::Partial)) {
        f(0, p);
    }

    /// A copy of the partial [`split_slots`](Envelope::split_slots)
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

    /// Folds the side-state a clone of this protocol accumulated (the
    /// bits a [`MultiplexWave`] clone billed to its own [`MuxLedger`])
    /// into this instance, **draining** the clone's copy. A tree runner
    /// keeps the protocol it was built with and runs clones of it — one
    /// per node in the boxed [`WaveRunner`], one per worker group in the
    /// flat runner — and folds every clone after every wave, failed
    /// waves included, in a fixed order, so merged tallies are
    /// deterministic regardless of thread timing. The default is a
    /// no-op.
    ///
    /// [`WaveRunner`]: crate::wave::WaveRunner
    fn absorb_shard(&self, _shard: &Self) {}
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
/// runner sends them ([`Envelope::note_request_copies`],
/// [`WaveProtocol::partial_width`]), so encoding either is pure. Every instance bills a ledger of its own, and a clone starts
/// with an empty one. A runner runs clones — the boxed runner one per
/// node, the flat runner one per worker group, whose one worker bills
/// it without a lock — and after every wave folds them, in a fixed
/// order, into the protocol it was built with
/// ([`Envelope::absorb_shard`]; read through
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
///
/// [`WaveSubstrate::protocol`]: crate::wave::WaveSubstrate::protocol
/// [`Reliability::None`]: crate::wave::Reliability::None
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
    /// [`Envelope::note_request_copies`] bills per copy.
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
    /// [`note_request_copies`](Envelope::note_request_copies).
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

    // --- subtree partial caching: each entry's, dispatched inward ----

    fn invalidates_cache(&self, req: &Self::Request) -> bool {
        req.iter()
            .any(|entry| self.inner.invalidates_cache(&entry.req))
    }

    fn shrink_partial(&self, p: &mut Self::Partial) {
        for sub in p {
            self.inner.shrink_partial(sub);
        }
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
}

impl<P: WaveProtocol> Envelope for MultiplexWave<P> {
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

    fn release_partial(&self, p: &mut Self::Partial) {
        p.clear();
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

    /// Every entry is one slot, cacheable and delta-keyed as the inner
    /// protocol says, its key lent from the entry's captured bits.
    fn for_each_slot_key(
        &self,
        req: &Self::Request,
        f: &mut dyn FnMut(usize, Option<SlotKey<'_, Self>>),
    ) {
        for (i, entry) in req.iter().enumerate() {
            let delta_key: &dyn Fn() -> _ = &|| self.inner.delta_key(&entry.req);
            f(
                i,
                self.inner
                    .cacheable(&entry.req)
                    .then_some((&entry.raw, delta_key)),
            );
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_protocols::SumBelow;
    use saq_netsim::wire::width_for_max;

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
}
