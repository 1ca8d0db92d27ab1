//! Flat columnar convergecast execution over a [`FlatTree`].
//!
//! [`FlatWaveRunner`] executes [`WaveProtocol`] waves like
//! [`WaveRunner`](crate::wave::WaveRunner) — both implement
//! [`WaveSubstrate`] — but on the struct-of-arrays
//! substrate of [`saq_netsim::flat`] instead of a discrete-event
//! simulator: per-node items, random streams, caches, wave state and
//! bit counters live in contiguous columns indexed by DFS **position**,
//! and a wave is two sweeps of index arithmetic — a top-down pass that
//! decodes requests and stages per-child frames, and a bottom-up pass
//! that merges child partials in fixed child order. No events and no
//! queues.
//!
//! ## What a node costs
//!
//! A steady-state wave makes **one** heap allocation per participating
//! node — the `Vec` its [`WaveProtocol::local`] contribution is built
//! in — plus O(blocks + distinct requests) for the wave as a whole:
//!
//! * **frames** are recycled through [`ScratchPool`]s; after the first
//!   wave no frame buffer is allocated;
//! * **the request is shared, not cloned.** A slot holds
//!   `Arc<P::Request>` handles: `fwd` is the same handle as `req`
//!   unless a partial cache hit subsets the envelope, and the sweeps
//!   copy handles, never requests;
//! * **each distinct frame is decoded once per thread.** Every node
//!   still takes — and is billed for — its own inbound frame, but a
//!   per-thread, per-wave `DecodeMemo` (the driver's on the spine, one
//!   per worker across its blocks; nothing shared) compares the
//!   frame's bits with those already decoded (whole-frame equality,
//!   header and ARQ sequence number included) and shares that decode,
//!   which is a pure function of the bits and the deployment
//!   configuration. A frame that differs in one bit misses and is
//!   decoded afresh;
//! * **each fan-out is encoded once** under [`Reliability::None`]: the
//!   siblings receive pool-backed copies billed through
//!   [`WaveProtocol::note_request_copies`], exactly the boxed runner's
//!   fan-out (per-child sequence numbers keep one encode per child
//!   under ARQ);
//! * **child partials are merged off the wire**
//!   ([`WaveProtocol::absorb_child`]) into the accumulator's own
//!   allocation — every partial still crosses its edge as encoded bits
//!   and is decoded by its parent;
//! * **link tallies are columns**: a tree edge is owned by its child
//!   position, always inside the window that emulates the exchange, so
//!   both directions accumulate in a [`TreeLinkBits`] column flushed
//!   with the node counters — no per-transmission record, no hash map.
//!
//! ## Nested parallelism
//!
//! A [`ShardPlan`] splits the tree into a sequential **spine** and
//! contiguous subtree **blocks**. The driver plays the spine top-down
//! (root admission, fan-out, every over-threshold subtree root),
//! workers execute whole blocks in parallel — each block is a complete
//! subtree, so workers never exchange a message — and the driver plays
//! the spine bottom-up after the barrier. Because blocks are re-cut
//! *recursively* wherever a subtree exceeds the balance threshold, one
//! giant subtree never serialises a worker.
//!
//! ## Bit-identity with the boxed runner
//!
//! The flat runner reproduces the event-driven
//! [`WaveRunner`](crate::wave::WaveRunner) observable-for-observable
//! (the canonical-merge / fixed-order-barrier argument of
//! ARCHITECTURE §10):
//!
//! * every node transmits exactly the frames it would transmit boxed —
//!   one request per child edge, one partial per participating node, with
//!   the same envelope header (kind + varint wave ordinal);
//! * partials are merged in fixed child order (ascending global id =
//!   ascending position), so answers are pure functions of tree +
//!   items + request, independent of the plan and of thread timing;
//! * per-node randomness comes from the same global-id-labeled streams
//!   a simulator would seed, consumed only by `local`;
//! * caches live with their node's column slot, so hit/miss counters
//!   are identical; per-group protocol side-state ([`MuxLedger`]) is
//!   drained at the barrier in fixed group order.
//!
//! ## Lossy links: fate-replay ARQ emulation
//!
//! Virtual time is not modelled (the canonical merge makes timing
//! unobservable), which is precisely what makes a 10^6-node wave a
//! pair of array sweeps. Loss is still reproducible without a clock,
//! because link fates come from **per-edge fate streams**
//! ([`saq_netsim::link::FateStream`]): the fate of the *n*-th
//! transmission over an edge is a pure function of `(edge, frame
//! class, n)`, not of schedule. Under [`Reliability::Ack`] the flat
//! runner therefore *emulates* each boxed stop-and-wait exchange in
//! closed form (the private `arq_exchange` helper): attempts consume
//! the edge's
//! `Data`-class stream in order, every delivered copy bills the
//! receiver, every intact copy bills an ACK on the reverse edge's
//! `Ack`-class stream, and retransmission stops at the first attempt
//! that lands an intact copy whose ACK survives. The emulation is
//! exact — the same fates at the same indices, hence the same
//! per-node retransmission bills as the boxed runner bit-for-bit —
//! **provided the retransmit timeout exceeds the worst-case round
//! trip** (`delay(frame) + delay(ACK) + 2·jitter`), so the boxed
//! event order within one exchange is fate-determined rather than a
//! race between the ACK and the retransmit timer; exchanges that
//! violate the bound are rejected loudly. Dedup residue and sequence
//! numbers are emulated per position (`dedup_residue` column, child
//! index arithmetic), so [`TransportFootprint`] matches too.
//!
//! Lossy links *without* ARQ remain rejected — an unrepaired drop
//! would erase a subtree's report, which the event-driven runner
//! surfaces as [`ProtocolError::NoResult`] after billing the partial
//! traffic; the boxed [`WaveRunner`](crate::wave::WaveRunner) stays the
//! ground truth for that combination. [`Reliability::None`] requires lossless links, as
//! before.
//!
//! [`MuxLedger`]: crate::wave::MuxLedger

use crate::cache::{CacheKey, CacheStats, PartialCache};
use crate::error::ProtocolError;
use crate::obs::NodeTraceEntry;
use crate::tree::SpanningTree;
use crate::wave::{
    ack_bits, header_bits, read_wave, write_wave, Reliability, TransportFootprint, WaveProtocol,
    WaveSubstrate, KIND_PARTIAL, KIND_REQUEST, SEQ_BITS,
};
use saq_netsim::energy::EnergyModel;
use saq_netsim::flat::{FlatTree, NestDepth, ShardBlock, ShardPlan};
use saq_netsim::link::{FateStream, FrameClass, LinkConfig, LinkFate};
use saq_netsim::rng::{derive_seed, Xoshiro256StarStar};
use saq_netsim::sim::{NodeId, SimConfig};
use saq_netsim::stats::{NetStats, NodeStats, TreeLinkBits};
use saq_netsim::topology::Topology;
use saq_netsim::wire::{BitReader, BitString, ScratchPool};
use saq_netsim::{NetsimError, SimDuration};
use std::sync::Arc;

/// The four per-edge fate streams of one tree edge, stored at the
/// child's position (one tree edge per non-root node). Streams are
/// keyed by the endpoints' **global** labels and the frame class, so
/// they replay exactly the fates a boxed simulator would draw, at the
/// same indices — the runner advances them only through emulated
/// exchanges, which consume fates in the boxed per-edge order.
#[derive(Debug)]
struct EdgeStreams {
    /// parent → node, `Data`: request frames.
    down_data: FateStream,
    /// node → parent, `Ack`: ACKs of requests.
    up_ack: FateStream,
    /// node → parent, `Data`: partial frames.
    up_data: FateStream,
    /// parent → node, `Ack`: ACKs of partials.
    down_ack: FateStream,
}

impl EdgeStreams {
    fn new(master: u64, parent_label: u64, node_label: u64) -> Self {
        EdgeStreams {
            down_data: FateStream::new(master, parent_label, node_label, FrameClass::Data),
            up_ack: FateStream::new(master, node_label, parent_label, FrameClass::Ack),
            up_data: FateStream::new(master, node_label, parent_label, FrameClass::Data),
            down_ack: FateStream::new(master, parent_label, node_label, FrameClass::Ack),
        }
    }
}

/// Immutable per-wave environment shared by every sweep helper.
struct Env<'a> {
    tree: &'a FlatTree,
    model: &'a EnergyModel,
    link: &'a LinkConfig,
    /// Bits of one ACK frame of *this* wave (the varint wave ordinal's
    /// width varies per wave, so this is per-wave state, not a
    /// constant).
    ack_bits: u64,
    /// `Some(timeout)` under [`Reliability::Ack`].
    arq_timeout: Option<SimDuration>,
    /// Per-exchange attempt budget — the flat analogue of the
    /// simulator's event budget, guarding against livelock when every
    /// transmission is fated to drop.
    attempt_budget: u64,
    /// Whether per-node telemetry tracing is on (see [`crate::obs`]).
    trace_on: bool,
}

/// Two disjoint `&mut` borrows of one slice (`a < b`).
fn two_mut<T>(slice: &mut [T], a: usize, b: usize) -> (&mut T, &mut T) {
    debug_assert!(a < b, "disjoint borrow requires a < b");
    let (lo, hi) = slice.split_at_mut(b);
    (&mut lo[a], &mut hi[0])
}

/// One endpoint of a tree edge during an exchange: its radio counters
/// and the tally of the bits it puts on the edge (one direction of the
/// edge's [`TreeLinkBits`]).
struct Endpoint<'a> {
    stats: &'a mut NodeStats,
    link: &'a mut u64,
}

impl Endpoint<'_> {
    /// Bills one transmission of `bits` onto the edge.
    fn transmit(&mut self, model: &EnergyModel, bits: u64, frames: &mut u64) {
        charge_tx(self.stats, model, bits);
        *self.link += bits;
        *frames += 1;
    }
}

/// Emulates one boxed stop-and-wait exchange over a tree edge:
/// `sender` transmits a `bits`-wide frame until an intact copy's ACK
/// survives the reverse edge. Consumes `data` (sender → receiver,
/// `Data`) one fate per attempt and `ack` (receiver → sender, `Ack`)
/// one fate per intact delivered copy — exactly the per-edge stream
/// indices the boxed run consumes — and bills every transmission,
/// delivery (corrupt copies included) and ACK to the same counters,
/// counting each transmission into `frames`.
///
/// Returns the number of intact copies delivered (the dedup-residue
/// observable: a second copy re-inserts the receiver's `(from, wave,
/// seq)` key after admission purged the first).
///
/// # Errors
///
/// * [`ProtocolError::Unsupported`] when the worst-case round trip
///   (`delay(bits) + delay(ACK) + 2·jitter`) reaches the retransmit
///   timeout: past that bound the boxed exchange becomes a race
///   between the ACK and the retransmit timer, which only an event
///   queue can order;
/// * the event-budget error when `attempt_budget` attempts all fail
///   (loss rate 1 — the boxed run's livelock guard).
#[allow(clippy::too_many_arguments)]
fn arq_exchange(
    env: &Env<'_>,
    timeout: SimDuration,
    bits: u64,
    data: &mut FateStream,
    ack: &mut FateStream,
    mut sender: Endpoint<'_>,
    mut receiver: Endpoint<'_>,
    frames: &mut u64,
) -> Result<u64, ProtocolError> {
    let worst_rtt = env.link.delay_for(bits)
        + env.link.delay_for(env.ack_bits)
        + env.link.jitter
        + env.link.jitter;
    if worst_rtt >= timeout {
        return Err(ProtocolError::Unsupported(
            "flat ARQ emulation requires the retransmit timeout to exceed the worst-case round \
             trip (frame delay + ACK delay + twice the jitter bound); raise Reliability::Ack's \
             timeout, or use the single-threaded WaveRunner, which orders the race by event time",
        ));
    }
    let mut intact_total = 0u64;
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        if attempts > env.attempt_budget {
            return Err(ProtocolError::Netsim(NetsimError::EventBudgetExhausted {
                budget: env.attempt_budget,
            }));
        }
        sender.transmit(env.model, bits, frames);
        // Delivered copies (intact or corrupt) bill the receiver; each
        // intact copy is ACKed per copy, before dedup, as the boxed
        // receiver does.
        let (delivered, intact) = match data.next_fate(env.link) {
            LinkFate::Lost => (0u64, 0u64),
            LinkFate::Corrupted(_) => (1, 0),
            LinkFate::Delivered(_) => (1, 1),
            LinkFate::DeliveredTwice(_, _) => (2, 2),
        };
        for _ in 0..delivered {
            charge_rx(receiver.stats, env.model, bits);
        }
        let mut acked = false;
        for _ in 0..intact {
            receiver.transmit(env.model, env.ack_bits, frames);
            match ack.next_fate(env.link) {
                LinkFate::Lost => {}
                // A corrupt ACK bills the sender's radio but never
                // reaches the protocol: it does not stop retransmission.
                LinkFate::Corrupted(_) => charge_rx(sender.stats, env.model, env.ack_bits),
                LinkFate::Delivered(_) => {
                    charge_rx(sender.stats, env.model, env.ack_bits);
                    acked = true;
                }
                LinkFate::DeliveredTwice(_, _) => {
                    charge_rx(sender.stats, env.model, env.ack_bits);
                    charge_rx(sender.stats, env.model, env.ack_bits);
                    acked = true;
                }
            }
        }
        intact_total += intact;
        if acked {
            // The ACK lands before this attempt's retransmit timer
            // (the validated RTT bound), so no further attempt exists.
            return Ok(intact_total);
        }
    }
}

/// Per-position wave state: the flat analogue of the wave-scoped fields
/// of [`AggNode`](crate::wave::AggNode), reset by admission each wave.
#[derive(Debug)]
struct WaveSlot<P: WaveProtocol> {
    /// Request this node received (partials are encoded against it) —
    /// a shared handle: every node this thread saw take a bit-identical
    /// frame holds the same decode.
    req: Option<Arc<P::Request>>,
    /// Request forwarded to children (partials are decoded and merged
    /// against it): the *same* handle as `req` unless a partial cache
    /// hit subset the envelope.
    fwd: Option<Arc<P::Request>>,
    /// Local contribution, then the canonical merge accumulator.
    acc: Option<P::Partial>,
    /// Cache hits of the current wave: `(slot index, partial)`.
    hits: Vec<(usize, P::Partial)>,
    /// Slot indices of the current wave's cache misses.
    miss: Vec<usize>,
    /// Partials to store on completion: `(position in fwd, key)`.
    store: Vec<(usize, CacheKey)>,
    /// Whether admission answered entirely from cache (subtree silent).
    cached: bool,
    /// Whether this node participates in the current wave.
    active: bool,
    /// Frame mailbox: inbound request during the top-down sweep, then
    /// this node's outbound partial during the bottom-up sweep. A
    /// parent writes a child's slot going down and takes it coming up,
    /// so no queues exist — the column *is* the network.
    frame: Option<BitString>,
}

impl<P: WaveProtocol> WaveSlot<P> {
    fn blank() -> Self {
        WaveSlot {
            req: None,
            fwd: None,
            acc: None,
            hits: Vec::new(),
            miss: Vec::new(),
            store: Vec::new(),
            cached: false,
            active: false,
            frame: None,
        }
    }
}

/// Request frames one thread remembers per wave. Fire-and-forget
/// fan-outs put one distinct frame per forwarded envelope on the wire
/// and ARQ one per child ordinal, so a handful covers a worker's whole
/// share; past the cap the oldest entry is replaced.
const DECODE_MEMO_CAP: usize = 16;

/// The request frames a thread has already decoded in the current wave,
/// each with its decode. Decoding is a pure function of (frame bits,
/// deployment config), so a node whose inbound frame equals a
/// remembered one **bit for bit** — header and ARQ sequence number
/// included — shares that decode instead of repeating it; a frame that
/// differs anywhere misses and is decoded afresh.
#[derive(Debug)]
struct DecodeMemo<R> {
    entries: Vec<(BitString, Arc<R>)>,
    /// Next entry to replace once `entries` is full.
    cursor: usize,
}

impl<R> DecodeMemo<R> {
    fn new() -> Self {
        DecodeMemo {
            entries: Vec::with_capacity(DECODE_MEMO_CAP),
            cursor: 0,
        }
    }

    fn get(&self, frame: &BitString) -> Option<Arc<R>> {
        self.entries
            .iter()
            .find(|(seen, _)| seen == frame)
            .map(|(_, req)| Arc::clone(req))
    }

    /// Remembers `frame`'s decode, keeping the frame itself as the key
    /// (its allocation returns to `pool` on replacement or `drain`).
    fn insert(&mut self, frame: BitString, req: Arc<R>, pool: &mut ScratchPool) {
        if self.entries.len() < DECODE_MEMO_CAP {
            self.entries.push((frame, req));
        } else {
            let (old, _) = std::mem::replace(&mut self.entries[self.cursor], (frame, req));
            pool.recycle(old);
            self.cursor = (self.cursor + 1) % DECODE_MEMO_CAP;
        }
    }

    fn drain(&mut self, pool: &mut ScratchPool) {
        for (frame, _) in self.entries.drain(..) {
            pool.recycle(frame);
        }
        self.cursor = 0;
    }
}

/// What one thread reuses from wave to wave — the driver on the spine,
/// each worker across its blocks; never shared between threads.
#[derive(Debug)]
struct Scratch<R> {
    /// Recycled frame buffers.
    pool: ScratchPool,
    /// Request frames decoded so far in the current wave.
    memo: DecodeMemo<R>,
}

impl<R> Scratch<R> {
    fn new() -> Self {
        Scratch {
            pool: ScratchPool::new(),
            memo: DecodeMemo::new(),
        }
    }

    /// Ends the wave's top-down traffic: the remembered frames go back
    /// to the pool.
    fn forget_frames(&mut self) {
        self.memo.drain(&mut self.pool);
    }
}

/// A contiguous window into every per-node column, covering positions
/// `base..base + len`. The whole tree for spine sweeps; one block for a
/// worker — blocks are disjoint position ranges, so workers borrow
/// disjoint slices of the same columns with no synchronisation.
struct Cols<'a, P: WaveProtocol> {
    base: usize,
    items: &'a mut [Vec<P::Item>],
    rngs: &'a mut [Xoshiro256StarStar],
    caches: &'a mut [Option<PartialCache<P::Partial>>],
    counters: &'a mut [NodeStats],
    slots: &'a mut [WaveSlot<P>],
    /// Emulated receiver-side dedup residue (`seen` cardinality) per
    /// position; stays zero under [`Reliability::None`].
    residue: &'a mut [u64],
    /// Per-edge fate streams, at the child position; `None` for the
    /// root and under [`Reliability::None`].
    arq: &'a mut [Option<Box<EdgeStreams>>],
    /// Per-position telemetry buffers (all empty when tracing is off);
    /// drained by the driver in ascending global id order.
    trace: &'a mut [Vec<NodeTraceEntry>],
    /// Cumulative bits on each position's tree edge (the one to its
    /// parent). An edge is owned by its child position, which is always
    /// inside the window that emulates the exchange — the same argument
    /// as `arq` — so link tallies need no cross-window traffic.
    links: &'a mut [TreeLinkBits],
    /// Frames transmitted through this window in the current wave.
    frames: u64,
}

fn charge_tx(c: &mut NodeStats, model: &EnergyModel, bits: u64) {
    c.tx_bits += bits;
    c.tx_packets += 1;
    c.energy.charge_tx(model, bits);
}

fn charge_rx(c: &mut NodeStats, model: &EnergyModel, bits: u64) {
    c.rx_bits += bits;
    c.rx_packets += 1;
    c.energy.charge_rx(model, bits);
}

/// Wave admission at one node — the same cache resolution as
/// [`AggNode::admit_wave`](crate::wave::AggNode), operating on a column
/// slot. Returns `true` when every slot of the request was served from
/// cache (the subtree stays silent and `slot.acc` holds the joined
/// reply).
fn admit<P: WaveProtocol>(
    proto: &P,
    cache: &mut Option<PartialCache<P::Partial>>,
    slot: &mut WaveSlot<P>,
    req: Arc<P::Request>,
    mut trace: Option<&mut Vec<NodeTraceEntry>>,
) -> bool {
    slot.hits.clear();
    slot.miss.clear();
    slot.store.clear();
    slot.acc = None;
    let invalidates = proto.invalidates_cache(&req);
    if invalidates {
        if let Some(cache) = cache {
            cache.clear();
        }
    }
    if let (Some(cache), false) = (cache.as_mut(), invalidates) {
        for (i, key) in proto.slot_cache_keys(&req).into_iter().enumerate() {
            match key {
                Some(key) => match cache.get(&key) {
                    Some(p) => {
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(NodeTraceEntry::CacheHit { slot: i as u32 });
                        }
                        slot.hits.push((i, p));
                    }
                    None => {
                        if let Some(t) = trace.as_deref_mut() {
                            t.push(NodeTraceEntry::CacheMiss { slot: i as u32 });
                        }
                        slot.store.push((slot.miss.len(), key));
                        slot.miss.push(i);
                    }
                },
                None => slot.miss.push(i),
            }
        }
    }
    if !slot.hits.is_empty() && slot.miss.is_empty() {
        let hits = std::mem::take(&mut slot.hits);
        slot.acc = Some(proto.join_slots(&req, hits.into_iter().map(|(_, p)| p).collect()));
        slot.req = Some(req);
        slot.fwd = None;
        slot.cached = true;
        return true;
    }
    // The only place a new request value is made below the root: a
    // partial hit forwards the miss subset; otherwise the handle is
    // shared.
    let fwd = if slot.hits.is_empty() {
        Arc::clone(&req)
    } else {
        Arc::new(proto.subset_request(&req, &slot.miss))
    };
    slot.req = Some(req);
    slot.fwd = Some(fwd);
    slot.cached = false;
    false
}

/// Completion at one node — the same cache population and hit/computed
/// interleave as [`AggNode::assemble_partial`](crate::wave::AggNode).
fn assemble<P: WaveProtocol>(
    proto: &P,
    cache: &mut Option<PartialCache<P::Partial>>,
    slot: &mut WaveSlot<P>,
    acc: P::Partial,
) -> P::Partial {
    if slot.hits.is_empty() && slot.store.is_empty() {
        return acc;
    }
    let req = slot.req.as_ref().expect("active wave has a request");
    let fwd = slot
        .fwd
        .as_ref()
        .expect("partial-hit wave has a forward request");
    let computed = proto.split_slots(fwd, acc);
    debug_assert_eq!(computed.len(), slot.miss.len(), "slot split shape");
    if let Some(cache) = cache {
        for (pos, key) in slot.store.drain(..) {
            cache.insert(key, computed[pos].clone());
        }
    }
    if slot.hits.is_empty() {
        return proto.join_slots(req, computed);
    }
    let mut hits = std::mem::take(&mut slot.hits).into_iter().peekable();
    let mut fresh = slot.miss.iter().zip(computed).peekable();
    let mut slots = Vec::with_capacity(hits.len() + fresh.len());
    loop {
        match (hits.peek(), fresh.peek()) {
            (Some(&(hi, _)), Some(&(&mi, _))) => {
                if hi < mi {
                    slots.push(hits.next().expect("peeked").1);
                } else {
                    slots.push(fresh.next().expect("peeked").1);
                }
            }
            (Some(_), None) => slots.push(hits.next().expect("peeked").1),
            (None, Some(_)) => slots.push(fresh.next().expect("peeked").1),
            (None, None) => break,
        }
    }
    proto.join_slots(req, slots)
}

/// Stages one request frame per child of `p`, charging the
/// transmissions to `p` exactly as its per-child unicasts would be.
///
/// Fire-and-forget frames are bit-identical for every child, so the
/// frame is encoded **once** and the siblings get pool-backed copies,
/// billed through [`WaveProtocol::note_request_copies`] — the boxed
/// runner's own fan-out, copy for copy. Under ARQ the *i*-th child's
/// frame carries sequence number *i* (the boxed fan-out loop's
/// counter), so each child keeps its own encode, and the whole boxed
/// exchange is emulated on the spot — both endpoints' counters live in
/// this window, since blocks are whole subtrees and the spine sweeps
/// the full column.
fn fan_out<P: WaveProtocol>(
    env: &Env<'_>,
    proto: &P,
    pool: &mut ScratchPool,
    cols: &mut Cols<'_, P>,
    p: usize,
    wave: u16,
    fwd: &P::Request,
) -> Result<(), ProtocolError> {
    let rel = p - cols.base;
    let children = env.tree.children_pos(p);
    let encode = |pool: &mut ScratchPool, seq: Option<usize>| {
        let mut w = pool.writer();
        w.write_bits(KIND_REQUEST, 2);
        write_wave(&mut w, wave);
        if let Some(seq) = seq {
            w.write_bits(seq as u64, SEQ_BITS as u32);
        }
        proto.encode_request(fwd, &mut w);
        w.finish()
    };
    let Some(timeout) = env.arq_timeout else {
        let Some((&last, siblings)) = children.split_last() else {
            return Ok(()); // a leaf encodes (and bills) nothing
        };
        let frame = encode(pool, None);
        let bits = frame.len_bits();
        proto.note_request_copies(fwd, siblings.len() as u64);
        for &c in children {
            charge_tx(&mut cols.counters[rel], env.model, bits);
            cols.links[c as usize - cols.base].down += bits;
        }
        cols.frames += children.len() as u64;
        for &c in siblings {
            cols.slots[c as usize - cols.base].frame = Some(pool.duplicate(&frame));
        }
        cols.slots[last as usize - cols.base].frame = Some(frame);
        return Ok(());
    };
    for (i, &c) in children.iter().enumerate() {
        let crel = c as usize - cols.base;
        let frame = encode(pool, Some(i));
        let streams = cols.arq[crel]
            .as_mut()
            .expect("non-root position has edge streams under ARQ");
        let (sender, receiver) = two_mut(cols.counters, rel, crel);
        let TreeLinkBits { down, up } = &mut cols.links[crel];
        let intact = arq_exchange(
            env,
            timeout,
            frame.len_bits(),
            &mut streams.down_data,
            &mut streams.up_ack,
            Endpoint {
                stats: sender,
                link: down,
            },
            Endpoint {
                stats: receiver,
                link: up,
            },
            &mut cols.frames,
        )?;
        // The boxed receiver's first request copy enters `seen`
        // only to be purged by its own admission; a second
        // intact copy re-inserts the key, and it persists.
        cols.residue[crel] = u64::from(intact >= 2);
        cols.slots[crel].frame = Some(frame);
    }
    Ok(())
}

/// Top-down step at a non-root position: consume the inbound request
/// frame, admit the wave, contribute locally, stage child frames.
fn step_down<P: WaveProtocol>(
    env: &Env<'_>,
    proto: &P,
    scratch: &mut Scratch<P::Request>,
    cols: &mut Cols<'_, P>,
    p: usize,
    wave: u16,
) -> Result<(), ProtocolError> {
    let Scratch { pool, memo } = scratch;
    let rel = p - cols.base;
    let Some(frame) = cols.slots[rel].frame.take() else {
        // No request reached this node (an ancestor answered from
        // cache): it sits the wave out.
        cols.slots[rel].active = false;
        return Ok(());
    };
    // Under ARQ the reception was already billed by the parent's
    // emulated exchange (per delivered copy); fire-and-forget bills
    // the single delivery here.
    let frame_bits = frame.len_bits();
    if env.arq_timeout.is_none() {
        charge_rx(&mut cols.counters[rel], env.model, frame_bits);
    }
    let req = match memo.get(&frame) {
        Some(req) => {
            pool.recycle(frame);
            req
        }
        None => {
            let decoded = {
                let mut r = BitReader::new(&frame);
                let kind = r.read_bits(2);
                let frame_wave = read_wave(&mut r);
                debug_assert!(matches!(kind, Ok(KIND_REQUEST)), "staged frame kind");
                debug_assert_eq!(frame_wave.ok(), Some(wave), "staged frame wave");
                if env.arq_timeout.is_some() {
                    let _seq = r.read_bits(SEQ_BITS as u32);
                }
                proto.decode_request(&mut r)
            };
            let Ok(req) = decoded else {
                pool.recycle(frame);
                cols.slots[rel].active = false;
                return Ok(());
            };
            let req = Arc::new(req);
            memo.insert(frame, Arc::clone(&req), pool);
            req
        }
    };
    if env.trace_on {
        cols.trace[rel].push(NodeTraceEntry::RequestRecv { bits: frame_bits });
    }
    cols.slots[rel].active = true;
    let trace = if env.trace_on {
        Some(&mut cols.trace[rel])
    } else {
        None
    };
    if admit(
        proto,
        &mut cols.caches[rel],
        &mut cols.slots[rel],
        req,
        trace,
    ) {
        return Ok(()); // fully cached: subtree silent, reply sent bottom-up
    }
    let fwd = Arc::clone(
        cols.slots[rel]
            .fwd
            .as_ref()
            .expect("forwarding admission sets the forward request"),
    );
    let local = proto.local(
        env.tree.global_of(p),
        &mut cols.items[rel],
        &fwd,
        &mut cols.rngs[rel],
    );
    cols.slots[rel].acc = Some(local);
    fan_out(env, proto, pool, cols, p, wave, &fwd)
}

/// Bottom-up step: merge child partials in fixed child order, populate
/// the cache, and stage this node's partial frame for its parent.
/// Returns the full reply at the root (`parent == None`).
///
/// Under ARQ each child's partial *exchange* is emulated here, at the
/// parent — where both endpoints' counters are in the window — and
/// this node's own partial frame is staged **uncharged**: its exchange
/// runs when the parent consumes it. The partial's sequence number is
/// the boxed sender's counter after its fan-out: the child count for a
/// forwarding node, zero for one answered from cache.
fn step_up<P: WaveProtocol>(
    env: &Env<'_>,
    proto: &P,
    pool: &mut ScratchPool,
    cols: &mut Cols<'_, P>,
    p: usize,
    wave: u16,
) -> Result<Option<P::Partial>, ProtocolError> {
    let rel = p - cols.base;
    if !cols.slots[rel].active {
        return Ok(None);
    }
    let mut acc = cols.slots[rel]
        .acc
        .take()
        .expect("active wave has an accumulator");
    let children = env.tree.children_pos(p).len();
    if !cols.slots[rel].cached {
        let fwd = Arc::clone(
            cols.slots[rel]
                .fwd
                .as_ref()
                .expect("executing wave has a forward request"),
        );
        for &c in env.tree.children_pos(p) {
            let crel = c as usize - cols.base;
            let Some(frame) = cols.slots[crel].frame.take() else {
                return Err(ProtocolError::NoResult);
            };
            let bits = frame.len_bits();
            match env.arq_timeout {
                None => charge_rx(&mut cols.counters[rel], env.model, bits),
                Some(timeout) => {
                    let streams = cols.arq[crel]
                        .as_mut()
                        .expect("non-root position has edge streams under ARQ");
                    let (receiver, sender) = two_mut(cols.counters, rel, crel);
                    let TreeLinkBits { down, up } = &mut cols.links[crel];
                    arq_exchange(
                        env,
                        timeout,
                        bits,
                        &mut streams.up_data,
                        &mut streams.down_ack,
                        Endpoint {
                            stats: sender,
                            link: up,
                        },
                        Endpoint {
                            stats: receiver,
                            link: down,
                        },
                        &mut cols.frames,
                    )?;
                }
            }
            // The child's partial crosses the edge as encoded bits and
            // is merged into the accumulator straight off the wire.
            let merged = {
                let mut r = BitReader::new(&frame);
                let kind = r.read_bits(2);
                let frame_wave = read_wave(&mut r);
                debug_assert!(matches!(kind, Ok(KIND_PARTIAL)), "staged frame kind");
                debug_assert_eq!(frame_wave.ok(), Some(wave), "staged frame wave");
                if env.arq_timeout.is_some() {
                    let _seq = r.read_bits(SEQ_BITS as u32);
                }
                proto.absorb_child(&fwd, acc, &mut r)
            };
            pool.recycle(frame);
            acc = merged.map_err(ProtocolError::from)?;
        }
    }
    let full = assemble(proto, &mut cols.caches[rel], &mut cols.slots[rel], acc);
    match env.tree.parent_pos(p) {
        None => {
            if env.arq_timeout.is_some() {
                // The root's dedup residue: one `(child, wave, seq)`
                // key per reporting child.
                cols.residue[rel] = children as u64;
            }
            Ok(Some(full))
        }
        Some(_) => {
            let req = cols.slots[rel]
                .req
                .as_ref()
                .expect("active wave has a request");
            let mut w = pool.writer();
            w.write_bits(KIND_PARTIAL, 2);
            write_wave(&mut w, wave);
            if env.arq_timeout.is_some() {
                let seq = if cols.slots[rel].cached { 0 } else { children };
                w.write_bits(seq as u64, SEQ_BITS as u32);
            }
            proto.encode_partial(req, &full, &mut w);
            let frame = w.finish();
            let bits = frame.len_bits();
            if env.trace_on {
                cols.trace[rel].push(NodeTraceEntry::PartialSent { bits });
            }
            if env.arq_timeout.is_none() {
                charge_tx(&mut cols.counters[rel], env.model, bits);
                cols.links[rel].up += bits;
                cols.frames += 1;
            } else if !cols.slots[rel].cached {
                // Dedup residue of a forwarding node: one key per
                // reporting child, plus the duplicate-request key set
                // by the parent's fan-out exchange (already in place).
                cols.residue[rel] += children as u64;
            }
            cols.slots[rel].frame = Some(frame);
            Ok(None)
        }
    }
}

/// Runs one complete block (a whole subtree): top-down then bottom-up.
/// The block root's inbound frame was staged by its spine parent; its
/// outbound partial is left in its own slot for the spine to take.
fn eval_block<P: WaveProtocol>(
    env: &Env<'_>,
    proto: &P,
    scratch: &mut Scratch<P::Request>,
    cols: &mut Cols<'_, P>,
    block: ShardBlock,
    wave: u16,
) -> Result<(), ProtocolError> {
    let (start, end) = (block.start as usize, (block.start + block.len) as usize);
    for p in start..end {
        step_down(env, proto, scratch, cols, p, wave)?;
    }
    for p in (start..end).rev() {
        let out = step_up(env, proto, &mut scratch.pool, cols, p, wave)?;
        debug_assert!(out.is_none(), "blocks are strictly below the root");
    }
    Ok(())
}

/// One worker's share of a wave: its protocol clone (sharing the
/// group's side-state), scratch, and assigned blocks with their
/// disjoint column windows.
struct WorkerTask<'a, P: WaveProtocol> {
    proto: P,
    scratch: &'a mut Scratch<P::Request>,
    blocks: Vec<(ShardBlock, Cols<'a, P>)>,
}

fn run_task<P: WaveProtocol>(
    env: &Env<'_>,
    task: &mut WorkerTask<'_, P>,
    wave: u16,
) -> Result<(), ProtocolError> {
    let mut result = Ok(());
    for (block, cols) in &mut task.blocks {
        let r = eval_block(env, &task.proto, task.scratch, cols, *block, wave);
        // Keep the first error but finish every block, so per-block
        // side-state is always fully accumulated before the barrier
        // drains it in fixed group order (ARCHITECTURE §10).
        if result.is_ok() {
            result = r;
        }
    }
    task.scratch.forget_frames();
    result
}

/// The position-indexed columns a wave reads and writes: persistent
/// node state plus per-wave mailboxes, windowed as [`Cols`].
#[derive(Debug)]
struct Columns<P: WaveProtocol> {
    items: Vec<Vec<P::Item>>,
    rngs: Vec<Xoshiro256StarStar>,
    caches: Vec<Option<PartialCache<P::Partial>>>,
    /// Cumulative per-position counters, flushed wholesale into the
    /// global-id-indexed [`NetStats`] after every wave.
    counters: Vec<NodeStats>,
    slots: Vec<WaveSlot<P>>,
    /// Emulated `seen`-set cardinality per position (see
    /// [`WaveSubstrate::transport_footprint`]).
    dedup_residue: Vec<u64>,
    /// Per-edge fate streams at the child position; populated under
    /// [`Reliability::Ack`], all `None` otherwise.
    arq: Vec<Option<Box<EdgeStreams>>>,
    /// Position-indexed telemetry buffers (all empty when tracing is
    /// off); drained via [`WaveSubstrate::take_trace`].
    trace: Vec<Vec<NodeTraceEntry>>,
    /// Cumulative tree-edge bits at the child position, flushed with
    /// `counters`.
    links: Vec<TreeLinkBits>,
}

impl<P: WaveProtocol> Columns<P> {
    /// The whole tree as one window (what the spine sweeps).
    fn window(&mut self) -> Cols<'_, P> {
        Cols {
            base: 0,
            items: &mut self.items,
            rngs: &mut self.rngs,
            caches: &mut self.caches,
            counters: &mut self.counters,
            slots: &mut self.slots,
            residue: &mut self.dedup_residue,
            arq: &mut self.arq,
            trace: &mut self.trace,
            links: &mut self.links,
            frames: 0,
        }
    }
}

/// Splits the first `n` elements off the front of a column window.
fn take_front<'a, T>(col: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, rest) = std::mem::take(col).split_at_mut(n);
    *col = rest;
    head
}

impl<'a, P: WaveProtocol> Cols<'a, P> {
    /// Splits `[base, base + n)` off the front of the window.
    fn take_front(&mut self, n: usize) -> Self {
        let head = Cols {
            base: self.base,
            items: take_front(&mut self.items, n),
            rngs: take_front(&mut self.rngs, n),
            caches: take_front(&mut self.caches, n),
            counters: take_front(&mut self.counters, n),
            slots: take_front(&mut self.slots, n),
            residue: take_front(&mut self.residue, n),
            arq: take_front(&mut self.arq, n),
            trace: take_front(&mut self.trace, n),
            links: take_front(&mut self.links, n),
            frames: 0,
        };
        self.base += n;
        head
    }

    /// Carves one window per block (blocks are disjoint and ascending
    /// by start, so this is a single left-to-right pass).
    fn carve(mut self, blocks: &[ShardBlock]) -> Vec<Self> {
        blocks
            .iter()
            .map(|b| {
                self.take_front(b.start as usize - self.base);
                self.take_front(b.len as usize)
            })
            .collect()
    }
}

/// Renders a worker's panic payload for [`ProtocolError::WorkerPanicked`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// Executes [`WaveProtocol`] waves over contiguous per-node columns,
/// with nested static parallelism from a [`ShardPlan`] — see the
/// module docs for the substrate and the bit-identity argument.
#[derive(Debug)]
pub struct FlatWaveRunner<P: WaveProtocol> {
    tree: FlatTree,
    plan: ShardPlan,
    energy: EnergyModel,
    /// The driver's protocol instance — owns the primary side-state
    /// (e.g. the [`MuxLedger`](crate::wave::MuxLedger) handed out
    /// before construction); group clones are drained into it at every
    /// barrier.
    proto: P,
    cols: Columns<P>,
    /// Whether per-node telemetry tracing is on.
    trace_on: bool,
    link: LinkConfig,
    reliability: Reliability,
    /// Per-exchange retransmission attempt budget (from
    /// [`SimConfig::max_events`]).
    attempt_budget: u64,
    stats: NetStats,
    /// Driver-side scratch (spine sweeps).
    scratch: Scratch<P::Request>,
    worker_protos: Vec<P>,
    worker_scratch: Vec<Scratch<P::Request>>,
    next_wave: u16,
    /// Frames transmitted during the most recent wave.
    last_wave_frames: u64,
    /// Set when the previous wave failed part-way: its staged frames
    /// may still sit in the mailbox column.
    stranded: bool,
    tree_height: u32,
    tree_max_degree: usize,
}

impl<P> FlatWaveRunner<P>
where
    P: WaveProtocol + Send,
    P::Request: Send + Sync,
    P::Partial: Send,
    P::Item: Send,
{
    /// Builds a flat runner over the same inputs as
    /// [`WaveRunner::new`](crate::wave::WaveRunner::new), plus the
    /// worker count and nesting depth for the [`ShardPlan`].
    ///
    /// # Errors
    ///
    /// * [`ProtocolError::Unsupported`] for lossy links under
    ///   [`Reliability::None`] — the flat substrate cannot surface
    ///   unrepaired loss mid-wave. Supported combinations:
    ///   `Reliability::None` over lossless links, or
    ///   [`Reliability::Ack`] over any links (emulated from the
    ///   per-edge fate streams; see the module docs);
    /// * [`ProtocolError::ShapeMismatch`] for item/topology mismatches.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        topo: &Topology,
        cfg: SimConfig,
        tree: &SpanningTree,
        proto: P,
        items: Vec<Vec<P::Item>>,
        reliability: Reliability,
        workers: usize,
        depth: NestDepth,
    ) -> Result<Self, ProtocolError> {
        if matches!(reliability, Reliability::None) && !cfg.link.is_lossless() {
            return Err(ProtocolError::Unsupported(
                "flat execution cannot surface unrepaired loss; supported combinations: \
                 Reliability::None over lossless links, or Reliability::Ack over any links \
                 (use the single-threaded WaveRunner for lossy fire-and-forget)",
            ));
        }
        if items.len() != topo.len() {
            return Err(ProtocolError::ShapeMismatch("items vector vs topology"));
        }
        tree.validate(topo)?;

        let n = topo.len();
        let parents: Vec<Option<usize>> = (0..n).map(|v| tree.parent(v)).collect();
        let flat = FlatTree::from_parents(tree.root(), &parents);
        let plan = ShardPlan::new(&flat, workers, depth);

        let mut items = items;
        let flat_items: Vec<Vec<P::Item>> = (0..n)
            .map(|p| std::mem::take(&mut items[flat.global_of(p)]))
            .collect();
        let rngs: Vec<Xoshiro256StarStar> = (0..n)
            .map(|p| {
                Xoshiro256StarStar::seed_from_u64(derive_seed(
                    cfg.seed,
                    flat.global_of(p) as u64,
                    1,
                ))
            })
            .collect();
        let groups = plan.groups().len();
        let worker_protos: Vec<P> = (0..groups).map(|_| proto.shard_clone()).collect();
        // Fate streams keyed by global endpoint labels: position p's
        // tree edge replays exactly the per-edge stream a boxed
        // simulator would consume for the same pair of node ids.
        let arq: Vec<Option<Box<EdgeStreams>>> = (0..n)
            .map(|p| match (reliability, flat.parent_pos(p)) {
                (Reliability::Ack { .. }, Some(parent)) => Some(Box::new(EdgeStreams::new(
                    cfg.seed,
                    flat.global_of(parent) as u64,
                    flat.global_of(p) as u64,
                ))),
                _ => None,
            })
            .collect();

        Ok(FlatWaveRunner {
            tree_height: tree.height(),
            tree_max_degree: tree.max_degree(),
            tree: flat,
            plan,
            energy: cfg.energy,
            proto,
            cols: Columns {
                items: flat_items,
                rngs,
                caches: (0..n).map(|_| None).collect(),
                counters: vec![NodeStats::default(); n],
                slots: (0..n).map(|_| WaveSlot::blank()).collect(),
                dedup_residue: vec![0; n],
                arq,
                trace: (0..n).map(|_| Vec::new()).collect(),
                links: vec![TreeLinkBits::default(); n],
            },
            trace_on: false,
            link: cfg.link.clone(),
            reliability,
            attempt_budget: cfg.max_events,
            stats: NetStats::with_tree(cfg.energy, &parents),
            scratch: Scratch::new(),
            worker_protos,
            worker_scratch: (0..groups).map(|_| Scratch::new()).collect(),
            next_wave: 0,
            last_wave_frames: 0,
            stranded: false,
        })
    }

    /// Number of parallel worker groups in the plan.
    pub fn worker_count(&self) -> usize {
        self.plan.groups().len()
    }

    /// The shard plan driving parallel execution.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Buffers taken from the scratch pools instead of allocated —
    /// after the first wave, frames come entirely from here.
    pub fn scratch_reused(&self) -> u64 {
        self.scratch.pool.reused()
            + self
                .worker_scratch
                .iter()
                .map(|s| s.pool.reused())
                .sum::<u64>()
    }

    /// Buffers the scratch pools had to allocate fresh.
    pub fn scratch_fresh(&self) -> u64 {
        self.scratch.pool.fresh()
            + self
                .worker_scratch
                .iter()
                .map(|s| s.pool.fresh())
                .sum::<u64>()
    }

    /// Copies the cumulative per-position node and tree-edge tallies
    /// into the global-id indexed [`NetStats`] view.
    fn flush_stats(&mut self) {
        let nodes = self.stats.nodes_mut();
        for (p, c) in self.cols.counters.iter().enumerate() {
            nodes[self.tree.global_of(p)] = *c;
        }
        let links = self.stats.tree_links_mut();
        for (p, l) in self.cols.links.iter().enumerate() {
            links[self.tree.global_of(p)] = *l;
        }
    }

    /// The three phases of one admitted wave. Whatever it returns, the
    /// per-position tallies are consistent and ready to flush.
    fn sweep(&mut self, req: Arc<P::Request>, wave: u16) -> Result<P::Partial, ProtocolError> {
        // Root admission, outside any sweep: the driver stages the
        // request directly, so there is no inbound frame and no rx
        // charge — exactly the staged kick of the boxed runners.
        self.cols.slots[0].active = true;
        let root_trace = if self.trace_on {
            Some(&mut self.cols.trace[0])
        } else {
            None
        };
        if admit(
            &self.proto,
            &mut self.cols.caches[0],
            &mut self.cols.slots[0],
            req,
            root_trace,
        ) {
            // Every slot served from the root's cache: the network
            // stays silent. The boxed root's admission still purged
            // its dedup set.
            self.cols.dedup_residue[0] = 0;
            let acc = self.cols.slots[0]
                .acc
                .take()
                .expect("cached admission set the accumulator");
            return Ok(assemble(
                &self.proto,
                &mut self.cols.caches[0],
                &mut self.cols.slots[0],
                acc,
            ));
        }

        let model = self.energy;
        let env = Env {
            tree: &self.tree,
            model: &model,
            link: &self.link,
            ack_bits: ack_bits(wave),
            arq_timeout: match self.reliability {
                Reliability::Ack { timeout } => Some(timeout),
                Reliability::None => None,
            },
            attempt_budget: self.attempt_budget,
            trace_on: self.trace_on,
        };
        let env = &env;

        // Phase A — spine top-down: root contribution and fan-out,
        // then every spine position in ascending (pre-)order, staging
        // the inbound frames of all block roots along the way.
        let mut cols = self.cols.window();
        let fwd = Arc::clone(
            cols.slots[0]
                .fwd
                .as_ref()
                .expect("forwarding admission sets the forward request"),
        );
        let local = self.proto.local(
            env.tree.global_of(0),
            &mut cols.items[0],
            &fwd,
            &mut cols.rngs[0],
        );
        cols.slots[0].acc = Some(local);
        let phase_a = fan_out(
            env,
            &self.proto,
            &mut self.scratch.pool,
            &mut cols,
            0,
            wave,
            &fwd,
        )
        .and_then(|()| {
            self.plan.spine()[1..].iter().try_for_each(|&p| {
                step_down(
                    env,
                    &self.proto,
                    &mut self.scratch,
                    &mut cols,
                    p as usize,
                    wave,
                )
            })
        });
        self.scratch.forget_frames();
        self.last_wave_frames += cols.frames;
        phase_a?;

        // Phase B — parallel blocks: disjoint column windows per
        // block, grouped per worker by the plan's static assignment.
        let blocks = self.plan.blocks();
        let mut windows: Vec<Option<Cols<'_, P>>> = self
            .cols
            .window()
            .carve(blocks)
            .into_iter()
            .map(Some)
            .collect();
        let mut tasks: Vec<WorkerTask<'_, P>> = self
            .worker_protos
            .iter()
            .zip(self.worker_scratch.iter_mut())
            .zip(self.plan.groups())
            .map(|((proto, scratch), group)| WorkerTask {
                proto: proto.clone(),
                scratch,
                blocks: group
                    .iter()
                    .map(|&bi| (blocks[bi], windows[bi].take().expect("block assigned once")))
                    .collect(),
            })
            .collect();
        let results: Vec<Result<(), ProtocolError>> = if tasks.len() <= 1 {
            tasks.iter_mut().map(|t| run_task(env, t, wave)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = tasks
                    .iter_mut()
                    .map(|t| scope.spawn(move || run_task(env, t, wave)))
                    .collect();
                // Every handle is joined here, so a worker's panic
                // comes back as a value instead of re-panicking when
                // the scope closes.
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|payload| {
                            Err(ProtocolError::WorkerPanicked(panic_message(payload)))
                        })
                    })
                    .collect()
            })
        };
        self.last_wave_frames += tasks
            .iter()
            .flat_map(|t| &t.blocks)
            .map(|(_, cols)| cols.frames)
            .sum::<u64>();
        drop(tasks);

        // Barrier — drain per-group protocol side-state in fixed group
        // order, whether or not a block failed, so nothing leaks into
        // the next wave.
        for wp in &self.worker_protos {
            self.proto.absorb_shard(wp);
        }
        results.into_iter().collect::<Result<(), _>>()?;

        // Phase C — spine bottom-up: descending position order visits
        // every spine child (spine or block root) before its parent.
        let mut cols = self.cols.window();
        let mut result = Ok(None);
        for &p in self.plan.spine().iter().rev() {
            result = step_up(
                env,
                &self.proto,
                &mut self.scratch.pool,
                &mut cols,
                p as usize,
                wave,
            );
            if result.is_err() {
                break;
            }
        }
        self.last_wave_frames += cols.frames;
        // Position 0 is visited last, and only the root returns a reply.
        result?.ok_or(ProtocolError::NoResult)
    }
}

impl<P> WaveSubstrate<P> for FlatWaveRunner<P>
where
    P: WaveProtocol + Send + std::fmt::Debug,
    P::Request: Send + Sync,
    P::Partial: Send,
    P::Item: Send,
{
    fn name(&self) -> &'static str {
        "flat"
    }

    /// Root admission, spine top-down, parallel block execution,
    /// barrier, spine bottom-up. [`ProtocolError::NoResult`] means some
    /// subtree failed to report.
    fn run_wave(&mut self, req: P::Request) -> Result<P::Partial, ProtocolError> {
        self.proto
            .validate_request(&req)
            .map_err(ProtocolError::from)?;
        self.next_wave = self.next_wave.wrapping_add(1);
        self.last_wave_frames = 0;

        // Recycle frames stranded by a failed wave so they can never be
        // mistaken for this wave's traffic. A wave that completed took
        // every frame it staged, so only a failure needs the sweep.
        if std::mem::take(&mut self.stranded) {
            for s in &mut self.cols.slots {
                if let Some(f) = s.frame.take() {
                    self.scratch.pool.recycle(f);
                }
            }
            for s in &mut self.worker_scratch {
                s.forget_frames(); // a worker that panicked never did
            }
        }

        let result = self.sweep(Arc::new(req), self.next_wave);
        self.stranded = result.is_err();
        self.flush_stats();
        result
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.cols.counters.fill(NodeStats::default());
        self.cols.links.fill(TreeLinkBits::default());
        self.stats.reset();
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn tree_height(&self) -> u32 {
        self.tree_height
    }

    fn tree_max_degree(&self) -> usize {
        self.tree_max_degree
    }

    fn items(&self, node: NodeId) -> &[P::Item] {
        &self.cols.items[self.tree.pos_of(node)]
    }

    /// The boxed runner's root-path walk, as position arithmetic on the
    /// parent column.
    fn set_items(&mut self, node: NodeId, items: Vec<P::Item>) -> (u64, u64) {
        let pos = self.tree.pos_of(node);
        let old = std::mem::replace(&mut self.cols.items[pos], items);
        if old == self.cols.items[pos] {
            return (0, 0); // nothing observable changed: caches stay valid as-is
        }
        let new = self.cols.items[pos].clone();
        let (mut applied, mut invalidated) = (0, 0);
        let mut cursor = Some(pos);
        while let Some(p) = cursor {
            if let Some(cache) = &mut self.cols.caches[p] {
                let proto = &self.proto;
                let (a, i) = cache.delta_maintain(|key, partial| {
                    proto.apply_item_delta(key, partial, node, &old, &new)
                });
                applied += a;
                invalidated += i;
            }
            cursor = self.tree.parent_pos(p);
        }
        (applied, invalidated)
    }

    fn enable_partial_cache(&mut self, capacity: usize) {
        for c in &mut self.cols.caches {
            *c = Some(PartialCache::new(capacity));
        }
    }

    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in self.cols.caches.iter().flatten() {
            total.absorb(cache.stats());
        }
        total
    }

    /// Between waves the boxed ARQ holds no pending frames or buffered
    /// partials, but each node's dedup `seen` set retains its last
    /// wave's keys until the next admission purges them — tracked here
    /// in closed form (`dedup_residue`), so footprints compare
    /// bit-for-bit against the boxed runner.
    fn transport_footprint(&self) -> TransportFootprint {
        TransportFootprint {
            dedup_entries: self.cols.dedup_residue.iter().sum(),
            cache_entries: self
                .cols
                .caches
                .iter()
                .flatten()
                .map(|c| c.stats().entries)
                .sum(),
            ..TransportFootprint::default()
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace_on = on;
        for t in &mut self.cols.trace {
            t.clear();
        }
    }

    /// Position-ordered buffers re-sorted by **global** node id.
    fn take_trace(&mut self) -> Vec<(usize, NodeTraceEntry)> {
        let mut out = Vec::new();
        for (p, trace) in self.cols.trace.iter_mut().enumerate() {
            let gid = self.tree.global_of(p);
            out.extend(trace.drain(..).map(|e| (gid, e)));
        }
        out.sort_by_key(|&(gid, _)| gid);
        out
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
    use crate::wave::{MultiplexWave, MuxEntry, WaveRunner};
    use saq_netsim::wire::{width_for_max, BitWriter};
    use saq_netsim::NetsimError;

    /// SUM of items below a threshold; deterministic, so cacheable.
    #[derive(Debug, Clone)]
    struct SumBelow {
        value_width: u32,
    }

    impl WaveProtocol for SumBelow {
        type Request = u64;
        type Partial = u64;
        type Item = u64;

        fn encode_request(&self, req: &u64, w: &mut BitWriter) {
            w.write_bits(*req, self.value_width);
        }
        fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            r.read_bits(self.value_width)
        }
        fn encode_partial(&self, _req: &u64, p: &u64, w: &mut BitWriter) {
            w.write_bits(*p, 32);
        }
        fn decode_partial(&self, _req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            r.read_bits(32)
        }
        fn local(
            &self,
            _node: NodeId,
            items: &mut Vec<u64>,
            req: &u64,
            _rng: &mut Xoshiro256StarStar,
        ) -> u64 {
            items.iter().filter(|&&x| x < *req).sum()
        }
        fn merge(&self, _req: &u64, a: u64, b: u64) -> u64 {
            a + b
        }
        fn cache_key(&self, req: &u64) -> Option<CacheKey> {
            let mut w = BitWriter::new();
            self.encode_request(req, &mut w);
            Some(w.finish())
        }
    }

    fn proto() -> MultiplexWave<SumBelow> {
        MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        })
    }

    fn env(reqs: Vec<u64>) -> Vec<MuxEntry<u64>> {
        MultiplexWave::<SumBelow>::envelope(reqs)
    }

    fn balanced_setup(n: usize, degree: usize) -> (Topology, SpanningTree, Vec<Vec<u64>>) {
        let topo = Topology::balanced_tree(n, degree).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let items: Vec<Vec<u64>> = (0..n).map(|i| vec![(i as u64 * 7) % 1000]).collect();
        (topo, tree, items)
    }

    #[test]
    fn flat_matches_single_threaded_everything() {
        let (topo, tree, items) = balanced_setup(85, 4);
        for workers in [1usize, 2, 4] {
            for depth in [NestDepth::Fixed(0), NestDepth::Fixed(2), NestDepth::Auto] {
                let mut single = WaveRunner::new(
                    &topo,
                    SimConfig::default(),
                    &tree,
                    proto(),
                    items.clone(),
                    Reliability::None,
                )
                .unwrap();
                let mut flat = FlatWaveRunner::new(
                    &topo,
                    SimConfig::default(),
                    &tree,
                    proto(),
                    items.clone(),
                    Reliability::None,
                    workers,
                    depth,
                )
                .unwrap();
                for req in [vec![1000, 500], vec![30], vec![999, 1, 500]] {
                    let a = single.run_wave(env(req.clone())).unwrap();
                    let b = flat.run_wave(env(req)).unwrap();
                    assert_eq!(a, b, "answers differ at workers={workers} {depth:?}");
                }
                // Per-node bit statistics are identical: same messages,
                // same encodes, different substrate. (Energy compared
                // via bits — f64 sums can differ in ULPs across
                // accumulation orders.)
                for v in 0..topo.len() {
                    let (a, b) = (single.stats().node(v), flat.stats().node(v));
                    assert_eq!(
                        (a.tx_bits, a.rx_bits, a.tx_packets, a.rx_packets),
                        (b.tx_bits, b.rx_bits, b.tx_packets, b.rx_packets),
                        "node {v} stats differ at workers={workers} {depth:?}"
                    );
                }
                // Link ledgers match too: same frames on the same edges.
                for v in 1..topo.len() {
                    if let Some(p) = tree.parent(v) {
                        assert_eq!(
                            single.stats().link_bits(p, v),
                            flat.stats().link_bits(p, v),
                            "link {p}<->{v} differs"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn varint_wave_ordinal_widens_at_128_on_both_runners() {
        // The wave ordinal rides as a varint: 8 bits through wave 127,
        // 16 from wave 128. Both substrates must widen the header at the
        // same wave and keep answers and per-node bills identical.
        let (topo, tree, items) = balanced_setup(13, 3);
        let mut single = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items.clone(),
            Reliability::None,
        )
        .unwrap();
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::None,
            2,
            NestDepth::Auto,
        )
        .unwrap();
        for _ in 1..126 {
            single.run_wave(env(vec![500])).unwrap();
            flat.run_wave(env(vec![500])).unwrap();
        }
        let bills = |r: &dyn WaveSubstrate<MultiplexWave<SumBelow>>| -> Vec<_> {
            r.stats()
                .iter()
                .map(|s| (s.tx_bits, s.rx_bits, s.tx_packets, s.rx_packets))
                .collect()
        };
        for wave in 126u16..=130 {
            let a = single.run_wave(env(vec![500])).unwrap();
            let b = flat.run_wave(env(vec![500])).unwrap();
            assert_eq!(a, b, "answers differ at wave {wave}");
            let expected = if wave < 128 { 10 } else { 18 };
            assert_eq!(single.last_header_bits(), expected, "boxed, wave {wave}");
            assert_eq!(flat.last_header_bits(), expected, "flat, wave {wave}");
            assert_eq!(bills(&single), bills(&flat), "bills differ at wave {wave}");
        }
    }

    #[test]
    fn flat_ledger_matches_single_threaded() {
        let (topo, tree, items) = balanced_setup(40, 3);
        let sp = proto();
        let sl = sp.ledger();
        let mut single = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            sp,
            items.clone(),
            Reliability::None,
        )
        .unwrap();
        let fp = proto();
        let fl = fp.ledger();
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            fp,
            items,
            Reliability::None,
            3,
            NestDepth::Auto,
        )
        .unwrap();
        sl.lock().unwrap().reset(2);
        fl.lock().unwrap().reset(2);
        let a = single.run_wave(env(vec![800, 30])).unwrap();
        let b = flat.run_wave(env(vec![800, 30])).unwrap();
        assert_eq!(a, b);
        let sg = sl.lock().unwrap();
        let fg = fl.lock().unwrap();
        assert_eq!(sg.slots(), fg.slots(), "per-slot attribution differs");
        assert_eq!(sg.envelope_bits(), fg.envelope_bits());
    }

    #[test]
    fn flat_cache_serves_repeats_and_invalidates() {
        let (topo, tree, items) = balanced_setup(40, 3);
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::None,
            2,
            NestDepth::Auto,
        )
        .unwrap();
        flat.enable_partial_cache(16);
        let first = flat.run_wave(env(vec![1000])).unwrap();
        let cold_bits = flat.stats().max_node_bits();
        assert!(cold_bits > 0);
        // Root-cache repeat: zero additional communication.
        let again = flat.run_wave(env(vec![1000])).unwrap();
        assert_eq!(first, again);
        assert_eq!(flat.stats().max_node_bits(), cold_bits);
        assert!(flat.cache_stats().hits >= 1);
        // Mutating a deep node invalidates its root path; the repeat
        // reflects the new value.
        let leaf = topo.len() - 1;
        flat.set_items(leaf, vec![999]);
        let old_leaf = (leaf as u64 * 7) % 1000;
        let expected = first[0] - old_leaf + 999;
        assert_eq!(flat.run_wave(env(vec![1000])).unwrap(), vec![expected]);
    }

    #[test]
    fn flat_cache_counters_match_single_threaded() {
        let (topo, tree, items) = balanced_setup(40, 3);
        let mut single = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items.clone(),
            Reliability::None,
        )
        .unwrap();
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::None,
            4,
            NestDepth::Auto,
        )
        .unwrap();
        single.enable_partial_cache(8);
        flat.enable_partial_cache(8);
        for req in [vec![100, 700], vec![100], vec![700, 100], vec![100, 700]] {
            let a = single.run_wave(env(req.clone())).unwrap();
            let b = flat.run_wave(env(req)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(single.cache_stats(), flat.cache_stats());
    }

    #[test]
    fn flat_scratch_pool_recycles_after_first_wave() {
        let (topo, tree, items) = balanced_setup(85, 4);
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::None,
            2,
            NestDepth::Auto,
        )
        .unwrap();
        flat.run_wave(env(vec![1000])).unwrap();
        let fresh_after_first = flat.scratch_fresh();
        assert!(fresh_after_first > 0, "first wave must allocate");
        flat.run_wave(env(vec![500])).unwrap();
        flat.run_wave(env(vec![250])).unwrap();
        assert_eq!(
            flat.scratch_fresh(),
            fresh_after_first,
            "steady-state waves must allocate no frame buffers"
        );
        assert!(flat.scratch_reused() > 0);
    }

    #[test]
    fn flat_rejects_lossy_links_without_arq() {
        let (topo, tree, items) = balanced_setup(13, 3);
        for link in [
            saq_netsim::link::LinkConfig::default().with_loss(0.1),
            saq_netsim::link::LinkConfig::default().with_duplication(0.1),
            saq_netsim::link::LinkConfig::default().with_corruption(0.1),
        ] {
            let err = FlatWaveRunner::new(
                &topo,
                SimConfig::default().with_link(link),
                &tree,
                proto(),
                items.clone(),
                Reliability::None,
                2,
                NestDepth::Auto,
            )
            .unwrap_err();
            let ProtocolError::Unsupported(msg) = err else {
                panic!("expected Unsupported, got {err:?}");
            };
            // The rejection enumerates the supported combinations.
            assert!(
                msg.contains("Reliability::None over lossless links"),
                "{msg}"
            );
            assert!(msg.contains("Reliability::Ack over any links"), "{msg}");
        }
    }

    #[test]
    fn flat_arq_over_lossy_links_matches_single_threaded() {
        // Fate-replay ARQ emulation: every retransmission, duplicate
        // delivery, corrupt copy and ACK is billed exactly as the boxed
        // event-driven exchange bills it, because both draw the same
        // per-edge fate streams at the same indices.
        let (topo, tree, items) = balanced_setup(40, 3);
        let link = saq_netsim::link::LinkConfig::default()
            .with_loss(0.2)
            .with_corruption(0.05)
            .with_duplication(0.05);
        let cfg = SimConfig::default().with_link(link);
        let rel = Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(40),
        };
        for workers in [1usize, 2, 4] {
            let mut single =
                WaveRunner::new(&topo, cfg.clone(), &tree, proto(), items.clone(), rel).unwrap();
            let mut flat = FlatWaveRunner::new(
                &topo,
                cfg.clone(),
                &tree,
                proto(),
                items.clone(),
                rel,
                workers,
                NestDepth::Auto,
            )
            .unwrap();
            // Two waves: the second consumes each edge's streams from
            // wherever the first left them, so index continuity is
            // covered too.
            for req in [vec![1000u64, 500], vec![30]] {
                let a = single.run_wave(env(req.clone())).unwrap();
                let b = flat.run_wave(env(req)).unwrap();
                assert_eq!(a, b, "answers differ at workers={workers}");
                assert_eq!(
                    single.transport_footprint(),
                    flat.transport_footprint(),
                    "between-wave footprint differs at workers={workers}"
                );
            }
            for v in 0..topo.len() {
                let (a, b) = (single.stats().node(v), flat.stats().node(v));
                assert_eq!(
                    (a.tx_bits, a.rx_bits, a.tx_packets, a.rx_packets),
                    (b.tx_bits, b.rx_bits, b.tx_packets, b.rx_packets),
                    "node {v} stats differ at workers={workers}"
                );
            }
            for v in 1..topo.len() {
                if let Some(p) = tree.parent(v) {
                    assert_eq!(
                        single.stats().link_bits(p, v),
                        flat.stats().link_bits(p, v),
                        "link {p}<->{v} differs at workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_arq_footprint_tracks_cached_waves() {
        // A root-cached wave silences the network; the boxed root's
        // admission still purges its dedup set, and everyone else keeps
        // last wave's keys — the residue column must mirror both.
        let (topo, tree, items) = balanced_setup(40, 3);
        let link = saq_netsim::link::LinkConfig::default().with_loss(0.1);
        let cfg = SimConfig::default().with_link(link);
        let rel = Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(40),
        };
        let mut single =
            WaveRunner::new(&topo, cfg.clone(), &tree, proto(), items.clone(), rel).unwrap();
        let mut flat =
            FlatWaveRunner::new(&topo, cfg, &tree, proto(), items, rel, 2, NestDepth::Auto)
                .unwrap();
        single.enable_partial_cache(8);
        flat.enable_partial_cache(8);
        for req in [vec![700u64], vec![700], vec![100, 700]] {
            let a = single.run_wave(env(req.clone())).unwrap();
            let b = flat.run_wave(env(req)).unwrap();
            assert_eq!(a, b);
            assert_eq!(single.transport_footprint(), flat.transport_footprint());
        }
        assert_eq!(single.cache_stats(), flat.cache_stats());
    }

    #[test]
    fn flat_arq_rejects_timeout_inside_round_trip() {
        // A retransmit timer shorter than the worst-case round trip
        // turns the exchange into an ACK-vs-timer race only an event
        // queue can order: the emulation refuses rather than guesses.
        let (topo, tree, items) = balanced_setup(13, 3);
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::Ack {
                timeout: saq_netsim::SimDuration::from_micros(100),
            },
            2,
            NestDepth::Auto,
        )
        .unwrap();
        let err = flat.run_wave(env(vec![1000])).unwrap_err();
        let ProtocolError::Unsupported(msg) = err else {
            panic!("expected Unsupported, got {err:?}");
        };
        assert!(msg.contains("round"), "{msg}");
    }

    /// Asserts every per-node and per-tree-edge tally of the two
    /// runners agrees (energy compared via bits, see above).
    fn assert_same_tallies(
        topo: &Topology,
        tree: &SpanningTree,
        single: &NetStats,
        flat: &NetStats,
        what: &str,
    ) {
        for v in 0..topo.len() {
            let (a, b) = (single.node(v), flat.node(v));
            assert_eq!(
                (a.tx_bits, a.rx_bits, a.tx_packets, a.rx_packets),
                (b.tx_bits, b.rx_bits, b.tx_packets, b.rx_packets),
                "node {v} stats differ ({what})"
            );
            if let Some(p) = tree.parent(v) {
                assert_eq!(
                    single.link_bits(p, v),
                    flat.link_bits(p, v),
                    "link {p}<->{v} differs ({what})"
                );
            }
        }
    }

    /// What can happen between two waves of a [`same_as_boxed`] script.
    enum Step {
        Wave(Vec<u64>),
        SetItems(NodeId, Vec<u64>),
    }

    /// Plays `script` on a boxed [`WaveRunner`] and on flat runners with
    /// 1, 2 and 4 workers, comparing after every wave the answer, the
    /// frames transmitted, the [`MuxLedger`] and the canonical trace, and
    /// at the end every node and tree-edge tally, the cache counters and
    /// the transport footprint. Returns the flat W = 2 run's trace, one
    /// `Vec` per wave, for callers that assert *what* happened.
    ///
    /// [`MuxLedger`]: crate::wave::MuxLedger
    fn same_as_boxed(
        topo: &Topology,
        tree: &SpanningTree,
        items: &[Vec<u64>],
        cfg: SimConfig,
        rel: Reliability,
        cache: Option<usize>,
        script: &[Step],
    ) -> Vec<Vec<(usize, NodeTraceEntry)>> {
        let mut traces = Vec::new();
        for workers in [1usize, 2, 4] {
            let what = format!("workers={workers}");
            let (sp, fp) = (proto(), proto());
            let (sl, fl) = (sp.ledger(), fp.ledger());
            let mut single =
                WaveRunner::new(topo, cfg.clone(), tree, sp, items.to_vec(), rel).unwrap();
            let mut flat = FlatWaveRunner::new(
                topo,
                cfg.clone(),
                tree,
                fp,
                items.to_vec(),
                rel,
                workers,
                NestDepth::Auto,
            )
            .unwrap();
            if let Some(capacity) = cache {
                single.enable_partial_cache(capacity);
                flat.enable_partial_cache(capacity);
            }
            single.set_tracing(true);
            flat.set_tracing(true);
            for step in script {
                let req = match step {
                    Step::SetItems(node, items) => {
                        single.set_items(*node, items.clone());
                        flat.set_items(*node, items.clone());
                        continue;
                    }
                    Step::Wave(req) => req,
                };
                sl.lock().unwrap().reset(req.len());
                fl.lock().unwrap().reset(req.len());
                let a = single.run_wave(env(req.clone())).unwrap();
                let b = flat.run_wave(env(req.clone())).unwrap();
                assert_eq!(a, b, "answers differ ({what}, {req:?})");
                assert_eq!(
                    single.last_wave_frames(),
                    flat.last_wave_frames(),
                    "frames differ ({what}, {req:?})"
                );
                {
                    let (sg, fg) = (sl.lock().unwrap(), fl.lock().unwrap());
                    assert_eq!(sg.slots(), fg.slots(), "slot bits ({what}, {req:?})");
                    assert_eq!(sg.envelope_bits(), fg.envelope_bits(), "{what}, {req:?}");
                }
                let trace = flat.take_trace();
                assert_eq!(single.take_trace(), trace, "trace ({what}, {req:?})");
                if workers == 2 {
                    traces.push(trace);
                }
            }
            assert_same_tallies(topo, tree, single.stats(), flat.stats(), &what);
            assert_eq!(single.cache_stats(), flat.cache_stats(), "{what}");
            assert_eq!(
                single.transport_footprint(),
                flat.transport_footprint(),
                "{what}"
            );
        }
        traces
    }

    #[test]
    fn decode_memo_matches_whole_frames_only_and_stays_bounded() {
        let frame = |v: u64, width: u32| {
            let mut w = BitWriter::new();
            w.write_bits(v, width);
            w.finish()
        };
        let mut pool = ScratchPool::new();
        let mut memo = DecodeMemo::new();
        memo.insert(frame(0b1011_0110, 8), Arc::new(1u64), &mut pool);
        assert_eq!(memo.get(&frame(0b1011_0110, 8)).as_deref(), Some(&1));
        // One flipped bit, a proper prefix and an extension all miss.
        assert!(memo.get(&frame(0b1011_0111, 8)).is_none());
        assert!(memo.get(&frame(0b101_1011, 7)).is_none());
        assert!(memo.get(&frame(0b1_0110_1100, 9)).is_none());
        // Past the cap the oldest entry goes, and its buffer with it.
        for i in 0..DECODE_MEMO_CAP as u64 {
            memo.insert(frame(i, 16), Arc::new(100 + i), &mut pool);
        }
        assert_eq!(memo.entries.len(), DECODE_MEMO_CAP);
        assert!(memo.get(&frame(0b1011_0110, 8)).is_none());
        assert_eq!(memo.get(&frame(3, 16)).as_deref(), Some(&103));
        memo.drain(&mut pool);
        assert!(memo.entries.is_empty());
        let reused_before = pool.reused();
        for _ in 0..=DECODE_MEMO_CAP {
            let _ = pool.writer(); // every remembered frame came back
        }
        assert_eq!(pool.reused() - reused_before, DECODE_MEMO_CAP as u64 + 1);
    }

    #[test]
    fn decode_memo_never_serves_a_different_envelope() {
        // Consecutive waves whose envelopes differ in a slot, in slot
        // count and only in the wave ordinal of the header: each must be
        // decoded for what it is, never served from an earlier decode.
        let (topo, tree, items) = balanced_setup(85, 4);
        let script: Vec<Step> = [
            vec![1000, 500],
            vec![1000, 501],
            vec![1000],
            vec![1000],
            vec![999, 1, 500, 30],
        ]
        .into_iter()
        .map(Step::Wave)
        .collect();
        same_as_boxed(
            &topo,
            &tree,
            &items,
            SimConfig::default(),
            Reliability::None,
            None,
            &script,
        );
    }

    #[test]
    fn decode_memo_keeps_per_child_sequence_numbers_apart_under_arq() {
        // Under ARQ sibling frames differ only in their sequence number;
        // whole-frame equality keeps them apart, and the emulated
        // exchanges bill the same retransmissions and ACKs as boxed.
        let (topo, tree, items) = balanced_setup(40, 3);
        let link = saq_netsim::link::LinkConfig::default()
            .with_loss(0.2)
            .with_corruption(0.05)
            .with_duplication(0.05);
        let script: Vec<Step> = [vec![1000, 500], vec![30], vec![30, 1000, 7]]
            .into_iter()
            .map(Step::Wave)
            .collect();
        same_as_boxed(
            &topo,
            &tree,
            &items,
            SimConfig::default().with_link(link),
            Reliability::Ack {
                timeout: saq_netsim::SimDuration::from_millis(40),
            },
            None,
            &script,
        );
    }

    #[test]
    fn mid_tree_cache_hit_forwards_a_subset_envelope() {
        // Leave node 3 (mid-tree, on leaf 39's root path) holding slot
        // 700 but not slot 100, and the root holding neither: the wave
        // [700, 100] then reaches node 3 whole, which serves 700 from
        // its cache and forwards the *subset* envelope [100] — a second,
        // different request frame in flight in the same window.
        let (topo, tree, items) = balanced_setup(40, 3);
        let script = [
            Step::Wave(vec![100]),
            Step::SetItems(39, vec![5]), // 39 → 12 → 3 → 0 forget slot 100
            Step::Wave(vec![700]),
            Step::SetItems(14, vec![6]), // 14 → 4 → 1 → 0 forget everything
            Step::Wave(vec![700, 100]),
        ];
        let traces = same_as_boxed(
            &topo,
            &tree,
            &items,
            SimConfig::default(),
            Reliability::None,
            Some(8),
            &script,
        );
        let at_3: Vec<NodeTraceEntry> = traces[2]
            .iter()
            .filter(|&&(node, _)| node == 3)
            .map(|&(_, e)| e)
            .collect();
        assert!(
            at_3.contains(&NodeTraceEntry::CacheHit { slot: 0 })
                && at_3.contains(&NodeTraceEntry::CacheMiss { slot: 1 }),
            "node 3 must hit slot 0 and miss slot 1, got {at_3:?}"
        );
    }

    /// [`SumBelow`] whose `local` panics at one node for one request.
    #[derive(Debug, Clone)]
    struct PanicsAt {
        inner: SumBelow,
        node: NodeId,
        trigger: u64,
    }

    impl WaveProtocol for PanicsAt {
        type Request = u64;
        type Partial = u64;
        type Item = u64;

        fn encode_request(&self, req: &u64, w: &mut BitWriter) {
            self.inner.encode_request(req, w);
        }
        fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.inner.decode_request(r)
        }
        fn encode_partial(&self, req: &u64, p: &u64, w: &mut BitWriter) {
            self.inner.encode_partial(req, p, w);
        }
        fn decode_partial(&self, req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.inner.decode_partial(req, r)
        }
        fn local(
            &self,
            node: NodeId,
            items: &mut Vec<u64>,
            req: &u64,
            rng: &mut Xoshiro256StarStar,
        ) -> u64 {
            assert!(
                !(node == self.node && *req == self.trigger),
                "injected protocol panic"
            );
            self.inner.local(node, items, req, rng)
        }
        fn merge(&self, req: &u64, a: u64, b: u64) -> u64 {
            self.inner.merge(req, a, b)
        }
    }

    #[test]
    fn worker_panic_is_an_error_and_the_runner_survives() {
        let (topo, tree, items) = balanced_setup(85, 4);
        let inner = SumBelow {
            value_width: width_for_max(1000),
        };
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            PanicsAt {
                inner: inner.clone(),
                node: 84, // a leaf: deep inside some worker's block
                trigger: 666,
            },
            items.clone(),
            Reliability::None,
            2,
            NestDepth::Auto,
        )
        .unwrap();
        assert_eq!(flat.worker_count(), 2, "the panic must land on a worker");
        let err = flat.run_wave(666).unwrap_err();
        let ProtocolError::WorkerPanicked(msg) = err else {
            panic!("expected WorkerPanicked, got {err:?}");
        };
        assert!(msg.contains("injected protocol panic"), "{msg}");

        // The next clean wave on the same runner is a fresh boxed
        // runner's first wave, bit for bit (both ordinals fit the same
        // varint width, so even the headers weigh the same).
        flat.reset_stats();
        let mut single = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            inner,
            items,
            Reliability::None,
        )
        .unwrap();
        assert_eq!(single.run_wave(700).unwrap(), flat.run_wave(700).unwrap());
        assert_eq!(single.last_wave_frames(), flat.last_wave_frames());
        assert_same_tallies(&topo, &tree, single.stats(), flat.stats(), "after panic");
    }

    #[test]
    fn flat_handles_degenerate_trees() {
        // Path graph: the nested planner's worst case.
        let topo = Topology::line(32).unwrap();
        let tree = SpanningTree::bfs(&topo, 0).unwrap();
        let items: Vec<Vec<u64>> = (0..32).map(|i| vec![i as u64]).collect();
        let mut single = WaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items.clone(),
            Reliability::None,
        )
        .unwrap();
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items,
            Reliability::None,
            4,
            NestDepth::Auto,
        )
        .unwrap();
        assert_eq!(
            single.run_wave(env(vec![1000])).unwrap(),
            flat.run_wave(env(vec![1000])).unwrap()
        );
        // Singleton.
        let topo1 = Topology::line(1).unwrap();
        let tree1 = SpanningTree::bfs(&topo1, 0).unwrap();
        let mut flat1 = FlatWaveRunner::new(
            &topo1,
            SimConfig::default(),
            &tree1,
            proto(),
            vec![vec![7u64]],
            Reliability::None,
            4,
            NestDepth::Auto,
        )
        .unwrap();
        assert_eq!(flat1.run_wave(env(vec![1000])).unwrap(), vec![7]);
    }
}
