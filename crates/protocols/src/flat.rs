//! Flat columnar convergecast execution over a [`FlatTree`].
//!
//! [`FlatWaveRunner`] executes [`WaveProtocol`] waves like
//! [`WaveRunner`](crate::wave::WaveRunner) — both implement
//! [`WaveSubstrate`] — but on the struct-of-arrays
//! substrate of [`saq_netsim::flat`] instead of a discrete-event
//! simulator: per-node items, caches, wave state and bit counters live
//! in contiguous columns indexed by DFS **position**,
//! and a wave is two sweeps of index arithmetic — a top-down pass that
//! hands each child its parent's request and bills the frame that
//! carries it, and a bottom-up pass that bills each child's reply by its
//! width and merges it in fixed child order. No events, no queues and
//! no partial frames.
//!
//! ## What a slot and a row hold
//!
//! A request is a list of **slots** ([`Envelope::for_each_slot_key`];
//! one for a plain protocol, one per entry of a
//! [`MultiplexWave`](crate::mux::MultiplexWave) envelope). A slot whose
//! partial is a few machine words — a count or sum, a min or max with
//! its runner-up — is a **row slot** ([`WaveProtocol::row_kernel`]):
//! on a flat wave it never rides in `P::Partial`. A node's row slots sit
//! back to back in its **row** of `u64` words, in slot order; its local
//! step folds its items into them ([`WaveProtocol::fill_row`]), a
//! parent merges each child's row word by word in fixed child order
//! ([`RowKernel::absorb`]) and bills each row slot by its closed-form
//! width ([`WaveProtocol::row_width`]). Every other slot rides in the
//! node's accumulator, which then holds those slots alone (the *rest
//! form*); a request with no other slot keeps no accumulator at all.
//! Which slots are row slots, and each one's word offset, is resolved
//! once per request, when it enters a thread's request table. A row
//! slot becomes a partial again only where it enters or leaves a cache
//! entry and at the root ([`WaveProtocol::row_partial`]), which answers
//! with the same partial as the boxed runner.
//!
//! ## What a node costs
//!
//! After warm-up a node makes **no** heap allocation of its own; the
//! wave as a whole makes O(blocks + distinct requests):
//!
//! * **a node's local step runs on the way up.** The top-down sweep
//!   only admits and forwards requests; a node folds its items
//!   ([`WaveProtocol::fill_row`]) when its bottom-up step starts, just
//!   before it merges its children — only its own items feed it. Rows
//!   and accumulators are therefore live only from a node's step up to
//!   its parent's: with positions in DFS preorder swept in descending
//!   order, that is a few per tree level, not one per node;
//! * **rows live on a per-thread stack.** Each thread keeps a stack of
//!   rows, `stride` words each — the root request's row width: a node
//!   pushes its row, merges its children's (the top of the stack) into
//!   it and leaves it where the first of them lay. The driver keeps one
//!   row per block root below its stack, where a block's root row
//!   waits for the barrier. The buffers keep their capacity from wave
//!   to wave, and no row is kept in the position columns;
//! * **accumulators come from a per-thread free list.** A node whose
//!   request has a slot outside its row takes a spent accumulator from
//!   its thread's `Scratch` and refills it with its local contribution
//!   ([`WaveProtocol::fill_row`]); its parent gives it back once it
//!   merged the reply, emptied by [`Envelope::release_partial`] —
//!   unless the node's cache keeps its slots. The list holds at most
//!   the few accumulators a sweep holds at once. A block root's reply
//!   waits for the barrier trimmed ([`WaveProtocol::shrink_partial`]);
//!   the driver merges it into its own list, and before the next
//!   parallel phase hands each worker one spent accumulator per block
//!   it runs, so every thread's list stays balanced. No accumulator is
//!   kept in the position columns between waves;
//! * **a request crosses an edge as an index and a width.** Each
//!   thread keeps a per-wave request table in its `Scratch`, every
//!   entry with its encoding's width, measured once when the entry is
//!   made: the driver's serves the spine, with the root's request as
//!   entry 0; each worker numbers its entries after the driver's, which
//!   its block roots read and nobody writes during the parallel phase.
//!   A slot holds two `u32` indices: `fwd` equals `req` unless a
//!   partial cache hit pushed the subset envelope into the table. A
//!   parent writes its `fwd` into each child's slot and bills each copy
//!   by width — header, the sequence number under ARQ, payload — and
//!   through [`Envelope::note_request_copies`]; the child admits
//!   that index. The boxed runner's child decodes the same request from
//!   its frame (the request law of [`WaveProtocol::decode_request`]),
//!   so below the root no request is encoded, cloned or decoded: a
//!   subset envelope is the only request made there;
//! * **a partial crosses an edge as a width.** A node stages its
//!   accumulator in its slot and bills it and its row by
//!   [`WaveProtocol::partial_width`] and [`WaveProtocol::row_width`]
//!   plus the frame header — the length of the frame the boxed runner
//!   sends, without encoding it; the parent bills the same width (and
//!   emulates the ARQ exchange), then merges the child's **wire-normal
//!   form** by reference: its row word by word, its accumulator into
//!   its own ([`WaveProtocol::absorb_partial`], told at the first child
//!   how many there are, so it may size the accumulator for all of
//!   them). No partial is encoded, decoded, moved or pooled; debug
//!   builds encode each staged reply once in per-thread scratch, row
//!   slots included, to check the width it is billed by;
//! * **a cache hit costs a probe.** Slot keys are the sub-requests'
//!   captured wire bits ([`Envelope::for_each_slot_key`]), probed
//!   in place; a node whose every slot hits is billed straight from the
//!   cache entries ([`Envelope::slot_width`]) while the top-down
//!   sweep is still at it, and allocates nothing. Its parent merges the
//!   hits where they lie — a row slot's through its words — and an
//!   executing child's computed slots, which a child that hit or
//!   stores joins in full form ([`WaveProtocol::row_partial`]) when it
//!   stages them, slot by slot ([`Envelope::absorb_slot`]), and
//!   only then moves the child's computed slots into the child's cache:
//!   no hit or store copies a partial;
//! * **a column exists only for what the deployment uses**: each
//!   node's cache and its wave's `CacheResolution` appear with
//!   [`WaveSubstrate::enable_partial_cache`], the trace buffers while
//!   tracing is on, and the dedup-residue and edge-stream columns under
//!   [`Reliability::Ack`]. A column that is off is empty, and a window
//!   carves it into empty slices, so a node with no cache touches no
//!   cache state;
//! * **bits are billed where they are kept**: the runner's [`NetStats`]
//!   is stored in position order, so a window carves its counters and
//!   [`TreeLinkBits`] ([`NetStats::storage_mut`]) like any other column
//!   and nothing is copied after a wave. A tree edge is tallied at its
//!   child position, always inside the window that emulates the
//!   exchange — no per-transmission record, no hash map.
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
//! **No shared cache lines.** Workers write per-thread state at every
//! node, so no two workers' writable state may sit in one 128-byte
//! block (an x86 adjacent-line prefetch pair) during the parallel
//! phase: each `Scratch` is `#[repr(align(128))]`, each group
//! protocol's [`MuxLedger`] too, and a worker reborrows each block's
//! window onto its own stack, counting frames there rather than in the
//! shared `Vec` of carved windows.
//!
//! ## Bit-identity with the boxed runner
//!
//! The flat runner reproduces the event-driven
//! [`WaveRunner`](crate::wave::WaveRunner) observable-for-observable
//! (the canonical-merge / fixed-order-barrier argument of
//! ARCHITECTURE §10):
//!
//! * every node is billed exactly the frames it would transmit boxed —
//!   one request per child edge and one partial per participating node,
//!   both by width (no frame is built), with the same envelope header
//!   (kind + varint wave ordinal); the boxed oracle sends real frames,
//!   so every flat-vs-boxed comparison checks the width law end to end;
//! * partials are merged in fixed child order (ascending global id =
//!   ascending position), so answers are pure functions of tree +
//!   items + request, independent of the plan and of thread timing;
//! * a node keeps no random stream: a protocol's random bits are
//!   hashes of item identity and the request's nonce, and link fates
//!   come from per-edge streams (below);
//! * caches live with their node's column slot, so hit/miss counters
//!   are identical after every wave that returns an answer. A failed
//!   wave is the exception: a flat node's cache stores complete only
//!   when its parent absorbs its reply, while a boxed node stores
//!   before it sends, so after a wave that ends in an error (an ARQ
//!   exchange out of budget, a worker panic) the two runners' cache
//!   contents may differ, and that is outside the contract;
//! * each worker group runs a `clone` of the protocol,
//!   which bills a [`MuxLedger`] of its own, and the barrier drains
//!   every group's into the driver's in fixed group order
//!   ([`Envelope::absorb_shard`]) — as the boxed runner folds its
//!   nodes' after every wave.
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
//! [`MuxLedger`]: crate::mux::MuxLedger

use crate::cache::{CacheStats, PartialCache};
use crate::error::ProtocolError;
use crate::mux::Envelope;
use crate::obs::NodeTraceEntry;
use crate::row::{RowKernel, RowSource};
use crate::tree::SpanningTree;
use crate::wave::{
    ack_bits, header_bits, CacheResolution, CachedPartial, Reliability, TransportFootprint,
    WaveProtocol, WaveSubstrate,
};
use saq_netsim::energy::EnergyModel;
use saq_netsim::flat::{FlatTree, NestDepth, ShardBlock, ShardPlan};
use saq_netsim::link::{FateStream, FrameClass, LinkConfig, LinkFate};
use saq_netsim::sim::{NodeId, SimConfig};
use saq_netsim::stats::{NetStats, NodeStats, TreeLinkBits};
use saq_netsim::topology::Topology;
use saq_netsim::wire::ScratchPool;
use saq_netsim::{NetsimError, SimDuration};
use std::num::NonZeroU32;

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
    /// Bits of a request or partial frame's header in this wave: kind,
    /// wave ordinal and, under ARQ, the sequence number (fixed width,
    /// whatever its value).
    frame_header_bits: u64,
    /// `Some(timeout)` under [`Reliability::Ack`].
    arq_timeout: Option<SimDuration>,
    /// Per-exchange attempt budget — the flat analogue of the
    /// simulator's event budget, guarding against livelock when every
    /// transmission is fated to drop.
    attempt_budget: u64,
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
        self.stats.charge_tx(model, bits);
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
            receiver.stats.charge_rx(env.model, bits);
        }
        let mut acked = false;
        for _ in 0..intact {
            receiver.transmit(env.model, env.ack_bits, frames);
            match ack.next_fate(env.link) {
                LinkFate::Lost => {}
                // A corrupt ACK bills the sender's radio but never
                // reaches the protocol: it does not stop retransmission.
                LinkFate::Corrupted(_) => sender.stats.charge_rx(env.model, env.ack_bits),
                LinkFate::Delivered(_) => {
                    sender.stats.charge_rx(env.model, env.ack_bits);
                    acked = true;
                }
                LinkFate::DeliveredTwice(_, _) => {
                    sender.stats.charge_rx(env.model, env.ack_bits);
                    sender.stats.charge_rx(env.model, env.ack_bits);
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
/// Only what every deployment needs lives here; the cache resolution
/// lives in the cache column ([`NodeCache`]).
#[derive(Debug)]
struct WaveSlot<P: Envelope> {
    /// Request this node received (partials are encoded against it), as
    /// an index into its thread's [`RequestTable`]: its parent's `fwd`,
    /// written by the parent's fan-out.
    req: u32,
    /// Request forwarded to children (partials are decoded and merged
    /// against it): the *same* index as `req` unless a partial cache hit
    /// subset the envelope.
    fwd: u32,
    /// Width in bits of the reply staged for the parent, header
    /// included: the frame the boxed runner would send, as its length
    /// alone. Set by the node's own step, taken by its parent's, so no
    /// queues exist — the column *is* the network.
    sent: Option<NonZeroU32>,
    /// The slots outside the row: local contribution, then the
    /// canonical merge accumulator, then the staged reply's computed
    /// slots — joined with the row in full form when the node touched
    /// its cache — which the parent merges by reference, with any cache
    /// hits where they lie, and recycles or moves into the node's cache
    /// (`Merge::cached_reply`). It comes from and goes back to a
    /// thread's free list (`Scratch::spare`). `None` when the request
    /// has no slot outside its row, and in a staged reply whose every
    /// slot hit.
    acc: Option<P::Partial>,
    /// Whether admission answered entirely from cache (subtree silent).
    cached: bool,
    /// Whether a request reached this node in the current wave: written
    /// by its parent every wave, whether it forwards or not.
    active: bool,
}

impl<P: Envelope> WaveSlot<P> {
    fn blank() -> Self {
        WaveSlot {
            req: 0,
            fwd: 0,
            sent: None,
            acc: None,
            cached: false,
            active: false,
        }
    }
}

/// A node's subtree cache and the current wave's resolution against it:
/// the column [`WaveSubstrate::enable_partial_cache`] adds.
#[derive(Debug)]
struct NodeCache<P: Envelope> {
    cache: PartialCache<CachedPartial<P>>,
    /// The current wave's cache hits, misses and pending stores.
    resolved: CacheResolution,
}

/// Where one request's slots lie on a flat wave, resolved once, when
/// the request enters a thread's [`RequestTable`]: each row slot's
/// [`RowKernel`] and word offset in a node's row
/// ([`WaveProtocol::row_kernel`]; words back to back, in slot order),
/// and how many slots ride in the `P::Partial` accumulator instead.
/// Its slots lie in the table's shared buffers, so a plan allocates
/// nothing of its own.
#[derive(Debug, Clone, Copy, Default)]
struct RowPlan {
    /// Where the plan's slots start in [`RequestTable::slots`].
    slots: u32,
    /// Words of the row.
    stride: u32,
    /// Slots outside the row: none means a node keeps no accumulator.
    rest: u32,
}

/// A [`RowPlan`] with its slots, as [`RequestTable::get`] lends it.
#[derive(Clone, Copy)]
struct Plan<'t> {
    /// Per slot, in slot order: its kernel and word offset, or `None`
    /// for a slot the accumulator holds.
    slots: &'t [Option<(RowKernel, u32)>],
    stride: usize,
    rest: usize,
}

/// The requests one thread's nodes received or forwarded in the current
/// wave, each with its encoding's width in bits and its [`RowPlan`]; a
/// [`WaveSlot`] names one by index. A worker numbers its entries from
/// `base`, the length of the driver's table, whose entries its block
/// roots read below that index (the driver adds none while workers
/// run). Cleared when the thread starts a wave, keeping its buffers.
#[derive(Debug)]
struct RequestTable<R> {
    base: u32,
    entries: Vec<(R, u64, RowPlan)>,
    /// Every entry's slots, back to back.
    slots: Vec<Option<(RowKernel, u32)>>,
}

impl<R> RequestTable<R> {
    fn new() -> Self {
        RequestTable {
            base: 0,
            entries: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Starts a wave, numbering entries from `base`.
    fn clear(&mut self, base: usize) {
        self.base = base as u32;
        self.entries.clear();
        self.slots.clear();
    }

    /// Adds `req`, measuring its encoding once in a pooled buffer, with
    /// its plan read off the protocol slot by slot.
    fn push<P: Envelope<Request = R>>(&mut self, proto: &P, pool: &mut ScratchPool, req: R) -> u32 {
        let mut w = pool.writer();
        proto.encode_request(&req, &mut w);
        let bits = w.len_bits();
        pool.recycle(w.finish());
        let mut plan = RowPlan {
            slots: self.slots.len() as u32,
            ..RowPlan::default()
        };
        proto.for_each_slot_key(&req, &mut |i, _| match proto.row_kernel(&req, i) {
            Some(k) => {
                self.slots.push(Some((k, plan.stride)));
                plan.stride += k.words() as u32;
            }
            None => {
                self.slots.push(None);
                plan.rest += 1;
            }
        });
        self.entries.push((req, bits, plan));
        self.base + self.entries.len() as u32 - 1
    }

    /// Entry `index` — this thread's own from `base` on, the driver's
    /// (`spine`) below it — its width and its plan.
    fn get<'t>(&'t self, spine: &'t RequestTable<R>, index: u32) -> (&'t R, u64, Plan<'t>) {
        let (table, at) = match index.checked_sub(self.base) {
            Some(own) => (self, own as usize),
            None => (spine, index as usize),
        };
        let (req, bits, plan) = &table.entries[at];
        let end = table
            .entries
            .get(at + 1)
            .map_or(table.slots.len(), |next| next.2.slots as usize);
        let plan = Plan {
            slots: &table.slots[plan.slots as usize..end],
            stride: plan.stride as usize,
            rest: plan.rest as usize,
        };
        (req, *bits, plan)
    }
}

/// Free list of spent accumulators ([`Envelope::release_partial`]
/// already applied), refilled by [`WaveProtocol::fill_row`]. A node
/// whose request has a slot outside its row takes one going down, and
/// its parent gives it back once it merged the reply, so the list never
/// holds more than one block's live accumulators.
#[derive(Debug)]
struct FreeList<P: Envelope>(Vec<P::Partial>);

impl<P: Envelope> FreeList<P> {
    /// Puts a spent accumulator on the free list.
    fn recycle(&mut self, proto: &P, mut acc: P::Partial) {
        proto.release_partial(&mut acc);
        self.0.push(acc);
    }
}

/// What one thread reuses from wave to wave — the driver on the spine,
/// each worker across its blocks; never shared between threads.
///
/// Aligned to 128 bytes so that the workers' scratches, packed back to
/// back in one `Vec`, never share a cache line: every node writes its
/// thread's free list, and a partial cache hit its request table and
/// the pool that measures the subset request. 128 rather than 64
/// because x86's adjacent-line prefetcher moves lines in pairs (the
/// padding crossbeam's `CachePadded` uses for the same reason).
#[derive(Debug)]
#[repr(align(128))]
struct Scratch<P: Envelope> {
    /// Recycled buffers for measuring requests.
    pool: ScratchPool,
    /// Spent accumulators.
    spare: FreeList<P>,
    /// The current wave's requests, named by index from the slots.
    reqs: RequestTable<P::Request>,
    /// The rows this thread's sweep holds ([`RowStack`]): the nodes it
    /// ran whose parent has not merged them yet — on the driver's, after
    /// one row per block root, which waits here for phase C. Its
    /// capacity is kept from wave to wave.
    rows: Vec<u64>,
}

impl<P: Envelope> Scratch<P> {
    fn new() -> Self {
        Scratch {
            pool: ScratchPool::new(),
            spare: FreeList(Vec::new()),
            reqs: RequestTable::new(),
            rows: Vec::new(),
        }
    }

    /// Starts this thread's share of a wave, numbering its requests
    /// from `base`: last wave's requests go.
    fn start_wave(&mut self, base: usize) {
        self.reqs.clear(base);
    }
}

/// A contiguous window into every per-node column, covering positions
/// `base..base + len`. The whole tree for spine sweeps; one block for a
/// worker — blocks are disjoint position ranges, so workers borrow
/// disjoint slices of the same columns with no synchronisation. A
/// column that is off ([`Columns`]) is an empty slice in every window,
/// so `get_mut(rel)` on it is `None`.
struct Cols<'a, P: Envelope> {
    base: usize,
    items: &'a mut [Vec<P::Item>],
    /// Per-position cache state; empty while caching is off.
    caches: &'a mut [NodeCache<P>],
    /// The runner's [`NetStats`] counters, in position order.
    counters: &'a mut [NodeStats],
    slots: &'a mut [WaveSlot<P>],
    /// Emulated receiver-side dedup residue (`seen` cardinality) per
    /// position; empty under [`Reliability::None`].
    residue: &'a mut [u64],
    /// Per-edge fate streams, at the child position (`None` for the
    /// root); empty under [`Reliability::None`].
    arq: &'a mut [Option<EdgeStreams>],
    /// Per-position telemetry buffers, drained by the driver in
    /// ascending global id order; empty while tracing is off.
    trace: &'a mut [Vec<NodeTraceEntry>],
    /// Cumulative bits on each position's tree edge (the one to its
    /// parent). An edge is owned by its child position, which is always
    /// inside the window that emulates the exchange — the same argument
    /// as `arq` — so link tallies need no cross-window traffic.
    links: &'a mut [TreeLinkBits],
    /// A block window's root row in the driver's rows, where the block
    /// root's row waits for phase C ([`eval_block`]); empty in any
    /// other window.
    root_row: &'a mut [u64],
    /// Frames transmitted through this window in the current wave.
    frames: u64,
}

/// The rows of one bottom-up sweep, `stride` words each, as a stack: a
/// node that executes pushes its row when its step up
/// starts, merges its children's rows — the top of the stack, first
/// child topmost — into it, and leaves it where the first of them lay.
/// Positions are in DFS preorder and a sweep runs them in descending
/// order, so each node's children are done, and their descendants
/// merged, when it starts: the stack holds at most a few rows per
/// level, not one per position. Below the stack the driver keeps one
/// row per block root (`blocks`, in block order), which the block's
/// worker wrote; a block's stack has nothing below it and no blocks.
struct RowStack<'a> {
    words: &'a mut Vec<u64>,
    stride: usize,
    blocks: &'a [ShardBlock],
}

impl RowStack<'_> {
    /// Where block root `c`'s row lies below the stack, when `c` roots
    /// a block.
    fn block_root(&self, c: usize) -> Option<usize> {
        let b = self.blocks.binary_search_by_key(&(c as u32), |b| b.start);
        b.ok().map(|b| b * self.stride)
    }
}

/// Wave admission at one node — the cache resolution of
/// [`AggNode::admit_wave`](crate::wave::AggNode), on a column slot, for
/// the request its parent wrote into `slot.req`. Returns `true` when
/// every slot of the request was served from cache: the subtree stays
/// silent and the reply comes straight from the cache entries
/// ([`CacheResolution`]). Without a cache the node forwards what it
/// received.
fn admit<P: Envelope>(
    proto: &P,
    scratch: &mut Scratch<P>,
    spine: &RequestTable<P::Request>,
    slot: &mut WaveSlot<P>,
    cache: Option<&mut NodeCache<P>>,
    trace: Option<&mut Vec<NodeTraceEntry>>,
) -> bool {
    // A failed wave may have left a reply staged: it goes.
    slot.sent = None;
    slot.acc = None;
    slot.fwd = slot.req;
    slot.cached = false;
    let Some(NodeCache { cache, resolved }) = cache else {
        return false;
    };
    let req = scratch.reqs.get(spine, slot.req).0;
    slot.cached = resolved.resolve(proto, Some(cache), req, trace);
    if !slot.cached && !resolved.hits.is_empty() {
        // The only place a new request value is made below the root: a
        // partial hit forwards the miss subset.
        let subset = proto.subset_request(scratch.reqs.get(spine, slot.req).0, &resolved.miss);
        slot.fwd = scratch.reqs.push(proto, &mut scratch.pool, subset);
    }
    slot.cached
}

/// Stages this node's reply for the parent to take: its width `bits`,
/// header included, and — unless the reply waits in the cache column —
/// the reply itself, `acc`. Fire-and-forget bills the transmission
/// here; under ARQ it goes uncharged and the parent emulates the
/// exchange.
///
/// # Errors
///
/// [`ProtocolError::Unsupported`] for a reply wider than `u32::MAX`
/// bits, the widest a slot stages.
fn stage_partial<P: Envelope>(
    env: &Env<'_>,
    cols: &mut Cols<'_, P>,
    rel: usize,
    bits: u64,
    acc: Option<P::Partial>,
) -> Result<(), ProtocolError> {
    let sent =
        u32::try_from(bits)
            .ok()
            .and_then(NonZeroU32::new)
            .ok_or(ProtocolError::Unsupported(
                "the flat runner stages partials of 1 to u32::MAX bits, header included",
            ))?;
    if let Some(trace) = cols.trace.get_mut(rel) {
        trace.push(NodeTraceEntry::PartialSent { bits });
    }
    if env.arq_timeout.is_none() {
        cols.counters[rel].charge_tx(env.model, bits);
        cols.links[rel].up += bits;
        cols.frames += 1;
    }
    let slot = &mut cols.slots[rel];
    slot.sent = Some(sent);
    slot.acc = acc;
    Ok(())
}

/// [`WaveProtocol::partial_width`] of `p`, the width a reply's
/// accumulator is billed by. In debug builds `p` is also encoded, in
/// per-thread scratch, and the width law checked — as
/// [`WaveProtocol::row_width`] checks each row slot — so every flat
/// wave in a debug test checks the widths it bills against real
/// encodings.
fn checked_width<P: WaveProtocol>(proto: &P, req: &P::Request, p: &P::Partial) -> u64 {
    let bits = proto.partial_width(req, p);
    #[cfg(debug_assertions)]
    crate::wave::encode_scratch(
        |w| proto.encode_partial(req, p, w),
        |frame| debug_assert_eq!(frame.len_bits(), bits, "the width law"),
    );
    bits
}

/// Forwards request `fwd` to every child of `p`: writes the index into
/// each child's slot and bills each copy to both endpoints by width,
/// exactly as the boxed runner's per-child frame — the header
/// (the *i*-th child's ARQ sequence number *i* included) plus the
/// request's measured width — and to the protocol through
/// [`Envelope::note_request_copies`]. Under ARQ the whole boxed
/// exchange is emulated on the spot: both endpoints' counters live in
/// this window, since blocks are whole subtrees and the spine sweeps
/// the full column.
fn fan_out<P: Envelope>(
    env: &Env<'_>,
    proto: &P,
    reqs: &RequestTable<P::Request>,
    spine: &RequestTable<P::Request>,
    cols: &mut Cols<'_, P>,
    p: usize,
    fwd: u32,
) -> Result<(), ProtocolError> {
    let children = env.tree.children_pos(p);
    if children.is_empty() {
        return Ok(()); // a leaf sends (and bills) nothing
    }
    let rel = p - cols.base;
    let (req, payload_bits, _) = reqs.get(spine, fwd);
    proto.note_request_copies(req, children.len() as u64);
    let bits = env.frame_header_bits + payload_bits;
    for &c in children {
        let crel = c as usize - cols.base;
        match env.arq_timeout {
            None => {
                cols.counters[rel].charge_tx(env.model, bits);
                cols.counters[crel].charge_rx(env.model, bits);
                cols.links[crel].down += bits;
                cols.frames += 1;
            }
            Some(timeout) => {
                let streams = cols.arq[crel]
                    .as_mut()
                    .expect("non-root position has edge streams under ARQ");
                let (sender, receiver) = two_mut(cols.counters, rel, crel);
                let TreeLinkBits { down, up } = &mut cols.links[crel];
                let intact = arq_exchange(
                    env,
                    timeout,
                    bits,
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
            }
        }
        if let Some(trace) = cols.trace.get_mut(crel) {
            trace.push(NodeTraceEntry::RequestRecv { bits });
        }
        let slot = &mut cols.slots[crel];
        slot.req = fwd;
        slot.active = true;
    }
    Ok(())
}

/// Tells every child of `p` that no request reaches it this wave.
fn silence_children<P: Envelope>(env: &Env<'_>, cols: &mut Cols<'_, P>, p: usize) {
    for &c in env.tree.children_pos(p) {
        cols.slots[c as usize - cols.base].active = false;
    }
}

/// Top-down step at a non-root position: admit the request the parent
/// forwarded and forward it to the children. The node's local step
/// waits for its step up ([`step_up`]), which only its own items feed.
fn step_down<P: Envelope>(
    env: &Env<'_>,
    proto: &P,
    scratch: &mut Scratch<P>,
    spine: &RequestTable<P::Request>,
    cols: &mut Cols<'_, P>,
    p: usize,
) -> Result<(), ProtocolError> {
    let rel = p - cols.base;
    if !cols.slots[rel].active {
        // No request reached this node (an ancestor answered from
        // cache): it and its subtree sit the wave out.
        silence_children(env, cols, p);
        return Ok(());
    }
    if admit(
        proto,
        scratch,
        spine,
        &mut cols.slots[rel],
        cols.caches.get_mut(rel),
        cols.trace.get_mut(rel),
    ) {
        // Fully cached: the subtree stays silent, and the reply is
        // billed by the width of the cache entries and staged at once;
        // the parent merges it from the entries where they lie.
        silence_children(env, cols, p);
        let NodeCache { cache, resolved } = &cols.caches[rel];
        let req = scratch.reqs.get(spine, cols.slots[rel].req).0;
        let bits = env.frame_header_bits + resolved.hits_width(proto, cache, req);
        return stage_partial(env, cols, rel, bits, None);
    }
    let fwd = cols.slots[rel].fwd;
    fan_out(env, proto, &scratch.reqs, spine, cols, p, fwd)
}

/// A parent's merge of its children's replies into its accumulator and
/// row, both aligned with `fwd`, the request it forwarded.
struct Merge<'a, P: Envelope> {
    proto: &'a P,
    fwd: &'a P::Request,
    plan: Plan<'a>,
    /// `Some(children)` while merging the first child's reply.
    first_of: Option<usize>,
}

impl<P: Envelope> Merge<'_, P> {
    /// A reply in rest form with its row, aligned with `fwd` (the child
    /// forwarded what it received): the row word by word, then the
    /// accumulator ([`WaveProtocol::absorb_partial`]).
    fn reply(
        &self,
        acc: &mut Option<P::Partial>,
        row: &mut [u64],
        reply: Option<&P::Partial>,
        child_row: &[u64],
    ) -> Result<(), NetsimError> {
        for &(k, at) in self.plan.slots.iter().flatten() {
            let words = at as usize..at as usize + k.words();
            k.absorb(&mut row[words.clone()], &child_row[words]);
        }
        match (acc.as_mut(), reply) {
            (Some(acc), Some(reply)) => {
                self.proto
                    .absorb_partial(self.fwd, acc, reply, self.first_of)
            }
            (None, None) => Ok(()),
            _ => Err(NetsimError::WireDecode(
                "a reply does not align with its accumulator",
            )),
        }
    }

    /// Slot `i` of `fwd`, held as element `j` of `part` — a cache entry
    /// or a reply in full form: a row slot through its words
    /// ([`WaveProtocol::fill_row`]), any other through
    /// [`Envelope::absorb_slot`].
    fn slot(
        &self,
        acc: &mut Option<P::Partial>,
        row: &mut [u64],
        i: usize,
        part: &P::Partial,
        j: usize,
    ) -> Result<(), NetsimError> {
        match (self.plan.slots.get(i).copied().flatten(), acc) {
            (Some((k, at)), _) => {
                let mut words = [0; 2];
                let words = &mut words[..k.words()];
                let slot = RowSource::Slot {
                    i,
                    partial: part,
                    j,
                };
                self.proto.fill_row(self.fwd, slot, words)?;
                k.absorb(&mut row[at as usize..][..k.words()], words);
                Ok(())
            }
            (None, Some(acc)) => self
                .proto
                .absorb_slot(self.fwd, acc, i, part, j, self.first_of),
            (None, None) => Err(NetsimError::WireDecode(
                "a reply slot does not align with its accumulator",
            )),
        }
    }

    /// A child with a cache: each hit merged from its entry where it
    /// lies; a child that touched its cache staged its computed slots
    /// in full form ([`WaveProtocol::row_partial`]), which are merged
    /// slot by slot and only then moved into its cache — a store may
    /// evict a hit, so it waits until every hit was read. Returns the
    /// reply when nothing was stored, for reuse.
    fn cached_reply(
        &self,
        cache: &mut PartialCache<CachedPartial<P>>,
        resolved: &mut CacheResolution,
        acc: &mut Option<P::Partial>,
        row: &mut [u64],
        reply: Option<P::Partial>,
        child_row: &[u64],
    ) -> Result<Option<P::Partial>, NetsimError> {
        if !resolved.touches_cache() {
            self.reply(acc, row, reply.as_ref(), child_row)?;
            return Ok(reply);
        }
        for &(i, pos) in &resolved.hits {
            self.slot(acc, row, i, &cache.at(pos).partial, 0)?;
        }
        let Some(reply) = reply else {
            resolved.hits.clear();
            return Ok(None); // every slot hit
        };
        if resolved.hits.is_empty() {
            for i in 0..self.plan.slots.len() {
                self.slot(acc, row, i, &reply, i)?;
            }
        } else {
            for (j, &i) in resolved.miss.iter().enumerate() {
                self.slot(acc, row, i, &reply, j)?;
            }
            resolved.hits.clear();
        }
        Ok(resolved.store_by_move(self.proto, cache, self.fwd, reply))
    }
}

/// Bottom-up step: the node's local step — its row slots folded into a
/// row it pushes onto `rows`, the others into an accumulator from the
/// free list when the request has any — then the merge of its children's
/// replies in fixed child order, each child's cache stores, and the
/// staging of this node's reply for its parent. Returns the full reply
/// at the root (`parent == None`). A node answered from cache staged its
/// reply going down and has nothing left to do.
///
/// A child's reply crosses its edge as a width: this node bills it —
/// under ARQ it emulates the whole exchange here, where both endpoints'
/// counters are in the window — and merges the reply by reference: the
/// child's row word by word ([`RowKernel::absorb`]) and its accumulator
/// ([`WaveProtocol::absorb_partial`]), or slot by slot when the child
/// touched its cache ([`Merge::cached_reply`]); then it recycles the
/// child's accumulator into this thread's free list.
fn step_up<P: Envelope>(
    env: &Env<'_>,
    proto: &P,
    scratch: &mut Scratch<P>,
    spine: &RequestTable<P::Request>,
    cols: &mut Cols<'_, P>,
    rows: &mut RowStack<'_>,
    p: usize,
) -> Result<Option<P::Partial>, ProtocolError> {
    let rel = p - cols.base;
    let slot = &cols.slots[rel];
    if !slot.active || slot.cached {
        return Ok(None);
    }
    let Scratch { spare, reqs, .. } = scratch;
    let req = reqs.get(spine, slot.req).0;
    let (fwd, _, plan) = reqs.get(spine, slot.fwd);
    let stride = rows.stride;
    let top = rows.words.len();
    rows.words.resize(top + stride, 0);
    let mut acc = if plan.rest > 0 { spare.0.pop() } else { None };
    let local = RowSource::Local {
        node: env.tree.global_of(p),
        items: &mut cols.items[rel],
        rest: &mut acc,
    };
    proto.fill_row(fwd, local, &mut rows.words[top..])?;
    // The children that executed left their rows below this node's,
    // first child topmost; a block root's lies below the stack.
    let mut base = top;
    let children = env.tree.children_pos(p).len();
    for (i, &c) in env.tree.children_pos(p).iter().enumerate() {
        let crel = c as usize - cols.base;
        let Some(bits) = cols.slots[crel].sent.take() else {
            return Err(ProtocolError::NoResult);
        };
        let bits = u64::from(bits.get());
        match env.arq_timeout {
            None => cols.counters[rel].charge_rx(env.model, bits),
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
        let merge = Merge {
            proto,
            fwd,
            plan,
            first_of: (i == 0).then_some(children),
        };
        let reply = cols.slots[crel].acc.take();
        let at = if cols.slots[crel].cached {
            None // its reply lies in its cache entries
        } else if let Some(at) = rows.block_root(c as usize) {
            Some(at)
        } else {
            base -= stride;
            Some(base)
        };
        let (below, row) = rows.words.split_at_mut(top);
        let child_row = at.map_or(&[][..], |at| &below[at..at + stride]);
        let spent = match cols.caches.get_mut(crel) {
            Some(NodeCache { cache, resolved }) => {
                merge.cached_reply(cache, resolved, &mut acc, row, reply, child_row)?
            }
            None => {
                merge.reply(&mut acc, row, reply.as_ref(), child_row)?;
                reply
            }
        };
        if let Some(spent) = spent {
            spare.recycle(proto, spent);
        }
    }
    // The node's row takes its children's place.
    rows.words.copy_within(top..top + stride, base);
    rows.words.truncate(base + stride);
    let row = &rows.words[base..];
    if env.tree.parent_pos(p).is_none() {
        if env.arq_timeout.is_some() {
            // The root's dedup residue: one `(child, wave, seq)` key
            // per reporting child.
            cols.residue[rel] = children as u64;
        }
        let full = proto.row_partial(fwd, &mut acc, row);
        if let Some(spent) = acc {
            spare.recycle(proto, spent);
        }
        return Ok(Some(match cols.caches.get_mut(rel) {
            Some(NodeCache { cache, resolved }) => {
                resolved.assemble(proto, Some(cache), req, fwd, full)
            }
            None => full,
        }));
    }
    // The reply is the cache hits, billed from the entries, and the
    // computed slots (aligned with `fwd`): its row and accumulator as
    // they are, which the parent merges where they lie — or, when this
    // node touched its cache, joined in full form, which the parent
    // merges slot by slot and then stores. Nothing else is copied.
    let (hits, touched) =
        cols.caches
            .get(rel)
            .map_or((0, false), |NodeCache { cache, resolved }| {
                (
                    resolved.hits_width(proto, cache, req),
                    resolved.touches_cache(),
                )
            });
    let (bits, reply) = if touched {
        let full = proto.row_partial(fwd, &mut acc, row);
        if let Some(spent) = acc {
            spare.recycle(proto, spent);
        }
        (checked_width(proto, fwd, &full), Some(full))
    } else {
        let rest = acc.as_ref().map_or(0, |a| checked_width(proto, fwd, a));
        let row = if plan.stride > 0 {
            proto.row_width(fwd, row)
        } else {
            0
        };
        (rest + row, acc)
    };
    if env.arq_timeout.is_some() {
        // Dedup residue of a forwarding node: one key per reporting
        // child, plus the duplicate-request key set by the parent's
        // fan-out exchange (already in place).
        cols.residue[rel] += children as u64;
    }
    stage_partial(env, cols, rel, env.frame_header_bits + hits + bits, reply)?;
    Ok(None)
}

/// Runs one complete block (a whole subtree): top-down then bottom-up,
/// in this thread's rows. The block root's request was written by its
/// spine parent, as an index into the driver's table (`spine`); its
/// reply is left staged in its own slot for the spine to take, trimmed
/// ([`WaveProtocol::shrink_partial`]), and its row copied to the
/// window's root row in the driver's rows: both wait there until the
/// barrier, while a reply inside the block is merged as soon as its
/// siblings' subtrees are done.
fn eval_block<P: Envelope>(
    env: &Env<'_>,
    proto: &P,
    scratch: &mut Scratch<P>,
    spine: &RequestTable<P::Request>,
    cols: &mut Cols<'_, P>,
    block: ShardBlock,
) -> Result<(), ProtocolError> {
    let (start, end) = (block.start as usize, (block.start + block.len) as usize);
    let mut words = std::mem::take(&mut scratch.rows);
    words.clear();
    let mut rows = RowStack {
        words: &mut words,
        stride: cols.root_row.len(),
        blocks: &[],
    };
    let result = (start..end)
        .try_for_each(|p| step_down(env, proto, scratch, spine, cols, p))
        .and_then(|()| {
            (start..end).rev().try_for_each(|p| {
                let out = step_up(env, proto, scratch, spine, cols, &mut rows, p)?;
                debug_assert!(out.is_none(), "blocks are strictly below the root");
                Ok(())
            })
        });
    if result.is_ok() {
        // The root's row is all that is left, unless it answered from
        // cache (or the request has no row).
        if !words.is_empty() {
            cols.root_row.copy_from_slice(&words);
        }
        if let Some(reply) = cols.slots[start - cols.base].acc.as_mut() {
            proto.shrink_partial(reply);
        }
    }
    scratch.rows = words;
    result
}

/// One worker's share of a wave: its group's protocol (lent, with the
/// group's side-state, to this worker alone), scratch, the driver's
/// request table (read only), and assigned blocks with their disjoint
/// column windows.
struct WorkerTask<'a, P: Envelope> {
    proto: &'a mut P,
    scratch: &'a mut Scratch<P>,
    spine: &'a RequestTable<P::Request>,
    blocks: Vec<(ShardBlock, Cols<'a, P>)>,
}

fn run_task<P: Envelope>(env: &Env<'_>, task: &mut WorkerTask<'_, P>) -> Result<(), ProtocolError> {
    task.scratch.start_wave(task.spine.entries.len());
    let mut result = Ok(());
    for (block, cols) in &mut task.blocks {
        // The carved window sits in a `Vec` next to other workers'
        // windows; count frames on this thread's stack instead.
        let mut window = cols.reborrow();
        let r = eval_block(
            env,
            task.proto,
            task.scratch,
            task.spine,
            &mut window,
            *block,
        );
        cols.frames += window.frames;
        // Keep the first error but finish every block, so per-block
        // side-state is always fully accumulated before the barrier
        // drains it in fixed group order (ARCHITECTURE §10).
        if result.is_ok() {
            result = r;
        }
    }
    result
}

/// The position-indexed columns a wave reads and writes: persistent
/// node state plus per-wave mailboxes, windowed as [`Cols`] together
/// with the runner's position-ordered [`NetStats`]. A column
/// that only some deployments use is either empty (off) or one entry
/// per position (on).
#[derive(Debug)]
struct Columns<P: Envelope> {
    items: Vec<Vec<P::Item>>,
    /// Per-position cache state; filled by
    /// [`WaveSubstrate::enable_partial_cache`], empty until then.
    caches: Vec<NodeCache<P>>,
    slots: Vec<WaveSlot<P>>,
    /// Emulated `seen`-set cardinality per position (see
    /// [`WaveSubstrate::transport_footprint`]); empty unless
    /// [`Reliability::Ack`].
    dedup_residue: Vec<u64>,
    /// Per-edge fate streams at the child position (`None` at the
    /// root); empty unless [`Reliability::Ack`].
    arq: Vec<Option<EdgeStreams>>,
    /// Position-indexed telemetry buffers, drained via
    /// [`WaveSubstrate::drain_trace`]; exist only while tracing is on.
    trace: Vec<Vec<NodeTraceEntry>>,
}

impl<P: Envelope> Columns<P> {
    /// The whole tree as one window (what the spine sweeps), billing
    /// `stats` — stored in position order — in place.
    fn window<'a>(&'a mut self, stats: &'a mut NetStats) -> Cols<'a, P> {
        let (counters, links) = stats.storage_mut();
        Cols {
            base: 0,
            items: &mut self.items,
            caches: &mut self.caches,
            counters,
            slots: &mut self.slots,
            residue: &mut self.dedup_residue,
            arq: &mut self.arq,
            trace: &mut self.trace,
            links,
            root_row: &mut [],
            frames: 0,
        }
    }
}

/// Splits the first `n` elements off the front of a column window. A
/// column that is off is empty and yields an empty window.
fn take_front<'a, T>(col: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let n = if col.is_empty() { 0 } else { n };
    let (head, rest) = std::mem::take(col).split_at_mut(n);
    *col = rest;
    head
}

impl<'a, P: Envelope> Cols<'a, P> {
    /// Splits `[base, base + n)` off the front of the window.
    fn take_front(&mut self, n: usize) -> Self {
        let head = Cols {
            base: self.base,
            items: take_front(&mut self.items, n),
            caches: take_front(&mut self.caches, n),
            counters: take_front(&mut self.counters, n),
            slots: take_front(&mut self.slots, n),
            residue: take_front(&mut self.residue, n),
            arq: take_front(&mut self.arq, n),
            trace: take_front(&mut self.trace, n),
            links: take_front(&mut self.links, n),
            root_row: &mut [],
            frames: 0,
        };
        self.base += n;
        head
    }

    /// The same window, reborrowed with a frame count of its own.
    fn reborrow(&mut self) -> Cols<'_, P> {
        Cols {
            base: self.base,
            items: self.items,
            caches: self.caches,
            counters: self.counters,
            slots: self.slots,
            residue: self.residue,
            arq: self.arq,
            trace: self.trace,
            links: self.links,
            root_row: self.root_row,
            frames: 0,
        }
    }

    /// Carves one window per block (blocks are disjoint and ascending
    /// by start, so this is a single left-to-right pass), each with its
    /// block root's row from `root_rows`, `stride` words a block.
    fn carve(
        mut self,
        blocks: &[ShardBlock],
        root_rows: &'a mut [u64],
        stride: usize,
    ) -> Vec<Self> {
        let mut root_rows = root_rows.chunks_mut(stride.max(1));
        blocks
            .iter()
            .map(|b| {
                self.take_front(b.start as usize - self.base);
                let mut window = self.take_front(b.len as usize);
                window.root_row = root_rows.next().unwrap_or_default();
                window
            })
            .collect()
    }
}

/// Reorders `items` from global-id order into position order in place
/// (`items[p]` becomes the old `items[tree.global_of(p)]`) by walking
/// the permutation's cycles; one visited flag per node is the only
/// extra state.
fn into_position_order<T>(tree: &FlatTree, items: &mut [T]) {
    let mut done = vec![false; items.len()];
    for start in 0..items.len() {
        let mut p = start;
        while !done[p] {
            done[p] = true;
            let g = tree.global_of(p);
            if g == start {
                break; // the cycle closes: `items[p]` holds `start`'s item
            }
            items.swap(p, g);
            p = g;
        }
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
pub struct FlatWaveRunner<P: Envelope> {
    tree: FlatTree,
    plan: ShardPlan,
    energy: EnergyModel,
    /// The protocol the runner was built with, which the driver runs
    /// on the spine: every group clone's side-state (e.g. its
    /// [`MuxLedger`](crate::mux::MuxLedger)) is drained into it at
    /// every barrier ([`WaveSubstrate::protocol`]).
    proto: P,
    cols: Columns<P>,
    link: LinkConfig,
    reliability: Reliability,
    /// Per-exchange retransmission attempt budget (from
    /// [`SimConfig::max_events`]).
    attempt_budget: u64,
    stats: NetStats,
    /// Driver-side scratch (spine sweeps).
    scratch: Scratch<P>,
    worker_protos: Vec<P>,
    worker_scratch: Vec<Scratch<P>>,
    next_wave: u16,
    /// Frames transmitted during the most recent wave.
    last_wave_frames: u64,
    tree_height: u32,
    tree_max_degree: usize,
    /// The last item update's delta, reused by the next.
    item_delta: P::ItemDelta,
}

impl<P> FlatWaveRunner<P>
where
    P: Envelope + Send,
    P::Request: Send + Sync,
    P::Partial: Send,
    P::DeltaKey: Send,
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
        tree.validate(topo)?;
        Self::from_flat_tree(
            cfg,
            tree.flatten(),
            proto,
            items,
            reliability,
            workers,
            depth,
        )
    }

    /// As [`FlatWaveRunner::new`], over a spanning tree already laid out
    /// as a [`FlatTree`] (see [`SpanningTree::flatten`]) and checked
    /// against the topology: the caller can free the [`SpanningTree`]
    /// before the per-node columns are allocated. `items` is indexed by
    /// global node id.
    ///
    /// # Errors
    ///
    /// As [`FlatWaveRunner::new`]; the shape check is against the tree.
    pub fn from_flat_tree(
        cfg: SimConfig,
        tree: FlatTree,
        proto: P,
        mut items: Vec<Vec<P::Item>>,
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
        if items.len() != tree.len() {
            return Err(ProtocolError::ShapeMismatch("items vector vs tree"));
        }
        let n = tree.len();
        let plan = ShardPlan::new(&tree, workers, depth);
        into_position_order(&tree, &mut items);
        let groups = plan.groups().len();
        let worker_protos: Vec<P> = (0..groups).map(|_| proto.clone()).collect();
        // Fate streams keyed by global endpoint labels: position p's
        // tree edge replays exactly the per-edge stream a boxed
        // simulator would consume for the same pair of node ids.
        let (arq, dedup_residue) = match reliability {
            Reliability::Ack { .. } => (
                (0..n)
                    .map(|p| {
                        tree.parent_pos(p).map(|parent| {
                            EdgeStreams::new(
                                cfg.seed,
                                tree.global_of(parent) as u64,
                                tree.global_of(p) as u64,
                            )
                        })
                    })
                    .collect(),
                vec![0; n],
            ),
            Reliability::None => (Vec::new(), Vec::new()),
        };
        let stats = NetStats::with_tree(
            cfg.energy,
            (0..n).map(|g| tree.parent_pos(tree.pos_of(g)).map(|p| tree.global_of(p))),
            (0..n).map(|p| tree.global_of(p)),
        );
        let tree_max_degree = (0..n)
            .map(|p| tree.children_pos(p).len() + usize::from(tree.parent_pos(p).is_some()))
            .max()
            .unwrap_or(0);

        Ok(FlatWaveRunner {
            tree_height: tree.height(),
            tree_max_degree,
            tree,
            plan,
            energy: cfg.energy,
            proto,
            cols: Columns {
                items,
                caches: Vec::new(),
                slots: (0..n).map(|_| WaveSlot::blank()).collect(),
                dedup_residue,
                arq,
                trace: Vec::new(),
            },
            link: cfg.link.clone(),
            reliability,
            attempt_budget: cfg.max_events,
            stats,
            scratch: Scratch::new(),
            worker_protos,
            worker_scratch: (0..groups).map(|_| Scratch::new()).collect(),
            next_wave: 0,
            last_wave_frames: 0,
            item_delta: P::ItemDelta::default(),
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

    /// The three phases of one admitted wave.
    fn sweep(&mut self, req: P::Request, wave: u16) -> Result<P::Partial, ProtocolError> {
        // Root admission, outside any sweep: the driver stages the
        // request directly, so there is no inbound frame and no rx
        // charge — exactly the staged kick of the boxed runners. The
        // root's request is entry 0 of the driver's table.
        let no_spine = RequestTable::new();
        self.scratch.start_wave(0);
        let Scratch { pool, reqs, .. } = &mut self.scratch;
        let req = reqs.push(&self.proto, pool, req);
        let root = &mut self.cols.slots[0];
        root.req = req;
        root.active = true;
        if admit(
            &self.proto,
            &mut self.scratch,
            &no_spine,
            root,
            self.cols.caches.get_mut(0),
            self.cols.trace.get_mut(0),
        ) {
            // Every slot served from the root's cache: the network
            // stays silent. The boxed root's admission still purged
            // its dedup set. The answer is owned, so it is copied out.
            if let Some(residue) = self.cols.dedup_residue.get_mut(0) {
                *residue = 0;
            }
            let NodeCache { cache, resolved } = &mut self.cols.caches[0];
            let req = self.scratch.reqs.get(&no_spine, req).0;
            return Ok(resolved.take_cached_reply(&self.proto, cache, req));
        }

        let model = self.energy;
        let env = Env {
            tree: &self.tree,
            model: &model,
            link: &self.link,
            ack_bits: ack_bits(wave),
            frame_header_bits: match self.reliability {
                Reliability::Ack { .. } => ack_bits(wave),
                Reliability::None => header_bits(wave),
            },
            arq_timeout: match self.reliability {
                Reliability::Ack { timeout } => Some(timeout),
                Reliability::None => None,
            },
            attempt_budget: self.attempt_budget,
        };
        let env = &env;
        // Every request of the wave is the root's forwarded one or a
        // subset of it, so its row is the widest.
        let root_fwd = self.cols.slots[0].fwd;
        let stride = self.scratch.reqs.get(&no_spine, root_fwd).2.stride;
        let (spine, blocks) = (self.plan.spine(), self.plan.blocks());

        // Phase A — spine top-down: the root's fan-out, then every
        // spine position in ascending (pre-)order, staging the inbound
        // frames of all block roots along the way.
        let mut cols = self.cols.window(&mut self.stats);
        let phase_a = fan_out(
            env,
            &self.proto,
            &self.scratch.reqs,
            &no_spine,
            &mut cols,
            0,
            root_fwd,
        )
        .and_then(|()| {
            spine[1..].iter().try_for_each(|&p| {
                step_down(
                    env,
                    &self.proto,
                    &mut self.scratch,
                    &no_spine,
                    &mut cols,
                    p as usize,
                )
            })
        });
        self.last_wave_frames += cols.frames;
        phase_a?;

        // The driver merged the block roots' last replies into its own
        // list: hand each worker one spent accumulator per block it
        // runs, so no list grows or drains from wave to wave.
        let spare = &mut self.scratch.spare.0;
        for (worker, group) in self.worker_scratch.iter_mut().zip(self.plan.groups()) {
            let keep = spare.len().saturating_sub(group.len());
            worker.spare.0.extend(spare.drain(keep..));
        }

        // Phase B — parallel blocks: disjoint column windows per
        // block, grouped per worker by the plan's static assignment.
        // Block roots read the driver's request table, which stays
        // unchanged until phase C, and leave their rows in the driver's
        // rows, one per block, below the stack phase C builds on them.
        let Scratch { reqs, rows, .. } = &mut self.scratch;
        let spine_reqs = &*reqs;
        rows.clear();
        rows.resize(blocks.len() * stride, 0);
        let root_rows = &mut rows[..];
        let mut windows: Vec<Option<Cols<'_, P>>> = self
            .cols
            .window(&mut self.stats)
            .carve(blocks, root_rows, stride)
            .into_iter()
            .map(Some)
            .collect();
        let mut tasks: Vec<WorkerTask<'_, P>> = self
            .worker_protos
            .iter_mut()
            .zip(self.worker_scratch.iter_mut())
            .zip(self.plan.groups())
            .map(|((proto, scratch), group)| WorkerTask {
                proto,
                scratch,
                spine: spine_reqs,
                blocks: group
                    .iter()
                    .map(|&bi| (blocks[bi], windows[bi].take().expect("block assigned once")))
                    .collect(),
            })
            .collect();
        let results: Vec<Result<(), ProtocolError>> = if tasks.len() <= 1 {
            tasks.iter_mut().map(|t| run_task(env, t)).collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = tasks
                    .iter_mut()
                    .map(|t| scope.spawn(move || run_task(env, t)))
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
        let mut cols = self.cols.window(&mut self.stats);
        let mut words = std::mem::take(&mut self.scratch.rows);
        let mut rows = RowStack {
            words: &mut words,
            stride,
            blocks,
        };
        let mut result = Ok(None);
        for &p in spine.iter().rev() {
            result = step_up(
                env,
                &self.proto,
                &mut self.scratch,
                &no_spine,
                &mut cols,
                &mut rows,
                p as usize,
            );
            if result.is_err() {
                break;
            }
        }
        self.scratch.rows = words;
        self.last_wave_frames += cols.frames;
        // Position 0 is visited last, and only the root returns a reply.
        result?.ok_or(ProtocolError::NoResult)
    }
}

impl<P> WaveSubstrate<P> for FlatWaveRunner<P>
where
    P: Envelope + Send + std::fmt::Debug,
    P::Request: Send + Sync,
    P::Partial: Send,
    P::DeltaKey: Send,
    P::Item: Send,
{
    fn name(&self) -> &'static str {
        "flat"
    }

    fn protocol(&self) -> &P {
        &self.proto
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
        // A reply a failed wave left staged is dropped when its node is
        // next admitted, before any parent could read it.
        self.sweep(req, self.next_wave)
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
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
        self.proto
            .item_delta(node, &old, &self.cols.items[pos], &mut self.item_delta);
        let (proto, delta) = (&self.proto, &self.item_delta);
        let (mut applied, mut invalidated) = (0, 0);
        let mut cursor = Some(pos);
        while let Some(p) = cursor {
            if let Some(NodeCache { cache, .. }) = self.cols.caches.get_mut(p) {
                let (a, i) = cache.delta_maintain(|entry| entry.apply(proto, delta));
                applied += a;
                invalidated += i;
            }
            cursor = self.tree.parent_pos(p);
        }
        (applied, invalidated)
    }

    /// Adds the cache column (replacing any earlier one): a runner
    /// without a cache holds no per-node cache state at all.
    fn enable_partial_cache(&mut self, capacity: usize) {
        self.cols.caches = (0..self.tree.len())
            .map(|_| NodeCache {
                cache: PartialCache::new(capacity),
                resolved: CacheResolution::default(),
            })
            .collect();
    }

    fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for node in &self.cols.caches {
            total.absorb(node.cache.stats());
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
                .map(|node| node.cache.stats().entries)
                .sum(),
            ..TransportFootprint::default()
        }
    }

    /// The trace column exists only while tracing is on; switching
    /// either way drops every buffered entry.
    fn set_tracing(&mut self, on: bool) {
        self.cols.trace = if on {
            (0..self.tree.len()).map(|_| Vec::new()).collect()
        } else {
            Vec::new()
        };
    }

    /// Visits the position-indexed buffers in ascending **global** id
    /// through the tree's `pos_of` column: the canonical order without
    /// a sort.
    fn drain_trace(&mut self, sink: &mut dyn FnMut(NodeId, Option<NodeId>, NodeTraceEntry)) {
        if self.cols.trace.is_empty() {
            return; // tracing is off
        }
        for gid in 0..self.tree.len() {
            let p = self.tree.pos_of(gid);
            let parent = self.tree.parent_pos(p).map(|q| self.tree.global_of(q));
            for entry in self.cols.trace[p].drain(..) {
                sink(gid, parent, entry);
            }
        }
    }

    fn edge_fate_positions(&self, node: NodeId) -> [u64; 4] {
        self.cols
            .arq
            .get(self.tree.pos_of(node))
            .and_then(Option::as_ref)
            .map_or([0; 4], |e| {
                [
                    e.down_data.index(),
                    e.up_ack.index(),
                    e.up_data.index(),
                    e.down_ack.index(),
                ]
            })
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
    use crate::mux::{MultiplexWave, MuxEntry};
    use crate::test_protocols::SumBelow;
    use crate::wave::WaveRunner;
    use saq_netsim::wire::{width_for_max, BitReader, BitWriter};
    use saq_netsim::NetsimError;

    fn proto() -> MultiplexWave<SumBelow> {
        MultiplexWave::new(SumBelow {
            value_width: width_for_max(1000),
        })
    }

    fn env(reqs: Vec<u64>) -> Vec<MuxEntry<u64>> {
        MultiplexWave::envelope(proto().inner(), reqs)
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
        single.protocol().ledger_mut().reset(2);
        flat.protocol().ledger_mut().reset(2);
        let a = single.run_wave(env(vec![800, 30])).unwrap();
        let b = flat.run_wave(env(vec![800, 30])).unwrap();
        assert_eq!(a, b);
        let sg = single.protocol().ledger_mut();
        let fg = flat.protocol().ledger_mut();
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
    fn warm_flat_waves_recycle_every_accumulator_and_buffer() {
        // Replies cross their edges as widths, and accumulators go back
        // to the merging thread's free list, the block roots' handed
        // back to their workers before the parallel phase: once warm,
        // every thread's free list keeps its length from wave to wave,
        // and the pools that measure requests allocate nothing more.
        let (topo, tree, items) = balanced_setup(85, 4);
        for workers in [1usize, 2, 4] {
            let mut flat = FlatWaveRunner::new(
                &topo,
                SimConfig::default(),
                &tree,
                proto(),
                items.clone(),
                Reliability::None,
                workers,
                NestDepth::Auto,
            )
            .unwrap();
            let state = |flat: &FlatWaveRunner<MultiplexWave<SumBelow>>| -> Vec<(usize, u64)> {
                std::iter::once(&flat.scratch)
                    .chain(&flat.worker_scratch)
                    .map(|s| (s.spare.0.len(), s.pool.fresh()))
                    .collect()
            };
            for req in [vec![1000, 30], vec![500, 1], vec![250, 999]] {
                flat.run_wave(env(req)).unwrap();
            }
            let warm = state(&flat);
            assert!(warm.iter().any(|&(spare, _)| spare > 0), "{warm:?}");
            for req in [vec![700, 3], vec![30, 500], vec![1, 2]] {
                flat.run_wave(env(req)).unwrap();
                assert_eq!(state(&flat), warm, "workers={workers}");
            }
        }
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
        // Two waves: the second consumes each edge's streams from
        // wherever the first left them, so index continuity is covered
        // too.
        let script = [Step::Wave(vec![1000, 500]), Step::Wave(vec![30])];
        same_as_boxed(&topo, &tree, &items, cfg, rel, None, &script);
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
        // The sequence a fingerprint hashes: id order, whatever order
        // either runner stores its counters in.
        let bits = |s: &NetStats| -> Vec<(u64, u64)> {
            s.iter().map(|n| (n.tx_bits, n.rx_bits)).collect()
        };
        assert_eq!(
            bits(single),
            bits(flat),
            "per-node bits in id order ({what})"
        );
    }

    /// What can happen between two waves of a [`same_as_boxed`] script.
    enum Step {
        Wave(Vec<u64>),
        SetItems(NodeId, Vec<u64>),
        /// Switches tracing on or off on both runners.
        Trace(bool),
        /// Enables the partial cache on both runners.
        EnableCache(usize),
    }

    /// One drained trace entry: node, its parent, the entry.
    type Traced = (usize, Option<usize>, NodeTraceEntry);

    /// Drains `runner`'s trace into a vector, in the canonical order.
    fn take_trace<P: Envelope>(runner: &mut dyn WaveSubstrate<P>) -> Vec<Traced> {
        let mut out = Vec::new();
        runner.drain_trace(&mut |node, parent, entry| out.push((node, parent, entry)));
        out
    }

    /// Nesting depths every [`same_as_boxed`] script runs at: the
    /// classic root cut, one and two re-cuts, and the auto-chosen plan.
    const DEPTHS: [NestDepth; 4] = [
        NestDepth::Fixed(0),
        NestDepth::Fixed(1),
        NestDepth::Fixed(2),
        NestDepth::Auto,
    ];

    /// Plays `script` on a boxed [`WaveRunner`] and on flat runners at
    /// every depth of [`DEPTHS`] with 1, 2 and 4 workers, comparing
    /// after every wave the answer, the frames transmitted, the
    /// [`MuxLedger`], the canonical trace and the transport footprint,
    /// and at the end every node and tree-edge tally and the cache
    /// counters. The tree must be deep enough that each pinned depth
    /// re-cuts that often at W = 4. Returns the flat W = 2, auto-depth
    /// run's trace, one `Vec` per wave, for callers that assert *what*
    /// happened.
    ///
    /// [`MuxLedger`]: crate::mux::MuxLedger
    fn same_as_boxed(
        topo: &Topology,
        tree: &SpanningTree,
        items: &[Vec<u64>],
        cfg: SimConfig,
        rel: Reliability,
        cache: Option<usize>,
        script: &[Step],
    ) -> Vec<Vec<Traced>> {
        let mut traces = Vec::new();
        for (depth, workers) in DEPTHS
            .into_iter()
            .flat_map(|d| [1usize, 2, 4].map(|w| (d, w)))
        {
            let what = format!("workers={workers} {depth:?}");
            let (sp, fp) = (proto(), proto());
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
                depth,
            )
            .unwrap();
            if let (NestDepth::Fixed(d), 4) = (depth, workers) {
                assert_eq!(flat.plan().depth(), d, "tree too shallow for {what}");
            }
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
                    Step::Trace(on) => {
                        single.set_tracing(*on);
                        flat.set_tracing(*on);
                        continue;
                    }
                    Step::EnableCache(capacity) => {
                        single.enable_partial_cache(*capacity);
                        flat.enable_partial_cache(*capacity);
                        continue;
                    }
                    Step::Wave(req) => req,
                };
                single.protocol().ledger_mut().reset(req.len());
                flat.protocol().ledger_mut().reset(req.len());
                let a = single.run_wave(env(req.clone())).unwrap();
                let b = flat.run_wave(env(req.clone())).unwrap();
                assert_eq!(a, b, "answers differ ({what}, {req:?})");
                assert_eq!(
                    single.last_wave_frames(),
                    flat.last_wave_frames(),
                    "frames differ ({what}, {req:?})"
                );
                {
                    let (sg, fg) = (single.protocol().ledger_mut(), flat.protocol().ledger_mut());
                    assert_eq!(sg.slots(), fg.slots(), "slot bits ({what}, {req:?})");
                    assert_eq!(sg.envelope_bits(), fg.envelope_bits(), "{what}, {req:?}");
                }
                assert_eq!(
                    single.transport_footprint(),
                    flat.transport_footprint(),
                    "between-wave footprint ({what}, {req:?})"
                );
                let trace = take_trace(&mut flat);
                assert_eq!(take_trace(&mut single), trace, "trace ({what}, {req:?})");
                if (depth, workers) == (NestDepth::Auto, 2) {
                    traces.push(trace);
                }
            }
            assert_same_tallies(topo, tree, single.stats(), flat.stats(), &what);
            assert_eq!(single.cache_stats(), flat.cache_stats(), "{what}");
        }
        traces
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
            .filter(|&&(node, _, _)| node == 3)
            .map(|&(_, _, e)| e)
            .collect();
        assert!(
            at_3.contains(&NodeTraceEntry::CacheHit { slot: 0 })
                && at_3.contains(&NodeTraceEntry::CacheMiss { slot: 1 }),
            "node 3 must hit slot 0 and miss slot 1, got {at_3:?}"
        );
    }

    /// [`SumBelow`] counting its codec calls, in counters its clones
    /// share: request encodes and decodes, partial encodes and decodes.
    #[derive(Debug, Clone)]
    struct CountingCodec {
        inner: SumBelow,
        calls: std::sync::Arc<[std::sync::atomic::AtomicU64; 4]>,
    }

    impl CountingCodec {
        fn new() -> Self {
            CountingCodec {
                inner: proto().inner().clone(),
                calls: Default::default(),
            }
        }

        fn count(&self, call: usize) {
            self.calls[call].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }

        /// `[request encodes, request decodes, partial encodes, partial
        /// decodes]` since the last call.
        fn take(&self) -> [u64; 4] {
            self.calls
                .each_ref()
                .map(|c| c.swap(0, std::sync::atomic::Ordering::Relaxed))
        }
    }

    impl WaveProtocol for CountingCodec {
        type Request = u64;
        type Partial = u64;
        type Item = u64;
        type ItemDelta = ();
        type DeltaKey = u64;

        fn encode_request(&self, req: &u64, w: &mut BitWriter) {
            self.count(0);
            self.inner.encode_request(req, w);
        }
        fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.count(1);
            self.inner.decode_request(r)
        }
        fn encode_partial(&self, req: &u64, p: &u64, w: &mut BitWriter) {
            self.count(2);
            self.inner.encode_partial(req, p, w);
        }
        fn partial_width(&self, req: &u64, p: &u64) -> u64 {
            self.inner.partial_width(req, p)
        }
        fn decode_partial(&self, req: &u64, r: &mut BitReader<'_>) -> Result<u64, NetsimError> {
            self.count(3);
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
        /// The request itself, as `CoreWave` keeps it: a store that
        /// decoded its slot's request would show among the decodes.
        fn delta_key(&self, req: &u64) -> Option<u64> {
            Some(*req)
        }
    }

    #[test]
    fn a_flat_wave_never_decodes_a_request() {
        // A child admits the request its parent forwarded, and a parent
        // merges its children's replies by reference: during a flat wave
        // the inner codec decodes nothing and encodes no request (every
        // sub-request's bits were captured when the envelope was built)
        // and, in release builds, no partial — a debug build encodes
        // each slot of every staged reply exactly once, to check the
        // width it is billed by — while the boxed oracle decodes every
        // request and partial it is delivered; answers, ledger, frames,
        // traces and tallies still agree. The script makes node 3
        // forward a subset envelope (see
        // `mid_tree_cache_hit_forwards_a_subset_envelope`), and later
        // waves are answered from cache in part or in whole.
        let (topo, tree, items) = balanced_setup(40, 3);
        let script = [
            Step::Wave(vec![100]),
            Step::SetItems(39, vec![5]),
            Step::Wave(vec![700]),
            Step::SetItems(14, vec![6]),
            Step::Wave(vec![700, 100]),
            Step::Wave(vec![999, 30]),
            Step::Wave(vec![999, 30]),
            Step::SetItems(20, vec![7]),
            Step::Wave(vec![999, 30, 100]),
        ];
        let lossy = SimConfig::default().with_link(
            saq_netsim::link::LinkConfig::default()
                .with_loss(0.2)
                .with_duplication(0.05),
        );
        let arq = Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(40),
        };
        for (cfg, rel) in [(SimConfig::default(), Reliability::None), (lossy, arq)] {
            for workers in [1usize, 2] {
                let what = format!("{rel:?}, workers={workers}");
                let (sc, fc) = (CountingCodec::new(), CountingCodec::new());
                let (sp, fp) = (
                    MultiplexWave::new(sc.clone()),
                    MultiplexWave::new(fc.clone()),
                );
                let mut single =
                    WaveRunner::new(&topo, cfg.clone(), &tree, sp, items.clone(), rel).unwrap();
                let mut flat = FlatWaveRunner::new(
                    &topo,
                    cfg.clone(),
                    &tree,
                    fp,
                    items.clone(),
                    rel,
                    workers,
                    NestDepth::Auto,
                )
                .unwrap();
                assert_eq!(flat.worker_count(), workers);
                for runner in [
                    &mut single as &mut dyn WaveSubstrate<MultiplexWave<CountingCodec>>,
                    &mut flat,
                ] {
                    runner.enable_partial_cache(8);
                    runner.set_tracing(true);
                }
                let (mut subset_seen, mut cached_seen) = (false, false);
                for step in &script {
                    let req = match step {
                        Step::SetItems(node, items) => {
                            single.set_items(*node, items.clone());
                            flat.set_items(*node, items.clone());
                            continue;
                        }
                        Step::Wave(req) => req,
                        Step::Trace(_) | Step::EnableCache(_) => unreachable!(),
                    };
                    single.protocol().ledger_mut().reset(req.len());
                    flat.protocol().ledger_mut().reset(req.len());
                    let (se, fe) = (
                        MultiplexWave::envelope(&sc, req.clone()),
                        MultiplexWave::envelope(&fc, req.clone()),
                    );
                    sc.take();
                    fc.take();
                    let a = single.run_wave(se).unwrap();
                    let [_, single_decodes, ..] = sc.take();
                    let b = flat.run_wave(fe).unwrap();
                    let [req_encodes, req_decodes, part_encodes, part_decodes] = fc.take();
                    assert_eq!(a, b, "answers differ ({what}, {req:?})");
                    assert_eq!(single.last_wave_frames(), flat.last_wave_frames());
                    // Every staged slot is billed 32 bits, once.
                    let staged_slots = {
                        let (sg, fg) =
                            (single.protocol().ledger_mut(), flat.protocol().ledger_mut());
                        assert_eq!(sg.slots(), fg.slots(), "slot bits ({what}, {req:?})");
                        assert_eq!(sg.envelope_bits(), fg.envelope_bits(), "{what}");
                        fg.slots().iter().map(|s| s.partial_bits).sum::<u64>() / 32
                    };
                    let checks = if cfg!(debug_assertions) {
                        staged_slots
                    } else {
                        0
                    };
                    assert_eq!(
                        [req_encodes, req_decodes, part_encodes, part_decodes],
                        [0, 0, checks, 0],
                        "flat codec calls ({what}, {req:?})"
                    );
                    let trace = take_trace(&mut flat);
                    assert_eq!(take_trace(&mut single), trace, "trace ({what}, {req:?})");
                    // The boxed runner decodes each delivered request,
                    // one inner decode per slot it carries (none when
                    // the root answers from its cache).
                    let [delivered, .., hits, _] = trace_census(&trace).map(|n| n as u64);
                    assert!(
                        (delivered..=delivered * req.len() as u64).contains(&single_decodes),
                        "{single_decodes} boxed decodes for {delivered} requests ({what})"
                    );
                    subset_seen |= single_decodes < delivered * req.len() as u64;
                    cached_seen |= hits > 0;
                }
                assert!(subset_seen, "some node forwards a subset envelope ({what})");
                assert!(cached_seen, "some node answers from cache ({what})");
                assert_same_tallies(&topo, &tree, single.stats(), flat.stats(), &what);
                assert_eq!(single.cache_stats(), flat.cache_stats(), "{what}");
            }
        }
    }

    /// How many entries of each kind a drained trace holds:
    /// `(requests received, partials sent, cache hits, cache misses)`.
    fn trace_census(trace: &[Traced]) -> [usize; 4] {
        let mut census = [0; 4];
        for (_, _, entry) in trace {
            census[match entry {
                NodeTraceEntry::RequestRecv { .. } => 0,
                NodeTraceEntry::PartialSent { .. } => 1,
                NodeTraceEntry::CacheHit { .. } => 2,
                NodeTraceEntry::CacheMiss { .. } => 3,
            }] += 1;
        }
        census
    }

    #[test]
    fn tracing_attached_after_untraced_waves_drains_exactly_the_next_wave() {
        // The trace column appears only when tracing is switched on: the
        // waves before it leave nothing behind, and the first traced
        // wave drains one request and one partial per non-root node.
        let (topo, tree, items) = balanced_setup(40, 3);
        let script = [
            Step::Trace(false),
            Step::Wave(vec![1000, 500]),
            Step::Wave(vec![30]),
            Step::Wave(vec![700]),
            Step::Trace(true),
            Step::Wave(vec![999, 1]),
        ];
        let traces = same_as_boxed(
            &topo,
            &tree,
            &items,
            SimConfig::default(),
            Reliability::None,
            None,
            &script,
        );
        assert!(traces[..3].iter().all(Vec::is_empty), "untraced waves");
        let edges = topo.len() - 1;
        assert_eq!(trace_census(&traces[3]), [edges, edges, 0, 0]);
    }

    #[test]
    fn tracing_switched_off_and_on_again_replays_no_stale_entry() {
        // A traced wave's entries left undrained when tracing goes off
        // are dropped with the column: after switching back on, the
        // next drain holds that one wave only, as on the boxed runner.
        let (topo, tree, items) = balanced_setup(40, 3);
        let edges = topo.len() - 1;
        for workers in [1usize, 2, 4] {
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
                NestDepth::Auto,
            )
            .unwrap();
            let runners: [&mut dyn WaveSubstrate<MultiplexWave<SumBelow>>; 2] =
                [&mut single, &mut flat];
            let mut drained = Vec::new();
            for runner in runners {
                runner.set_tracing(true);
                runner.run_wave(env(vec![1000])).unwrap(); // left undrained
                runner.set_tracing(false);
                runner.run_wave(env(vec![500])).unwrap();
                runner.set_tracing(true);
                runner.run_wave(env(vec![30, 700])).unwrap();
                drained.push(take_trace(runner));
            }
            assert_eq!(drained[0], drained[1], "workers={workers}");
            assert_eq!(trace_census(&drained[1]), [edges, edges, 0, 0]);
        }
    }

    #[test]
    fn cache_enabled_after_waves_matches_boxed() {
        // The cache column appears with `enable_partial_cache`, however
        // many waves ran before it: hit/miss counters, bits, footprint
        // and every wave's trace stay the boxed runner's.
        let (topo, tree, items) = balanced_setup(40, 3);
        let script = [
            Step::Wave(vec![700, 100]),
            Step::Wave(vec![100]),
            Step::EnableCache(8),
            Step::Wave(vec![700, 100]),
            Step::Wave(vec![700, 100]),
            Step::SetItems(39, vec![5]),
            Step::Wave(vec![100, 30]),
        ];
        let traces = same_as_boxed(
            &topo,
            &tree,
            &items,
            SimConfig::default(),
            Reliability::None,
            None,
            &script,
        );
        let [.., hits, misses] = trace_census(&traces.concat());
        assert!(hits > 0 && misses > 0, "{hits} hits, {misses} misses");
        assert_eq!(trace_census(&traces[0])[2..], [0, 0], "no cache yet");
    }

    #[test]
    fn a_wave_slot_fits_in_40_bytes() {
        // Only what every deployment needs lives in the slot: two
        // request indices, the staged width, the accumulator (which is
        // also the staged reply) and two flags — no frame.
        assert!(std::mem::size_of::<WaveSlot<MultiplexWave<SumBelow>>>() <= 40);
    }

    #[test]
    fn worker_scratches_share_no_128_byte_block() {
        assert!(std::mem::align_of::<Scratch<SumBelow>>() >= 128);
        assert!(std::mem::align_of::<Scratch<MultiplexWave<SumBelow>>>() >= 128);
        let (topo, tree, items) = balanced_setup(85, 4);
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
        flat.run_wave(env(vec![1000])).unwrap();
        assert!(flat.worker_scratch.len() >= 2, "need two worker groups");
        let mut blocks: Vec<usize> = std::iter::once(&flat.scratch)
            .chain(&flat.worker_scratch)
            .map(|s| {
                let addr = s as *const Scratch<_> as usize;
                assert_eq!(addr % 128, 0, "scratch at {addr:#x} is not 128-aligned");
                addr / 128
            })
            .collect();
        let n = blocks.len();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(blocks.len(), n, "two scratches share a 128-byte block");
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
        type ItemDelta = ();
        type DeltaKey = ();

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
        fn local(&self, node: NodeId, items: &mut [u64], req: &u64) -> u64 {
            assert!(
                !(node == self.node && *req == self.trigger),
                "injected protocol panic"
            );
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
    }

    impl Envelope for PanicsAt {}

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
    fn worker_panic_leaves_no_bill_for_the_next_wave() {
        let (topo, tree, items) = balanced_setup(85, 4);
        let panics = || {
            MultiplexWave::new(PanicsAt {
                inner: SumBelow {
                    value_width: width_for_max(1000),
                },
                node: 84, // a leaf: deep inside some worker's block
                trigger: 666,
            })
        };
        let build = || {
            FlatWaveRunner::new(
                &topo,
                SimConfig::default(),
                &tree,
                panics(),
                items.clone(),
                Reliability::None,
                2,
                NestDepth::Auto,
            )
            .unwrap()
        };
        let (mut flat, mut fresh) = (build(), build());
        assert_eq!(flat.worker_count(), 2, "the panic must land on a worker");
        let inner = panics().inner().clone();
        let env = |reqs: Vec<u64>| MultiplexWave::envelope(&inner, reqs);
        let err = flat.run_wave(env(vec![500, 666])).unwrap_err();
        assert!(matches!(err, ProtocolError::WorkerPanicked(_)), "{err:?}");

        // The drivers reset the ledger before every wave; whatever the
        // groups billed before the panic was drained at the barrier.
        for runner in [&mut flat, &mut fresh] {
            runner.protocol().ledger_mut().reset(2);
            runner.run_wave(env(vec![700, 30])).unwrap();
        }
        let (got, want) = (flat.protocol().ledger_mut(), fresh.protocol().ledger_mut());
        assert_eq!(got.slots(), want.slots());
        assert_eq!(got.envelope_bits(), want.envelope_bits());
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
