//! The simulation engine.
//!
//! A [`Simulator`] executes a set of per-node state machines (the
//! [`NodeRuntime`] trait) over a [`Topology`], delivering bit-string
//! packets through a [`LinkConfig`] and charging every transmission and
//! reception to [`NetStats`].
//!
//! ## Execution model
//!
//! The engine is *run-to-quiescence*: callers kick one or more nodes (via
//! [`Simulator::kick`]), then call [`Simulator::run_until_quiescent`],
//! which processes events until none remain. Multi-round protocols — like
//! the paper's median algorithms, which invoke a sequence of primitive
//! protocols — alternate between kicking a wave and inspecting node state
//! between waves; statistics and the virtual clock persist across waves.
//!
//! ## Determinism
//!
//! Everything random (link fates, jitter, a protocol's own coins) derives
//! from the master seed in [`SimConfig::seed`] through per-purpose
//! streams, so a `(topology, config, protocol)` triple always produces
//! bit-identical statistics. A property test in `tests/` asserts this
//! end to end.
//!
//! Link fates come from **per-edge fate streams** ([`FateStream`]): the
//! fate of the n-th transmission of a frame class over a directed edge is
//! a pure function of `(seed, src id, dst id, class, n)` — never of
//! global event order — so the columnar flat runner replays the exact
//! loss schedule of an event-driven run.

use crate::energy::EnergyModel;
use crate::error::NetsimError;
use crate::event::{EventKind, EventQueue};
use crate::link::{FateStream, FrameClass, LinkConfig, LinkFate};
use crate::stats::NetStats;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use crate::wire::{BitString, BitWriter, ScratchPool};
use std::collections::HashMap;

/// Index of a node in the network (`0..n`, with 0 the conventional root).
pub type NodeId = usize;

/// Simulation-wide configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Link behaviour shared by all links.
    pub link: LinkConfig,
    /// Radio energy model.
    pub energy: EnergyModel,
    /// Master seed for all randomness in the run.
    pub seed: u64,
    /// Hard cap on processed events, to catch protocols that never
    /// quiesce.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkConfig::default(),
            energy: EnergyModel::default(),
            seed: 0xC0FF_EE00,
            max_events: 200_000_000,
        }
    }
}

impl SimConfig {
    /// Returns a copy with the given master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given link configuration.
    pub fn with_link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }
}

/// Side effects a node may request while handling an event.
#[derive(Debug)]
enum Action {
    Unicast {
        to: NodeId,
        payload: BitString,
        class: FrameClass,
    },
    LocalBroadcast {
        payload: BitString,
    },
    Timer {
        delay: SimDuration,
        tag: u64,
    },
}

/// The environment handed to a node while it handles an event.
///
/// All side effects (sending, timers) are buffered and applied by the
/// engine after the handler returns, which keeps handlers simple and
/// borrow-check friendly.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    now: SimTime,
    neighbors: &'a [usize],
    actions: &'a mut Vec<Action>,
    pool: &'a mut ScratchPool,
}

impl<'a> Context<'a> {
    /// This node's identifier.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node's neighbours in the topology, sorted ascending.
    pub fn neighbors(&self) -> &[usize] {
        self.neighbors
    }

    /// An empty frame writer drawn from the simulator's [`ScratchPool`]:
    /// backed by a recycled frame allocation when one is available, so
    /// steady-state waves encode without touching the allocator. Frames
    /// handed to [`Context::send`] are recycled automatically once every
    /// delivered copy has been consumed.
    pub fn writer(&mut self) -> BitWriter {
        self.pool.writer()
    }

    /// A copy of `s` backed by a recycled allocation when one is
    /// available (see [`ScratchPool::duplicate`]). Lets a protocol fan
    /// the same frame out to several neighbours without re-encoding or
    /// touching the allocator in steady state.
    pub fn duplicate(&mut self, s: &BitString) -> BitString {
        self.pool.duplicate(s)
    }

    /// Sends `payload` to the neighbour `to` as a [`FrameClass::Data`]
    /// frame.
    ///
    /// The transmission is charged to this node immediately (radio energy
    /// is spent whether or not the packet survives the link). Sends to
    /// non-neighbours are rejected when the engine applies actions.
    pub fn send(&mut self, to: NodeId, payload: BitString) {
        self.send_classed(to, payload, FrameClass::Data);
    }

    /// Sends `payload` to the neighbour `to` under an explicit frame
    /// class, selecting which per-edge fate stream the transmission draws
    /// from. ARQ layers send their acknowledgements as
    /// [`FrameClass::Ack`] so data and ACK fates never depend on how the
    /// two directions interleave in time.
    pub fn send_classed(&mut self, to: NodeId, payload: BitString, class: FrameClass) {
        self.actions.push(Action::Unicast { to, payload, class });
    }

    /// Transmits `payload` once over the shared radio medium: every
    /// neighbour draws an independent link fate for the same transmission.
    ///
    /// The sender is charged for **one** transmission (this is the radio
    /// broadcast advantage exploited by TAG-style dissemination); each
    /// neighbour that receives a copy is charged for its reception.
    pub fn broadcast_local(&mut self, payload: BitString) {
        self.actions.push(Action::LocalBroadcast { payload });
    }

    /// Schedules a timer to fire on this node after `delay`, carrying the
    /// protocol-defined `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.actions.push(Action::Timer { delay, tag });
    }
}

/// A per-node protocol state machine.
///
/// Implementations should be pure state machines: all randomness must come
/// from [`SimConfig::seed`] — push-sum gossip seeds a stream per node with
/// [`derive_seed`](crate::rng::derive_seed) — or from hashes of what the
/// node holds, and all side effects must go through the context, so that
/// runs are reproducible.
pub trait NodeRuntime {
    /// Invoked when a timer set via [`Context::set_timer`] fires, and for
    /// the initial kick delivered by [`Simulator::kick`] (which arrives as
    /// a timer with the caller's tag).
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64);

    /// Invoked for every delivered packet copy.
    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &BitString);
}

/// A node runtime that ignores every event; useful as a placeholder and in
/// engine tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleNode;

impl NodeRuntime for IdleNode {
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _tag: u64) {}
    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, _payload: &BitString) {}
}

/// The discrete-event simulator.
///
/// Generic over the node state machine type `P`, so protocol crates get
/// static dispatch and typed access to node state after a run.
#[derive(Debug)]
pub struct Simulator<P> {
    topo: Topology,
    cfg: SimConfig,
    nodes: Vec<P>,
    /// Lazily created per-(directed edge, frame class) fate streams.
    fate_streams: HashMap<(NodeId, NodeId, FrameClass), FateStream>,
    queue: EventQueue,
    stats: NetStats,
    now: SimTime,
    events_processed: u64,
    /// Physical transmissions since construction (never reset).
    frames_transmitted: u64,
    /// Recycled frame allocations: encode paths draw writers through
    /// [`Context::writer`], delivery copies are duplicated from and
    /// recycled back into the pool, so steady-state waves run without
    /// per-frame heap traffic.
    pool: ScratchPool,
    /// Reusable action buffer for the event loop: handlers push into it
    /// through [`Context`], the engine drains it after each event, and
    /// its capacity carries over so per-event side effects cost no
    /// allocations in steady state.
    action_scratch: Vec<Action>,
}

impl<P: NodeRuntime + Default> Simulator<P> {
    /// Creates a simulator with default-constructed node state.
    pub fn new(topo: Topology, cfg: SimConfig) -> Self {
        let nodes = (0..topo.len()).map(|_| P::default()).collect();
        Self::with_nodes(topo, cfg, nodes)
    }
}

impl<P: NodeRuntime> Simulator<P> {
    /// Creates a simulator with explicit per-node state.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn with_nodes(topo: Topology, cfg: SimConfig, nodes: Vec<P>) -> Self {
        assert_eq!(
            nodes.len(),
            topo.len(),
            "need exactly one node state per topology node"
        );
        let stats = NetStats::new(topo.len(), cfg.energy);
        Simulator {
            topo,
            cfg,
            nodes,
            fate_streams: HashMap::new(),
            queue: EventQueue::new(),
            stats,
            now: SimTime::ZERO,
            events_processed: 0,
            frames_transmitted: 0,
            pool: ScratchPool::new(),
            action_scratch: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.topo.len()
    }

    /// Whether the network has no nodes (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.topo.is_empty()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Resets statistics (e.g. to separate a setup phase from a measured
    /// phase) without touching node state or the clock.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Immutable access to a node's state machine.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id]
    }

    /// Mutable access to a node's state machine (used by drivers to load
    /// inputs between waves).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id]
    }

    /// Iterates over all node states.
    pub fn nodes(&self) -> impl Iterator<Item = &P> {
        self.nodes.iter()
    }

    /// Schedules an immediate timer on `node` with the given protocol tag,
    /// waking its state machine at the current virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn kick(&mut self, node: NodeId, tag: u64) {
        assert!(node < self.len(), "kick target out of range");
        self.queue
            .schedule(self.now, EventKind::Timer { node, tag });
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The index the next transmission from `src` to `dst` of `class`
    /// draws from its per-edge fate stream (0 before the first) — where
    /// a replay of that stream picks up to stay in step with this
    /// simulator.
    pub fn fate_index(&self, src: NodeId, dst: NodeId, class: FrameClass) -> u64 {
        self.fate_streams
            .get(&(src, dst, class))
            .map_or(0, FateStream::index)
    }

    /// Physical transmissions since construction — one per
    /// [`NetStats::charge_tx`] the simulator made, unaffected by
    /// [`Simulator::reset_stats`]. A driver reads it before and after a
    /// run to count that run's frames without summing per-node counters.
    pub fn frames_transmitted(&self) -> u64 {
        self.frames_transmitted
    }

    /// Frame writers/copies served from recycled allocations (see
    /// [`ScratchPool::reused`]).
    pub fn scratch_reused(&self) -> u64 {
        self.pool.reused()
    }

    /// Frame writers/copies that had to allocate fresh (see
    /// [`ScratchPool::fresh`]).
    pub fn scratch_fresh(&self) -> u64 {
        self.pool.fresh()
    }

    /// Runs until no events remain, returning the number of events
    /// processed by this call.
    ///
    /// # Errors
    ///
    /// Returns [`NetsimError::EventBudgetExhausted`] if the configured
    /// lifetime event budget is exceeded — the usual symptom of a protocol
    /// that retransmits forever.
    pub fn run_until_quiescent(&mut self) -> Result<u64, NetsimError> {
        let mut processed_now = 0u64;
        while let Some(ev) = self.queue.pop() {
            if self.events_processed >= self.cfg.max_events {
                return Err(NetsimError::EventBudgetExhausted {
                    budget: self.cfg.max_events,
                });
            }
            self.events_processed += 1;
            processed_now += 1;
            debug_assert!(ev.at >= self.now, "event queue went backwards");
            self.now = ev.at;
            // The action buffer is reused across events: its capacity
            // reaches the busiest handler's fan-out once and stays there.
            let mut actions = std::mem::take(&mut self.action_scratch);
            match ev.kind {
                EventKind::Timer { node, tag } => {
                    let mut ctx = Context {
                        node,
                        now: self.now,
                        neighbors: self.topo.neighbors(node),
                        actions: &mut actions,
                        pool: &mut self.pool,
                    };
                    self.nodes[node].on_timer(&mut ctx, tag);
                    self.apply_actions(node, &mut actions)?;
                }
                EventKind::Deliver {
                    src,
                    dst,
                    payload,
                    corrupt,
                } => {
                    // Radio energy is spent on a corrupt frame too; only
                    // the protocol hand-off is suppressed.
                    self.stats.charge_rx(dst, payload.len_bits());
                    if !corrupt {
                        let mut ctx = Context {
                            node: dst,
                            now: self.now,
                            neighbors: self.topo.neighbors(dst),
                            actions: &mut actions,
                            pool: &mut self.pool,
                        };
                        self.nodes[dst].on_packet(&mut ctx, src, &payload);
                        self.apply_actions(dst, &mut actions)?;
                    }
                    // The delivered copy has been consumed (handlers only
                    // borrow it); its allocation goes back to the pool.
                    self.pool.recycle(payload);
                }
            }
            self.action_scratch = actions;
        }
        Ok(processed_now)
    }

    fn apply_actions(
        &mut self,
        node: NodeId,
        actions: &mut Vec<Action>,
    ) -> Result<(), NetsimError> {
        for action in actions.drain(..) {
            match action {
                Action::Unicast { to, payload, class } => {
                    if !self.topo.has_edge(node, to) {
                        return Err(NetsimError::NoSuchLink { from: node, to });
                    }
                    self.transmit(node, &[to], payload, class);
                }
                Action::LocalBroadcast { payload } => {
                    let neighbors: Vec<usize> = self.topo.neighbors(node).to_vec();
                    self.transmit(node, &neighbors, payload, FrameClass::Data);
                }
                Action::Timer { delay, tag } => {
                    self.queue
                        .schedule(self.now + delay, EventKind::Timer { node, tag });
                }
            }
        }
        Ok(())
    }

    /// One physical transmission reaching the given receivers; the sender
    /// is charged once, each surviving copy is scheduled for delivery.
    /// The fate of each copy is drawn from the `(src, dst, class)` edge
    /// stream at that edge's own transmission count.
    fn transmit(
        &mut self,
        src: NodeId,
        receivers: &[usize],
        payload: BitString,
        class: FrameClass,
    ) {
        let bits = payload.len_bits();
        self.stats.charge_tx(src, bits);
        self.frames_transmitted += 1;
        let base_delay = self.cfg.link.delay_for(bits);
        for &dst in receivers {
            // Per-copy delivery payloads are pool-duplicated (below), and
            // the original is recycled at the end, so a steady-state wave
            // transmits without allocator traffic.
            // Physical-layer link accounting (independent of loss fate):
            // used by cut measurements.
            self.stats.charge_link(src, dst, bits);
            let seed = self.cfg.seed;
            let stream = self
                .fate_streams
                .entry((src, dst, class))
                .or_insert_with(|| FateStream::new(seed, src as u64, dst as u64, class));
            let fate = stream.next_fate(&self.cfg.link);
            match fate {
                LinkFate::Lost => {}
                LinkFate::Delivered(j) => {
                    let copy = self.pool.duplicate(&payload);
                    self.queue.schedule(
                        self.now + base_delay + j,
                        EventKind::Deliver {
                            src,
                            dst,
                            payload: copy,
                            corrupt: false,
                        },
                    );
                }
                LinkFate::Corrupted(j) => {
                    let copy = self.pool.duplicate(&payload);
                    self.queue.schedule(
                        self.now + base_delay + j,
                        EventKind::Deliver {
                            src,
                            dst,
                            payload: copy,
                            corrupt: true,
                        },
                    );
                }
                LinkFate::DeliveredTwice(j1, j2) => {
                    for j in [j1, j2] {
                        let copy = self.pool.duplicate(&payload);
                        self.queue.schedule(
                            self.now + base_delay + j,
                            EventKind::Deliver {
                                src,
                                dst,
                                payload: copy,
                                corrupt: false,
                            },
                        );
                    }
                }
            }
        }
        self.pool.recycle(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::BitWriter;

    /// A test protocol: on kick, send a 16-bit token to the next node on a
    /// line; each node increments and forwards.
    #[derive(Debug, Default)]
    struct Relay {
        received: Option<u64>,
    }

    impl NodeRuntime for Relay {
        fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
            let mut w = BitWriter::new();
            w.write_bits(1, 16);
            // Node 0 starts the chain rightwards.
            if let Some(&next) = ctx.neighbors().iter().find(|&&n| n > ctx.node_id()) {
                ctx.send(next, w.finish());
            }
        }

        fn on_packet(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &BitString) {
            let mut r = crate::wire::BitReader::new(payload);
            let v = r.read_bits(16).unwrap();
            self.received = Some(v);
            if let Some(&next) = ctx.neighbors().iter().find(|&&n| n > ctx.node_id()) {
                let mut w = BitWriter::new();
                w.write_bits(v + 1, 16);
                ctx.send(next, w.finish());
            }
        }
    }

    fn line_sim(n: usize, cfg: SimConfig) -> Simulator<Relay> {
        Simulator::new(Topology::line(n).unwrap(), cfg)
    }

    #[test]
    fn relay_chain_reaches_the_end() {
        let mut sim = line_sim(5, SimConfig::default());
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        assert_eq!(sim.node(4).received, Some(4));
        // Each hop: 16 bits. Node 0 tx only; node 4 rx only; middle both.
        assert_eq!(sim.stats().node(0).tx_bits, 16);
        assert_eq!(sim.stats().node(0).rx_bits, 0);
        assert_eq!(sim.stats().node(2).total_bits(), 32);
        assert_eq!(sim.stats().node(4).rx_bits, 16);
        assert_eq!(sim.stats().max_node_bits(), 32);
    }

    #[test]
    fn time_advances_with_each_hop() {
        let mut sim = line_sim(3, SimConfig::default());
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        let per_hop = sim.config().link.delay_for(16);
        assert!(sim.now().as_micros() >= 2 * per_hop.as_micros());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut sim = line_sim(8, SimConfig::default().with_seed(77));
            sim.kick(0, 0);
            sim.run_until_quiescent().unwrap();
            (sim.now(), sim.stats().clone())
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn lost_packets_still_charge_the_sender() {
        let cfg = SimConfig::default().with_link(LinkConfig::default().with_loss(1.0));
        let mut sim = line_sim(3, cfg);
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        assert_eq!(sim.stats().node(0).tx_bits, 16);
        assert_eq!(sim.stats().node(1).rx_bits, 0);
        assert_eq!(sim.node(1).received, None);
    }

    #[test]
    fn duplication_delivers_twice() {
        let cfg = SimConfig::default().with_link(LinkConfig::default().with_duplication(1.0));
        let mut sim = line_sim(2, cfg);
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        // Node 1 has no right neighbour, so it just absorbs both copies.
        assert_eq!(sim.stats().node(1).rx_packets, 2);
        assert_eq!(sim.stats().node(1).rx_bits, 32);
        // Sender still charged once per transmit call.
        assert_eq!(sim.stats().node(0).tx_packets, 1);
    }

    #[test]
    fn event_budget_is_enforced() {
        /// A protocol that reschedules itself forever.
        #[derive(Debug, Default)]
        struct Ticker;
        impl NodeRuntime for Ticker {
            fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
                ctx.set_timer(SimDuration::from_micros(1), tag);
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &BitString) {}
        }
        let cfg = SimConfig {
            max_events: 1000,
            ..SimConfig::default()
        };
        let mut sim: Simulator<Ticker> = Simulator::new(Topology::line(2).unwrap(), cfg);
        sim.kick(0, 0);
        let err = sim.run_until_quiescent().unwrap_err();
        assert!(matches!(
            err,
            NetsimError::EventBudgetExhausted { budget: 1000 }
        ));
    }

    #[test]
    fn unicast_to_non_neighbor_fails() {
        #[derive(Debug, Default)]
        struct BadSender;
        impl NodeRuntime for BadSender {
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                ctx.send(3, BitWriter::new().finish()); // node 3 is not adjacent to 0 on a line
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &BitString) {}
        }
        let mut sim: Simulator<BadSender> =
            Simulator::new(Topology::line(4).unwrap(), SimConfig::default());
        sim.kick(0, 0);
        let err = sim.run_until_quiescent().unwrap_err();
        assert!(matches!(err, NetsimError::NoSuchLink { from: 0, to: 3 }));
    }

    #[test]
    fn local_broadcast_charges_tx_once() {
        #[derive(Debug, Default)]
        struct Beacon {
            heard: u32,
        }
        impl NodeRuntime for Beacon {
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                let mut w = BitWriter::new();
                w.write_bits(0xAB, 8);
                ctx.broadcast_local(w.finish());
            }
            fn on_packet(&mut self, _: &mut Context<'_>, _: NodeId, _: &BitString) {
                self.heard += 1;
            }
        }
        let mut sim: Simulator<Beacon> =
            Simulator::new(Topology::star(6).unwrap(), SimConfig::default());
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        // Hub transmitted once (8 bits) but all 5 leaves heard it.
        assert_eq!(sim.stats().node(0).tx_bits, 8);
        assert_eq!(sim.stats().node(0).tx_packets, 1);
        for leaf in 1..6 {
            assert_eq!(sim.node(leaf).heard, 1);
            assert_eq!(sim.stats().node(leaf).rx_bits, 8);
        }
    }

    #[test]
    fn steady_state_waves_reuse_frame_allocations() {
        /// Relay via pooled writers: encode with `ctx.writer()`.
        #[derive(Debug, Default)]
        struct PooledRelay;
        impl NodeRuntime for PooledRelay {
            fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
                if let Some(&next) = ctx.neighbors().iter().find(|&&n| n > ctx.node_id()) {
                    let mut w = ctx.writer();
                    w.write_bits(1, 16);
                    ctx.send(next, w.finish());
                }
            }
            fn on_packet(&mut self, ctx: &mut Context<'_>, _from: NodeId, payload: &BitString) {
                let mut r = crate::wire::BitReader::new(payload);
                let v = r.read_bits(16).unwrap();
                if let Some(&next) = ctx.neighbors().iter().find(|&&n| n > ctx.node_id()) {
                    let mut w = ctx.writer();
                    w.write_bits(v + 1, 16);
                    ctx.send(next, w.finish());
                }
            }
        }
        let mut sim: Simulator<PooledRelay> =
            Simulator::new(Topology::line(6).unwrap(), SimConfig::default());
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        let fresh_after_warmup = sim.scratch_fresh();
        assert!(fresh_after_warmup > 0);
        // A second wave runs entirely on recycled allocations.
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        assert_eq!(sim.scratch_fresh(), fresh_after_warmup);
        assert!(sim.scratch_reused() > 0);
    }

    #[test]
    fn reset_stats_keeps_clock_and_state() {
        let mut sim = line_sim(3, SimConfig::default());
        sim.kick(0, 0);
        sim.run_until_quiescent().unwrap();
        let t = sim.now();
        sim.reset_stats();
        assert_eq!(sim.stats().max_node_bits(), 0);
        assert_eq!(sim.now(), t);
        assert_eq!(sim.node(2).received, Some(2));
    }
}
