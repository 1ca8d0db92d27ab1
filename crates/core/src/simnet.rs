//! The simulated aggregation network.
//!
//! [`SimNetwork`] realizes [`AggregationNetwork`] with *real* distributed
//! execution: [`AggregationNetwork::execute`] turns each primitive into a
//! one-slot broadcast–convergecast wave of [`CoreWave`]'s aggregates over
//! a bounded-degree BFS spanning tree inside the discrete-event
//! simulator, with every message serialized to bits and charged to both
//! endpoints, and finalizes the root's partial with
//! [`CoreWave::finalize`]. [`AggregationNetwork::net_stats`] then exposes
//! the paper's individual communication complexity for whatever query
//! ran.
//!
//! Use [`SimNetworkBuilder`] to configure link behaviour, reliability,
//! tree degree bound and sketch parameters.

use crate::counting::ApxCountConfig;
use crate::error::QueryError;
use crate::model::Value;
use crate::net::{AggregationNetwork, OpCounts};
use crate::plan::{PlanInput, PlanOp};
use crate::wave_proto::{CorePartial, CoreRequest, CoreWave, SimItem};
use saq_netsim::flat::NestDepth;
use saq_netsim::sim::SimConfig;
use saq_netsim::stats::NetStats;
use saq_netsim::topology::Topology;
use saq_obs::{Event, FrameKind, MetricsRegistry, MetricsSnapshot, Recorder, Telemetry};
use saq_protocols::wave::{Reliability, SEQ_BITS};
#[cfg(doc)]
use saq_protocols::MuxLedger;
use saq_protocols::{
    FateReplay, FlatWaveRunner, Hop, MultiplexWave, MuxSlotBits, NodeTraceEntry, ReplayEvent,
    SpanningTree, WaveProtocol, WaveRunner, WaveSubstrate,
};
use std::time::Instant;

/// Builder for [`SimNetwork`].
///
/// # Examples
///
/// ```
/// use saq_core::simnet::SimNetworkBuilder;
/// use saq_core::net::AggregationNetwork;
/// use saq_core::predicate::Predicate;
/// use saq_netsim::topology::Topology;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let topo = Topology::grid(4, 4)?;
/// let items: Vec<u64> = (0..16).collect();
/// let mut net = SimNetworkBuilder::new().build_one_per_node(&topo, &items, 100)?;
/// assert_eq!(net.count(&Predicate::TRUE)?, 16);
/// assert!(net.net_stats().unwrap().max_node_bits() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimNetworkBuilder {
    sim_cfg: SimConfig,
    apx: ApxCountConfig,
    max_children: usize,
    reliability: Reliability,
    cache_entries: usize,
    shards: usize,
    flat: bool,
}

impl Default for SimNetworkBuilder {
    fn default() -> Self {
        SimNetworkBuilder {
            sim_cfg: SimConfig::default(),
            apx: ApxCountConfig::default(),
            max_children: 3,
            reliability: Reliability::None,
            cache_entries: 0,
            shards: 1,
            flat: false,
        }
    }
}

impl SimNetworkBuilder {
    /// A builder with default simulator, sketch and tree settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulator configuration (links, energy model, seed).
    pub fn sim_config(mut self, cfg: SimConfig) -> Self {
        self.sim_cfg = cfg;
        self
    }

    /// Sets the approximate-counting configuration.
    pub fn apx_config(mut self, apx: ApxCountConfig) -> Self {
        self.apx = apx;
        self
    }

    /// Caps the number of children per tree node (the paper's
    /// bounded-degree requirement; default 3).
    pub fn max_children(mut self, k: usize) -> Self {
        self.max_children = k.max(1);
        self
    }

    /// Enables per-hop ARQ (for lossy-link experiments).
    pub fn reliability(mut self, r: Reliability) -> Self {
        self.reliability = r;
        self
    }

    /// Enables subtree partial caching at every node, each holding up to
    /// `entries` cached partials (`0` disables, the default). With
    /// caching on, repeated cacheable requests (same predicate, domain,
    /// aggregate kind and parameters) are re-merged from stored subtree
    /// partials instead of re-contributing leaf items; `Zoom` and item
    /// mutation invalidate automatically. Off by default so cost
    /// *measurement* experiments observe the raw protocols.
    pub fn partial_cache(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }

    /// Sets the worker count of the flat substrate
    /// ([`SimNetworkBuilder::flat`]): its shard plan's blocks run on
    /// `k` OS threads between the spine's broadcast and the
    /// convergecast barrier (`0` and `1` both mean one worker, the
    /// default). The worker count is an execution strategy, not a
    /// semantics change: answers, per-slot [`MuxLedger`] attribution,
    /// cache counters and per-node bits are identical for every `k`.
    ///
    /// `k > 1` without `flat(true)` fails to build with
    /// [`saq_protocols::ProtocolError::Unsupported`]: the boxed
    /// event-driven runner is single-threaded.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Runs on the **columnar flat substrate**
    /// ([`saq_protocols::flat::FlatWaveRunner`]): per-node state in
    /// contiguous position-indexed columns, waves as two array sweeps,
    /// and [`SimNetworkBuilder::shards`] worker threads over a
    /// **nested** shard plan that re-cuts oversized subtrees at their
    /// own roots (depth chosen from subtree sizes). This is an execution
    /// strategy, not a semantics change: answers, per-slot
    /// [`MuxLedger`] attribution, cache counters and per-node bits are
    /// identical to the boxed event-driven runner — including under
    /// lossy links with per-hop ARQ, whose stop-and-wait exchanges the
    /// flat runner emulates from the same per-edge fate streams the
    /// event-driven simulator draws (see `saq_protocols::flat`). Lossy
    /// links without ARQ are rejected at build time (an unrepaired drop
    /// erases a subtree's report, which only the event-driven runner can
    /// surface mid-wave); the boxed runner, the default, stays the
    /// timing-faithful oracle for them and for jitter.
    pub fn flat(mut self, flat: bool) -> Self {
        self.flat = flat;
        self
    }

    /// Builds a network with explicit per-node item multisets (§5 of the
    /// paper allows several items per node).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::ItemOutOfRange`] if an item exceeds `xbar`,
    /// [`saq_protocols::ProtocolError::Unsupported`] if `shards(k > 1)`
    /// is set without `flat(true)`, and propagates
    /// tree/runner construction failures.
    pub fn build(
        self,
        topo: &Topology,
        items_per_node: Vec<Vec<Value>>,
        xbar: Value,
    ) -> Result<SimNetwork, QueryError> {
        if !self.flat && self.shards > 1 {
            return Err(QueryError::from(saq_protocols::ProtocolError::Unsupported(
                "shards(k > 1) configures the flat substrate: add flat(true)",
            )));
        }
        if xbar > crate::model::XBAR_MAX {
            return Err(QueryError::InvalidParameter(
                "xbar exceeds the doubled-coordinate domain (u64::MAX/2 - 1)",
            ));
        }
        for &item in items_per_node.iter().flatten() {
            if item > xbar {
                return Err(QueryError::ItemOutOfRange { item, xbar });
            }
        }
        let tree =
            SpanningTree::bfs_bounded(topo, 0, self.max_children).map_err(QueryError::from)?;
        let replay = matches!(self.reliability, Reliability::Ack { .. }).then(|| {
            FateReplay::new(
                self.sim_cfg.seed,
                self.sim_cfg.link.clone(),
                self.sim_cfg.max_events,
                topo.len(),
            )
        });
        let proto = MultiplexWave::new(CoreWave {
            xbar,
            apx: self.apx,
        });
        let items: Vec<Vec<SimItem>> = items_per_node
            .into_iter()
            .map(|vs| vs.into_iter().map(SimItem::new).collect())
            .collect();
        let mut runner: Box<dyn WaveSubstrate<MultiplexWave<CoreWave>> + Send> = if self.flat {
            // Lay the tree out flat and free the spanning tree before
            // the runner allocates its per-node columns.
            tree.validate(topo).map_err(QueryError::from)?;
            let flat = tree.flatten();
            drop(tree);
            Box::new(FlatWaveRunner::from_flat_tree(
                self.sim_cfg,
                flat,
                proto,
                items,
                self.reliability,
                self.shards,
                NestDepth::Auto,
            )?)
        } else {
            Box::new(WaveRunner::new(
                topo,
                self.sim_cfg,
                &tree,
                proto,
                items,
                self.reliability,
            )?)
        };
        if self.cache_entries > 0 {
            runner.enable_partial_cache(self.cache_entries);
        }
        Ok(SimNetwork {
            runner,
            ops: OpCounts::default(),
            nonce: 0,
            telemetry: Telemetry::disabled(),
            replay,
            events: Vec::new(),
            waves_run: 0,
            peak_wave_slots: 0,
            peak_wave_envelope_bits: 0,
        })
    }

    /// Builds a network with exactly one item per node, the paper's main
    /// setting.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidParameter`] if `items.len()` differs
    /// from the node count; otherwise as [`SimNetworkBuilder::build`].
    pub fn build_one_per_node(
        self,
        topo: &Topology,
        items: &[Value],
        xbar: Value,
    ) -> Result<SimNetwork, QueryError> {
        if items.len() != topo.len() {
            return Err(QueryError::InvalidParameter(
                "one item per node requires items.len() == topology size",
            ));
        }
        self.build(topo, items.iter().map(|&v| vec![v]).collect(), xbar)
    }
}

/// Everything one multiplexed wave produced: per-slot partials, the
/// honest bit attribution, and how many messages actually flew.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-slot merged partials, in request order.
    pub partials: Vec<CorePartial>,
    /// Per-slot transmit-side bit attribution from the [`MuxLedger`].
    pub slot_bits: Vec<MuxSlotBits>,
    /// Width of the request envelope the root broadcast, in bits:
    /// slot-count prefix, dense flag and every sub-request — the
    /// per-node request load of the wave.
    pub request_envelope_bits: u64,
    /// Unattributable envelope framing bits (slot-count prefix, dense
    /// flag, slot tags of subset envelopes).
    pub envelope_bits: u64,
    /// Messages transmitted during the wave — `2·(N−1)` on a full
    /// lossless wave, fewer when subtree caches silenced subtrees, zero
    /// when the root answered every slot itself.
    pub messages: u64,
    /// Total envelope header bits of the wave: per-message header width
    /// (kind + varint wave ordinal, whose width varies by wave) times
    /// `messages` — what exact shared-overhead billing must add to
    /// `envelope_bits`.
    pub header_bits: u64,
}

/// One-call operational summary of a [`SimNetwork`] deployment: cache
/// effectiveness, transport-state occupancy, bit-accounting extremes
/// and the deterministic telemetry counters (see
/// [`SimNetwork::observability_snapshot`]).
#[derive(Debug, Clone)]
pub struct ObservabilitySnapshot {
    /// Network-wide subtree-cache counters.
    pub cache: saq_protocols::CacheStats,
    /// Transport-state occupancy: ARQ dedup entries, pending frames,
    /// merge buffers and resident cache entries.
    pub transport: saq_protocols::TransportFootprint,
    /// The paper's objective — the busiest node's cumulative bits.
    pub max_node_bits: u64,
    /// Network-wide cumulative bits (tx + rx across all nodes).
    pub total_bits: u64,
    /// Packets transmitted across all nodes since the last stats reset.
    pub total_tx_packets: u64,
    /// Node count of the deployment.
    pub nodes: usize,
    /// Largest envelope (slot count) any wave carried.
    pub peak_wave_slots: u64,
    /// Largest per-wave unattributable envelope framing bill.
    pub peak_wave_envelope_bits: u64,
    /// Waves run since deployment (never reset).
    pub waves_run: u64,
    /// Deterministic telemetry counters (all zero while no recorder has
    /// ever been attached).
    pub metrics: MetricsSnapshot,
}

/// An [`AggregationNetwork`] whose primitives execute as simulated
/// distributed waves with bit-exact accounting.
///
/// Every wave — single-query primitives and the engine's batched
/// multi-query rounds alike — travels in the multiplexed envelope of
/// [`MultiplexWave`], so per-sub-query bit attribution is always
/// available from the runner's [`MuxLedger`]. With
/// [`SimNetworkBuilder::flat`] the wave executes on the parallel flat
/// substrate with identical observable behavior.
#[derive(Debug)]
pub struct SimNetwork {
    /// The execution substrate: the boxed event loop, or the columnar
    /// flat runner on `k` workers — observably identical either way.
    runner: Box<dyn WaveSubstrate<MultiplexWave<CoreWave>> + Send>,
    ops: OpCounts,
    nonce: u32,
    /// The telemetry lane (see [`saq_obs`]): disabled until
    /// [`SimNetwork::attach_recorder`], at which point the runners start
    /// buffering per-node traces the driver drains into [`Event`]s.
    telemetry: Telemetry,
    /// Under per-hop ARQ, replays the simulator's per-edge fate streams
    /// to expand logical frames into attempt-level detail without
    /// touching the simulator's own streams; re-seeked from the runner
    /// on every recorder attach and after a failed traced wave. `None`
    /// without ARQ.
    replay: Option<FateReplay>,
    /// The wave drain's event buffer, reused from wave to wave.
    events: Vec<Event>,
    /// Waves run on this network (mirrors the runners' wave ordinal: a
    /// batch the runner would reject is not counted).
    waves_run: u64,
    /// Largest envelope (slot count) any wave carried — tracked
    /// unconditionally, it is two integer compares per wave.
    peak_wave_slots: u64,
    /// Largest per-wave envelope framing bill any wave paid.
    peak_wave_envelope_bits: u64,
}

impl SimNetwork {
    /// Height of the aggregation tree (diagnostics).
    pub fn tree_height(&self) -> u32 {
        self.runner.tree_height()
    }

    /// Maximum communication degree in the aggregation tree.
    pub fn tree_max_degree(&self) -> usize {
        self.runner.tree_max_degree()
    }

    /// Clears the per-node bit counters (e.g. after a setup phase).
    pub fn reset_stats(&mut self) {
        self.runner.reset_stats();
    }

    /// Attaches a telemetry recorder: the runners start buffering
    /// per-node traces and every subsequent wave emits its structured
    /// [`Event`] stream — bit-identical across the boxed and flat
    /// substrates (ARCHITECTURE §15). Replaces (and returns) any
    /// previously attached recorder; the metrics registry keeps
    /// accumulating across swaps.
    pub fn attach_recorder(&mut self, recorder: Box<dyn Recorder>) -> Option<Box<dyn Recorder>> {
        self.runner.set_tracing(true);
        self.resync_replay();
        self.telemetry.attach(recorder)
    }

    /// Moves the fate replay to where the runner's transport stands on
    /// every tree edge: waves that ran untraced or died mid-flight
    /// advanced the transport's fate streams without the replay.
    fn resync_replay(&mut self) {
        if let Some(replay) = &mut self.replay {
            for node in 0..self.runner.len() {
                replay.seek(node, self.runner.edge_fate_positions(node));
            }
        }
    }

    /// Detaches the recorder and switches runner tracing off, returning
    /// the telemetry lane to its zero-overhead disabled state.
    pub fn detach_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.runner.set_tracing(false);
        self.telemetry.detach()
    }

    /// Whether a telemetry recorder is attached (events flow, metrics
    /// update).
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.enabled()
    }

    /// Emits one driver-level event into the telemetry lane (no-op when
    /// no recorder is attached). The engine and service layers use this
    /// for slot admission/retire and refresh fan-out events.
    pub fn emit_event(&mut self, event: &Event) {
        self.telemetry.emit(event);
    }

    /// Snapshot of the deterministic telemetry counters (all zero while
    /// no recorder has ever been attached).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.metrics().snapshot()
    }

    /// The full metrics registry: deterministic lane plus the separated
    /// non-deterministic wall-clock lane.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.telemetry.metrics()
    }

    /// Records a query-latency observation (in engine rounds) into the
    /// registry's deterministic histogram lane.
    pub fn record_latency_rounds(&mut self, rounds: u64) {
        self.telemetry.metrics_mut().record_latency_rounds(rounds);
    }

    /// Direct-call nonces carry the top bit, keeping them disjoint from
    /// the [`crate::streaming::StreamingEngine`]'s `(ordinal << 16) | counter`
    /// space — interleaving both APIs on one network must never reuse
    /// sketch randomness.
    fn fresh_nonce(&mut self) -> u32 {
        self.nonce = self.nonce.wrapping_add(1);
        self.nonce | 0x8000_0000
    }

    /// Runs one **shared wave** answering every request in `reqs` — the
    /// multiplexed round the [`crate::streaming::StreamingEngine`] batches
    /// concurrent queries into. Returns the per-slot partials plus the
    /// honest per-slot bit attribution, the shared envelope bits and the
    /// number of messages actually transmitted (transmit-side; see
    /// [`MuxSlotBits`]). With partial caching enabled a wave may
    /// transmit fewer messages than the tree has edges — down to zero
    /// when every slot is served from the root's cache — and the message
    /// count is what header accounting must bill.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] on an empty batch; a request out
    /// of its bounds is rejected before any wave starts; protocol
    /// failures are propagated.
    pub fn run_batch(&mut self, reqs: Vec<CoreRequest>) -> Result<BatchOutcome, QueryError> {
        if reqs.is_empty() {
            return Err(QueryError::InvalidParameter("empty wave batch"));
        }
        let slots = reqs.len() as u64;
        let proto = self.runner.protocol();
        let envelope = MultiplexWave::envelope(proto.inner(), reqs);
        // Both runners reject such a batch before they start a wave, so
        // it is neither counted nor announced.
        proto.validate_request(&envelope)?;
        let request_envelope_bits = MultiplexWave::<CoreWave>::request_width(&envelope);
        self.waves_run += 1;
        let wave = self.waves_run;
        let traced = self.telemetry.enabled();
        if traced {
            self.telemetry.emit(&Event::WaveStarted { wave, slots });
        }
        self.runner.protocol().ledger_mut().reset(envelope.len());
        let wave_start = traced.then(Instant::now);
        let run = self.runner.run_wave(envelope);
        if let Some(t0) = wave_start {
            self.telemetry
                .metrics_mut()
                .record_wall_nanos("wave", t0.elapsed().as_nanos());
        }
        let partials = match run {
            Ok(p) => p,
            Err(e) => {
                // A wave that died mid-flight leaves the trace buffers
                // covering an unknown prefix of the exchanges: discard
                // them, and resume the replay where the transport stands.
                if traced {
                    self.runner.drain_trace(&mut |_, _, _| {});
                    self.resync_replay();
                }
                return Err(QueryError::from(e));
            }
        };
        let messages = self.runner.last_wave_frames();
        let header_bits = self.runner.last_header_bits() * messages;
        let (slot_bits, envelope_bits) = {
            let ledger = self.runner.protocol().ledger_mut();
            (ledger.slots().to_vec(), ledger.envelope_bits())
        };
        self.peak_wave_slots = self.peak_wave_slots.max(slots);
        self.peak_wave_envelope_bits = self.peak_wave_envelope_bits.max(envelope_bits);
        if traced {
            let drain_start = Instant::now();
            self.drain_wave_events();
            let request_bits: u64 = slot_bits.iter().map(|s| s.request_bits).sum();
            let partial_bits: u64 = slot_bits.iter().map(|s| s.partial_bits).sum();
            self.telemetry.emit(&Event::WaveCompleted {
                wave,
                messages,
                header_bits,
                envelope_bits,
                request_bits,
                partial_bits,
            });
            self.telemetry
                .metrics_mut()
                .record_wall_nanos("drain", drain_start.elapsed().as_nanos());
        }
        Ok(BatchOutcome {
            partials,
            slot_bits,
            request_envelope_bits,
            envelope_bits,
            messages,
            header_bits,
        })
    }

    /// Drains the runner's per-node trace buffers into edge-attributed
    /// telemetry events. The runner hands entries over in canonical
    /// order (ascending global node id; within a node: request, cache
    /// events, partial), which is what makes the emitted stream
    /// bit-identical across the two substrates regardless of their
    /// internal scheduling. Events collect in one reused buffer and
    /// reach the recorder in runs of [`EMIT_RUN`].
    fn drain_wave_events(&mut self) {
        // An ACK is the runner's header of this wave plus the
        // acknowledged sequence number.
        let ack_width = self.runner.last_header_bits() + SEQ_BITS;
        let SimNetwork {
            runner,
            telemetry,
            replay,
            events,
            ..
        } = self;
        // A run plus the longest exchange history fits without regrowth.
        events.reserve(2 * EMIT_RUN);
        runner.drain_trace(&mut |node, parent, entry| {
            let exchange = match entry {
                NodeTraceEntry::RequestRecv { bits } => Some((Hop::Down, bits)),
                NodeTraceEntry::PartialSent { bits } => Some((Hop::Up, bits)),
                NodeTraceEntry::CacheHit { slot } => {
                    events.push(Event::CacheHit {
                        node: node as u64,
                        slot: slot as u64,
                    });
                    None
                }
                NodeTraceEntry::CacheMiss { slot } => {
                    events.push(Event::CacheMiss {
                        node: node as u64,
                        slot: slot as u64,
                    });
                    None
                }
            };
            // The root has no tree edge: no inbound request, no
            // outbound partial.
            if let (Some((hop, bits)), Some(parent)) = (exchange, parent) {
                let arq = replay.as_mut().map(|replay| (replay, ack_width));
                push_exchange(events, arq, node as u64, parent as u64, hop, bits);
            }
            if events.len() >= EMIT_RUN {
                telemetry.emit_all(events);
                events.clear();
            }
        });
        telemetry.emit_all(events);
        events.clear();
    }

    /// Network-wide subtree-partial cache counters (all zero when the
    /// cache is disabled — see [`SimNetworkBuilder::partial_cache`]).
    pub fn cache_stats(&self) -> saq_protocols::CacheStats {
        self.runner.cache_stats()
    }

    /// Replaces the items hosted by `node` — the driver-side sensor
    /// update feeding the continuous-aggregate machinery. Not charged as
    /// communication (the established `set_items` convention); subtree
    /// partial caches along the node's root path are **delta-maintained**:
    /// entries whose aggregates support [`crate::aggregate::DeltaSupport`]
    /// absorb the update in place and keep serving standing-query
    /// refreshes for zero payload bits, the rest are invalidated
    /// individually and repaired by the next refresh's dirty-path wave.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] when `node` is out of range and
    /// [`QueryError::ItemOutOfRange`] when a value exceeds the declared
    /// `X̄`, both before any state changes.
    pub fn set_node_items(&mut self, node: usize, values: Vec<Value>) -> Result<(), QueryError> {
        if node >= self.runner.len() {
            return Err(QueryError::InvalidParameter(
                "item update addresses a node outside the network",
            ));
        }
        for &v in &values {
            if v > self.xbar() {
                return Err(QueryError::ItemOutOfRange {
                    item: v,
                    xbar: self.xbar(),
                });
            }
        }
        let items: Vec<SimItem> = values.into_iter().map(SimItem::new).collect();
        let (applied, invalidated) = self.runner.set_items(node, items);
        if applied > 0 {
            self.telemetry.emit(&Event::DeltaApplied {
                node: node as u64,
                count: applied,
            });
        }
        if invalidated > 0 {
            self.telemetry.emit(&Event::DeltaInvalidated {
                node: node as u64,
                count: invalidated,
            });
        }
        Ok(())
    }

    /// Network-wide transport-state occupancy
    /// ([`saq_protocols::TransportFootprint`]): ARQ dedup entries,
    /// un-ACKed frames, buffered merge partials and resident cache
    /// entries. Between waves everything but the (capacity-bounded)
    /// cache component is zero — the observable behind the streaming
    /// engine's bounded-memory claim, asserted over thousands of rounds
    /// by experiment E14.
    pub fn transport_footprint(&self) -> saq_protocols::TransportFootprint {
        self.runner.transport_footprint()
    }

    /// Bundles every driver-observable health signal in one call:
    /// cache effectiveness, transport-state occupancy, bit-accounting
    /// extremes and the deterministic telemetry counters. The
    /// `network_health` example renders this directly; experiment
    /// banners use individual fields.
    pub fn observability_snapshot(&self) -> ObservabilitySnapshot {
        let stats = self.runner.stats();
        ObservabilitySnapshot {
            cache: self.runner.cache_stats(),
            transport: self.runner.transport_footprint(),
            max_node_bits: stats.max_node_bits(),
            total_bits: stats.iter().map(|s| s.total_bits()).sum(),
            total_tx_packets: stats.iter().map(|s| s.tx_packets).sum(),
            nodes: self.runner.len(),
            peak_wave_slots: self.peak_wave_slots,
            peak_wave_envelope_bits: self.peak_wave_envelope_bits,
            waves_run: self.waves_run,
            metrics: self.telemetry.metrics().snapshot(),
        }
    }

    /// Name of the execution substrate backing this network —
    /// `"single"` or `"flat"`. The substrate is an execution strategy,
    /// not a semantics change (every observable is bit-identical across
    /// the two), so this exists only for
    /// harness routing assertions and experiment banners.
    pub fn runner_name(&self) -> &'static str {
        self.runner.name()
    }

    /// The inner wave protocol (aggregate dispatch) configuration.
    pub fn core_proto(&self) -> CoreWave {
        self.runner.protocol().inner().clone()
    }
}

/// Events the wave drain hands the recorder per call: long enough to
/// amortise a shared sink's lock, short enough that the reused buffer
/// stays at tens of KiB whatever the tree size.
const EMIT_RUN: usize = 1024;

/// Appends the event(s) of one logical frame exchange over the tree
/// edge between `child` and its `parent`. Without ARQ expansion (`arq`
/// is `None`: fire-and-forget links) the exchange is its single
/// [`Event::FrameSent`]. Under
/// per-hop ARQ, `arq` holds the fate replay and this wave's ACK width,
/// and the exchange expands into its attempt-level history — first
/// send, retransmissions, drops and acks — replayed from the same
/// per-edge fate streams the transport drew, so the expansion bills
/// exactly the frames the transport charged.
fn push_exchange(
    events: &mut Vec<Event>,
    arq: Option<(&mut FateReplay, u64)>,
    child: u64,
    parent: u64,
    hop: Hop,
    bits: u64,
) {
    let (from, to, kind) = match hop {
        Hop::Down => (parent, child, FrameKind::Request),
        Hop::Up => (child, parent, FrameKind::Partial),
    };
    let Some((replay, ack_width)) = arq else {
        events.push(Event::FrameSent {
            from,
            to,
            bits,
            kind,
        });
        return;
    };
    let attempt_event = |attempt| match attempt {
        1 => Event::FrameSent {
            from,
            to,
            bits,
            kind,
        },
        _ => Event::Retransmit {
            from,
            to,
            bits,
            kind,
            attempt,
        },
    };
    let ack = Event::FrameSent {
        from: to,
        to: from,
        bits: ack_width,
        kind: FrameKind::Ack,
    };
    replay.replay_exchange(child, parent, hop, |ev| match ev {
        ReplayEvent::DataDelivered { attempt, .. } => events.push(attempt_event(attempt)),
        ReplayEvent::DataLost { attempt, corrupt } => {
            events.push(attempt_event(attempt));
            events.push(Event::FrameDropped {
                from,
                to,
                bits,
                kind,
                corrupt,
            });
        }
        ReplayEvent::AckDelivered { .. } => events.push(ack.clone()),
        ReplayEvent::AckLost { corrupt, .. } => {
            events.push(ack.clone());
            events.push(Event::FrameDropped {
                from: to,
                to: from,
                bits: ack_width,
                kind: FrameKind::Ack,
                corrupt,
            });
        }
    });
}

impl AggregationNetwork for SimNetwork {
    fn num_nodes(&self) -> usize {
        self.runner.len()
    }

    fn xbar(&self) -> Value {
        self.runner.protocol().inner().xbar
    }

    fn apx_config(&self) -> ApxCountConfig {
        self.runner.protocol().inner().apx
    }

    /// Validate, count, translate (a fresh top-bit nonce for sketch
    /// ops), run a one-slot wave, finalize at the root.
    fn execute(&mut self, op: &PlanOp) -> Result<PlanInput, QueryError> {
        op.validate()?;
        self.ops.record(op);
        let req = CoreRequest::from_op(op, || self.fresh_nonce());
        let mut out = self.run_batch(vec![req.clone()])?;
        let partial = out.partials.pop().expect("a one-slot wave has one partial");
        Ok(self.core_proto().finalize(&req, partial))
    }

    fn restore_items(&mut self) {
        for node in 0..self.runner.len() {
            let restored: Vec<SimItem> = self
                .runner
                .items(node)
                .iter()
                .map(|it| SimItem::new(it.orig))
                .collect();
            self.runner.set_items(node, restored);
        }
    }

    fn ground_truth(&self) -> Vec<Value> {
        (0..self.runner.len())
            .flat_map(|v| self.runner.items(v).iter().filter_map(|it| it.cur))
            .collect()
    }

    fn op_counts(&self) -> OpCounts {
        self.ops
    }

    fn net_stats(&self) -> Option<&NetStats> {
        Some(self.runner.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::reference_median;
    use crate::predicate::{Domain, Predicate};

    fn grid_net(side: usize) -> SimNetwork {
        let topo = Topology::grid(side, side).unwrap();
        let n = side * side;
        let items: Vec<Value> = (0..n as u64).collect();
        SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, (n as u64) * 2)
            .unwrap()
    }

    #[test]
    fn primitives_match_local_semantics() {
        let mut net = grid_net(4);
        assert_eq!(net.num_nodes(), 16);
        assert_eq!(net.min(Domain::Raw).unwrap(), Some(0));
        assert_eq!(net.max(Domain::Raw).unwrap(), Some(15));
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 16);
        assert_eq!(net.count(&Predicate::less_than(8)).unwrap(), 8);
        assert_eq!(net.sum(&Predicate::TRUE).unwrap(), 120);
        assert_eq!(net.max(Domain::Log).unwrap(), Some(3));
    }

    #[test]
    fn stats_grow_with_queries() {
        let mut net = grid_net(4);
        assert_eq!(net.net_stats().unwrap().max_node_bits(), 0);
        net.count(&Predicate::TRUE).unwrap();
        let one = net.net_stats().unwrap().max_node_bits();
        assert!(one > 0);
        net.count(&Predicate::TRUE).unwrap();
        assert!(net.net_stats().unwrap().max_node_bits() > one);
        net.reset_stats();
        assert_eq!(net.net_stats().unwrap().max_node_bits(), 0);
    }

    #[test]
    fn apx_count_estimates_population() {
        let topo = Topology::grid(16, 16).unwrap();
        let items: Vec<Value> = (0..256u64).collect();
        let mut net = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, 512)
            .unwrap();
        let est = net.rep_apx_count(&Predicate::TRUE, 24).unwrap();
        let rel = (est - 256.0).abs() / 256.0;
        assert!(rel < 0.25, "rel err {rel}");
    }

    #[test]
    fn zoom_then_count() {
        let topo = Topology::line(6).unwrap();
        let items: Vec<Value> = vec![1, 2, 3, 4, 8, 100];
        let mut net = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, 128)
            .unwrap();
        net.zoom(1).unwrap();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 2);
        let truth = net.ground_truth();
        assert_eq!(truth.len(), 2);
        net.restore_items();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 6);
        assert_eq!(reference_median(&net.ground_truth()), Some(3));
    }

    #[test]
    fn collect_and_distinct() {
        let topo = Topology::star(7).unwrap();
        let items: Vec<Value> = vec![5, 5, 9, 9, 9, 1, 5];
        let mut net = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, 10)
            .unwrap();
        let mut got = net.collect_values().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![1, 5, 5, 5, 9, 9, 9]);
        assert_eq!(net.distinct_exact().unwrap(), 3);
        let est = net.distinct_apx(8).unwrap();
        assert!((est - 3.0).abs() <= 2.0, "estimate {est}");
    }

    #[test]
    fn multi_item_nodes() {
        let topo = Topology::line(3).unwrap();
        let mut net = SimNetworkBuilder::new()
            .build(&topo, vec![vec![1, 2], vec![], vec![3, 4, 5]], 10)
            .unwrap();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 5);
        assert_eq!(net.sum(&Predicate::TRUE).unwrap(), 15);
        assert_eq!(net.min(Domain::Raw).unwrap(), Some(1));
    }

    #[test]
    fn out_of_range_item_rejected() {
        let topo = Topology::line(2).unwrap();
        let err = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &[1, 99], 10)
            .unwrap_err();
        assert!(matches!(err, QueryError::ItemOutOfRange { item: 99, .. }));
    }

    #[test]
    fn bounded_degree_is_respected_on_grid() {
        let topo = Topology::grid(8, 8).unwrap();
        let items: Vec<Value> = (0..64u64).collect();
        let net = SimNetworkBuilder::new()
            .max_children(2)
            .build_one_per_node(&topo, &items, 64)
            .unwrap();
        assert!(net.tree_max_degree() <= 3);
    }

    #[test]
    fn flat_options_without_flat_are_rejected_naming_flat() {
        // Workers configure the flat substrate; the boxed runner must
        // refuse them rather than silently ignore them.
        let topo = Topology::balanced_tree(13, 3).unwrap();
        let items: Vec<Value> = (0..13u64).collect();
        let err = SimNetworkBuilder::new()
            .shards(2)
            .build_one_per_node(&topo, &items, 32)
            .unwrap_err();
        let QueryError::Protocol(saq_protocols::ProtocolError::Unsupported(msg)) = err else {
            panic!("expected Unsupported, got {err:?}");
        };
        assert!(msg.contains("flat(true)"), "must name flat(true): {msg}");
        // One worker is the boxed runner's own shape, so it still builds.
        let net = SimNetworkBuilder::new()
            .shards(1)
            .build_one_per_node(&topo, &items, 32)
            .unwrap();
        assert_eq!(net.runner_name(), "single");
    }

    #[test]
    fn flat_network_matches_single_threaded() {
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<Value> = (0..40u64).map(|i| (i * 13) % 40).collect();
        let mut single = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, 128)
            .unwrap();
        for shards in [1, 2, 4] {
            let mut flat = SimNetworkBuilder::new()
                .flat(true)
                .shards(shards)
                .build_one_per_node(&topo, &items, 128)
                .unwrap();
            assert_eq!(
                single.count(&Predicate::TRUE).unwrap(),
                flat.count(&Predicate::TRUE).unwrap()
            );
            assert_eq!(
                single.min(Domain::Raw).unwrap(),
                flat.min(Domain::Raw).unwrap()
            );
            let (a, b) = (single.net_stats().unwrap(), flat.net_stats().unwrap());
            for v in 0..topo.len() {
                assert_eq!(a.node(v).total_bits(), b.node(v).total_bits(), "node {v}");
            }
            single.reset_stats();
        }
    }

    #[test]
    fn lossy_arq_network_matches_single_threaded_on_every_runner() {
        // The fate-replay tentpole at the front door: the same lossy
        // ARQ deployment answers identically — with identical per-node
        // bit totals — whether it runs on the boxed event loop or on the
        // columnar flat substrate.
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<Value> = (0..40u64).map(|i| (i * 13) % 40).collect();
        let cfg = SimConfig::default()
            .with_link(saq_netsim::link::LinkConfig::default().with_loss(0.2))
            .with_seed(0xFA7E);
        let rel = saq_protocols::wave::Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(40),
        };
        let build = |b: SimNetworkBuilder| {
            b.sim_config(cfg.clone())
                .reliability(rel)
                .build_one_per_node(&topo, &items, 128)
                .unwrap()
        };
        let mut single = build(SimNetworkBuilder::new());
        let mut flat = build(SimNetworkBuilder::new().flat(true).shards(2));
        for net in [&mut single, &mut flat] {
            assert_eq!(net.count(&Predicate::TRUE).unwrap(), 40);
            assert_eq!(net.min(Domain::Raw).unwrap(), Some(0));
        }
        let (a, b) = (single.net_stats().unwrap(), flat.net_stats().unwrap());
        for v in 0..topo.len() {
            assert_eq!(
                a.node(v).total_bits(),
                b.node(v).total_bits(),
                "node {v} bills differ under loss"
            );
        }
        assert_eq!(
            single.transport_footprint(),
            flat.transport_footprint(),
            "between-wave footprint differs under loss"
        );
        // Loss actually happened: some hop retransmitted, so somebody's
        // packet count exceeds the lossless run's.
        let mut lossless = SimNetworkBuilder::new()
            .reliability(rel)
            .build_one_per_node(&topo, &items, 128)
            .unwrap();
        lossless.count(&Predicate::TRUE).unwrap();
        lossless.min(Domain::Raw).unwrap();
        let l = lossless.net_stats().unwrap();
        let (tx, ltx): (u64, u64) = (0..topo.len())
            .map(|v| (a.node(v).tx_packets, l.node(v).tx_packets))
            .fold((0, 0), |(x, y), (p, q)| (x + p, y + q));
        assert!(tx > ltx, "loss 0.2 never triggered a retransmission");
    }

    #[test]
    fn lossy_without_arq_rejected_naming_the_alternatives() {
        let topo = Topology::balanced_tree(13, 3).unwrap();
        let items: Vec<Value> = (0..13u64).collect();
        let lossy =
            SimConfig::default().with_link(saq_netsim::link::LinkConfig::default().with_loss(0.1));
        let err = SimNetworkBuilder::new()
            .flat(true)
            .sim_config(lossy)
            .build_one_per_node(&topo, &items, 32)
            .unwrap_err();
        let QueryError::Protocol(saq_protocols::ProtocolError::Unsupported(msg)) = err else {
            panic!("expected Unsupported, got {err:?}");
        };
        assert!(
            msg.contains("Reliability::None over lossless links")
                && msg.contains("Reliability::Ack over any links"),
            "rejection must enumerate the supported combinations: {msg}"
        );
    }

    #[test]
    fn delta_metrics_equal_cache_counters_on_every_runner() {
        // Item updates report their own delta counts, so the telemetry
        // lane's counters must equal the caches' cumulative ones.
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<Value> = (0..40u64).map(|i| (i * 13) % 40).collect();
        for b in [
            SimNetworkBuilder::new(),
            SimNetworkBuilder::new().flat(true).shards(2),
        ] {
            let mut net = b
                .partial_cache(16)
                .build_one_per_node(&topo, &items, 128)
                .unwrap();
            net.attach_recorder(Box::new(saq_obs::NullRecorder));
            // Cached COUNT and MIN absorb each update; an exact distinct
            // set cannot delete a value soundly, so its entries are
            // invalidated.
            for (node, value) in [(0, 5), (39, 1), (12, 30), (0, 0)] {
                net.count(&Predicate::TRUE).unwrap();
                net.min(Domain::Raw).unwrap();
                net.distinct_exact().unwrap();
                net.set_node_items(node, vec![value]).unwrap();
            }
            let (m, c) = (net.metrics_snapshot(), net.cache_stats());
            assert!(c.delta_applied > 0 && c.delta_invalidated > 0, "{c:?}");
            assert_eq!(m.delta_applied, c.delta_applied, "{}", net.runner_name());
            assert_eq!(
                m.delta_invalidated,
                c.delta_invalidated,
                "{}",
                net.runner_name()
            );
        }
    }

    #[test]
    fn the_service_stack_is_send() {
        // Checked at compile time: a substrate trait object without
        // `+ Send` would silently make every layer above it `!Send`.
        fn assert_send<T: Send>() {}
        assert_send::<SimNetwork>();
        assert_send::<crate::StreamingEngine>();
        assert_send::<crate::FleetService>();
    }

    #[test]
    fn exact_count_result_bits_scale_logarithmically() {
        // A single COUNT wave: the partial near the root carries ~log N
        // bits (gamma-coded count), the request ~2 bits + header.
        let mut net = grid_net(8); // 64 nodes
        net.reset_stats();
        net.count(&Predicate::TRUE).unwrap();
        let max_bits = net.net_stats().unwrap().max_node_bits();
        // Very loose envelope: must be well below linear (64 * value bits)
        // and above zero.
        assert!(max_bits > 20);
        assert!(max_bits < 600, "count wave cost {max_bits} bits/node");
    }

    #[test]
    fn trace_replay_stays_in_step_after_untraced_arq_waves() {
        // A recorder attached after untraced ARQ waves must itemise the
        // fates the transport draws from then on, not those from stream
        // index 0: the traced frames then bill exactly what the network
        // billed (11 123 traced against 11 301 billed before the replay
        // resumed from the runner's stream positions).
        use saq_obs::{Event, VecRecorder};
        let topo = Topology::balanced_tree(64, 3).unwrap();
        let items: Vec<Value> = (0..64u64).collect();
        let lossy =
            SimConfig::default().with_link(saq_netsim::link::LinkConfig::default().with_loss(0.2));
        let rel = saq_protocols::wave::Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(200),
        };
        for b in [
            SimNetworkBuilder::new(),
            SimNetworkBuilder::new().flat(true),
        ] {
            let mut net = b
                .sim_config(lossy.clone())
                .reliability(rel)
                .build_one_per_node(&topo, &items, 128)
                .unwrap();
            for _ in 0..3 {
                net.count(&Predicate::TRUE).unwrap();
            }
            let (recorder, log) = VecRecorder::shared();
            net.attach_recorder(Box::new(recorder));
            let before = net.net_stats().unwrap().total_tx_bits();
            net.count(&Predicate::TRUE).unwrap();
            let billed = net.net_stats().unwrap().total_tx_bits() - before;
            let traced: u64 = log
                .events()
                .iter()
                .map(|ev| match ev {
                    Event::FrameSent { bits, .. } | Event::Retransmit { bits, .. } => *bits,
                    _ => 0,
                })
                .sum();
            assert_eq!(billed, 11_301, "{}", net.runner_name());
            assert_eq!(traced, billed, "{}", net.runner_name());
        }
    }

    #[test]
    fn a_rejected_batch_keeps_telemetry_in_step_with_the_transport() {
        // A batch the runner rejects starts no wave: it is not counted,
        // not announced, and the ACKs of later waves are priced at the
        // runner's own header width — which widens at wave 128, where a
        // one-wave lead once overpriced every traced ACK by 8 bits.
        use saq_obs::{Event, VecRecorder};
        let topo = Topology::balanced_tree(16, 3).unwrap();
        let items: Vec<Value> = (0..16u64).collect();
        let lossy =
            SimConfig::default().with_link(saq_netsim::link::LinkConfig::default().with_loss(0.2));
        let rel = saq_protocols::wave::Reliability::Ack {
            timeout: saq_netsim::SimDuration::from_millis(200),
        };
        for b in [
            SimNetworkBuilder::new(),
            SimNetworkBuilder::new().flat(true),
        ] {
            let mut net = b
                .sim_config(lossy.clone())
                .reliability(rel)
                .build_one_per_node(&topo, &items, 128)
                .unwrap();
            let name = net.runner_name();
            let (recorder, log) = VecRecorder::shared();
            net.attach_recorder(Box::new(recorder));
            assert!(net
                .run_batch(vec![CoreRequest::Quantile { budget: 0 }])
                .is_err());
            assert!(
                log.events().is_empty(),
                "{name}: a rejected batch emits nothing"
            );
            for wave in 1..=140u64 {
                let before = net.net_stats().unwrap().total_tx_bits();
                net.run_batch(vec![CoreRequest::Count(Predicate::TRUE)])
                    .unwrap();
                let billed = net.net_stats().unwrap().total_tx_bits() - before;
                let events = log.events();
                log.clear();
                let traced: u64 = events
                    .iter()
                    .map(|ev| match ev {
                        Event::FrameSent { bits, .. } | Event::Retransmit { bits, .. } => *bits,
                        _ => 0,
                    })
                    .sum();
                assert_eq!(traced, billed, "{name}: wave {wave}");
                assert!(
                    matches!(events.first(), Some(Event::WaveStarted { wave: w, .. }) if *w == wave),
                    "{name}: wave {wave} starts as wave {wave}"
                );
            }
            assert_eq!(net.observability_snapshot().waves_run, 140, "{name}");
        }
    }
}
