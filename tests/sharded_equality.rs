//! Property tests for the ISSUE-6/ISSUE-7 tentpoles: neither the
//! columnar flat substrate, nor its worker count, nor lossy links under
//! per-hop ARQ is a semantics change. Every cell of the boxed oracle ×
//! flat plan × **reliability** matrix — flat worker counts
//! `k ∈ {1, 2, 4, 8}`, nested shard depths `{0, 1, 2}` and the
//! auto-chosen depth, crossed with `{lossless, loss p ∈ {0.05, 0.2}
//! with ARQ}` — must produce **answers**, **per-query `QueryBits`
//! ledgers** (the engine-level projection of the per-wave `MuxLedger`
//! slots), **cache hit/miss counters**, the **full per-node bit
//! vector** and the **between-wave `TransportFootprint`** identical to
//! the boxed event-driven oracle *under the same link fates* — on
//! randomized topologies and inputs. The per-edge fate streams
//! (`saq_netsim::link::FateStream`) are what make the lossy rows
//! well-posed: the n-th transmission over an edge draws the same fate
//! no matter which thread or representation executes it.
//! Streaming and continuous sessions must round-trip on the flat
//! runner the same way.

use proptest::prelude::*;
use saq::core::engine::{BatchPolicy, QueryEngine, QueryReport, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::service::{FleetService, RefreshStagger};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{AdmissionPolicy, StreamingEngine};
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::obs::{MetricsSnapshot, VecRecorder};
use saq::protocols::wave::Reliability;
use saq::protocols::{CacheStats, TransportFootprint};

fn query_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Median,
        QuerySpec::Quantile { q: 0.5, eps: 0.15 },
        QuerySpec::BottomK { k: 8 },
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Quantile { q: 0.9, eps: 0.2 },
    ]
}

/// One execution strategy under test: the boxed event-driven oracle or
/// the columnar flat runner at a worker count and a nested shard depth
/// (`None` = auto).
#[derive(Debug, Clone, Copy)]
enum Repr {
    Boxed,
    Flat { k: usize, depth: Option<u32> },
}

/// The reliability row of the matrix: the paper's lossless model, or
/// independent per-transmission loss repaired by per-hop ARQ. The fate
/// seed picks which loss schedule the per-edge streams replay; every
/// representation in a row shares it, so "bit-identical" compares runs
/// under the *same* drops.
#[derive(Debug, Clone, Copy)]
enum Rel {
    Lossless,
    LossyArq { p: f64, fate_seed: u64 },
}

impl Rel {
    fn apply(self, b: SimNetworkBuilder) -> SimNetworkBuilder {
        match self {
            Rel::Lossless => b,
            Rel::LossyArq { p, fate_seed } => b
                .sim_config(
                    SimConfig::default()
                        .with_link(LinkConfig::default().with_loss(p))
                        .with_seed(fate_seed),
                )
                // Comfortably above the worst-case round trip of the
                // widest multiplexed envelope, so the flat runner's
                // closed-form ARQ emulation is exact (see
                // `saq_protocols::flat`).
                .reliability(Reliability::Ack {
                    timeout: SimDuration::from_millis(200),
                }),
        }
    }
}

impl Repr {
    fn build(
        self,
        topo: &Topology,
        items: &[u64],
        xbar: u64,
        cache: usize,
        rel: Rel,
    ) -> SimNetwork {
        let mut b = rel.apply(
            SimNetworkBuilder::new()
                .max_children(4)
                .partial_cache(cache),
        );
        match self {
            Repr::Boxed => {}
            Repr::Flat { k, depth } => {
                b = b.flat(true).shards(k);
                if let Some(d) = depth {
                    b = b.flat_depth(d);
                }
            }
        }
        b.build_one_per_node(topo, items, xbar)
            .expect("network build")
    }
}

/// Runs two engine batches (the second re-hits warm caches) under the
/// given representation and returns everything that must be
/// partition-independent, including the full per-node bit vector.
fn run_at(
    topo: &Topology,
    items: &[u64],
    xbar: u64,
    repr: Repr,
    rel: Rel,
) -> (
    Vec<QueryReport>,
    Vec<QueryReport>,
    CacheStats,
    Vec<u64>,
    TransportFootprint,
) {
    let net = repr.build(topo, items, xbar, 16, rel);
    let mut engine = QueryEngine::new(net);
    for s in query_mix() {
        engine.submit(s);
    }
    let first = engine.run().expect("first batch");
    for s in query_mix() {
        engine.submit(s);
    }
    let second = engine.run().expect("second batch");
    let cache = engine.network().cache_stats();
    let footprint = engine.network().transport_footprint();
    let stats = engine.network().net_stats().expect("stats");
    let per_node = (0..stats.len())
        .map(|v| stats.node(v).total_bits())
        .collect();
    (first, second, cache, per_node, footprint)
}

fn assert_reports_equal(a: &[QueryReport], b: &[QueryReport], repr: Repr, which: &str) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.outcome, y.outcome,
            "{which}: answer differs at {repr:?} for {:?}",
            x.spec
        );
        assert_eq!(
            x.bits, y.bits,
            "{which}: per-query bit ledger differs at {repr:?} for {:?}",
            x.spec
        );
        assert_eq!(x.waves, y.waves, "{which}: wave count differs at {repr:?}");
    }
}

/// The flat cells of the matrix: every worker count crossed with every
/// pinned nesting depth, plus the auto-chosen depth at the widest k.
fn flat_matrix() -> Vec<Repr> {
    let mut cells = Vec::new();
    for k in [1usize, 2, 4, 8] {
        for depth in [Some(0), Some(1), Some(2)] {
            cells.push(Repr::Flat { k, depth });
        }
    }
    cells.push(Repr::Flat { k: 8, depth: None });
    cells
}

fn check_matrix(topo: &Topology, items: &[u64], xbar: u64, cells: &[Repr], rel: Rel) {
    let (base_first, base_second, base_cache, base_bits, base_fp) =
        run_at(topo, items, xbar, Repr::Boxed, rel);
    // The warm repeat must actually exercise the cache.
    assert!(base_cache.hits > 0, "repeat batch never hit the cache");
    for &repr in cells {
        let (first, second, cache, bits, fp) = run_at(topo, items, xbar, repr, rel);
        assert_reports_equal(&base_first, &first, repr, "cold batch");
        assert_reports_equal(&base_second, &second, repr, "warm batch");
        assert_eq!(
            base_cache, cache,
            "cache hit/miss counters differ at {repr:?} under {rel:?}"
        );
        assert_eq!(
            base_bits, bits,
            "per-node bit vector differs at {repr:?} under {rel:?}"
        );
        assert_eq!(
            base_fp, fp,
            "between-wave transport footprint differs at {repr:?} under {rel:?}"
        );
    }
}

proptest! {
    // The flat matrix runs 13 cells per case, so fewer cases carry the
    // same coverage budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_flat_matrix_matches_single_threaded(
        n in 16usize..48,
        topo_seed: u64,
        value_seed in 0u64..1000,
    ) {
        let topo = Topology::random_geometric(n, 0.35, topo_seed).expect("topology");
        let xbar = 4 * n as u64;
        let items: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(value_seed.wrapping_mul(2).wrapping_add(13))) % xbar)
            .collect();
        check_matrix(&topo, &items, xbar, &flat_matrix(), Rel::Lossless);
    }
}

/// The lossy rows of the matrix: flat `k ∈ {1, 2, 4, 8}` (auto depth —
/// the depth dimension is covered losslessly above, and the plan is
/// fate-independent) under loss `p ∈ {0.05, 0.2}` with per-hop ARQ,
/// against the boxed oracle *running the same fates*. This is the ISSUE-7 acceptance
/// matrix: retransmissions, ACK bills, dedup residue and repaired
/// answers all replay identically from the per-edge fate streams.
fn lossy_matrix() -> Vec<Repr> {
    let mut cells: Vec<Repr> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|k| Repr::Flat { k, depth: None })
        .collect();
    // One pinned nested depth so the lossy ARQ emulation is exercised
    // across a re-cut spine too.
    cells.push(Repr::Flat {
        k: 4,
        depth: Some(1),
    });
    cells
}

proptest! {
    // 5 cells × 2 loss rates per case.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn prop_lossy_arq_matrix_matches_single_threaded(
        n in 16usize..44,
        topo_seed: u64,
        value_seed in 0u64..1000,
    ) {
        let topo = Topology::random_geometric(n, 0.35, topo_seed).expect("topology");
        let xbar = 4 * n as u64;
        let items: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(value_seed.wrapping_mul(2).wrapping_add(13))) % xbar)
            .collect();
        for p in [0.05, 0.2] {
            let rel = Rel::LossyArq {
                p,
                fate_seed: topo_seed.wrapping_mul(31).wrapping_add(value_seed),
            };
            check_matrix(&topo, &items, xbar, &lossy_matrix(), rel);
        }
    }
}

/// The streaming engine drives the same runner through mid-flight
/// admission: a session on the flat substrate must retire every query
/// with reports, cache counters and per-node bits identical to the
/// boxed session.
#[test]
fn streaming_session_round_trips_on_flat_runner() {
    let n = 40;
    let topo = Topology::balanced_tree(n, 3).unwrap();
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 23) % 97).collect();
    let groups: Vec<Vec<QuerySpec>> = vec![
        vec![
            QuerySpec::Count(Predicate::TRUE),
            QuerySpec::Min(Domain::Raw),
        ],
        vec![
            QuerySpec::Quantile { q: 0.5, eps: 0.15 },
            QuerySpec::Max(Domain::Log),
        ],
        vec![QuerySpec::Count(Predicate::TRUE)], // warm repeat
    ];
    let run = |repr: Repr, rel: Rel| {
        let net = repr.build(&topo, &items, 128, 16, rel);
        let mut engine =
            StreamingEngine::with_policy(net, BatchPolicy::Batched, AdmissionPolicy::WhenIdle);
        let mut reports = Vec::new();
        let mut iter = groups.iter();
        let mut next = iter.next();
        while engine.in_service() || next.is_some() {
            if next.is_some() && engine.pending_queries() == 0 {
                for s in next.take().expect("checked is_some") {
                    engine.submit(s.clone());
                }
                next = iter.next();
            }
            reports.extend(engine.step().expect("streaming round"));
        }
        reports.sort_by_key(|r| r.report.id);
        let net = engine.into_network();
        let cache = net.cache_stats();
        let stats = net.net_stats().expect("stats");
        let bits: Vec<u64> = (0..stats.len())
            .map(|v| stats.node(v).total_bits())
            .collect();
        (reports, cache, bits)
    };
    for rel in [
        Rel::Lossless,
        Rel::LossyArq {
            p: 0.15,
            fate_seed: 0x57_EAB,
        },
    ] {
        let (boxed_reports, boxed_cache, boxed_bits) = run(Repr::Boxed, rel);
        let (flat_reports, flat_cache, flat_bits) = run(Repr::Flat { k: 4, depth: None }, rel);
        assert_eq!(boxed_reports.len(), flat_reports.len());
        for (a, b) in boxed_reports.iter().zip(&flat_reports) {
            assert_eq!(
                a.report.outcome, b.report.outcome,
                "streaming answer diverged under {rel:?}"
            );
            assert_eq!(
                a.report.bits, b.report.bits,
                "streaming bit ledger diverged under {rel:?}"
            );
            assert_eq!(a.admitted_round, b.admitted_round);
            assert_eq!(a.retired_round, b.retired_round);
        }
        assert!(boxed_cache.hits > 0, "warm repeat never hit the cache");
        assert_eq!(boxed_cache, flat_cache, "cache counters under {rel:?}");
        assert_eq!(boxed_bits, flat_bits, "per-node bits under {rel:?}");
    }
}

/// Continuous standing queries refresh through delta-maintained caches
/// and `set_items`: an update/refresh interleaving on the flat runner
/// must report the same outcomes, cache counters (deltas included) and
/// per-node bits as the boxed runner.
#[test]
fn continuous_session_round_trips_on_flat_runner() {
    let n = 40;
    let topo = Topology::balanced_tree(n, 3).unwrap();
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 13) % 100).collect();
    let run = |repr: Repr, rel: Rel| {
        let net = repr.build(&topo, &items, 128, 16, rel);
        let mut engine = FleetService::with_stagger(net, RefreshStagger::None);
        for spec in [
            QuerySpec::Count(Predicate::less_than(60)),
            QuerySpec::Sum(Predicate::TRUE),
            QuerySpec::Min(Domain::Raw),
        ] {
            engine.register(spec, 1).expect("register standing");
        }
        let mut refreshes = Vec::new();
        for round in 0u64..6 {
            // Updates between refreshes: a leaf value change, a new
            // minimum appearing, then the minimum holder retiring.
            let node = 10 + (round as usize * 7) % (n - 10);
            engine
                .update_items(node, vec![(round * 31 + 2) % 100])
                .expect("update");
            let r = engine.step().expect("continuous round");
            refreshes.extend(r.refreshes);
        }
        let net = engine.into_network();
        let cache = net.cache_stats();
        let stats = net.net_stats().expect("stats");
        let bits: Vec<u64> = (0..stats.len())
            .map(|v| stats.node(v).total_bits())
            .collect();
        (refreshes, cache, bits)
    };
    for rel in [
        Rel::Lossless,
        Rel::LossyArq {
            p: 0.15,
            fate_seed: 0xC0_47,
        },
    ] {
        let (boxed_refreshes, boxed_cache, boxed_bits) = run(Repr::Boxed, rel);
        let (flat_refreshes, flat_cache, flat_bits) = run(
            Repr::Flat {
                k: 2,
                depth: Some(1),
            },
            rel,
        );
        assert_eq!(boxed_refreshes.len(), flat_refreshes.len());
        for (a, b) in boxed_refreshes.iter().zip(&flat_refreshes) {
            assert_eq!(a.slot, b.slot);
            assert_eq!(
                a.outcome, b.outcome,
                "continuous refresh diverged under {rel:?}"
            );
        }
        assert!(
            boxed_cache.delta_applied > 0,
            "updates never exercised delta maintenance"
        );
        assert_eq!(boxed_cache, flat_cache, "cache counters under {rel:?}");
        assert_eq!(boxed_bits, flat_bits, "per-node bits under {rel:?}");
    }
}

/// ISSUE-10 tentpole row: with a telemetry recorder attached, the
/// **merged event stream** a session emits — serialized to the
/// canonical JSONL form, so byte-equality is sequence equality — is
/// identical across the boxed and flat runners, lossless and
/// under loss `p = 0.1` with per-hop ARQ. The stream includes
/// frame-level detail (first sends, retransmissions, drops, acks
/// expanded from the shared per-edge fate streams), cache hit/miss
/// events from the warm repeat batch, per-wave bit accounting and slot
/// admission/retirement, so this is a far stricter equivalence than
/// the aggregate-counter rows above.
#[test]
fn event_streams_are_bit_identical_across_runners() {
    let n = 36;
    let topo = Topology::balanced_tree(n, 3).unwrap();
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 17) % 91).collect();
    let run = |repr: Repr, rel: Rel| -> (String, MetricsSnapshot) {
        let mut net = repr.build(&topo, &items, 128, 16, rel);
        let (rec, log) = VecRecorder::shared();
        net.attach_recorder(Box::new(rec));
        let mut engine = QueryEngine::new(net);
        for s in query_mix() {
            engine.submit(s);
        }
        engine.run().expect("cold batch");
        for s in query_mix() {
            engine.submit(s);
        }
        engine.run().expect("warm batch");
        (log.to_jsonl(), engine.network().metrics_snapshot())
    };
    for rel in [
        Rel::Lossless,
        Rel::LossyArq {
            p: 0.1,
            fate_seed: 0x00E2_10B5,
        },
    ] {
        let (base, base_metrics) = run(Repr::Boxed, rel);
        assert!(
            base.contains("\"type\":\"CacheHit\""),
            "warm batch never produced cache hit events under {rel:?}"
        );
        assert!(base.contains("\"type\":\"WaveCompleted\""));
        if matches!(rel, Rel::LossyArq { .. }) {
            assert!(
                base.contains("\"type\":\"FrameDropped\""),
                "loss p=0.1 produced no drop events"
            );
            assert!(base.contains("\"kind\":\"ack\""));
        }
        for repr in [
            Repr::Flat { k: 2, depth: None },
            Repr::Flat {
                k: 4,
                depth: Some(1),
            },
        ] {
            let (stream, metrics) = run(repr, rel);
            assert_eq!(
                base, stream,
                "merged event stream diverged at {repr:?} under {rel:?}"
            );
            assert_eq!(
                base_metrics, metrics,
                "deterministic metrics lane diverged at {repr:?} under {rel:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // ISSUE-10 reconciliation row: the `saq::obs::MetricsRegistry`
    // totals a recorded run accumulates must agree exactly with the
    // transport's own bills — the frame lane with the per-node
    // `NetStats` transmit bits, the slot lanes with the per-query
    // `QueryBits` ledgers (the engine-level projection of the
    // `MuxLedger`), and the cache counters with `CacheStats`.
    #[test]
    fn prop_metrics_reconcile_with_transport_bills(
        n in 16usize..40,
        topo_seed: u64,
        value_seed in 0u64..1000,
        lossy: bool,
    ) {
        let topo = Topology::random_geometric(n, 0.35, topo_seed).expect("topology");
        let xbar = 4 * n as u64;
        let items: Vec<u64> = (0..n as u64)
            .map(|i| (i.wrapping_mul(value_seed.wrapping_mul(2).wrapping_add(13))) % xbar)
            .collect();
        let rel = if lossy {
            Rel::LossyArq { p: 0.1, fate_seed: topo_seed ^ value_seed }
        } else {
            Rel::Lossless
        };
        let mut net = Repr::Boxed.build(&topo, &items, xbar, 16, rel);
        let (rec, _log) = VecRecorder::shared();
        net.attach_recorder(Box::new(rec));
        let mut engine = QueryEngine::new(net);
        for s in query_mix() {
            engine.submit(s);
        }
        let cold = engine.run().expect("cold batch");
        for s in query_mix() {
            engine.submit(s);
        }
        let warm = engine.run().expect("warm batch");

        let m = engine.network().metrics_snapshot();
        let stats = engine.network().net_stats().expect("stats");
        let tx_bits: u64 = (0..stats.len()).map(|v| stats.node(v).tx_bits).sum();
        // Frame lane vs the transport's transmit-side bills: every tx
        // charge is exactly one FrameSent/Retransmit event.
        prop_assert_eq!(m.frame_bits_total(), tx_bits);
        // Slot lanes vs the per-query ledgers.
        let reports: Vec<&QueryReport> = cold.iter().chain(warm.iter()).collect();
        let request: u64 = reports.iter().map(|r| r.bits.request_bits).sum();
        let partial: u64 = reports.iter().map(|r| r.bits.partial_bits).sum();
        prop_assert_eq!(m.slot_request_bits, request);
        prop_assert_eq!(m.slot_partial_bits, partial);
        // Retired-slot accounting covers every query exactly once.
        prop_assert_eq!(m.slots_retired, reports.len() as u64);
        let total: u64 = reports.iter().map(|r| r.bits.total()).sum();
        prop_assert_eq!(m.retired_bits, total);
        // Cache counters vs the protocol layer's own.
        let cache = engine.network().cache_stats();
        prop_assert_eq!(m.cache_hits, cache.hits);
        prop_assert_eq!(m.cache_misses, cache.misses);
        // Losslessly, the billed lane (headers + envelope + payloads)
        // is the whole transmit side — no retransmissions, no acks.
        if !lossy {
            prop_assert_eq!(m.billed_bits_total(), tx_bits);
        }
    }
}
