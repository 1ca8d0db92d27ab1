//! Property tests for the engine loop. A closed batch is a group
//! submitted to an idle loop plus a drain, so the first two properties
//! pin that **mid-flight submission under `WhenIdle` equals submitting
//! after the drain**: groups submitted while their predecessor is still
//! in flight run bit-identically to the same groups fed to an idle
//! engine and drained one `run_until_idle` at a time (answers,
//! per-query `QueryBits`, wave counts, cache hit/miss counters, per-node
//! bit statistics), lossless and lossy. Total bits are **monotone non-increasing** as the
//! admission window widens (coarser partitions merge waves and share
//! more framing), and arbitrary mid-flight admission schedules never
//! change any answer.

use proptest::prelude::*;
use saq::core::engine::{BatchPolicy, QueryReport, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{AdmissionPolicy, StreamingEngine, StreamingReport};
use saq::core::ApxCountConfig;
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::protocols::wave::Reliability;

/// Random deployment: topology family, size and item skew drawn from
/// the seeds; optional subtree caching.
fn deployment(topo_seed: u64, cache: usize) -> SimNetwork {
    deployment_rel(topo_seed, cache, None)
}

/// Like [`deployment`], but with `Some(p)` the links drop frames with
/// probability `p` (per-edge fate streams seeded from `topo_seed`) and
/// the wave protocol runs stop-and-wait ARQ. The timeout comfortably
/// exceeds the widest multiplexed envelope's round trip, so the flat
/// runner's closed-form ARQ emulation accepts it too.
fn deployment_rel(topo_seed: u64, cache: usize, loss: Option<f64>) -> SimNetwork {
    let n = 9 + (topo_seed % 21) as usize; // 9..=29 nodes
    let topo = match topo_seed % 3 {
        0 => Topology::grid(3, n.div_ceil(3)).unwrap(),
        1 => Topology::balanced_tree(n, 3).unwrap(),
        _ => Topology::random_geometric(n, (6.0 / n as f64).sqrt().min(0.9), topo_seed).unwrap(),
    };
    let len = topo.len();
    let items: Vec<u64> = (0..len as u64).map(|i| (i * 23 + topo_seed) % 64).collect();
    let mut builder = SimNetworkBuilder::new()
        .apx_config(ApxCountConfig::default().with_seed(0x5EED + topo_seed))
        .partial_cache(cache);
    if let Some(p) = loss {
        builder = builder
            .sim_config(
                SimConfig::default()
                    .with_link(LinkConfig::default().with_loss(p))
                    .with_seed(0xFA7E ^ topo_seed),
            )
            .reliability(Reliability::Ack {
                timeout: SimDuration::from_millis(400),
            });
    }
    builder.build_one_per_node(&topo, &items, 64).unwrap()
}

/// A shareable query drawn from a code: deterministic aggregates,
/// sketches (whose nonces come from the submission ordinal, so aligned
/// runs reproduce them bit-for-bit) and multi-round median plans.
fn spec_from(code: u64) -> QuerySpec {
    match code % 10 {
        0 => QuerySpec::Count(Predicate::TRUE),
        1 => QuerySpec::Count(Predicate::less_than(code % 64)),
        2 => QuerySpec::Sum(Predicate::TRUE),
        3 => QuerySpec::Min(Domain::Raw),
        4 => QuerySpec::Max(Domain::Raw),
        5 => QuerySpec::DistinctExact,
        6 => QuerySpec::Quantile {
            q: 0.25 + (code % 3) as f64 * 0.25,
            eps: 0.2,
        },
        7 => QuerySpec::BottomK {
            k: 1 + (code % 6) as u32,
        },
        8 => QuerySpec::Median,
        _ => QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 2,
        },
    }
}

/// Cuts `specs` into non-empty admission groups at the (deduplicated)
/// cut fractions.
fn partition(specs: &[QuerySpec], cuts: &[u64]) -> Vec<Vec<QuerySpec>> {
    let mut idx: Vec<usize> = cuts
        .iter()
        .map(|c| (*c as usize) % specs.len())
        .filter(|&i| i > 0)
        .collect();
    idx.sort_unstable();
    idx.dedup();
    let mut groups = Vec::new();
    let mut prev = 0;
    for i in idx {
        groups.push(specs[prev..i].to_vec());
        prev = i;
    }
    groups.push(specs[prev..].to_vec());
    groups
}

/// Runs the groups through ONE streaming engine with idle-aligned
/// admission, submitting each later group *mid-flight* (one round into
/// its predecessor) so admission gating — not submission timing — is
/// what aligns the boundaries. Returns the reports in submission order
/// plus the engine for whole-network comparisons.
fn run_streaming(
    net: SimNetwork,
    groups: &[Vec<QuerySpec>],
) -> (Vec<StreamingReport>, StreamingEngine) {
    let mut engine =
        StreamingEngine::with_policy(net, BatchPolicy::Batched, AdmissionPolicy::WhenIdle);
    let mut reports = Vec::new();
    let mut iter = groups.iter();
    if let Some(g) = iter.next() {
        for s in g {
            engine.submit(s.clone());
        }
    }
    let mut next = iter.next();
    while engine.in_service() || next.is_some() {
        reports.extend(engine.step().expect("streaming round"));
        // The next group arrives as soon as the current one has been
        // *admitted* (usually while it is still mid-flight): WhenIdle
        // holds exactly one group at the gate, so the admission
        // boundaries reproduce the closed-batch grouping exactly.
        if next.is_some() && engine.pending_queries() == 0 {
            for s in next.take().expect("checked is_some") {
                engine.submit(s.clone());
            }
            next = iter.next();
        }
    }
    reports.sort_by_key(|r| r.report.id);
    (reports, engine)
}

/// Runs the same groups as a sequence of closed batches on ONE engine,
/// each submitted while it is idle and then drained (nonce ordinals
/// continue across batches, as in the streaming run).
fn run_batches(net: SimNetwork, groups: &[Vec<QuerySpec>]) -> (Vec<QueryReport>, StreamingEngine) {
    let mut engine = StreamingEngine::new(net);
    let mut reports = Vec::new();
    for g in groups {
        for s in g {
            engine.submit(s.clone());
        }
        let batch = engine.run_until_idle().expect("closed batch");
        reports.extend(batch.into_iter().map(|r| r.report));
    }
    (reports, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Bit-identity: idle-aligned streaming == the equivalent closed
    // batches, in every observable the engines expose.
    #[test]
    fn prop_aligned_streaming_is_bit_identical_to_closed_batches(
        topo_seed in 0u64..1000,
        codes in proptest::collection::vec(0u64..1000, 1..9),
        cuts in proptest::collection::vec(0u64..64, 0..3),
        cache_on in proptest::prelude::any::<bool>(),
    ) {
        let specs: Vec<QuerySpec> = codes.iter().map(|&c| spec_from(c)).collect();
        let groups = partition(&specs, &cuts);
        let cache = if cache_on { 32 } else { 0 };

        let (sreports, streaming) = run_streaming(deployment(topo_seed, cache), &groups);
        let (breports, batch) = run_batches(deployment(topo_seed, cache), &groups);

        prop_assert_eq!(sreports.len(), breports.len());
        for (s, b) in sreports.iter().zip(&breports) {
            prop_assert_eq!(&s.report.spec, &b.spec);
            prop_assert_eq!(&s.report.outcome, &b.outcome, "answer of {:?}", b.spec);
            prop_assert_eq!(s.report.bits, b.bits, "bit bill of {:?}", b.spec);
            prop_assert_eq!(s.report.waves, b.waves, "wave count of {:?}", b.spec);
        }
        prop_assert_eq!(streaming.waves_issued(), batch.waves_issued());
        prop_assert_eq!(
            streaming.network().cache_stats(),
            batch.network().cache_stats(),
            "cache hit/miss counters diverged"
        );
        let (ss, bs) = (
            streaming.network().net_stats().unwrap(),
            batch.network().net_stats().unwrap(),
        );
        for v in 0..ss.len() {
            prop_assert_eq!(
                ss.node(v).total_bits(),
                bs.node(v).total_bits(),
                "per-node bits diverged at node {}", v
            );
        }
    }

    // Lossy row (ISSUE-7): the same bit-identity holds over links that
    // drop frames, because both executions drive the same wave sequence
    // and every (edge, transmission-count) pair draws its fate from the
    // same per-edge stream — loss and retransmissions are part of the
    // reproducible bill, not noise around it.
    #[test]
    fn prop_aligned_streaming_matches_closed_batches_under_loss(
        topo_seed in 0u64..1000,
        codes in proptest::collection::vec(0u64..1000, 1..7),
        cuts in proptest::collection::vec(0u64..64, 0..3),
        heavy_loss in proptest::prelude::any::<bool>(),
    ) {
        let specs: Vec<QuerySpec> = codes.iter().map(|&c| spec_from(c)).collect();
        let groups = partition(&specs, &cuts);
        let p = if heavy_loss { 0.2 } else { 0.05 };

        let (sreports, streaming) =
            run_streaming(deployment_rel(topo_seed, 16, Some(p)), &groups);
        let (breports, batch) = run_batches(deployment_rel(topo_seed, 16, Some(p)), &groups);

        prop_assert_eq!(sreports.len(), breports.len());
        for (s, b) in sreports.iter().zip(&breports) {
            prop_assert_eq!(&s.report.outcome, &b.outcome, "answer of {:?}", b.spec);
            prop_assert_eq!(s.report.bits, b.bits, "bit bill of {:?}", b.spec);
            prop_assert_eq!(s.report.waves, b.waves, "wave count of {:?}", b.spec);
        }
        prop_assert_eq!(
            streaming.network().cache_stats(),
            batch.network().cache_stats(),
            "cache hit/miss counters diverged under loss"
        );
        let (ss, bs) = (
            streaming.network().net_stats().unwrap(),
            batch.network().net_stats().unwrap(),
        );
        for v in 0..ss.len() {
            prop_assert_eq!(
                ss.node(v).total_bits(),
                bs.node(v).total_bits(),
                "per-node bits diverged at node {} under loss p={}", v, p
            );
        }
        // Loss was actually exercised: some node retransmitted, so the
        // lossy run's transmit bill strictly exceeds a lossless run's.
        let (_, lossless) = run_batches(deployment(topo_seed, 16), &groups);
        let ls = lossless.network().net_stats().unwrap();
        let lossy_tx: u64 = (0..bs.len()).map(|v| bs.node(v).tx_bits).sum();
        let lossless_tx: u64 = (0..ls.len()).map(|v| ls.node(v).tx_bits).sum();
        prop_assert!(
            lossy_tx >= lossless_tx,
            "lossy ARQ run billed fewer tx bits ({}) than lossless ({})",
            lossy_tx, lossless_tx
        );
    }

    // Monotonicity: coarsening the admission partition (wider windows)
    // can only merge waves, so the total bill never grows — down to the
    // single closed batch at the coarse end. Cache off: with caching, a
    // repeat in a *later* window rides the cache for free while the
    // merged wave pays its slot twice, which legitimately inverts the
    // ordering.
    #[test]
    fn prop_total_bits_monotone_under_admission_coarsening(
        topo_seed in 0u64..1000,
        codes in proptest::collection::vec(0u64..1000, 2..9),
        cuts in proptest::collection::vec(1u64..64, 1..4),
    ) {
        let specs: Vec<QuerySpec> = codes.iter().map(|&c| spec_from(c)).collect();
        let fine = partition(&specs, &cuts);
        // Nested coarsenings: merge adjacent pairs, then everything.
        let paired: Vec<Vec<QuerySpec>> = fine
            .chunks(2)
            .map(|ch| ch.concat())
            .collect();
        let single = vec![specs.clone()];

        let total = |groups: &[Vec<QuerySpec>]| {
            let (reports, engine) = run_streaming(deployment(topo_seed, 0), groups);
            let billed: u64 = reports.iter().map(|r| r.report.bits.total()).sum();
            let outcomes: Vec<_> = reports
                .into_iter()
                .map(|r| r.report.outcome)
                .collect();
            let stats = engine.network().net_stats().unwrap();
            let tx: u64 = (0..stats.len()).map(|v| stats.node(v).tx_bits).sum();
            (billed, tx, outcomes)
        };
        let (fine_billed, fine_tx, fine_out) = total(&fine);
        let (paired_billed, paired_tx, paired_out) = total(&paired);
        let (single_billed, single_tx, single_out) = total(&single);

        // Scheduling never changes answers (nonces ride submission
        // ordinals, which every partition shares).
        prop_assert_eq!(&fine_out, &paired_out);
        prop_assert_eq!(&fine_out, &single_out);
        // The transmit-side truth is monotone along the coarsening.
        prop_assert!(
            paired_tx <= fine_tx,
            "pair-merged windows cost {} > fine {}", paired_tx, fine_tx
        );
        prop_assert!(
            single_tx <= paired_tx,
            "single batch cost {} > pair-merged {}", single_tx, paired_tx
        );
        // And so is the sum of honest per-query bills.
        prop_assert!(paired_billed <= fine_billed);
        prop_assert!(single_billed <= paired_billed);
    }

    // Arbitrary mid-flight admission (random windowed schedules, random
    // submission rounds) never changes an answer — scheduling is a pure
    // cost/latency decision.
    #[test]
    fn prop_random_admission_schedules_preserve_answers(
        topo_seed in 0u64..1000,
        codes in proptest::collection::vec(0u64..1000, 1..8),
        window in 1u32..7,
        gaps in proptest::collection::vec(0u64..5, 1..8),
    ) {
        let specs: Vec<QuerySpec> = codes.iter().map(|&c| spec_from(c)).collect();

        // Oracle answers from one closed batch.
        let mut oracle = StreamingEngine::new(deployment(topo_seed, 0));
        for s in &specs {
            oracle.submit(s.clone());
        }
        let want: Vec<_> = oracle
            .run_until_idle()
            .unwrap()
            .into_iter()
            .map(|r| r.report.outcome)
            .collect();

        // Streaming: submissions staggered by the random gaps, admitted
        // through a random fixed window.
        let mut engine = StreamingEngine::with_policy(
            deployment(topo_seed, 0),
            BatchPolicy::Batched,
            AdmissionPolicy::Window(window),
        );
        let mut reports = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            engine.submit(s.clone());
            for _ in 0..gaps[i % gaps.len()] {
                reports.extend(engine.step().expect("round"));
            }
        }
        reports.extend(engine.run_until_idle().expect("drain"));
        reports.sort_by_key(|r| r.report.id);

        prop_assert_eq!(reports.len(), specs.len());
        for (r, w) in reports.iter().zip(&want) {
            prop_assert_eq!(&r.report.outcome, w, "answer of {:?}", r.report.spec);
        }
    }
}
