//! End-to-end tests of closed batches — `submit` × k, then
//! `run_until_idle` — and their batched multi-query waves: the
//! acceptance scenario (≥3 concurrent distinct aggregate queries in one
//! shared wave sequence with per-query bit accounting), the
//! batched-vs-sequential determinism guarantee, and one batch whose
//! every answer and bill is pinned.

use saq::core::engine::{BatchPolicy, QueryOutcome, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{AdmissionPolicy, StreamingEngine};
use saq::core::ApxCountConfig;
use saq::core::QueryError;
use saq::netsim::topology::Topology;

fn deployment(seed: u64) -> SimNetwork {
    let topo = Topology::grid(6, 6).unwrap();
    let items: Vec<u64> = (0..36u64).map(|i| (i * 17) % 72).collect();
    SimNetworkBuilder::new()
        .apx_config(ApxCountConfig::default().with_seed(seed))
        .build_one_per_node(&topo, &items, 72)
        .unwrap()
}

fn query_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Raw),
        QuerySpec::ApxCount {
            pred: Predicate::less_than(36),
            reps: 4,
        },
        QuerySpec::DistinctApx { reps: 4 },
        QuerySpec::Median,
        QuerySpec::OrderStatistic { k: 5 },
        QuerySpec::ApxMedian { epsilon: 0.4 },
        QuerySpec::DistinctExact,
        QuerySpec::Quantile { q: 0.75, eps: 0.15 },
        QuerySpec::BottomK { k: 5 },
    ]
}

#[test]
fn concurrent_distinct_aggregates_share_one_wave() {
    // The acceptance scenario: ≥3 concurrent distinct aggregate queries
    // from different "users" complete in ONE shared wave, each with a
    // positive, honest bit bill.
    let mut engine = StreamingEngine::new(deployment(1));
    let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let minmax = engine.submit(QuerySpec::Min(Domain::Raw));
    let apx = engine.submit(QuerySpec::ApxCount {
        pred: Predicate::TRUE,
        reps: 4,
    });
    let sketch = engine.submit(QuerySpec::DistinctApx { reps: 4 });
    let reports = engine.run_until_idle().unwrap();

    assert_eq!(
        engine.waves_issued(),
        1,
        "four single-wave queries share one wave"
    );
    assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(36)));
    assert_eq!(
        reports[minmax].report.outcome,
        Ok(QueryOutcome::OptVal(Some(0)))
    );
    match reports[apx].report.outcome {
        Ok(QueryOutcome::Est(est)) => assert!((est - 36.0).abs() / 36.0 < 0.6, "est {est}"),
        ref other => panic!("apx count: {other:?}"),
    }
    match reports[sketch].report.outcome {
        Ok(QueryOutcome::Est(est)) => assert!(est > 5.0, "distinct est {est}"),
        ref other => panic!("distinct: {other:?}"),
    }
    for r in &reports {
        assert!(r.report.bits.total() > 0, "query {} unbilled", r.report.id);
        assert!(r.report.bits.request_bits > 0);
        assert!(r.report.bits.partial_bits > 0);
    }
    // Sketch queries pay for their registers; the count rides cheap.
    assert!(reports[apx].report.bits.total() > reports[count].report.bits.total());
}

#[test]
fn batched_and_sequential_execution_identical() {
    // Determinism: the same query set, seeds and deployment must produce
    // identical outcomes under both scheduling policies — batching is a
    // pure cost optimization.
    let mut batched = StreamingEngine::with_policy(
        deployment(7),
        BatchPolicy::Batched,
        AdmissionPolicy::EveryRound,
    );
    let mut sequential = StreamingEngine::with_policy(
        deployment(7),
        BatchPolicy::Sequential,
        AdmissionPolicy::EveryRound,
    );
    for spec in query_mix() {
        batched.submit(spec.clone());
        sequential.submit(spec);
    }
    let br = batched.run_until_idle().unwrap();
    let sr = sequential.run_until_idle().unwrap();
    assert_eq!(br.len(), sr.len());
    for (b, s) in br.iter().zip(sr.iter()) {
        assert_eq!(
            b.report.outcome.as_ref().unwrap(),
            s.report.outcome.as_ref().unwrap(),
            "scheduling changed the answer of {:?}",
            b.report.spec
        );
        assert_eq!(
            b.report.waves, s.report.waves,
            "same per-query wave count for {:?}",
            b.report.spec
        );
    }
    // And batching strictly reduces both total and max-node bits.
    let b_stats = batched.network().net_stats().unwrap();
    let s_stats = sequential.network().net_stats().unwrap();
    assert!(b_stats.max_node_bits() < s_stats.max_node_bits());
    assert!(b_stats.total_tx_bits() < s_stats.total_tx_bits());
    assert!(batched.waves_issued() < sequential.waves_issued());
}

#[test]
fn engine_matches_direct_runners() {
    // The engine's plan execution must agree with the classic runner API
    // driving the same network kind (exact queries: bit-for-bit equal).
    let mut engine = StreamingEngine::new(deployment(3));
    let median = engine.submit(QuerySpec::Median);
    let os3 = engine.submit(QuerySpec::OrderStatistic { k: 3 });
    let distinct = engine.submit(QuerySpec::DistinctExact);
    let reports = engine.run_until_idle().unwrap();

    let mut net = deployment(3);
    let want_median = saq::core::Median::new().run(&mut net).unwrap();
    let want_os3 = saq::core::Median::new()
        .run_order_statistic(&mut net, 3)
        .unwrap();
    let want_distinct = saq::core::CountDistinct::new().exact(&mut net).unwrap();

    assert_eq!(
        reports[median].report.outcome,
        Ok(QueryOutcome::Median(want_median))
    );
    assert_eq!(
        reports[os3].report.outcome,
        Ok(QueryOutcome::Median(want_os3))
    );
    assert_eq!(
        reports[distinct].report.outcome,
        Ok(QueryOutcome::Num(want_distinct.count))
    );
}

#[test]
fn exclusive_queries_batch_safely_with_readers() {
    // APX_MEDIAN2 zooms (mutates items): the engine must isolate it from
    // concurrent readers and restore state afterwards.
    let mut engine = StreamingEngine::new(deployment(11));
    let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let am2 = engine.submit(QuerySpec::ApxMedian2 {
        beta: 0.2,
        epsilon: 0.4,
    });
    let sum = engine.submit(QuerySpec::Sum(Predicate::TRUE));
    let reports = engine.run_until_idle().unwrap();
    assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(36)));
    let items: Vec<u64> = (0..36u64).map(|i| (i * 17) % 72).collect();
    assert_eq!(
        reports[sum].report.outcome,
        Ok(QueryOutcome::Num(items.iter().sum()))
    );
    assert!(matches!(
        reports[am2].report.outcome,
        Ok(QueryOutcome::ApxMedian2(_))
    ));
    // Item state restored for subsequent use.
    let mut net = engine.into_network();
    assert_eq!(net.count(&Predicate::TRUE).unwrap(), 36);
}

#[test]
fn per_query_bits_sum_to_transmit_total() {
    // Honest accounting: per-query bills cover the transmit-side bits up
    // to share rounding (< participants bits per wave).
    let mut engine = StreamingEngine::new(deployment(5));
    for spec in query_mix() {
        engine.submit(spec);
    }
    let reports = engine.run_until_idle().unwrap();
    let billed: u64 = reports.iter().map(|r| r.report.bits.total()).sum();
    let waves = engine.waves_issued();
    let stats = engine.network().net_stats().unwrap();
    let tx_total: u64 = (0..stats.len()).map(|v| stats.node(v).tx_bits).sum();
    assert!(
        billed <= tx_total,
        "billed {billed} > transmitted {tx_total}"
    );
    let slack = tx_total - billed;
    assert!(
        slack <= waves * query_mix().len() as u64,
        "unbilled bits {slack} exceed rounding bound"
    );
}

const PIN_SIDE: usize = 6;

/// The pinned batch's deployment: a 6×6 grid, X̄ = 72, sketch seed 77,
/// on the boxed runner or two flat workers, caching `cache` partials.
fn pinned_net(flat: bool, cache: usize) -> SimNetwork {
    let topo = Topology::grid(PIN_SIDE, PIN_SIDE).unwrap();
    let n = (PIN_SIDE * PIN_SIDE) as u64;
    let items: Vec<u64> = (0..n).map(|i| (i * 13) % n).collect();
    SimNetworkBuilder::new()
        .apx_config(ApxCountConfig::default().with_seed(77))
        .flat(flat)
        .shards(if flat { 2 } else { 1 })
        .partial_cache(cache)
        .build_one_per_node(&topo, &items, 2 * n)
        .unwrap()
}

fn pinned_batch() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Max(Domain::Raw),
        QuerySpec::Median,
        QuerySpec::Quantile { q: 0.5, eps: 0.1 },
        QuerySpec::BottomK { k: 4 },
        QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 4,
        },
        QuerySpec::ApxMedian2 {
            beta: 0.25,
            epsilon: 0.4,
        },
    ]
}

/// One line per answer; every `f64` prints as its bits.
fn pinned_answer(outcome: &Result<QueryOutcome, QueryError>) -> String {
    let bits = |v: f64| format!("{:#018x}", v.to_bits());
    match outcome {
        Ok(QueryOutcome::Est(v)) => format!("est {}", bits(*v)),
        Ok(QueryOutcome::ApxMedian2(o)) => {
            let stages: Vec<String> = o
                .trace
                .iter()
                .map(|t| {
                    format!(
                        "({} {} {} {} {} {})",
                        t.stage,
                        t.mu_hat,
                        bits(t.window_lo),
                        bits(t.window_hi),
                        bits(t.k),
                        t.apx_count_instances
                    )
                })
                .collect();
            format!(
                "apx median2 {} stages {} alpha {} beta {} instances {} trace {}",
                o.value,
                o.stages,
                bits(o.alpha_guarantee),
                bits(o.beta_guarantee),
                o.apx_count_instances,
                stages.join(" ")
            )
        }
        other => format!("{other:?}"),
    }
}

/// Submits [`pinned_batch`], drains it, and prints each report's answer,
/// bill and waves, then the engine's cumulative waves, rounds and
/// transmitted bits.
fn pinned_lines(engine: &mut StreamingEngine) -> Vec<String> {
    for s in pinned_batch() {
        engine.submit(s);
    }
    let reports = engine.run_until_idle().unwrap();
    let mut lines: Vec<String> = reports
        .iter()
        .map(|r| {
            let bits = r.report.bits;
            format!(
                "{} | req {} part {} shared {} | waves {}",
                pinned_answer(&r.report.outcome),
                bits.request_bits,
                bits.partial_bits,
                bits.shared_overhead_bits,
                r.report.waves
            )
        })
        .collect();
    lines.push(format!(
        "waves {} rounds {} tx {}",
        engine.waves_issued(),
        engine.rounds_executed(),
        engine.network().net_stats().unwrap().total_tx_bits()
    ));
    lines
}

/// The batch without caching.
const UNCACHED: [&str; 8] = [
    "Ok(Num(36)) | req 210 part 175 shared 151 | waves 1",
    "Ok(OptVal(Some(35))) | req 175 part 280 shared 151 | waves 1",
    "Ok(Median(MedianOutcome { value: 17, iterations: 6, countp_calls: 7 })) | req 3500 part 1329 shared 6871 | waves 9",
    "Ok(Quantile(QuantileOutcome { value: Some(17), rank_error: 0, count: 36, summary_len: 36 })) | req 665 part 2849 shared 151 | waves 1",
    "Ok(Values([34, 1, 23, 31])) | req 1435 part 8012 shared 151 | waves 1",
    "est 0x4044095b6c317172 | req 1610 part 54040 shared 151 | waves 1",
    "apx median2 15 stages 2 alpha 0x3ff75d75e2046c76 beta 0x3fd0000000000000 instances 1308 trace (1 3 0x4020000000000000 0x402e000000000000 0x4025cc12930d3d74 625) (2 6 0x402c6c2b4481cd85 0x402e000000000000 0x400e8dda88dfcd3a 1308) | req 21980 part 17584780 shared 14280 | waves 17",
    "waves 26 rounds 10 tx 17702950",
];

/// The batch with 16-entry subtree caches: the median's repeated
/// counts are served from cache.
const CACHED_FIRST: [&str; 8] = [
    "Ok(Num(36)) | req 210 part 175 shared 151 | waves 1",
    "Ok(OptVal(Some(35))) | req 175 part 280 shared 151 | waves 1",
    "Ok(Median(MedianOutcome { value: 17, iterations: 6, countp_calls: 7 })) | req 3325 part 1049 shared 6031 | waves 9",
    "Ok(Quantile(QuantileOutcome { value: Some(17), rank_error: 0, count: 36, summary_len: 36 })) | req 665 part 2849 shared 151 | waves 1",
    "Ok(Values([34, 1, 23, 31])) | req 1435 part 8012 shared 151 | waves 1",
    "est 0x4044095b6c317172 | req 1610 part 54040 shared 151 | waves 1",
    "apx median2 15 stages 2 alpha 0x3ff75d75e2046c76 beta 0x3fd0000000000000 instances 1308 trace (1 3 0x4020000000000000 0x402e000000000000 0x4025cc12930d3d74 625) (2 6 0x402c6c2b4481cd85 0x402e000000000000 0x400e8dda88dfcd3a 1308) | req 21980 part 17584780 shared 14280 | waves 17",
    "waves 26 rounds 10 tx 17701655",
];

/// The same batch again on the cached engine. The zoom ran last and
/// restored the items, which invalidated every cached partial, so the
/// repeat pays in full; only the fresh sketch nonces change answers.
const CACHED_REPEAT: [&str; 8] = [
    "Ok(Num(36)) | req 210 part 175 shared 151 | waves 1",
    "Ok(OptVal(Some(35))) | req 175 part 280 shared 151 | waves 1",
    "Ok(Median(MedianOutcome { value: 17, iterations: 6, countp_calls: 7 })) | req 3325 part 1049 shared 6031 | waves 9",
    "Ok(Quantile(QuantileOutcome { value: Some(17), rank_error: 0, count: 36, summary_len: 36 })) | req 665 part 2849 shared 151 | waves 1",
    "Ok(Values([34, 1, 23, 31])) | req 1435 part 8012 shared 151 | waves 1",
    "est 0x4042714b7116507b | req 1610 part 54040 shared 151 | waves 1",
    "apx median2 15 stages 2 alpha 0x3ff75d75e2046c76 beta 0x3fd0000000000000 instances 1308 trace (1 3 0x4020000000000000 0x402e000000000000 0x4024ee4a16d3b5fc 625) (2 6 0x402c6c2b4481cd85 0x402e000000000000 0x40094ece958216ea 1308) | req 21980 part 17584780 shared 14280 | waves 17",
    "waves 52 rounds 20 tx 35403310",
];

#[test]
fn closed_batch_bills_are_pinned() {
    // Nothing else pins per-query bills exactly: the other checks are
    // bounds and cross-mode equalities.
    for flat in [false, true] {
        let mut engine = StreamingEngine::new(pinned_net(flat, 0));
        assert_eq!(pinned_lines(&mut engine), UNCACHED, "uncached, flat {flat}");
        let mut engine = StreamingEngine::new(pinned_net(flat, 16));
        assert_eq!(
            pinned_lines(&mut engine),
            CACHED_FIRST,
            "cached, flat {flat}"
        );
        assert_eq!(
            pinned_lines(&mut engine),
            CACHED_REPEAT,
            "repeat, flat {flat}"
        );
    }
}
