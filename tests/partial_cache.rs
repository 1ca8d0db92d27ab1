//! End-to-end tests of subtree partial caching (ISSUE-2): cached
//! re-merges must be indistinguishable from fresh convergecasts except
//! in bits spent, and `Zoom` / item mutation must invalidate.

use proptest::prelude::*;
use saq::core::engine::{QueryOutcome, QueryReport, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{StreamingEngine, StreamingReport};
use saq::core::ApxCountConfig;
use saq::netsim::topology::Topology;

/// The report of query `id` — an engine that ran earlier batches hands
/// out engine-lifetime ids, so a later batch looks its reports up.
fn report_of(reports: &[StreamingReport], id: usize) -> &QueryReport {
    &reports.iter().find(|r| r.report.id == id).unwrap().report
}

fn deployment(seed: u64, cache: usize) -> SimNetwork {
    let topo = Topology::grid(5, 5).unwrap();
    let items: Vec<u64> = (0..25u64).map(|i| (i * 19) % 50).collect();
    SimNetworkBuilder::new()
        .apx_config(ApxCountConfig::default().with_seed(seed))
        .partial_cache(cache)
        .build_one_per_node(&topo, &items, 50)
        .unwrap()
}

fn query_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Count(Predicate::less_than(25)),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::DistinctExact,
        QuerySpec::Quantile { q: 0.5, eps: 0.1 },
        QuerySpec::BottomK { k: 6 },
    ]
}

/// Runs the same specs through a fresh engine on `net`, returning the
/// outcomes and the per-node max bits spent by this run alone.
fn run_specs(net: SimNetwork, specs: &[QuerySpec]) -> (Vec<QueryOutcome>, u64, SimNetwork) {
    let mut engine = StreamingEngine::new(net);
    engine.network_mut().reset_stats();
    for s in specs {
        engine.submit(s.clone());
    }
    let reports = engine.run_until_idle().unwrap();
    let outcomes = reports
        .into_iter()
        .map(|r| r.report.outcome.expect("deterministic query succeeds"))
        .collect();
    let net = engine.into_network();
    let bits = net.net_stats().unwrap().max_node_bits();
    (outcomes, bits, net)
}

#[test]
fn cached_repeat_equals_fresh_convergecast_and_is_cheaper() {
    let specs = query_mix();
    // Uncached baseline: two identical runs, identical cost each.
    let (fresh1, cold_bits, net) = run_specs(deployment(7, 0), &specs);
    let (fresh2, repeat_uncached_bits, _) = run_specs(net, &specs);
    assert_eq!(fresh1, fresh2, "deterministic mix repeats identically");
    assert_eq!(cold_bits, repeat_uncached_bits);

    // Cached: first run pays (roughly) the cold cost, the repeat is
    // answered from the root's cache at strictly lower — here zero —
    // cost, with identical answers.
    let (cached1, _, net) = run_specs(deployment(7, 64), &specs);
    let (cached2, repeat_cached_bits, net) = run_specs(net, &specs);
    assert_eq!(cached1, fresh1, "caching must not change cold answers");
    assert_eq!(cached2, fresh1, "cached re-merge must equal fresh run");
    assert!(
        repeat_cached_bits < repeat_uncached_bits,
        "cached repeat {repeat_cached_bits} !< uncached {repeat_uncached_bits}"
    );
    assert_eq!(
        repeat_cached_bits, 0,
        "an identical repeat is fully served by the root cache"
    );
    assert!(net.cache_stats().hits >= specs.len() as u64);
}

#[test]
fn zoom_invalidates_cached_partials() {
    let mut net = deployment(3, 64);
    let before = net.count(&Predicate::TRUE).unwrap();
    assert_eq!(before, 25);
    // Zoom into octave 4 (values 16..=31): items outside deactivate, so a
    // cached pre-zoom count would be stale.
    net.zoom(4).unwrap();
    let after = net.count(&Predicate::TRUE).unwrap();
    let truth = net.ground_truth().len() as u64;
    assert_eq!(after, truth, "post-zoom count must not be served stale");
    assert!(after < before);
    // Quantile summaries over the rescaled items are rebuilt too.
    let s = net.quantile_summary(8).unwrap();
    assert_eq!(s.count(), truth);
}

#[test]
fn item_restoration_invalidates_cached_partials() {
    let mut net = deployment(5, 64);
    assert_eq!(net.count(&Predicate::TRUE).unwrap(), 25);
    net.zoom(4).unwrap();
    let zoomed = net.count(&Predicate::TRUE).unwrap();
    assert!(zoomed < 25);
    // restore_items replaces every node's items (the set_items path):
    // all caches — including the just-cached zoomed count — must drop.
    net.restore_items();
    assert_eq!(net.count(&Predicate::TRUE).unwrap(), 25);
    assert_eq!(net.sum(&Predicate::TRUE).unwrap(), {
        (0..25u64).map(|i| (i * 19) % 50).sum::<u64>()
    });
}

#[test]
fn cache_survives_between_engine_runs_with_mixed_queries() {
    // Second engine run adds a NEW query to a repeated one: the repeat
    // rides the cache while the newcomer pays a (reduced) wave.
    let mut engine = StreamingEngine::new(deployment(11, 64));
    let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let reports = engine.run_until_idle().unwrap();
    assert_eq!(
        report_of(&reports, count).outcome,
        Ok(QueryOutcome::Num(25))
    );

    engine.network_mut().reset_stats();
    let repeat = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let newcomer = engine.submit(QuerySpec::Sum(Predicate::TRUE));
    let reports = engine.run_until_idle().unwrap();
    let (repeat, newcomer) = (report_of(&reports, repeat), report_of(&reports, newcomer));
    assert_eq!(repeat.outcome, Ok(QueryOutcome::Num(25)));
    assert!(matches!(newcomer.outcome, Ok(QueryOutcome::Num(_))));
    // The repeated count contributed no request/partial bits: only the
    // new sum traveled.
    assert_eq!(repeat.bits.request_bits, 0);
    assert_eq!(repeat.bits.partial_bits, 0);
    assert!(newcomer.bits.request_bits > 0);
    assert!(newcomer.bits.partial_bits > 0);
}

#[test]
fn fresh_nonce_sketches_do_not_pollute_the_cache() {
    // ApxCount draws a fresh nonce per invocation, so its partials can
    // never be re-used; they must not be inserted at all, or they would
    // evict the repeatable entries from the bounded per-node caches.
    let topo = Topology::grid(5, 5).unwrap();
    let items: Vec<u64> = (0..25u64).map(|i| (i * 19) % 50).collect();
    let net = SimNetworkBuilder::new()
        .partial_cache(1) // tiny cache: one eviction would evict Count
        .build_one_per_node(&topo, &items, 50)
        .unwrap();
    let mut engine = StreamingEngine::new(net);
    engine.submit(QuerySpec::Count(Predicate::TRUE));
    engine.run_until_idle().unwrap();
    // Interleave fresh-nonce sketch queries...
    for _ in 0..3 {
        engine.submit(QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 2,
        });
        engine.run_until_idle().unwrap();
    }
    // ...and the repeated count still rides the cache.
    engine.network_mut().reset_stats();
    let repeat = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let reports = engine.run_until_idle().unwrap();
    let repeat = report_of(&reports, repeat);
    assert_eq!(repeat.outcome, Ok(QueryOutcome::Num(25)));
    assert_eq!(repeat.bits.total(), 0, "count evicted from cache");
    assert_eq!(engine.network().cache_stats().evictions, 0);
}

#[test]
fn cache_survives_across_streaming_admission_windows() {
    // ISSUE-4 regression: the cross-run cache persistence above must
    // extend to the streaming service loop — a warm-cache repeat
    // submitted in a *later admission window* costs 0 payload bits.
    use saq::core::streaming::AdmissionPolicy;

    let mut engine = StreamingEngine::with_policy(
        deployment(13, 64),
        saq::core::engine::BatchPolicy::Batched,
        AdmissionPolicy::Window(4),
    );
    // Window 1 (round 0): the cold count pays the convergecast.
    let cold = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let mut reports = engine.run_until_idle().unwrap();
    let cold_rep = &reports[0];
    assert_eq!(cold_rep.report.id, cold);
    assert_eq!(cold_rep.report.outcome, Ok(QueryOutcome::Num(25)));
    assert!(cold_rep.report.bits.partial_bits > 0);

    // An idle round passes; the repeat arrives mid-stream (round 2,
    // inside the window) and must wait for the round-4 admission.
    assert!(engine.step().unwrap().is_empty());
    let repeat = engine.submit(QuerySpec::Count(Predicate::TRUE));
    let newcomer = engine.submit(QuerySpec::Sum(Predicate::TRUE));
    reports = engine.run_until_idle().unwrap();
    let by_id = |id, rs: &[saq::core::streaming::StreamingReport]| {
        rs.iter()
            .find(|r| r.report.id == id)
            .cloned()
            .expect("retired")
    };
    let repeat_rep = by_id(repeat, &reports);
    let newcomer_rep = by_id(newcomer, &reports);
    assert!(
        repeat_rep.admitted_round > repeat_rep.submitted_round,
        "the repeat really waited for a later admission window"
    );
    assert_eq!(repeat_rep.report.outcome, Ok(QueryOutcome::Num(25)));
    // The warm repeat moved no payload: the root's cache answered it.
    assert_eq!(repeat_rep.report.bits.request_bits, 0);
    assert_eq!(repeat_rep.report.bits.partial_bits, 0);
    // The newcomer sharing its wave still paid a real (reduced) wave.
    assert!(newcomer_rep.report.bits.request_bits > 0);
    assert!(newcomer_rep.report.bits.partial_bits > 0);
    assert!(engine.network().cache_stats().hits > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Property: for any deterministic query mix, a cached re-merge
    // (second run over a warm cache) returns exactly what a fresh
    // convergecast over an identical cold network returns.
    #[test]
    fn prop_cached_remerge_equals_fresh(
        seed in 0u64..1000,
        thresholds in proptest::collection::vec(0u64..50, 1..5),
        k in 1u32..12,
    ) {
        let mut specs: Vec<QuerySpec> = thresholds
            .iter()
            .map(|&t| QuerySpec::Count(Predicate::less_than(t)))
            .collect();
        specs.push(QuerySpec::BottomK { k });
        specs.push(QuerySpec::Quantile { q: 0.25, eps: 0.2 });

        // Warm a cached network with one run, then re-run.
        let (_, _, warm) = run_specs(deployment(seed, 64), &specs);
        let (cached, cached_bits, _) = run_specs(warm, &specs);
        // Fresh cold network, no cache.
        let (fresh, fresh_bits, _) = run_specs(deployment(seed, 0), &specs);
        prop_assert_eq!(cached, fresh);
        prop_assert!(cached_bits < fresh_bits.max(1));
    }
}
