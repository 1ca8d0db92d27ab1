//! Direct property coverage of [`BatchPolicy`] (ISSUE-4): until now the
//! policies were exercised only implicitly by E12 and the engine tests.
//! For random query mixes — zooming `APX_MEDIAN2` included — every
//! policy must return identical answers in both the closed-batch and
//! streaming engines, and exclusive (item-mutating) queries must never
//! share a wave with readers under any policy or mode (observed through
//! the telemetry spine's slot events, not inferred from bit totals).

use proptest::prelude::*;
use saq::core::engine::{BatchPolicy, QueryId, QueryOutcome, QuerySpec};
use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{AdmissionPolicy, StreamingEngine};
use saq::core::ApxCountConfig;
use saq::core::QueryError;
use saq::netsim::topology::Topology;
use saq::obs::{Event, EventLog, VecRecorder};

fn deployment(seed: u64) -> SimNetwork {
    let topo = Topology::grid(5, 5).unwrap();
    let items: Vec<u64> = (0..25u64).map(|i| (i * 19 + seed) % 50).collect();
    SimNetworkBuilder::new()
        .apx_config(ApxCountConfig::default().with_seed(0xBA7C + seed))
        .build_one_per_node(&topo, &items, 50)
        .unwrap()
}

/// An engine over [`deployment`] with a recorder attached, plus the
/// recorder's log.
fn recorded_engine(
    seed: u64,
    policy: BatchPolicy,
    admission: AdmissionPolicy,
) -> (StreamingEngine, EventLog) {
    let mut net = deployment(seed);
    let (recorder, log) = VecRecorder::shared();
    net.attach_recorder(Box::new(recorder));
    (StreamingEngine::with_policy(net, policy, admission), log)
}

/// Each wave's participating query ids, in slot order, read off the
/// telemetry spine: a wave's `SlotAdmitted` events precede its
/// `WaveStarted`.
fn waves_of(log: &EventLog) -> Vec<Vec<QueryId>> {
    let (mut waves, mut slots) = (Vec::new(), Vec::new());
    for ev in log.events() {
        match ev {
            Event::SlotAdmitted { query, .. } => slots.push(query as QueryId),
            Event::WaveStarted { .. } => waves.push(std::mem::take(&mut slots)),
            _ => {}
        }
    }
    waves
}

/// Mix generator including the exclusive zooming query (code 9).
fn spec_from(code: u64) -> QuerySpec {
    match code % 10 {
        0 => QuerySpec::Count(Predicate::TRUE),
        1 => QuerySpec::Count(Predicate::less_than(code % 50)),
        2 => QuerySpec::Sum(Predicate::TRUE),
        3 => QuerySpec::Min(Domain::Raw),
        4 => QuerySpec::Max(Domain::Raw),
        5 => QuerySpec::DistinctExact,
        6 => QuerySpec::Quantile { q: 0.5, eps: 0.2 },
        7 => QuerySpec::BottomK {
            k: 1 + (code % 5) as u32,
        },
        8 => QuerySpec::Median,
        _ => QuerySpec::ApxMedian2 {
            beta: 0.25,
            epsilon: 0.4,
        },
    }
}

fn is_exclusive(spec: &QuerySpec) -> bool {
    matches!(spec, QuerySpec::ApxMedian2 { .. })
}

/// Every wave containing an exclusive query's id must be that query
/// alone — zoom stages own the item state.
fn assert_zoom_isolation(
    log: &[Vec<QueryId>],
    exclusive: &[QueryId],
    mode: &str,
) -> Result<(), String> {
    for wave in log {
        for ex in exclusive {
            if wave.contains(ex) && wave.len() != 1 {
                return Err(format!(
                    "{mode}: exclusive query {ex} shared a wave with {wave:?}"
                ));
            }
        }
    }
    Ok(())
}

type Outcomes = Vec<(QuerySpec, Result<QueryOutcome, QueryError>)>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_policies_agree_and_exclusives_never_share_waves(
        seed in 0u64..500,
        codes in proptest::collection::vec(0u64..1000, 1..7),
        window in 1u32..5,
    ) {
        // At least one exclusive query in every case: the isolation rule
        // must actually be exercised, not vacuously true.
        let mut specs: Vec<QuerySpec> = codes.iter().map(|&c| spec_from(c)).collect();
        specs.push(QuerySpec::ApxMedian2 { beta: 0.3, epsilon: 0.5 });

        let mut baseline: Option<Outcomes> = None;
        for policy in [BatchPolicy::Batched, BatchPolicy::Sequential] {
            // Closed-batch mode.
            let (mut batch, batch_log) =
                recorded_engine(seed, policy, AdmissionPolicy::EveryRound);
            let mut exclusive_ids = Vec::new();
            for s in &specs {
                let id = batch.submit(s.clone());
                if is_exclusive(s) {
                    exclusive_ids.push(id);
                }
            }
            let breports = batch.run_until_idle().unwrap();
            prop_assert!(assert_zoom_isolation(
                &waves_of(&batch_log),
                &exclusive_ids,
                &format!("batch/{policy:?}"),
            ).is_ok());
            let bout: Outcomes = breports
                .into_iter()
                .map(|r| (r.report.spec, r.report.outcome))
                .collect();

            // Streaming mode, staggered submissions through a window.
            let (mut stream, stream_log) =
                recorded_engine(seed, policy, AdmissionPolicy::Window(window));
            let mut exclusive_ids = Vec::new();
            let mut sreports = Vec::new();
            for s in &specs {
                let id = stream.submit(s.clone());
                if is_exclusive(s) {
                    exclusive_ids.push(id);
                }
                sreports.extend(stream.step().unwrap());
            }
            sreports.extend(stream.run_until_idle().unwrap());
            prop_assert!(assert_zoom_isolation(
                &waves_of(&stream_log),
                &exclusive_ids,
                &format!("streaming/{policy:?}"),
            ).is_ok());
            sreports.sort_by_key(|r| r.report.id);
            let sout: Outcomes = sreports
                .into_iter()
                .map(|r| (r.report.spec, r.report.outcome))
                .collect();

            // Identical answers across BOTH policies and BOTH modes:
            // scheduling and admission are pure cost decisions.
            prop_assert_eq!(&bout, &sout, "batch vs streaming under {:?}", policy);
            match &baseline {
                None => baseline = Some(bout),
                Some(want) => prop_assert_eq!(want, &bout, "policy changed answers"),
            }
        }
    }
}

#[test]
fn sequential_policy_issues_one_wave_per_op() {
    // Direct (non-property) BatchPolicy coverage: Sequential must put
    // every sub-request in its own wave; Batched must multiplex all
    // single-wave queries into one.
    let specs = [
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::BottomK { k: 3 },
    ];
    for (policy, want_waves) in [(BatchPolicy::Batched, 1), (BatchPolicy::Sequential, 3)] {
        let (mut engine, events) = recorded_engine(1, policy, AdmissionPolicy::EveryRound);
        for s in &specs {
            engine.submit(s.clone());
        }
        engine.run_until_idle().unwrap();
        assert_eq!(
            engine.waves_issued(),
            want_waves,
            "wave count under {policy:?}"
        );
        let log = waves_of(&events);
        assert_eq!(log.len() as u64, want_waves);
        match policy {
            BatchPolicy::Batched => assert_eq!(log[0], vec![0, 1, 2]),
            BatchPolicy::Sequential => {
                for (i, wave) in log.iter().enumerate() {
                    assert_eq!(wave, &vec![i], "each op rides alone");
                }
            }
        }
    }
}

#[test]
fn streaming_sequential_policy_matches_batched_answers_with_cache() {
    // Policies must also agree when subtree caches are live (cache keys
    // are policy-independent).
    let build = || {
        let topo = Topology::grid(4, 4).unwrap();
        let items: Vec<u64> = (0..16u64).map(|i| (i * 7) % 32).collect();
        SimNetworkBuilder::new()
            .partial_cache(16)
            .build_one_per_node(&topo, &items, 32)
            .unwrap()
    };
    let run = |policy| {
        let mut engine = StreamingEngine::with_policy(build(), policy, AdmissionPolicy::EveryRound);
        // Two admission windows with a repeat, so the second run rides
        // the cache under either policy.
        engine.submit(QuerySpec::Count(Predicate::TRUE));
        engine.submit(QuerySpec::Quantile { q: 0.5, eps: 0.2 });
        let mut reports = engine.run_until_idle().unwrap();
        engine.submit(QuerySpec::Count(Predicate::TRUE));
        reports.extend(engine.run_until_idle().unwrap());
        reports
            .into_iter()
            .map(|r| (r.report.id, r.report.outcome.unwrap()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(BatchPolicy::Batched), run(BatchPolicy::Sequential));
}
