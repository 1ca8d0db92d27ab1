//! E14 — online streaming service: arrival-rate × admission-window
//! sweep.
//!
//! The closed-batch engine of E12 assumes every query is known up
//! front; the streaming engine ([`StreamingEngine`]) is the long-running
//! service that admits queries *between* rounds. This experiment drives
//! deterministic Poisson-ish arrival schedules through the service loop
//! and reports, per arrival rate and [`AdmissionPolicy`], the mean/max
//! **latency in rounds** and mean **bits per query** — against the
//! oracle lower bound (every arrival known up front, one closed batch:
//! maximum wave sharing, horizon-scale latency).
//!
//! Claims checked:
//!
//! * the service completes ≥ 1000 rounds with a **flat transport
//!   footprint** — retiring queries and purging per-wave transport state
//!   keeps memory bounded on an unbounded round stream (the per-wave
//!   seq epoching of PR 3 plus slot retirement);
//! * no admission policy beats the **oracle's bits/query** (sharing can
//!   only grow as admission windows coarsen toward the full batch);
//! * per-round admission achieves the **lowest mean latency** of the
//!   swept policies.

use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::engine::QuerySpec;
use saq_core::predicate::{Domain, Predicate};
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_core::streaming::{AdmissionPolicy, ServiceStats, StreamingEngine, StreamingReport};
use saq_netsim::topology::Topology;

/// One sweep point's service-level measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Arrivals per 100 rounds.
    pub rate_percent: u32,
    /// Human label of the admission policy.
    pub policy: &'static str,
    /// Queries retired over the horizon.
    pub retired: u64,
    /// Mean latency in rounds.
    pub mean_latency: f64,
    /// Worst latency in rounds.
    pub max_latency: u64,
    /// Mean total bits billed per query.
    pub bits_per_query: f64,
    /// Rounds the service executed.
    pub rounds: u64,
}

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Every measured sweep point.
    pub rows: Vec<Row>,
    /// `(rate, oracle bits/query)` closed-batch lower bounds.
    pub oracle_bits: Vec<(u32, f64)>,
    /// Whether the transport footprint stayed flat (== the steady
    /// cache-resident level) at every between-round observation.
    pub footprint_flat: bool,
    /// Longest streaming run's round count (the ≥ 1000 acceptance bar).
    pub max_rounds: u64,
    /// Whether no streaming policy undercut its rate's oracle
    /// bits/query.
    pub oracle_cheapest: bool,
    /// Whether per-round admission had the lowest mean latency at every
    /// rate.
    pub every_round_lowest_latency: bool,
    /// Whether, under the deadline policy, every query was admitted
    /// within its declared slack — the per-query latency bound
    /// deadline-aware windows buy inside a coarse admission window.
    pub deadline_queueing_bounded: bool,
}

/// Deterministic "Poisson-ish" arrival schedule: `lcg(t)` decides
/// whether a query arrives at round `t`, i.i.d.-looking at `rate%` per
/// round but exactly reproducible across policies.
fn arrives(t: u64, rate_percent: u32, salt: u64) -> bool {
    let mut x = t
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    (x % 100) < u64::from(rate_percent)
}

/// The rotating query mix: mostly single-wave aggregates with a
/// recurring multi-round median, the service workload the batching
/// engine was built for.
fn spec_for(ordinal: usize) -> QuerySpec {
    match ordinal % 6 {
        0 => QuerySpec::Count(Predicate::TRUE),
        1 => QuerySpec::Min(Domain::Raw),
        2 => QuerySpec::Quantile { q: 0.5, eps: 0.2 },
        3 => QuerySpec::Sum(Predicate::less_than(64)),
        4 => QuerySpec::Median,
        _ => QuerySpec::BottomK { k: 4 },
    }
}

fn deployment() -> SimNetwork {
    let topo = Topology::grid(7, 7).expect("grid");
    let items: Vec<u64> = (0..49u64).map(|i| (i * 37) % 128).collect();
    SimNetworkBuilder::new()
        .build_one_per_node(&topo, &items, 128)
        .expect("net")
}

struct StreamOutcome {
    reports: Vec<StreamingReport>,
    rounds: u64,
    footprint_flat: bool,
}

/// Drives one streaming run: submissions per the arrival schedule over
/// `horizon` rounds, then a drain, checking the transport footprint
/// between rounds throughout. With `deadline_slack` set, every
/// submission carries an admission deadline `slack` rounds out —
/// the per-query knob that pulls it through a closed window.
fn run_stream(
    policy: AdmissionPolicy,
    rate: u32,
    horizon: u64,
    deadline_slack: Option<u64>,
) -> StreamOutcome {
    let mut engine =
        StreamingEngine::with_policy(deployment(), saq_core::engine::BatchPolicy::Batched, policy);
    let mut reports = Vec::new();
    let mut footprint_flat = true;
    let mut submitted = 0usize;
    for t in 0..horizon {
        if arrives(t, rate, 0xE14) {
            match deadline_slack {
                Some(slack) => {
                    engine.submit_with_deadline(spec_for(submitted), t + slack);
                }
                None => {
                    engine.submit(spec_for(submitted));
                }
            }
            submitted += 1;
        }
        reports.extend(engine.step().expect("streaming round"));
        // Between rounds the transport holds nothing but the
        // (capacity-bounded, here disabled) cache: a growing footprint
        // would be the unbounded-memory bug the epoched transport
        // prevents.
        if engine.network().transport_footprint().total() != 0 {
            footprint_flat = false;
        }
    }
    reports.extend(engine.run_until_idle().expect("drain"));
    if engine.network().transport_footprint().total() != 0 {
        footprint_flat = false;
    }
    StreamOutcome {
        reports,
        rounds: engine.rounds_executed(),
        footprint_flat,
    }
}

/// The oracle: every query of the horizon known up front, one closed
/// batch — the bits/query floor that maximal wave sharing sets.
fn run_oracle(rate: u32, horizon: u64) -> f64 {
    let mut engine = StreamingEngine::new(deployment());
    let mut submitted = 0usize;
    for t in 0..horizon {
        if arrives(t, rate, 0xE14) {
            engine.submit(spec_for(submitted));
            submitted += 1;
        }
    }
    if submitted == 0 {
        return 0.0;
    }
    let reports = engine.run_until_idle().expect("oracle batch");
    let total: u64 = ServiceStats::total_bits(&reports);
    total as f64 / reports.len() as f64
}

/// Runs E14 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E14",
        "online streaming service",
        "mid-flight admission trades rounds of latency for shared-wave bits; memory stays flat over 1000+ rounds",
    );
    let (horizon, rates): (u64, &[u32]) = match scale {
        Scale::Quick => (1100, &[10, 40]),
        Scale::Full => (4000, &[5, 20, 60]),
    };
    /// Deadline slack (rounds) for the deadline-aware window policy.
    const DL_SLACK: u64 = 6;
    let policies: &[(&'static str, AdmissionPolicy, Option<u64>)] = &[
        ("every-round", AdmissionPolicy::EveryRound, None),
        ("window-4", AdmissionPolicy::Window(4), None),
        ("window-16", AdmissionPolicy::Window(16), None),
        // The same coarse window, but every query carries a 6-round
        // admission deadline: latency is bounded per query while wave
        // sharing inside the slack is kept.
        ("win16+dl6", AdmissionPolicy::Window(16), Some(DL_SLACK)),
        ("when-idle", AdmissionPolicy::WhenIdle, None),
    ];
    println!("N = 49, horizon = {horizon} rounds, arrival rates {rates:?}%/round\n");

    let mut table = Table::new(&[
        "rate%",
        "policy",
        "retired",
        "mean lat (rounds)",
        "max lat",
        "bits/query",
        "rounds",
    ]);
    let mut rows = Vec::new();
    let mut oracle_bits = Vec::new();
    let mut footprint_flat = true;
    let mut max_rounds = 0;
    let mut oracle_cheapest = true;
    let mut every_round_lowest_latency = true;
    let mut deadline_queueing_bounded = true;

    for &rate in rates {
        let oracle = run_oracle(rate, horizon);
        let mut every_round_latency = f64::INFINITY;
        let mut rate_rows = Vec::new();
        for (label, policy, slack) in policies {
            let out = run_stream(*policy, rate, horizon, *slack);
            let stats = ServiceStats::from_reports(&out.reports);
            footprint_flat &= out.footprint_flat;
            max_rounds = max_rounds.max(out.rounds);
            if let Some(slack) = slack {
                deadline_queueing_bounded &=
                    out.reports.iter().all(|r| r.queueing_rounds() <= *slack);
            }
            if stats.mean_bits_per_query < oracle - 1e-9 {
                oracle_cheapest = false;
            }
            if *label == "every-round" {
                every_round_latency = stats.mean_latency_rounds;
            }
            rate_rows.push(Row {
                rate_percent: rate,
                policy: label,
                retired: stats.retired,
                mean_latency: stats.mean_latency_rounds,
                max_latency: stats.max_latency_rounds,
                bits_per_query: stats.mean_bits_per_query,
                rounds: out.rounds,
            });
        }
        for r in &rate_rows {
            if r.mean_latency + 1e-9 < every_round_latency {
                every_round_lowest_latency = false;
            }
            table.row(&[
                r.rate_percent.to_string(),
                r.policy.to_string(),
                r.retired.to_string(),
                f3(r.mean_latency),
                r.max_latency.to_string(),
                f3(r.bits_per_query),
                r.rounds.to_string(),
            ]);
        }
        table.row(&[
            rate.to_string(),
            "oracle-batch".into(),
            "-".into(),
            format!("~{horizon}"),
            "-".into(),
            f3(oracle),
            "-".into(),
        ]);
        oracle_bits.push((rate, oracle));
        rows.extend(rate_rows);
    }
    table.print();
    println!(
        "\ntransport footprint flat across every between-round observation: {footprint_flat}; \
         longest run {max_rounds} rounds"
    );
    println!(
        "oracle (one closed batch) sets the bits/query floor: {oracle_cheapest}; \
         per-round admission sets the latency floor: {every_round_lowest_latency}; \
         deadline queries admitted within their {DL_SLACK}-round slack: {deadline_queueing_bounded}"
    );

    Summary {
        rows,
        oracle_bits,
        footprint_flat,
        max_rounds,
        oracle_cheapest,
        every_round_lowest_latency,
        deadline_queueing_bounded,
    }
}
