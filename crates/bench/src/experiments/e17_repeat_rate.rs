//! E17 — repeat-rate vs. bits saved by subtree partial caching.
//!
//! The partial cache (PR 2) answers a repeated sub-request from stored
//! subtree partials, so its payoff depends entirely on how often a
//! workload repeats itself. This experiment makes that tradeoff a
//! table: over deployments of several sizes and two query mixes, a
//! fixed round schedule replays its base round at repeat rates 0–100%
//! (the other rounds issue round-unique predicates that can never hit),
//! and the table reports the paper's metric — max per-node bits — with
//! the cache off and on, plus the measured hit counters.
//!
//! Claims checked:
//!
//! * answers are identical with and without the cache at every rate;
//! * a workload with **no** repeats saves (essentially) nothing — the
//!   cache never changes what a miss costs on the wire;
//! * savings grow **monotonically** with the repeat rate for every
//!   `(N, mix)` cell, and an all-repeat workload saves a large
//!   fraction: repeated waves collapse to root-cached silence.

use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::engine::{QueryOutcome, QuerySpec};
use saq_core::net::AggregationNetwork;
use saq_core::predicate::{Domain, Predicate};
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_core::streaming::StreamingEngine;
use saq_netsim::topology::Topology;

/// Rounds per schedule: one cold base round plus `ROUNDS - 1` follow-up
/// rounds split between repeats and unique misses by the repeat rate.
const ROUNDS: usize = 9;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct Row {
    /// Deployment size.
    pub n: usize,
    /// Query-mix label.
    pub mix: &'static str,
    /// Percent of follow-up rounds that replay the base round.
    pub repeat_percent: usize,
    /// Max per-node bits over the whole schedule, cache disabled.
    pub uncached_bits: u64,
    /// Max per-node bits over the whole schedule, cache enabled.
    pub cached_bits: u64,
    /// `100 · (1 - cached/uncached)`.
    pub saved_percent: f64,
    /// Cache hits recorded across the network.
    pub hits: u64,
}

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Every measured cell, in sweep order.
    pub rows: Vec<Row>,
    /// Cached and uncached answers agreed in every cell.
    pub answers_identical: bool,
    /// Savings never decreased as the repeat rate rose, per (N, mix).
    pub monotone_in_rate: bool,
    /// The 0%-repeat cells saved no bits.
    pub zero_rate_free: bool,
}

impl Summary {
    /// Smallest saving among the all-repeat cells.
    pub fn min_full_rate_saving(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.repeat_percent == 100)
            .map(|r| r.saved_percent)
            .fold(f64::INFINITY, f64::min)
    }
}

fn mixes() -> Vec<(&'static str, Vec<QuerySpec>)> {
    vec![
        (
            "light",
            vec![
                QuerySpec::Count(Predicate::TRUE),
                QuerySpec::Min(Domain::Raw),
            ],
        ),
        (
            "heavy",
            vec![
                QuerySpec::Quantile { q: 0.5, eps: 0.1 },
                QuerySpec::BottomK { k: 16 },
                QuerySpec::Sum(Predicate::less_than(500)),
            ],
        ),
    ]
}

fn deployment(n: usize, cache: usize) -> SimNetwork {
    let topo = Topology::balanced_tree(n, 4).expect("tree");
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 131) % 1000).collect();
    SimNetworkBuilder::new()
        .partial_cache(cache)
        .build_one_per_node(&topo, &items, 1000)
        .expect("net")
}

/// A round that can never hit the cache: the same shape as the mix's
/// base round, but with round-unique parameters (thresholds, sample
/// capacities), so the with/without-cache comparison holds the workload
/// weight roughly constant across repeat rates.
fn unique_round(mix: &str, round: usize) -> Vec<QuerySpec> {
    let r = round as u64;
    match mix {
        "light" => vec![
            QuerySpec::Count(Predicate::less_than(501 + r)),
            QuerySpec::Sum(Predicate::less_than(601 + r)),
        ],
        _ => vec![
            QuerySpec::Quantile {
                q: 0.5,
                eps: 0.1 + 0.003 * round as f64,
            },
            QuerySpec::BottomK {
                k: 17 + round as u32,
            },
            QuerySpec::Sum(Predicate::less_than(601 + r)),
        ],
    }
}

/// Runs the schedule and returns all outcomes, the cumulative max
/// per-node bits, and the cache hits.
fn run_schedule(
    net: SimNetwork,
    mix: &str,
    base: &[QuerySpec],
    repeats: usize,
) -> (Vec<Vec<QueryOutcome>>, u64, u64) {
    let mut engine = StreamingEngine::new(net);
    let mut outcomes = Vec::new();
    for round in 0..ROUNDS {
        let specs: Vec<QuerySpec> = if round == 0 || round <= repeats {
            base.to_vec()
        } else {
            unique_round(mix, round)
        };
        for s in specs {
            engine.submit(s);
        }
        let reports = engine.run_until_idle().expect("engine run");
        outcomes.push(
            reports
                .into_iter()
                .map(|r| r.report.outcome.expect("query ok"))
                .collect(),
        );
    }
    let net = engine.into_network();
    let bits = net.net_stats().expect("stats").max_node_bits();
    let hits = net.cache_stats().hits;
    (outcomes, bits, hits)
}

/// Runs E17 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E17",
        "repeat rate vs cache savings",
        "partial caching is free for all-fresh workloads and collapses repeated waves toward silence",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[512, 2_048],
        Scale::Full => &[4_096, 32_768],
    };
    let rates: &[usize] = &[0, 25, 50, 75, 100];
    println!(
        "{} follow-up rounds per schedule, repeat rates {rates:?}%\n",
        ROUNDS - 1
    );

    let mut table = Table::new(&[
        "N",
        "mix",
        "repeat %",
        "bits (no cache)",
        "bits (cache)",
        "saved %",
        "hits",
    ]);
    let mut rows = Vec::new();
    let mut answers_identical = true;
    let mut monotone_in_rate = true;
    let mut zero_rate_free = true;
    for &n in ns {
        for (mix, base) in mixes() {
            let mut prev_saved = f64::NEG_INFINITY;
            for &rate in rates {
                let repeats = rate * (ROUNDS - 1) / 100;
                let (out_plain, uncached_bits, _) =
                    run_schedule(deployment(n, 0), mix, &base, repeats);
                let (out_cached, cached_bits, hits) =
                    run_schedule(deployment(n, 64), mix, &base, repeats);
                answers_identical &= out_plain == out_cached;
                let saved_percent = 100.0 * (1.0 - cached_bits as f64 / uncached_bits as f64);
                if rate == 0 {
                    zero_rate_free &= cached_bits == uncached_bits;
                }
                monotone_in_rate &= saved_percent >= prev_saved - 1e-9;
                prev_saved = saved_percent;
                table.row(&[
                    n.to_string(),
                    mix.to_string(),
                    rate.to_string(),
                    uncached_bits.to_string(),
                    cached_bits.to_string(),
                    f3(saved_percent),
                    hits.to_string(),
                ]);
                rows.push(Row {
                    n,
                    mix,
                    repeat_percent: rate,
                    uncached_bits,
                    cached_bits,
                    saved_percent,
                    hits,
                });
            }
        }
    }
    table.print();
    println!(
        "\nanswers identical: {answers_identical}; savings monotone in repeat rate: \
         {monotone_in_rate}; zero-repeat workloads free: {zero_rate_free}"
    );

    Summary {
        rows,
        answers_identical,
        monotone_in_rate,
        zero_rate_free,
    }
}
