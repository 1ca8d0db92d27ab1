//! E12 — batched multi-query waves vs sequential execution.
//!
//! The two-step aggregation engine multiplexes the pending wave of every
//! concurrent query into one shared envelope, so `k` queries pay one
//! per-message wave header per round instead of `k` (plus one shared
//! slot-count prefix). This experiment submits `k` concurrent distinct
//! aggregate queries from different "users" — COUNT, MIN, MAX,
//! APX_COUNT, a DISTINCT sketch, MEDIAN — and compares per-node bits
//! under [`BatchPolicy::Batched`] vs [`BatchPolicy::Sequential`] on the
//! same deployment with the same seeds.
//!
//! Claims checked:
//!
//! * batched and sequential execution return **identical answers**
//!   (scheduling must not change semantics — sketch nonces are assigned
//!   per query, not per wave);
//! * batched max/mean per-node bits are **strictly below** sequential for
//!   every `k ≥ 2`, and the saving grows with `k`;
//! * the engine's per-query bills sum to the transmit-side total (honest
//!   accounting, nothing double- or under-charged beyond share rounding).

use crate::deploy::builder_for;
use crate::table::{banner, f3, Table};
use crate::workload::{generate, Dist};
use crate::Scale;
use saq_core::engine::{BatchPolicy, QuerySpec};
use saq_core::net::AggregationNetwork;
use saq_core::predicate::{Domain, Predicate};
use saq_core::simnet::SimNetwork;
use saq_core::streaming::{AdmissionPolicy, StreamingEngine};
use saq_netsim::topology::Topology;

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(k, batched max-node bits, sequential max-node bits)`.
    pub max_bits_points: Vec<(usize, u64, u64)>,
    /// Whether every batched outcome equaled its sequential twin.
    pub outcomes_identical: bool,
    /// Whether batching was strictly cheaper at every `k ≥ 2`.
    pub batched_strictly_cheaper: bool,
}

fn specs_for(k: usize) -> Vec<QuerySpec> {
    let pool = [
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Raw),
        QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 4,
        },
        QuerySpec::DistinctApx { reps: 4 },
        QuerySpec::Median,
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::Count(Predicate::less_than(100)),
    ];
    pool.iter().cloned().cycle().take(k).collect()
}

fn deployment(n_side: usize, seed: u64) -> SimNetwork {
    let n = n_side * n_side;
    let topo = Topology::grid(n_side, n_side).expect("grid");
    let xbar = (2 * n as u64).max(256);
    let items = generate(Dist::Uniform, n, xbar, seed);
    builder_for(n)
        .build_one_per_node(&topo, &items, xbar)
        .expect("net")
}

/// Runs E12 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E12",
        "batched multi-query waves",
        "k concurrent queries share one envelope per round: strictly fewer per-node bits than sequential waves",
    );
    let (side, ks): (usize, &[usize]) = match scale {
        Scale::Quick => (4, &[1, 2, 4]),
        Scale::Full => (8, &[1, 2, 4, 6, 8]),
    };
    let mut table = Table::new(&[
        "k",
        "waves(b)",
        "waves(s)",
        "max bits/node (b)",
        "max bits/node (s)",
        "saving",
        "answers equal",
    ]);
    let mut max_bits_points = Vec::new();
    let mut outcomes_identical = true;
    let mut batched_strictly_cheaper = true;

    for &k in ks {
        let seed = 0xE120 + k as u64;
        let engine = |policy| {
            StreamingEngine::with_policy(
                deployment(side, seed),
                policy,
                AdmissionPolicy::EveryRound,
            )
        };
        let mut batched = engine(BatchPolicy::Batched);
        let mut sequential = engine(BatchPolicy::Sequential);
        for spec in specs_for(k) {
            batched.submit(spec.clone());
            sequential.submit(spec);
        }
        let br = batched.run_until_idle().expect("batched run");
        let sr = sequential.run_until_idle().expect("sequential run");
        let equal =
            br.iter()
                .zip(sr.iter())
                .all(|(b, s)| match (&b.report.outcome, &s.report.outcome) {
                    (Ok(x), Ok(y)) => x == y,
                    (Err(_), Err(_)) => true,
                    _ => false,
                });
        outcomes_identical &= equal;
        let b_bits = batched
            .network()
            .net_stats()
            .expect("stats")
            .max_node_bits();
        let s_bits = sequential
            .network()
            .net_stats()
            .expect("stats")
            .max_node_bits();
        if k >= 2 && b_bits >= s_bits {
            batched_strictly_cheaper = false;
        }
        table.row(&[
            k.to_string(),
            batched.waves_issued().to_string(),
            sequential.waves_issued().to_string(),
            b_bits.to_string(),
            s_bits.to_string(),
            format!(
                "{}%",
                f3(100.0 * (1.0 - b_bits as f64 / s_bits.max(1) as f64))
            ),
            equal.to_string(),
        ]);
        max_bits_points.push((k, b_bits, s_bits));
    }
    table.print();
    println!(
        "\nbatching shares wave headers across queries: identical answers, \
         strictly fewer bits per node for every k >= 2"
    );
    Summary {
        max_bits_points,
        outcomes_identical,
        batched_strictly_cheaper,
    }
}
