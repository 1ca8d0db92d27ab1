//! E16 — columnar flat-tree substrate at scale.
//!
//! PR 6's flat runner (`SimNetworkBuilder::flat`) replaces the boxed
//! per-node state machines with struct-of-arrays columns over a
//! DFS-preorder index, and parallelises over a *nested* static
//! partition that re-cuts oversized subtrees at their own roots.
//! This experiment measures what that buys at deployment sizes the
//! boxed simulator cannot reach: query rounds per second and resident
//! memory as N sweeps 10³ → 10⁶, single-worker vs all-core.
//!
//! Claims checked:
//!
//! * at every N the flat substrate returns **answers bit-identical**
//!   to the boxed event-driven runner (spot-checked at the smallest N
//!   where the boxed runner is cheap: answers and the full per-node
//!   bit vector);
//! * multi-worker flat execution scales: rounds/sec at `workers =
//!   cores` beats `workers = 1` on multi-core hardware, with the
//!   nested partition (not the root's child count) setting the
//!   available parallelism;
//! * memory stays columnar-lean: the heap a deployment keeps grows
//!   near-linearly in N (per sweep point: live heap bytes with the
//!   network alive after its rounds, minus live heap bytes just before
//!   it was built — the larger of the two worker counts). The bytes
//!   come from the counting allocator of [`crate::heap`], so a row
//!   reads the same whichever experiments ran before it; a binary that
//!   does not install it prints "n/a".

use crate::heap::live_bytes;
use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::engine::{QueryOutcome, QuerySpec};
use saq_core::net::AggregationNetwork;
use saq_core::predicate::{Domain, Predicate};
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_core::streaming::StreamingEngine;
use saq_netsim::topology::Topology;
use std::time::Instant;

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(n, rounds/sec at 1 worker, rounds/sec at all cores, speedup)`.
    pub points: Vec<(usize, f64, f64, f64)>,
    /// Live heap growth in MiB of the largest sweep point (`None`
    /// without the counting allocator of [`crate::heap`]).
    pub heap_growth_mib: Option<f64>,
    /// Flat answers equal the boxed runner's at the spot-check N.
    pub answers_identical: bool,
    /// Flat per-node bit totals equal the boxed runner's (every node).
    pub bits_identical: bool,
    /// Hardware parallelism available to the run.
    pub cores: usize,
}

impl Summary {
    /// Speedup at the largest swept N (1.0 when nothing was measured).
    pub fn speedup_at_max_n(&self) -> f64 {
        self.points.last().map(|&(_, _, _, s)| s).unwrap_or(1.0)
    }
}

/// One shared-wave round: the engine batches the whole mixed list into
/// a single multiplexed broadcast–convergecast.
fn specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::Sum(Predicate::less_than(500)),
    ]
}

fn items(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 131) % 1000).collect()
}

fn deployment(n: usize, flat: bool, workers: usize) -> SimNetwork {
    let topo = Topology::balanced_tree(n, 8).expect("tree");
    SimNetworkBuilder::new()
        .max_children(8)
        .flat(flat)
        .shards(workers)
        .build_one_per_node(&topo, &items(n), 1000)
        .expect("net")
}

/// Runs `reps` timed rounds (after one untimed warm-up round, so page
/// faults and first-touch allocations are not billed to whichever
/// configuration happens to run first) and returns the outcomes of the
/// first timed round along with rounds per second.
fn run_rounds(net: SimNetwork, reps: usize) -> (Vec<QueryOutcome>, SimNetwork, f64) {
    let mut engine = StreamingEngine::new(net);
    for s in specs() {
        engine.submit(s);
    }
    engine.run_until_idle().expect("warm-up run");
    let mut first = Vec::new();
    let start = Instant::now();
    for rep in 0..reps {
        for s in specs() {
            engine.submit(s);
        }
        let reports = engine.run_until_idle().expect("engine run");
        if rep == 0 {
            first = reports
                .into_iter()
                .map(|r| r.report.outcome.expect("query ok"))
                .collect();
        }
    }
    let rounds_per_sec = reps as f64 / start.elapsed().as_secs_f64();
    (first, engine.into_network(), rounds_per_sec)
}

/// Flat deployment of `n` nodes on `workers`: its rounds per second
/// and the heap it kept, in MiB — live heap bytes with the network
/// still alive after its rounds minus live heap bytes just before it
/// was built (`None` without the counting allocator).
fn sweep_point(n: usize, workers: usize, reps: usize) -> (f64, Option<f64>) {
    let before = live_bytes();
    let (_, net, rounds_per_sec) = run_rounds(deployment(n, true, workers), reps);
    let grown = live_bytes()
        .zip(before)
        .map(|(after, before)| after.saturating_sub(before) as f64 / (1024.0 * 1024.0));
    drop(net);
    (rounds_per_sec, grown)
}

/// A memory figure for the table: "n/a" without the counting allocator.
fn mib(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".to_owned(), f3)
}

/// Runs E16 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E16",
        "columnar flat substrate at scale",
        "flat columns + nested sharding: bit-identical convergecast, near-linear core scaling, million-node reach",
    );
    let (ns, spot_n): (&[usize], usize) = match scale {
        Scale::Quick => (&[1_000, 10_000, 100_000], 1_000),
        Scale::Full => (&[1_000, 10_000, 100_000, 1_000_000], 1_000),
    };
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "N in {ns:?}, rounds of {} batched queries, {cores} cores\n",
        specs().len()
    );

    // Spot check: the flat substrate is an execution strategy, not a
    // semantics change — answers and the full per-node bit vector must
    // match the boxed event-driven runner.
    let reps_spot = 2;
    let (boxed_out, boxed_net, _) = run_rounds(deployment(spot_n, false, 1), reps_spot);
    let (flat_out, flat_net, _) = run_rounds(deployment(spot_n, true, cores), reps_spot);
    let answers_identical = boxed_out == flat_out;
    let boxed_stats = boxed_net.net_stats().expect("stats");
    let flat_stats = flat_net.net_stats().expect("stats");
    let bits_identical =
        (0..spot_n).all(|v| boxed_stats.node(v).total_bits() == flat_stats.node(v).total_bits());
    println!(
        "spot check at N = {spot_n}: answers identical: {answers_identical}; \
         per-node bits identical: {bits_identical}\n"
    );

    let mut table = Table::new(&[
        "N",
        "rounds/s (1 worker)",
        &format!("rounds/s ({cores} workers)"),
        "speedup",
        "heap growth (MiB)",
    ]);
    let mut points = Vec::new();
    let mut grown = None;
    for &n in ns {
        // Keep every sweep point to a comparable wall-clock budget.
        let reps = (400_000 / n).clamp(2, 16);
        let (rps_one, grown_one) = sweep_point(n, 1, reps);
        let (rps_all, grown_all) = sweep_point(n, cores, reps);
        let speedup = rps_all / rps_one;
        grown = grown_one.zip(grown_all).map(|(one, all)| one.max(all));
        table.row(&[
            n.to_string(),
            f3(rps_one),
            f3(rps_all),
            format!("{}x", f3(speedup)),
            mib(grown),
        ]);
        points.push((n, rps_one, rps_all, speedup));
    }
    table.print();
    println!(
        "\nanswers identical: {answers_identical}; per-node bits identical: {bits_identical}; \
         heap growth at N = {} {} MiB",
        ns[ns.len() - 1],
        mib(grown)
    );
    if cores < 2 {
        println!("(single core available: wall-clock speedup is hardware-bound)");
    }

    Summary {
        points,
        heap_growth_mib: grown,
        answers_identical,
        bits_identical,
        cores,
    }
}
