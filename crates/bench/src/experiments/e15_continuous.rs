//! E15 — continuous aggregates: update-rate × refresh-period sweep.
//!
//! A standing query re-asked every `k` rounds should not pay a fresh
//! convergecast when almost nothing changed — the whole point of the
//! standing queries of [`FleetService`]. This experiment
//! registers a standing query mix, drives deterministic sensor-update
//! schedules at a swept **update rate** (fraction of nodes whose item
//! changes per refresh period), and reports the mean **bits per refresh
//! cycle** against the **fresh-convergecast oracle** (the same spec mix
//! answered by one batched wave on an uncached network — what every
//! cycle would cost without the subsystem).
//!
//! Claims checked:
//!
//! * at **0% updates** a warm refresh cycle moves **0 bits** — every
//!   subtree partial is served from cache, the network stays silent;
//! * at every swept rate the cycle cost stays **strictly below the
//!   oracle**: exact-delta aggregates (COUNT/SUM/MIN/bottom-k) absorb
//!   updates in cache and never re-convergecast, and the quantile slot
//!   pays only its *dirty paths*;
//! * cycle cost is **monotone in the update rate** (update sets are
//!   nested by construction), collapsing toward 0 as updates sparsify;
//! * every refresh answers exactly what a fresh convergecast would
//!   (spot-checked per cycle via the standing COUNT's exact answer).

use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::engine::{QueryEngine, QueryOutcome, QuerySpec};
use saq_core::predicate::{Domain, Predicate};
use saq_core::service::{FleetService, RefreshStagger};
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_netsim::topology::Topology;

const N: usize = 85;
const XBAR: u64 = 128;

/// One sweep point's measurements.
#[derive(Debug, Clone)]
pub struct Row {
    /// Nodes updated per refresh period, in percent of the network.
    pub rate_percent: u32,
    /// Refresh period in rounds.
    pub period: u64,
    /// Warm refresh cycles measured (the cold first cycle is excluded).
    pub cycles: u64,
    /// Mean total bits per warm refresh cycle (all standing queries).
    pub bits_per_cycle: f64,
    /// Cache entries updated in place by delta maintenance.
    pub deltas_applied: u64,
    /// Cache entries invalidated (the loud fallback, e.g. quantile
    /// value changes).
    pub deltas_invalidated: u64,
}

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Every measured sweep point.
    pub rows: Vec<Row>,
    /// Bits one fresh batched convergecast of the spec mix costs (the
    /// per-cycle ceiling).
    pub oracle_bits: u64,
    /// Whether every 0%-rate warm cycle moved zero bits.
    pub zero_rate_is_free: bool,
    /// Whether every swept cycle cost stayed strictly below the oracle.
    pub always_below_oracle: bool,
    /// Whether cycle cost was monotone non-decreasing in the update
    /// rate at every period.
    pub monotone_in_rate: bool,
    /// Whether every refresh answered correctly (exact COUNT == N and
    /// certified quantile bounds honored).
    pub answers_exact: bool,
}

/// The standing mix: two exact-delta aggregates, an identity-keyed
/// sample, and a GK quantile (the invalidation-fallback path).
fn standing_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Sum(Predicate::less_than(64)),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::BottomK { k: 6 },
        QuerySpec::Quantile { q: 0.5, eps: 0.2 },
    ]
}

fn base_items() -> Vec<u64> {
    (0..N as u64).map(|i| (i * 37) % XBAR).collect()
}

fn deployment(cache: usize) -> SimNetwork {
    let topo = Topology::balanced_tree(N, 4).expect("tree");
    let mut builder = SimNetworkBuilder::new().max_children(4);
    if cache > 0 {
        builder = builder.partial_cache(cache);
    }
    builder
        .build_one_per_node(&topo, &base_items(), XBAR)
        .expect("net")
}

/// Deterministic mixing (the E14 LCG, re-salted).
fn mix(x: u64, salt: u64) -> u64 {
    let mut x = x
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(salt)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x
}

/// A fixed shuffled node order; updating the first `⌈rate·N⌉` nodes of
/// it makes the update sets **nested across rates** — the monotonicity
/// claim is then about the mechanism, not schedule luck.
fn update_order() -> Vec<usize> {
    let mut order: Vec<usize> = (0..N).collect();
    order.sort_by_key(|&v| mix(v as u64, 0xE15));
    order
}

/// The oracle: one fresh batched convergecast of the whole mix on an
/// uncached network — what every refresh cycle would cost without the
/// continuous subsystem.
fn oracle_cycle_bits() -> u64 {
    let mut engine = QueryEngine::new(deployment(0));
    for spec in standing_mix() {
        engine.submit(spec);
    }
    let reports = engine.run().expect("oracle batch");
    reports.iter().map(|r| r.bits.total()).sum()
}

struct SweepOutcome {
    row: Row,
    zero_free: bool,
    answers_exact: bool,
}

fn run_sweep(rate_percent: u32, period: u64, cycles: u64) -> SweepOutcome {
    let mut engine = FleetService::with_stagger(deployment(64), RefreshStagger::None);
    for spec in standing_mix() {
        engine.register(spec, period).expect("register");
    }
    let order = update_order();
    let updated = (rate_percent as usize * N).div_ceil(100);
    let mut items = base_items();
    let mut warm_bits: Vec<u64> = Vec::new();
    let mut zero_free = true;
    let mut answers_exact = true;
    for cycle in 0..cycles {
        if cycle > 0 {
            // Apply this period's sensor updates before the refresh.
            for &node in order.iter().take(updated) {
                items[node] = mix(node as u64 + cycle * 1009, 0xF00D) % XBAR;
                engine
                    .update_items(node, vec![items[node]])
                    .expect("update");
            }
        }
        let out = engine.run_rounds(period).expect("refresh rounds");
        let mix_len = standing_mix().len();
        assert_eq!(out.refreshes.len(), mix_len, "one refresh per standing");
        let cycle_bits: u64 = out.refreshes.iter().map(|r| r.slot_bits.total()).sum();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        for r in &out.refreshes {
            match &r.outcome {
                Ok(QueryOutcome::Num(n)) if r.slot == 0 => {
                    // The standing COUNT is exact: any drift means a
                    // stale cache served the refresh.
                    answers_exact &= *n == N as u64;
                }
                Ok(QueryOutcome::Quantile(q)) => {
                    // The standing median must honor its certified bound
                    // against ground truth, and the certificate must
                    // stay within the ε it was provisioned for.
                    let v = q.value.expect("nonempty network");
                    let target = q.count.div_ceil(2);
                    let lo = sorted.iter().filter(|&&x| x < v).count() as u64 + 1;
                    let hi = (sorted.iter().filter(|&&x| x <= v).count() as u64).max(lo);
                    answers_exact &= q.count == N as u64
                        && lo <= target + q.rank_error
                        && hi + q.rank_error >= target
                        && q.rank_error as f64 <= 0.2 * q.count as f64;
                }
                Ok(_) => {}
                Err(e) => panic!("refresh failed: {e}"),
            }
        }
        if cycle > 0 {
            warm_bits.push(cycle_bits);
            if rate_percent == 0 && cycle_bits != 0 {
                zero_free = false;
            }
        }
    }
    let cache = engine.network().cache_stats();
    let mean = warm_bits.iter().sum::<u64>() as f64 / warm_bits.len().max(1) as f64;
    SweepOutcome {
        row: Row {
            rate_percent,
            period,
            cycles: warm_bits.len() as u64,
            bits_per_cycle: mean,
            deltas_applied: cache.delta_applied,
            deltas_invalidated: cache.delta_invalidated,
        },
        zero_free,
        answers_exact,
    }
}

/// Runs E15 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E15",
        "continuous aggregates",
        "standing queries delta-answered from maintained subtree partials: bits/refresh collapses toward 0 as updates sparsify",
    );
    let (cycles, rates, periods): (u64, &[u32], &[u64]) = match scale {
        Scale::Quick => (12, &[0, 5, 25, 100], &[2, 8]),
        Scale::Full => (40, &[0, 2, 10, 25, 50, 100], &[2, 5, 16]),
    };
    let oracle = oracle_cycle_bits();
    println!(
        "N = {N}, standing mix = {} queries, {cycles} cycles/point, \
         fresh-convergecast oracle = {oracle} bits/cycle\n",
        standing_mix().len()
    );

    let mut table = Table::new(&[
        "rate%",
        "period",
        "cycles",
        "bits/cycle",
        "vs oracle",
        "deltas applied",
        "invalidated",
    ]);
    let mut rows = Vec::new();
    let mut zero_rate_is_free = true;
    let mut always_below_oracle = true;
    let mut monotone_in_rate = true;
    let mut answers_exact = true;

    for &period in periods {
        let mut prev_bits = -1.0f64;
        for &rate in rates {
            let out = run_sweep(rate, period, cycles);
            zero_rate_is_free &= out.zero_free;
            answers_exact &= out.answers_exact;
            always_below_oracle &= out.row.bits_per_cycle < oracle as f64;
            if out.row.bits_per_cycle + 1e-9 < prev_bits {
                monotone_in_rate = false;
            }
            prev_bits = out.row.bits_per_cycle;
            table.row(&[
                rate.to_string(),
                period.to_string(),
                out.row.cycles.to_string(),
                f3(out.row.bits_per_cycle),
                format!("{:.1}%", 100.0 * out.row.bits_per_cycle / oracle as f64),
                out.row.deltas_applied.to_string(),
                out.row.deltas_invalidated.to_string(),
            ]);
            rows.push(out.row);
        }
    }
    table.print();
    println!(
        "\n0%-rate warm cycles are free: {zero_rate_is_free}; every cycle below the \
         fresh-convergecast oracle: {always_below_oracle}; monotone in rate: {monotone_in_rate}; \
         refresh answers exact: {answers_exact}"
    );

    Summary {
        rows,
        oracle_bits: oracle,
        zero_rate_is_free,
        always_below_oracle,
        monotone_in_rate,
        answers_exact,
    }
}
