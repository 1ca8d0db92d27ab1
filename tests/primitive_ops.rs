//! The sequential primitives, pinned: every primitive the root can
//! invoke, run one at a time on the in-memory network and on the
//! simulated one (boxed and flat runners), with every answer — sketch
//! estimates bit for bit — and every simulated op's bit bill fixed.
//! `complexity_envelopes` checks only bounds and `cross_validation` only
//! agreement between the networks; this suite catches any change to
//! what a single primitive returns or costs. It also states the
//! properties of the two comparators E7 runs as single requests: the
//! GK summary (`Quantile`) and bottom-k sampling (`BottomK`).

use saq::core::local::LocalNetwork;
use saq::core::model::{rank_lt, reference_median};
use saq::core::net::AggregationNetwork;
use saq::core::plan::{run_plan, QuantileOutcome, QuantilePlan};
use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::netsim::rng::Xoshiro256StarStar;
use saq::netsim::topology::Topology;

const SIDE: usize = 4;
const XBAR: u64 = 1000;

/// Sixteen seeded values in `[0, 400)`, some repeated.
fn items() -> Vec<u64> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x5EED_0015);
    (0..SIDE * SIDE)
        .map(|_| (rng.next_u64() % 40) * 10)
        .collect()
}

fn sim(flat: bool) -> SimNetwork {
    grid(SIDE, &items(), XBAR, flat)
}

/// A `side × side` grid holding `items`, one per node.
fn grid(side: usize, items: &[u64], xbar: u64, flat: bool) -> SimNetwork {
    let topo = Topology::grid(side, side).unwrap();
    SimNetworkBuilder::new()
        .flat(flat)
        .build_one_per_node(&topo, items, xbar)
        .unwrap()
}

fn local() -> LocalNetwork {
    LocalNetwork::new(items(), XBAR).unwrap()
}

/// Runs every primitive once, in a fixed order (zoom last but one, then
/// a count that sees the zoomed items), returning one line per op with
/// `bill(net)` appended when it has one. Estimates print as their `f64`
/// bits; collected values print sorted (the answer is a multiset).
fn run_every_primitive<N: AggregationNetwork>(
    net: &mut N,
    bill: impl Fn(&N) -> Option<(u64, u64)>,
) -> Vec<String> {
    let est = |v: f64| format!("{:#018x}", v.to_bits());
    let mut answers = Vec::new();
    let mut push = |net: &N, answer: String| {
        answers.push(match bill(net) {
            Some((tx, max)) => format!("{answer} | tx {tx} max {max}"),
            None => answer,
        });
    };
    let a = net.count(&Predicate::less_than(200)).unwrap();
    push(net, format!("count {a}"));
    let a = net.sum(&Predicate::TRUE).unwrap();
    push(net, format!("sum {a}"));
    let a = net.min(Domain::Raw).unwrap();
    push(net, format!("min {a:?}"));
    let a = net.max(Domain::Log).unwrap();
    push(net, format!("max log {a:?}"));
    let a = net.rep_apx_count(&Predicate::less_than(300), 4).unwrap();
    push(net, format!("apx count {}", est(a)));
    let a = net.distinct_exact().unwrap();
    push(net, format!("distinct {a}"));
    let a = net.distinct_apx(8).unwrap();
    push(net, format!("distinct apx {}", est(a)));
    let mut a = net.collect_values().unwrap();
    a.sort_unstable();
    push(net, format!("collect {a:?}"));
    let s = net.quantile_summary(3).unwrap();
    let a = (
        s.count(),
        s.len(),
        s.max_rank_error(),
        s.query_quantile(0.5),
    );
    push(net, format!("quantile {a:?}"));
    let a = net.bottom_k(5).unwrap();
    push(net, format!("bottom-k {a:?}"));
    net.zoom(8).unwrap();
    push(net, "zoom".to_string());
    let a = net.count(&Predicate::TRUE).unwrap();
    push(net, format!("count after zoom {a}"));
    answers
}

/// Cumulative `(total_tx_bits, max_node_bits)` of a simulated network.
fn sim_bill(net: &SimNetwork) -> Option<(u64, u64)> {
    let stats = net.net_stats().unwrap();
    Some((stats.total_tx_bits(), stats.max_node_bits()))
}

const LOCAL: &[&str] = &[
    "count 6",
    "sum 3910",
    "min Some(10)",
    "max log Some(8)",
    "apx count 0x4021adc6e50549fc",
    "distinct 12",
    "distinct apx 0x402743b06493e5d9",
    "collect [10, 60, 100, 180, 190, 190, 200, 250, 250, 320, 330, 350, 360, 360, 380, 380]",
    "quantile (16, 4, 2, Some(190))",
    "bottom-k [250, 330, 200, 190, 100]",
    "zoom",
    "count after zoom 7",
];

const SIM: &[&str] = &[
    "count 6 | tx 648 max 136",
    "sum 3910 | tx 1375 max 285",
    "min Some(10) | tx 1975 max 405",
    "max log Some(8) | tx 2485 max 507",
    "apx count 0x4021adc6e50549fc | tx 26860 max 5382",
    "distinct 12 | tx 27852 max 5650",
    "distinct apx 0x40287626f32f388d | tx 75072 max 15094",
    "collect [10, 60, 100, 180, 190, 190, 200, 250, 250, 320, 330, 350, 360, 360, 380, 380] | tx 76071 max 15363",
    "quantile (16, 4, 3, Some(190)) | tx 77584 max 15748",
    "bottom-k [250, 330, 200, 190, 100] | tx 81916 max 16939",
    "zoom | tx 82396 max 17035",
    "count after zoom 7 | tx 82891 max 17134",
];

#[test]
fn local_primitives_are_pinned() {
    assert_eq!(run_every_primitive(&mut local(), |_| None), LOCAL);
}

#[test]
fn sim_primitives_and_bits_are_pinned_on_both_runners() {
    for flat in [false, true] {
        let answers = run_every_primitive(&mut sim(flat), sim_bill);
        assert_eq!(answers, SIM, "flat({flat})");
    }
}

#[test]
fn op_counts_agree_across_networks() {
    // One of every op, on every network: the counters mean the same
    // thing everywhere (only REP_COUNTP instances are APX_COUNT
    // instances; an approximate distinct count is a distinct op).
    let mut l = local();
    run_every_primitive(&mut l, |_| None);
    for flat in [false, true] {
        let mut s = sim(flat);
        run_every_primitive(&mut s, sim_bill);
        assert_eq!(l.op_counts(), s.op_counts(), "flat({flat})");
    }
    let c = l.op_counts();
    assert_eq!((c.rep_countp_ops, c.apx_count_instances), (1, 4));
    assert_eq!(c.distinct_ops, 2);
}

/// A batch request outside the parameter bounds is a typed error on
/// both runners — `reps: u32::MAX` once aborted the process allocating
/// its sketches, `reps: 0` silently estimated 0 — and the network then
/// answers the next request as if nothing had happened.
#[test]
fn out_of_range_requests_are_rejected_on_both_runners() {
    use saq::core::wave_proto::CoreRequest;
    for flat in [false, true] {
        let mut net = sim(flat);
        for reps in [u32::MAX, 0] {
            let apx = CoreRequest::ApxCount {
                pred: Predicate::TRUE,
                reps,
                nonce: 1,
            };
            let distinct = CoreRequest::DistinctApx { reps, nonce: 1 };
            for req in [apx, distinct] {
                let got = net.run_batch(vec![req.clone()]);
                assert!(got.is_err(), "flat({flat}) {req:?}");
            }
        }
        let count = net.count(&Predicate::less_than(200)).unwrap();
        assert_eq!(count, 6, "flat({flat})");
    }
}

/// `value`'s rank interval `[rank_lt(value), rank_lt(value + 1)]` in
/// `items` lies within `err` of the rank `target`.
fn within_rank_error(items: &[u64], value: u64, target: u64, err: u64) -> bool {
    rank_lt(items, value) <= target + err && rank_lt(items, value + 1) + err >= target
}

/// Runs `check` on the boxed and flat simulated networks and on the
/// in-memory one, all holding `items` on a `side × side` grid.
fn on_every_network(
    side: usize,
    items: &[u64],
    xbar: u64,
    check: impl Fn(&mut dyn AggregationNetwork, &str),
) {
    for flat in [false, true] {
        check(&mut grid(side, items, xbar, flat), &format!("flat({flat})"));
    }
    check(
        &mut LocalNetwork::new(items.to_vec(), xbar).unwrap(),
        "local",
    );
}

/// The GK comparator (one `Quantile` convergecast, read as
/// [`QuantilePlan`] reads it): the median lies within the root summary's
/// certified rank error.
#[test]
fn gk_median_lies_within_its_certified_rank_error() {
    let items: Vec<u64> = (0..64).map(|i| i * 37 % 1000).collect();
    on_every_network(8, &items, 1000, |net, on| {
        let summary = net.quantile_summary(16).unwrap();
        let (value, err) = (
            summary.query_quantile(0.5).unwrap(),
            summary.max_rank_error(),
        );
        let target = (items.len() as u64).div_ceil(2);
        assert!(
            within_rank_error(&items, value, target, err),
            "{on}: median {value} vs rank {target} ± {err}"
        );
    });
}

/// A larger prune budget certifies no larger error and costs more bits
/// at the busiest node.
#[test]
fn a_larger_gk_budget_gives_no_larger_error_and_more_bits() {
    let items: Vec<u64> = (0..64).map(|i| i * 37 % 1000).collect();
    for flat in [false, true] {
        let run = |budget| {
            let mut net = grid(8, &items, 1000, flat);
            let out = run_plan(&mut net, &mut QuantilePlan::new(0.5, budget).unwrap()).unwrap();
            (out.rank_error, net.net_stats().unwrap().max_node_bits())
        };
        let (small_err, small_bits) = run(8);
        let (large_err, large_bits) = run(64);
        assert!(large_err <= small_err, "flat({flat})");
        assert!(large_bits > small_bits, "flat({flat})");
    }
}

/// One summary convergecast answers every quantile within its certified
/// rank error.
#[test]
fn all_quantiles_come_from_one_gk_pass() {
    let items: Vec<u64> = (0..36).map(|i| i * 37 % 1000).collect();
    let n = items.len() as u64;
    on_every_network(6, &items, 1000, |net, on| {
        let summary = net.quantile_summary(32).unwrap();
        let err = summary.max_rank_error();
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let got = summary.query_quantile(phi).unwrap();
            let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
            assert!(
                within_rank_error(&items, got, target, err),
                "{on} phi={phi}: value {got} vs rank {target} ± {err}"
            );
        }
    });
}

/// The bottom-k comparator (one `BottomK` convergecast): the sample
/// median lies within `3·n/√k` of rank `n/2`.
#[test]
fn the_sample_median_lies_near_the_median() {
    let n = 256u64;
    let items: Vec<u64> = (0..n).map(|i| i * 97 % 1024).collect();
    on_every_network(16, &items, 1024, |net, on| {
        let median = reference_median(&net.bottom_k(64).unwrap()).unwrap();
        // Rank error ~ n/√k = 32; allow 3×.
        let rank = rank_lt(&items, median);
        assert!(
            rank.abs_diff(n / 2) < 96,
            "{on}: sample median {median} at rank {rank}"
        );
    });
}

/// A larger sample costs more bits at the busiest node.
#[test]
fn a_larger_sample_costs_more_bits() {
    let items: Vec<u64> = (0..64).map(|v| v * 3).collect();
    for flat in [false, true] {
        let bits = |k| {
            let mut net = grid(8, &items, 1024, flat);
            net.bottom_k(k).unwrap();
            net.net_stats().unwrap().max_node_bits()
        };
        assert!(bits(64) > bits(8), "flat({flat})");
    }
}

/// The boxed, flat and in-memory networks, holding no item.
fn empty_networks() -> (SimNetwork, SimNetwork, LocalNetwork) {
    let topo = Topology::line(3).unwrap();
    let sim = |flat| {
        SimNetworkBuilder::new()
            .flat(flat)
            .build(&topo, vec![vec![]; 3], 10)
            .unwrap()
    };
    (
        sim(false),
        sim(true),
        LocalNetwork::new(vec![], 10).unwrap(),
    )
}

/// The GK comparator reads no median off an empty network.
#[test]
fn an_empty_network_has_no_gk_median() {
    let (mut boxed, mut flat, mut local) = empty_networks();
    let plan = || QuantilePlan::new(0.5, 8).unwrap();
    let outs = [
        run_plan(&mut boxed, &mut plan()),
        run_plan(&mut flat, &mut plan()),
        run_plan(&mut local, &mut plan()),
    ];
    let none = QuantileOutcome {
        value: None,
        rank_error: 0,
        count: 0,
        summary_len: 0,
    };
    for out in outs {
        assert_eq!(out.unwrap(), none);
    }
}

/// The sampling comparator draws an empty sample, which has no median.
#[test]
fn an_empty_network_has_no_sample_median() {
    let (mut boxed, mut flat, mut local) = empty_networks();
    for net in [
        &mut boxed as &mut dyn AggregationNetwork,
        &mut flat,
        &mut local,
    ] {
        assert_eq!(reference_median(&net.bottom_k(8).unwrap()), None);
    }
}
