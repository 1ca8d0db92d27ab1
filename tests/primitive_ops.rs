//! The sequential primitives, pinned: every primitive the root can
//! invoke, run one at a time on the in-memory network and on the
//! simulated one (boxed and flat runners), with every answer — sketch
//! estimates bit for bit — and every simulated op's bit bill fixed.
//! `complexity_envelopes` checks only bounds and `cross_validation` only
//! agreement between the networks; this suite catches any change to
//! what a single primitive returns or costs.

use saq::core::local::LocalNetwork;
use saq::core::net::AggregationNetwork;
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
    let topo = Topology::grid(SIDE, SIDE).unwrap();
    SimNetworkBuilder::new()
        .flat(flat)
        .build_one_per_node(&topo, &items(), XBAR)
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
