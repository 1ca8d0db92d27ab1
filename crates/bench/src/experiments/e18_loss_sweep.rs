//! E18 — loss-rate × N sweep through the harness deployment policy.
//!
//! ISSUE-7's per-edge fate streams made lossy links a first-class
//! citizen of every runner: the fate of the n-th transmission over an
//! edge is a pure function of (master seed, edge id, frame class, n),
//! so the flat substrate bills retransmissions identically
//! to the boxed event loop. That lifts the old restriction that kept
//! lossy experiments on the single-threaded runner — this sweep is the
//! payoff: loss p ∈ {0, 0.05, 0.1, 0.2} × N up to 10⁵, every large-N
//! point routed through [`crate::deploy::builder_for`] onto the flat
//! columnar runner, measuring the retransmission overhead ARQ pays to
//! repair each loss rate.
//!
//! Claims checked:
//!
//! * **answers survive loss**: at every (N, p) the batched answers are
//!   identical to the lossless run's — stop-and-wait ARQ repairs every
//!   drop, so loss costs bits, never correctness;
//! * **overhead is monotone in p**: at each N, total transmitted bits
//!   never decrease as the loss rate grows;
//! * **routing**: the deployment policy sends lossy n ≥ 1024 through
//!   the flat substrate (the restriction E9/E14/E15 used to work
//!   around is gone).

use crate::deploy;
use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::engine::{QueryOutcome, QuerySpec};
use saq_core::net::AggregationNetwork;
use saq_core::predicate::{Domain, Predicate};
use saq_core::simnet::SimNetwork;
use saq_core::streaming::StreamingEngine;
use saq_netsim::link::LinkConfig;
use saq_netsim::sim::SimConfig;
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_protocols::wave::Reliability;

/// Loss rates swept at every N; the first row (p = 0, still under ARQ)
/// is the overhead baseline, so the reported factor isolates
/// *retransmission* cost from the fixed ACK/seq framing cost.
pub const LOSS_RATES: [f64; 4] = [0.0, 0.05, 0.1, 0.2];

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(n, loss p, total tx bits, overhead factor vs p = 0 at same n)`.
    pub points: Vec<(usize, f64, u64, f64)>,
    /// Every lossy run answered exactly what the lossless run answered.
    pub answers_survive_loss: bool,
    /// At each n, tx bits are non-decreasing in p.
    pub overhead_monotone: bool,
    /// Every lossy n ≥ `deploy::SHARD_THRESHOLD_NODES` deployment the
    /// sweep built reported the flat substrate as its runner.
    pub lossy_routed_flat: bool,
}

impl Summary {
    /// Retransmission overhead factor at the largest (n, p) point.
    pub fn max_overhead(&self) -> f64 {
        self.points.last().map(|&(_, _, _, f)| f).unwrap_or(1.0)
    }
}

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

/// One deployment through the shared harness policy, with `p > 0`
/// adding per-edge loss and stop-and-wait ARQ. The timeout clears the
/// flat runner's worst-case round-trip bound for the multiplexed
/// envelope by a wide margin, so the closed-form ARQ emulation accepts
/// it at every swept N.
fn deployment(n: usize, p: f64) -> SimNetwork {
    let topo = Topology::balanced_tree(n, 8).expect("tree");
    let mut b = deploy::builder_for(n)
        .max_children(8)
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(200),
        });
    if p > 0.0 {
        b = b.sim_config(
            SimConfig::default()
                .with_link(LinkConfig::default().with_loss(p))
                .with_seed(0xE18),
        );
    }
    b.build_one_per_node(&topo, &items(n), 1000).expect("net")
}

/// Runs one batched round and returns (answers, total tx bits, runner).
fn run_point(net: SimNetwork) -> (Vec<QueryOutcome>, u64, &'static str) {
    let mut engine = StreamingEngine::new(net);
    for s in specs() {
        engine.submit(s);
    }
    let answers: Vec<QueryOutcome> = engine
        .run_until_idle()
        .expect("engine run")
        .into_iter()
        .map(|r| r.report.outcome.expect("query ok"))
        .collect();
    let net = engine.into_network();
    let stats = net.net_stats().expect("stats");
    let tx: u64 = (0..stats.len()).map(|v| stats.node(v).tx_bits).sum();
    (answers, tx, net.runner_name())
}

/// Runs E18 and prints its table.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E18",
        "loss-rate sweep through the flat substrate",
        "per-edge fate streams: lossy + ARQ deployments route like lossless ones; overhead grows with p, answers never change",
    );
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_000, 10_000],
        Scale::Full => &[1_000, 10_000, 100_000],
    };
    println!(
        "N in {ns:?}, loss p in {LOSS_RATES:?}, {} batched queries, ARQ timeout 200 ms\n",
        specs().len()
    );

    let mut table = Table::new(&["N", "runner", "loss p", "tx bits", "overhead vs p=0"]);
    let mut points = Vec::new();
    let mut answers_survive_loss = true;
    let mut overhead_monotone = true;
    let mut lossy_routed_flat = true;
    for &n in ns {
        let mut baseline_answers: Vec<QueryOutcome> = Vec::new();
        let mut baseline_tx = 0u64;
        let mut prev_tx = 0u64;
        for &p in &LOSS_RATES {
            let (answers, tx, runner) = run_point(deployment(n, p));
            if p == 0.0 {
                baseline_answers = answers.clone();
                baseline_tx = tx;
            }
            answers_survive_loss &= answers == baseline_answers;
            overhead_monotone &= tx >= prev_tx;
            prev_tx = tx;
            if p > 0.0 && n >= deploy::SHARD_THRESHOLD_NODES {
                lossy_routed_flat &= runner == "flat";
            }
            let factor = tx as f64 / baseline_tx.max(1) as f64;
            table.row(&[
                n.to_string(),
                runner.to_string(),
                format!("{p:.2}"),
                tx.to_string(),
                format!("{}x", f3(factor)),
            ]);
            points.push((n, p, tx, factor));
        }
    }
    table.print();
    println!(
        "\nanswers survive loss: {answers_survive_loss}; overhead monotone in p: \
         {overhead_monotone}; lossy n >= {} routed flat: {lossy_routed_flat}",
        deploy::SHARD_THRESHOLD_NODES
    );

    Summary {
        points,
        answers_survive_loss,
        overhead_monotone,
        lossy_routed_flat,
    }
}
