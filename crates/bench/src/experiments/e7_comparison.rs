//! E7 — the §1 comparison: who wins, and by how much.
//!
//! The paper's introduction positions its two algorithms against the
//! naive holistic collection, the Greenwald–Khanna one-pass summaries
//! \[4\], the sampling synopses of Nath et al. \[10\] and the gossip
//! bound of Kempe et al. \[6\]. This experiment runs all of them on the
//! same deployments and tabulates max per-node bits and achieved rank
//! error, reproducing the qualitative ordering:
//!
//! * exact: MEDIAN (Fig. 1) ≪ naive collection;
//! * approximate: APX_MEDIAN2 ≪ sampling ≤ GK ≪ naive, with gossip
//!   paying its diffusion-speed penalty on poorly-mixing topologies.

use crate::deploy::builder_for;
use crate::table::{banner, f3, Table};
use crate::workload::{generate, Dist};
use crate::Scale;
use saq_baselines::gk_tree::GkTreeMedian;
use saq_baselines::gossip::GossipMedian;
use saq_baselines::naive::NaiveMedian;
use saq_baselines::sampling::SamplingMedian;
use saq_core::model::rank_lt;
use saq_core::net::AggregationNetwork;
use saq_core::{ApxCountConfig, ApxMedian, ApxMedian2, Median};
use saq_netsim::sim::SimConfig;
use saq_netsim::topology::Topology;

/// One protocol's row for one configuration.
#[derive(Debug, Clone)]
pub struct ProtocolRow {
    /// Protocol label.
    pub name: &'static str,
    /// Network size.
    pub n: usize,
    /// Max per-node bits.
    pub bits: u64,
    /// |rank(answer) − N/2| / N.
    pub rank_err: f64,
}

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// All rows.
    pub rows: Vec<ProtocolRow>,
}

fn rank_error(items: &[u64], value: u64) -> f64 {
    let n = items.len() as f64;
    let lo = rank_lt(items, value) as f64;
    let hi = rank_lt(items, value + 1) as f64;
    // Distance from the target rank to the answer's rank interval.
    let target = n / 2.0;
    if target >= lo && target <= hi {
        0.0
    } else {
        (lo - target).abs().min((hi - target).abs()) / n
    }
}

/// Runs E7 and prints its tables.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E7",
        "single-median cost across protocols (the §1 comparison)",
        "det MEDIAN << naive; APX_MEDIAN2 << sampling <= GK << naive; gossip pays mixing",
    );
    let sides: &[usize] = match scale {
        Scale::Quick => &[8, 16],
        Scale::Full => &[8, 16, 32, 64],
    };
    let mut rows: Vec<ProtocolRow> = Vec::new();
    let mut table = Table::new(&["N", "protocol", "bits/node", "rank_err", "exact?"]);

    for &side in sides {
        let n = side * side;
        let xbar = (n as u64 * n as u64).max(4096);
        let topo = Topology::grid(side, side).expect("grid");
        let items = generate(Dist::Uniform, n, xbar, 0xE7_00 + n as u64);
        let per_node: Vec<Vec<u64>> = items.iter().map(|&v| vec![v]).collect();

        let mut push = |name: &'static str, bits: u64, value: u64, rows: &mut Vec<ProtocolRow>| {
            let err = rank_error(&items, value);
            table.row(&[
                n.to_string(),
                name.into(),
                bits.to_string(),
                f3(err),
                if err == 0.0 {
                    "yes".into()
                } else {
                    "-".to_string()
                },
            ]);
            rows.push(ProtocolRow {
                name,
                n,
                bits,
                rank_err: err,
            });
        };

        // Naive holistic collection.
        {
            let mut net = builder_for(n)
                .build_one_per_node(&topo, &items, xbar)
                .expect("net");
            let out = NaiveMedian::new().run(&mut net).expect("naive");
            push("naive-collect", out.max_node_bits, out.value, &mut rows);
        }
        // Deterministic MEDIAN (Fig. 1).
        {
            let mut net = builder_for(n)
                .build_one_per_node(&topo, &items, xbar)
                .expect("net");
            let out = Median::new().run(&mut net).expect("median");
            push(
                "median-fig1",
                net.net_stats().expect("stats").max_node_bits(),
                out.value,
                &mut rows,
            );
        }
        // GK-style one-pass summaries.
        {
            let out = GkTreeMedian::new(24)
                .run(&topo, SimConfig::default(), per_node.clone(), xbar)
                .expect("gk");
            push("gk-tree", out.base.max_node_bits, out.base.value, &mut rows);
        }
        // Bottom-k sampling.
        {
            let out = SamplingMedian::new(32, 0xE7)
                .run(&topo, SimConfig::default(), per_node.clone(), xbar)
                .expect("sampling");
            push("sampling", out.max_node_bits, out.value, &mut rows);
        }
        // APX_MEDIAN (Fig. 2) with moderate eps.
        {
            let mut net = builder_for(n)
                .apx_config(ApxCountConfig {
                    rep_search: 2.0,
                    rep_count: 1.0,
                    ..ApxCountConfig::default().with_b(4).with_seed(0xE7)
                })
                .build_one_per_node(&topo, &items, xbar)
                .expect("net");
            let out = ApxMedian::new(0.25)
                .expect("eps")
                .run(&mut net)
                .expect("apx");
            push(
                "apx-median",
                net.net_stats().expect("stats").max_node_bits(),
                out.value,
                &mut rows,
            );
        }
        // APX_MEDIAN2 (Fig. 4).
        {
            let mut net = builder_for(n)
                .apx_config(ApxCountConfig {
                    rep_search: 2.0,
                    rep_count: 1.0,
                    ..ApxCountConfig::default().with_b(4).with_seed(0xE7)
                })
                .build_one_per_node(&topo, &items, xbar)
                .expect("net");
            let out = ApxMedian2::new(0.05, 0.25)
                .expect("params")
                .run(&mut net)
                .expect("apx2");
            push(
                "apx-median2",
                net.net_stats().expect("stats").max_node_bits(),
                out.value,
                &mut rows,
            );
        }
        // Gossip (diffusion-limited on grids).
        if n <= 1024 {
            let rounds = GossipMedian::rounds_for(&topo).min(2_000);
            let out = GossipMedian::new(rounds)
                .run(&topo, SimConfig::default(), &items, xbar)
                .expect("gossip");
            push("gossip", out.max_node_bits, out.value, &mut rows);
        }
    }
    table.print();

    // Crossover extrapolation: fit each protocol's shape and report where
    // the asymptotically cheaper protocol overtakes — the paper's claims
    // are asymptotic, and with its constants the crossovers land beyond
    // simulatable N.
    let fit_for = |name: &str, shape: crate::Shape| -> f64 {
        let pts: Vec<&ProtocolRow> = rows.iter().filter(|r| r.name == name).collect();
        let xs: Vec<f64> = pts.iter().map(|r| r.n as f64).collect();
        let ys: Vec<f64> = pts.iter().map(|r| r.bits as f64).collect();
        if xs.len() >= 2 {
            crate::fit::fit_shape(&xs, &ys, shape).constant
        } else {
            f64::NAN
        }
    };
    let c_naive = fit_for("naive-collect", crate::Shape::Linear);
    let c_med = fit_for("median-fig1", crate::Shape::Log2);
    let c_apx2 = fit_for("apx-median2", crate::Shape::LogLog3);
    let crossover = |ca: f64, sa: crate::Shape, cb: f64, sb: crate::Shape| -> Option<f64> {
        // Smallest N (by doubling scan) where a becomes cheaper than b.
        let mut n = 16.0f64;
        while n < 1e30 {
            if ca * sa.eval(n) < cb * sb.eval(n) {
                return Some(n);
            }
            n *= 2.0;
        }
        None
    };
    println!(
        "\nfitted constants: naive ~ {}*N, median-fig1 ~ {}*(logN)^2, apx-median2 ~ {}*(loglogN)^3",
        f3(c_naive),
        f3(c_med),
        f3(c_apx2)
    );
    if let Some(nx) = crossover(c_med, crate::Shape::Log2, c_naive, crate::Shape::Linear) {
        println!("median-fig1 beats naive from N ~ {:.0}", nx);
    }
    if let Some(nx) = crossover(c_apx2, crate::Shape::LogLog3, c_naive, crate::Shape::Linear) {
        println!(
            "apx-median2 beats naive from N ~ {:.2e} (asymptotic win, huge constants)",
            nx
        );
    }
    if let Some(nx) = crossover(c_apx2, crate::Shape::LogLog3, c_med, crate::Shape::Log2) {
        println!("apx-median2 beats median-fig1 from N ~ {:.2e}", nx);
    }
    println!(
        "\nexpected ordering at large N: median-fig1 << naive; \
         apx-median2 cheapest asymptotically; gossip inflated by grid mixing time"
    );
    Summary { rows }
}
