//! E5 — Theorem 4.7 / Corollary 4.8 and Fig. 3: the polyloglog median.
//!
//! > *"For any given constants β, ε > 0 and α > 10⁻⁶, an (α, β)-median
//! > can be computed with probability at least 1 − ε in
//! > O((log log N)^3) communication complexity."*
//!
//! Two parts:
//!
//! 1. **Scaling** — max per-node bits vs N, fitted against
//!    `(log log N)^3` and, adversarially, against `(log N)^2`
//!    (the deterministic algorithm's shape) and `log N` (sampling).
//!    All sweeps use log-domain predicates and constant sketch size, so
//!    only the `log log` factors move.
//! 2. **Fig. 3 zoom trace** — the per-stage original-domain window,
//!    printed as the shrinking interval of the paper's schematic, plus a
//!    β sweep showing precision doubling per stage.

use crate::deploy::builder_for;
use crate::fit::fit_shape;
use crate::table::{banner, f3, Table};
use crate::workload::{generate, Dist};
use crate::{Scale, Shape};
use saq_core::model::{rank_lt, reference_median};
use saq_core::net::AggregationNetwork;
use saq_core::{ApxCountConfig, ApxMedian2};
use saq_netsim::topology::Topology;

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(N, bits)` sweep points.
    pub bits_points: Vec<(usize, u64)>,
    /// Ratio spread of the `(loglog N)^3` fit.
    pub loglog3_spread: f64,
    /// Ratio spread of the `Linear` fit (must be far worse).
    pub linear_spread: f64,
    /// Window width per stage from the Fig. 3 trace (original domain).
    pub zoom_widths: Vec<f64>,
}

/// Runs E5 and prints its tables.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E5",
        "polyloglog approximate median APX_MEDIAN2 (Fig. 4) + zoom trace (Fig. 3)",
        "O((loglog N)^3) bits/node (Cor. 4.8); window halves per stage",
    );
    // Reduced repetition constants (see `ApxCountConfig`): the shape
    // in N is what is under test; the paper's 32q constant only scales
    // every row by the same factor.
    let apx = ApxCountConfig {
        rep_search: 2.0,
        rep_count: 1.0,
        ..ApxCountConfig::default().with_b(6).with_seed(0xE5)
    };

    let sides: &[usize] = match scale {
        Scale::Quick => &[8, 16],
        Scale::Full => &[8, 16, 32, 64],
    };
    let beta = 0.05;
    let eps = 0.25;

    let mut table = Table::new(&[
        "N",
        "xbar",
        "bits/node",
        "bits/(loglogN)^3",
        "stages",
        "value",
        "true_med",
        "rank_err",
    ]);
    let mut bits_points = Vec::new();

    for &side in sides {
        let n = side * side;
        let xbar = (n as u64).pow(2).max(4096);
        let topo = Topology::grid(side, side).expect("grid");
        let items = generate(Dist::Uniform, n, xbar, 0xE5_00 + n as u64);
        let mut net = builder_for(n)
            .apx_config(apx)
            .build_one_per_node(&topo, &items, xbar)
            .expect("network");
        let out = ApxMedian2::new(beta, eps)
            .expect("params")
            .run(&mut net)
            .expect("run");
        let bits = net.net_stats().expect("stats").max_node_bits();
        let truth = reference_median(&items).expect("nonempty") as f64;
        let lglg = Shape::LogLog3.eval(n as f64);
        // Rank error: how far the answer's rank is from N/2, relative to
        // N — the alpha of Definition 2.4 actually achieved.
        let rank_err = (rank_lt(&items, out.value) as f64 - n as f64 / 2.0).abs() / n as f64;
        table.row(&[
            n.to_string(),
            xbar.to_string(),
            bits.to_string(),
            f3(bits as f64 / lglg),
            out.stages.to_string(),
            out.value.to_string(),
            f3(truth),
            f3(rank_err),
        ]);
        bits_points.push((n, bits));
    }
    table.print();

    let xs: Vec<f64> = bits_points.iter().map(|p| p.0 as f64).collect();
    let ys: Vec<f64> = bits_points.iter().map(|p| p.1 as f64).collect();
    let fit3 = fit_shape(&xs, &ys, Shape::LogLog3);
    let fit_lin = fit_shape(&xs, &ys, Shape::Linear);
    println!(
        "\nfit: bits ~ {} * (loglog N)^3 with spread {}; linear-fit spread {} (must be worse)",
        f3(fit3.constant),
        f3(fit3.ratio_spread),
        f3(fit_lin.ratio_spread),
    );

    // --- Fig. 3: the zoom trace on one fixed instance.
    println!("\nFig. 3 zoom trace (original-domain window per stage):");
    let (trace_side, xbar) = match scale {
        Scale::Quick => (16usize, 1u64 << 16),
        Scale::Full => (64usize, 1u64 << 24),
    };
    let n = trace_side * trace_side;
    // Items over [0, 5X̄/8]: the median then sits mid-octave. (Uniform
    // over the full domain puts it exactly on the 2^{log X̄ - 1} octave
    // boundary — the adversarial case for octave search, already
    // exercised by the scaling sweep above.)
    let items = generate(Dist::Uniform, n, 5 * xbar / 8, 0xF1_63);
    let topo = Topology::grid(trace_side, trace_side).expect("grid");
    let mut net = builder_for(n)
        .apx_config(apx)
        .build_one_per_node(&topo, &items, xbar)
        .expect("network");
    let out = ApxMedian2::new(1.0 / 256.0, 0.25)
        .expect("params")
        .run(&mut net)
        .expect("run");
    let mut trace_table = Table::new(&["stage", "mu_hat", "window_lo", "window_hi", "width", "k"]);
    let mut zoom_widths = Vec::new();
    for t in &out.trace {
        let width = t.window_hi - t.window_lo;
        zoom_widths.push(width);
        trace_table.row(&[
            t.stage.to_string(),
            t.mu_hat.to_string(),
            f3(t.window_lo),
            f3(t.window_hi),
            f3(width),
            f3(t.k),
        ]);
    }
    trace_table.print();
    let truth = reference_median(&items).expect("nonempty");
    let rank_err = (rank_lt(&items, out.value) as f64 - n as f64 / 2.0).abs() / n as f64;
    println!(
        "final answer {} vs true median {truth} (xbar {xbar}): rank error {:.3} \
         within the alpha bound {:.3} (Thm 4.7's O(sigma log 1/beta))",
        out.value, rank_err, out.alpha_guarantee,
    );

    // --- β sweep: stages = ceil(log2 1/beta) and the final window width
    // (the localization precision Theorem 4.7 actually promises) must
    // come in under beta * xbar.
    println!("\nbeta sweep (stages = ceil(log2 1/beta); final window <= beta*xbar):");
    let mut beta_table = Table::new(&[
        "beta",
        "stages",
        "predicted",
        "final_window/xbar",
        "within_beta",
    ]);
    for beta in [0.5, 0.25, 0.1, 0.02] {
        let mut net = builder_for(n)
            .apx_config(apx)
            .build_one_per_node(&topo, &items, xbar)
            .expect("network");
        let runner = ApxMedian2::new(beta, 0.25).expect("params");
        let out = runner.run(&mut net).expect("run");
        let window = out
            .trace
            .last()
            .map(|t| (t.window_hi - t.window_lo) / xbar as f64)
            .unwrap_or(1.0);
        beta_table.row(&[
            format!("{beta}"),
            out.stages.to_string(),
            runner.stages().to_string(),
            f3(window),
            if window <= beta {
                "yes".into()
            } else {
                "NO".to_string()
            },
        ]);
    }
    beta_table.print();

    Summary {
        bits_points,
        loglog3_spread: fit3.ratio_spread,
        linear_spread: fit_lin.ratio_spread,
        zoom_widths,
    }
}
