//! E11 — ablations of two design choices.
//!
//! 1. **Bounded-degree spanning tree** (the paper's §2.2 remark: "bounded
//!    degree is required to maintain low individual communication
//!    complexity"): the same COUNT on the same dense random-geometric
//!    graph, with and without the child cap. The unbounded BFS tree
//!    concentrates children on hub nodes, inflating the max per-node
//!    bits; the bounded tree flattens them at a small depth cost.
//! 2. **Register coding**: fixed-width vs Elias-gamma LogLog registers —
//!    gamma wins on sparse leaf sketches, fixed wins once registers fill,
//!    both are `Θ(log log N)` per register.

use crate::deploy::builder_for;
use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::net::AggregationNetwork;
use saq_core::predicate::Predicate;
use saq_netsim::topology::Topology;
use saq_sketches::{DistinctSketch, HashFamily, LogLog};

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(N, unbounded max bits, bounded max bits)` rows.
    pub degree_rows: Vec<(usize, u64, u64)>,
    /// Bounded-degree tree always at most as expensive per node.
    pub bounded_never_worse: bool,
}

/// Runs E11 and prints its tables.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E11",
        "ablations: degree bound and register coding",
        "unbounded trees concentrate load on hubs (§2.2 remark); gamma coding compresses sparse sketches",
    );

    // --- Part 1: degree bound on dense RGGs.
    let ns: &[usize] = match scale {
        Scale::Quick => &[64, 144],
        Scale::Full => &[64, 144, 324, 624],
    };
    let mut table = Table::new(&[
        "N",
        "topo_maxdeg",
        "tree",
        "tree_deg",
        "height",
        "COUNT bits/node",
    ]);
    let mut degree_rows = Vec::new();
    let mut bounded_never_worse = true;
    for &n in ns {
        // Dense deployment: radius well above the connectivity threshold.
        let topo = Topology::random_geometric(n, (20.0 / n as f64).sqrt(), 0xAB1).expect("rgg");
        let items: Vec<u64> = (0..n as u64).collect();
        let run_with = |cap: usize| -> (u64, usize, u32) {
            let mut net = builder_for(n)
                .max_children(cap)
                .build_one_per_node(&topo, &items, 2 * n as u64)
                .expect("net");
            net.count(&Predicate::TRUE).expect("count");
            (
                net.net_stats().expect("stats").max_node_bits(),
                net.tree_max_degree(),
                net.tree_height(),
            )
        };
        let (unbounded_bits, udeg, uh) = run_with(usize::MAX);
        let (bounded_bits, bdeg, bh) = run_with(3);
        table.row(&[
            n.to_string(),
            topo.max_degree().to_string(),
            "unbounded".into(),
            udeg.to_string(),
            uh.to_string(),
            unbounded_bits.to_string(),
        ]);
        table.row(&[
            n.to_string(),
            topo.max_degree().to_string(),
            "degree<=4".into(),
            bdeg.to_string(),
            bh.to_string(),
            bounded_bits.to_string(),
        ]);
        bounded_never_worse &= bounded_bits <= unbounded_bits;
        degree_rows.push((n, unbounded_bits, bounded_bits));
    }
    table.print();

    // --- Part 2: register coding.
    println!("\nLogLog register coding (b=6, fixed vs gamma):");
    let mut code_table =
        Table::new(&["items in sketch", "fixed bits", "gamma bits", "gamma/fixed"]);
    let h = HashFamily::new(0xC0DE);
    for filled in [0u64, 1, 4, 16, 64, 1024, 65536] {
        let mut sk = LogLog::new(6);
        for k in 0..filled {
            sk.insert_hash(h.hash(k));
        }
        let fixed = sk.wire_bits_fixed();
        let gamma = sk.wire_bits_gamma();
        code_table.row(&[
            filled.to_string(),
            fixed.to_string(),
            gamma.to_string(),
            f3(gamma as f64 / fixed as f64),
        ]);
    }
    code_table.print();
    println!(
        "\nleaf sketches (1 item) gamma-compress ~6x; saturated sketches prefer \
         fixed width — both stay Theta(m loglog N)"
    );

    Summary {
        degree_rows,
        bounded_never_worse,
    }
}
