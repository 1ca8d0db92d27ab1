//! End-to-end wall time of each median protocol on one fixed deployment
//! (a 16×16 grid): the operational counterpart of experiment E7's bit
//! comparison.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};
use saq_baselines::naive::NaiveMedian;
use saq_core::model::reference_median;
use saq_core::net::AggregationNetwork;
use saq_core::plan::{run_plan, QuantilePlan};
use saq_core::simnet::{SimNetwork, SimNetworkBuilder};
use saq_core::{ApxCountConfig, ApxMedian, ApxMedian2, Median};
use saq_netsim::topology::Topology;
use std::hint::black_box;

const SIDE: usize = 16;

fn deployment() -> (Topology, Vec<u64>, u64) {
    let topo = Topology::grid(SIDE, SIDE).expect("grid");
    let n = SIDE * SIDE;
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 65536).collect();
    (topo, items, 65536)
}

fn reduced_apx() -> SimNetworkBuilder {
    SimNetworkBuilder::new().apx_config(ApxCountConfig {
        rep_search: 2.0,
        rep_count: 1.0,
        ..ApxCountConfig::default().with_b(4)
    })
}

/// Times `query` on a fresh deployment from `builder`, built in setup.
fn e2e<O>(
    g: &mut BenchmarkGroup<'_>,
    name: &str,
    builder: fn() -> SimNetworkBuilder,
    query: impl Fn(&mut SimNetwork) -> O,
) {
    let (topo, items, xbar) = deployment();
    g.bench_function(name, |b| {
        b.iter_batched(
            || {
                builder()
                    .build_one_per_node(&topo, &items, xbar)
                    .expect("net")
            },
            |mut net| black_box(query(&mut net)),
            BatchSize::SmallInput,
        );
    });
}

fn bench_median_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("median_e2e_256");
    g.sample_size(10);
    let plain = SimNetworkBuilder::new;
    e2e(&mut g, "fig1_deterministic", plain, |net| {
        Median::new().run(net).expect("median")
    });
    e2e(&mut g, "naive_collect", plain, |net| {
        NaiveMedian::new().run(net).expect("naive")
    });
    e2e(&mut g, "apx_median_fig2", reduced_apx, |net| {
        ApxMedian::new(0.25).expect("eps").run(net).expect("apx")
    });
    e2e(&mut g, "apx_median2_fig4", reduced_apx, |net| {
        let apx2 = ApxMedian2::new(0.1, 0.25).expect("params");
        apx2.run(net).expect("apx2")
    });
    e2e(&mut g, "gk_tree", plain, |net| {
        run_plan(net, &mut QuantilePlan::new(0.5, 24).expect("plan")).expect("gk")
    });
    e2e(&mut g, "sampling_bottomk", plain, |net| {
        reference_median(&net.bottom_k(32).expect("sampling"))
    });
    g.finish();
}

criterion_group!(benches, bench_median_protocols);
criterion_main!(benches);
