//! Bit provenance: record a session's telemetry and print where every
//! bit went.
//!
//! ```text
//! cargo run --release --example bit_provenance
//! ```
//!
//! A lossy deployment (loss 8%, per-hop ARQ, subtree caching) runs the
//! same query mix twice with a telemetry recorder attached. The trace
//! summarizer then attributes every transmitted bit: envelope header
//! vs per-slot payload, first attempt vs retransmission vs ACK, by
//! tree depth, per query — and estimates what the warm repeat's cache
//! hits saved. The identical report is available offline from a
//! recorded JSONL file via the `saq-trace` binary.

use saq::core::engine::QuerySpec;
use saq::core::predicate::Predicate;
use saq::core::simnet::SimNetworkBuilder;
use saq::core::streaming::StreamingEngine;
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::obs::{trace, VecRecorder};
use saq::protocols::wave::Reliability;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64usize;
    let topo = Topology::balanced_tree(n, 3)?;
    let items: Vec<u64> = (0..n as u64).map(|i| (i * 29) % 200).collect();
    let mut net = SimNetworkBuilder::new()
        .partial_cache(16)
        .sim_config(
            SimConfig::default()
                .with_link(LinkConfig::default().with_loss(0.08))
                .with_seed(0xB17),
        )
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(200),
        })
        .build_one_per_node(&topo, &items, 256)?;

    let (recorder, log) = VecRecorder::shared();
    net.attach_recorder(Box::new(recorder));

    let mix = || {
        vec![
            QuerySpec::Median,
            QuerySpec::Count(Predicate::less_than(100)),
            QuerySpec::Quantile { q: 0.9, eps: 0.15 },
            QuerySpec::BottomK { k: 8 },
        ]
    };
    let mut engine = StreamingEngine::new(net);
    for spec in mix() {
        engine.submit(spec);
    }
    engine.run_until_idle()?; // cold batch: every subtree contributes
    for spec in mix() {
        engine.submit(spec);
    }
    engine.run_until_idle()?; // warm repeat: subtree caches silence the tree

    let events = log.events();
    let summary = trace::summarize(&events);
    print!("{}", trace::render(&summary));
    println!();
    println!(
        "(offline: write the trace with a JsonlRecorder and run \
         `saq-trace <trace.jsonl>` for the same report)"
    );
    Ok(())
}
