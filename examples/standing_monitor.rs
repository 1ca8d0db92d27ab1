//! A temperature-monitoring deployment with a **standing median**: the
//! query is registered once and refreshed every 5 rounds, forever,
//! while sensors update sparsely — and each refresh pays only for what
//! actually changed, not for a fresh convergecast.
//!
//! Run with: `cargo run --release --example standing_monitor`

use saq::core::engine::{QueryOutcome, QuerySpec};
use saq::core::predicate::Predicate;
use saq::core::service::{FleetService, RefreshStagger};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{ServiceStats, StreamingEngine};
use saq::netsim::topology::Topology;

const N: usize = 100;
const XBAR: u64 = 120; // tenths of °C above -20: 0 = -20.0°C, 120 = -8.0°C…

fn readings() -> Vec<u64> {
    (0..N as u64).map(|i| 60 + (i * 13) % 40).collect()
}

fn deployment(cache: usize) -> Result<SimNetwork, saq::core::QueryError> {
    let topo = Topology::grid(10, 10)?;
    let mut builder = SimNetworkBuilder::new();
    if cache > 0 {
        builder = builder.partial_cache(cache);
    }
    builder.build_one_per_node(&topo, &readings(), XBAR)
}

fn main() -> Result<(), saq::core::QueryError> {
    // The standing queries: an ε-approximate median of all temperature
    // readings plus an exact count of sensors in a warm band. Both are
    // delta-answered from incrementally maintained subtree partials.
    let median = QuerySpec::Quantile { q: 0.5, eps: 0.1 };
    let warm_band = QuerySpec::Count(Predicate::less_than(85));

    // What would each refresh cost without the continuous subsystem?
    // One fresh convergecast of the same two queries, measured cold.
    let fresh_cost: u64 = {
        let mut oracle = StreamingEngine::new(deployment(0)?);
        oracle.submit(median.clone());
        oracle.submit(warm_band.clone());
        ServiceStats::total_bits(&oracle.run_until_idle()?)
    };

    let mut engine = FleetService::with_stagger(deployment(64)?, RefreshStagger::None);
    let med_id = engine.register(median, 5)?;
    engine.register(warm_band, 5)?;

    println!("standing median over {N} sensors, refreshed every 5 rounds");
    println!("fresh-convergecast cost (the ceiling): {fresh_cost} bits/refresh\n");
    println!("cycle  updates  bits/refresh  vs fresh  median (0.1°C)  warm sensors");
    println!("---------------------------------------------------------------------");

    // 12 refresh cycles under sparse updates: a couple of sensors per
    // cycle report new temperatures, most stay quiet.
    let mut temps = readings();
    for cycle in 0u64..12 {
        let updates = match cycle {
            0 => 0,               // cold start: the first refresh pays
            c if c % 4 == 0 => 0, // quiet periods: nothing changed
            c if c % 4 == 1 => 2, // a couple of sensors report
            _ => 1,
        };
        for u in 0..updates {
            let sensor = ((cycle * 17 + u * 41) % N as u64) as usize;
            temps[sensor] = 60 + (temps[sensor] * 7 + cycle) % 40;
            engine.update_items(sensor, vec![temps[sensor]])?;
        }

        let out = engine.run_rounds(5)?;
        let bits: u64 = out.refreshes.iter().map(|r| r.slot_bits.total()).sum();
        let (mut med_str, mut count_str) = (String::new(), String::new());
        for r in &out.refreshes {
            match r.outcome.as_ref().expect("refresh succeeds") {
                QueryOutcome::Quantile(q) => {
                    med_str = format!("{} ±{}", q.value.unwrap_or(0), q.rank_error);
                    assert_eq!(r.subscriber, med_id);
                }
                QueryOutcome::Num(n) => count_str = n.to_string(),
                other => unreachable!("unexpected outcome {other:?}"),
            }
        }
        println!(
            "{cycle:>5}  {updates:>7}  {bits:>12}  {:>7.1}%  {med_str:>14}  {count_str:>12}",
            100.0 * bits as f64 / fresh_cost as f64,
        );
    }

    let stats = engine.network().cache_stats();
    println!(
        "\ndelta maintenance: {} cached partials updated in place, {} invalidated \
         (quantile value changes repair via dirty-path waves)",
        stats.delta_applied, stats.delta_invalidated
    );
    println!(
        "quiet cycles cost 0 bits; sparse-update cycles cost a fraction of the \
         {fresh_cost}-bit fresh convergecast every cycle would otherwise pay"
    );
    Ok(())
}
