//! Runs the experiments (E1-E20; E13 and E19 retired) in sequence: the
//! ids named on the command line, or every one when none is named.
//! Pass `--quick` for the reduced sweeps used in CI; without it each
//! runs its full configuration.
//!
//! `cargo run --release -p saq-bench --bin run_all -- --quick e12 e16`

use std::process::ExitCode;

use saq_bench::experiments::*;
use saq_bench::heap::CountingAlloc;
use saq_bench::Scale;

/// Counts live heap bytes, so memory columns (E16's) read the same
/// whichever experiments ran before them.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An experiment's command-line id, and the run that prints its tables
/// (the summary it returns is for the integration tests).
type Experiment = (&'static str, fn(Scale));

const EXPERIMENTS: [Experiment; 18] = [
    ("e1", |s| drop(e1_primitives::run(s))),
    ("e2", |s| drop(e2_loglog::run(s))),
    ("e3", |s| drop(e3_median_det::run(s))),
    ("e4", |s| drop(e4_apx_median::run(s))),
    ("e5", |s| drop(e5_apx_median2::run(s))),
    ("e6", |s| drop(e6_distinct::run(s))),
    ("e7", |s| drop(e7_comparison::run(s))),
    ("e8", |s| drop(e8_single_hop::run(s))),
    ("e9", |s| drop(e9_robustness::run(s))),
    ("e10", |s| drop(e10_gossip::run(s))),
    ("e11", |s| drop(e11_ablations::run(s))),
    ("e12", |s| drop(e12_batching::run(s))),
    ("e14", |s| drop(e14_streaming::run(s))),
    ("e15", |s| drop(e15_continuous::run(s))),
    ("e16", |s| drop(e16_flat_scale::run(s))),
    ("e17", |s| drop(e17_repeat_rate::run(s))),
    ("e18", |s| drop(e18_loss_sweep::run(s))),
    ("e20", |s| drop(e20_fleet::run(s))),
];

fn main() -> ExitCode {
    let scale = Scale::from_args();
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !EXPERIMENTS.iter().any(|(known, _)| known == id))
    {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment `{unknown}`; valid ids: {}",
            valid.join(" ")
        );
        return ExitCode::FAILURE;
    }
    println!("saq experiment suite (scale: {scale:?})");
    for (id, run) in EXPERIMENTS {
        if ids.is_empty() || ids.iter().any(|named| named == id) {
            run(scale);
        }
    }
    println!("\nall experiments complete.");
    ExitCode::SUCCESS
}
