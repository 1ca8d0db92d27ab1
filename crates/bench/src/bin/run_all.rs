//! Runs every experiment (E1-E20; E13 and E19 retired) in sequence. Pass
//! `--quick` for the reduced sweeps used in CI; without it each runs its
//! full configuration.

use saq_bench::experiments::*;
use saq_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("saq experiment suite (scale: {scale:?})");
    let _ = e1_primitives::run(scale);
    let _ = e2_loglog::run(scale);
    let _ = e3_median_det::run(scale);
    let _ = e4_apx_median::run(scale);
    let _ = e5_apx_median2::run(scale);
    let _ = e6_distinct::run(scale);
    let _ = e7_comparison::run(scale);
    let _ = e8_single_hop::run(scale);
    let _ = e9_robustness::run(scale);
    let _ = e10_gossip::run(scale);
    let _ = e11_ablations::run(scale);
    let _ = e12_batching::run(scale);
    let _ = e14_streaming::run(scale);
    let _ = e15_continuous::run(scale);
    let _ = e16_flat_scale::run(scale);
    let _ = e17_repeat_rate::run(scale);
    let _ = e18_loss_sweep::run(scale);
    let _ = e20_fleet::run(scale);
    println!("\nall experiments complete.");
}
