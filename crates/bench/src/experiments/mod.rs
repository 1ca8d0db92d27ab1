//! The E1–E20 experiment implementations (the README's Experiments
//! section maps each to its claim). Two are retired with the code they
//! measured: E13, the sharded boxed runner's scaling (E16 covers flat
//! worker scaling), and E19, varint vs fixed-width framing (CHANGES.md
//! records its result). E21, the recorder's overhead, is
//! retired too: its 0-bit claim is a test in `tests/experiments_smoke.rs`
//! and its wall-clock ratio is stackbench's `obs.recorder_overhead_ratio`.
//! Each `run(scale)` prints its tables to stdout and returns a
//! machine-checkable summary used by integration tests and the `run_all`
//! binary.

pub mod e10_gossip;
pub mod e11_ablations;
pub mod e12_batching;
pub mod e14_streaming;
pub mod e15_continuous;
pub mod e16_flat_scale;
pub mod e17_repeat_rate;
pub mod e18_loss_sweep;
pub mod e1_primitives;
pub mod e20_fleet;
pub mod e2_loglog;
pub mod e3_median_det;
pub mod e4_apx_median;
pub mod e5_apx_median2;
pub mod e6_distinct;
pub mod e7_comparison;
pub mod e8_single_hop;
pub mod e9_robustness;
