//! `stackbench`: the repository's benchmark. Four fixed-work workloads
//! through the public API of the real stack, every answer verified
//! against ground truth computed here, end-to-end metrics in host time
//! and in the paper's bits, and a per-layer profile taken from outside
//! the program. See `README.md` beside this package.

pub mod aa;
pub mod catalogue;
pub mod cli;
pub mod json;
pub mod kernels;
pub mod manifest;
pub mod meter;
pub mod rng;
pub mod run;
pub mod schedule;
pub mod stats;
pub mod truth;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: meter::CountingAlloc = meter::CountingAlloc;
