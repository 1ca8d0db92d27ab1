//! # saq — Sensor-network Aggregate Queries
//!
//! A Rust reproduction of **Boaz Patt-Shamir, "A note on efficient
//! aggregate queries in sensor networks"** (PODC 2004; journal version in
//! *Theoretical Computer Science* 370, 2007).
//!
//! The paper shows that, in a sensor network where each node holds a
//! numeric item and a root issues aggregate queries:
//!
//! * the exact **median** (and any order statistic) is computable with
//!   `O((log N)^2)` communication bits per node — contrary to the TAG
//!   classification of median as inherently linear;
//! * an **approximate median** is computable with `O((log log N)^3)` bits
//!   per node;
//! * the exact number of **distinct elements** requires `Ω(n)` bits in the
//!   worst case (via reduction from two-party Set Disjointness), although
//!   approximations need only `O(log log n)` bits.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`netsim`] — discrete-event simulator with bit-exact accounting;
//! * [`protocols`] — spanning trees, broadcast–convergecast, synopsis
//!   diffusion, gossip;
//! * [`sketches`] — LogLog / HyperLogLog / PCSA counting sketches,
//!   quantile summaries, bottom-k sampling;
//! * [`core`] — the paper's algorithms (`MEDIAN`, `APX_MEDIAN`,
//!   `APX_MEDIAN2`, `COUNT_DISTINCT`, primitives);
//! * [`obs`] — the telemetry spine: deterministic event tracing,
//!   metrics registry, bit-provenance reports (`saq-trace`);
//! * [`baselines`] — comparison protocols (naive collection, GK-tree,
//!   sampling, gossip median);
//! * [`lowerbound`] — the Theorem 5.1 Set-Disjointness reduction.
//!
//! ## Quickstart
//!
//! ```
//! use saq::core::local::LocalNetwork;
//! use saq::core::median::Median;
//!
//! # fn main() -> Result<(), saq::core::QueryError> {
//! // 101 sensors holding values 0, 2, 4, ..., 200.
//! let items: Vec<u64> = (0..=100).map(|i| i * 2).collect();
//! let mut net = LocalNetwork::new(items, 200)?;
//! let outcome = Median::new().run(&mut net)?;
//! assert_eq!(outcome.value, 100);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end simulated deployments, the README's
//! Experiments section for the reproduction of every quantitative claim
//! in the paper, and `docs/ARCHITECTURE.md` for the paper-to-code map.

/// Runs the README's code blocks as doc-tests, so the front-page
/// closed-batch snippet is guaranteed to compile and behave as printed.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use saq_baselines as baselines;
pub use saq_core as core;
pub use saq_lowerbound as lowerbound;
pub use saq_netsim as netsim;
pub use saq_obs as obs;
pub use saq_protocols as protocols;
pub use saq_sketches as sketches;
