//! # saq-baselines — comparison protocols for the median problem
//!
//! The paper's §1 positions its algorithms against four families of prior
//! and concurrent work. Experiment E7 reproduces the comparisons with a
//! faithful representative of each; two of them live in this crate:
//!
//! * [`naive`] — TAG's "holistic" answer: ship every value to the root
//!   (`Θ(N log X̄)` bits near the root) and sort locally;
//! * [`gossip`] — Kempe–Dobra–Gehrke push-sum \[6\] driving the same
//!   value-domain binary search as Fig. 1, with every count estimated by
//!   gossip instead of a tree wave.
//!
//! The other two are requests of `saq-core`, served by the same
//! aggregates as the paper's algorithms: the Greenwald–Khanna one-pass
//! mergeable quantile summary \[4\] is `CoreRequest::Quantile` (run as a
//! `QuantilePlan`), and the bottom-k sampling of Nath et al. \[10\] is
//! `CoreRequest::BottomK` (`AggregationNetwork::bottom_k`).
//!
//! Both runners here report a common [`BaselineOutcome`] so the harness
//! can tabulate cost and accuracy side by side.

pub mod gossip;
pub mod naive;

use saq_netsim::stats::NetStats;

/// Cost/accuracy summary shared by every baseline runner.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineOutcome {
    /// The median estimate.
    pub value: u64,
    /// Max over nodes of transmitted + received bits (the paper's
    /// individual communication complexity).
    pub max_node_bits: u64,
    /// Mean per-node bits.
    pub mean_node_bits: f64,
    /// Full per-node statistics for deeper analysis.
    pub stats: NetStats,
}
