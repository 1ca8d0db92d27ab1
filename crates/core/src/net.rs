//! The abstract aggregation network.
//!
//! The paper is explicit that its algorithms do not care how communication
//! happens (§2.1): *"We do not make any specific assumption about the way
//! communication is carried out: all we require is that the root can
//! initiate some protocols and get back the results."* §2.2 then posits
//! primitive protocols — MIN, MAX, COUNT (Fact 2.1) and approximate
//! counting (Fact 2.2).
//!
//! [`AggregationNetwork`] captures exactly that interface: one required
//! primitive, [`AggregationNetwork::execute`], runs a [`PlanOp`] and
//! returns its [`PlanInput`]; the typed primitives (`count`, `min`,
//! `rep_apx_count`, ...) are one-line views of it. Both implementations
//! evaluate the same [`crate::wave_proto::CoreWave`] aggregates —
//! request from [`crate::wave_proto::CoreRequest::from_op`], accessor
//! step from [`crate::wave_proto::CoreWave::finalize`] — and differ only
//! in how the partial reaches the root:
//!
//! * [`crate::local::LocalNetwork`] evaluates `CoreWave`'s aggregates at
//!   zero wire cost over an in-memory multiset; used for algorithm-logic
//!   tests and fast calibration;
//! * [`crate::simnet::SimNetwork`] — every primitive is a real
//!   broadcast–convergecast wave over a bounded-degree spanning tree in
//!   the discrete-event simulator, with bit-exact accounting.
//!
//! The algorithms (`MEDIAN`, `APX_MEDIAN`, `APX_MEDIAN2`, ...) are generic
//! over this trait, mirroring the paper's structure.

use crate::counting::ApxCountConfig;
use crate::error::QueryError;
use crate::model::Value;
use crate::plan::{PlanInput, PlanOp};
use crate::predicate::{Domain, Predicate};
use saq_netsim::stats::NetStats;

/// Cumulative invocation counts of the primitive protocols — the
/// network-independent "round complexity" of a query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// MIN/MAX invocations.
    pub minmax_ops: u64,
    /// Exact COUNTP invocations.
    pub countp_ops: u64,
    /// Exact SUM invocations.
    pub sum_ops: u64,
    /// Individual APX_COUNT instances (a `REP_COUNTP(r, ·)` counts `r`;
    /// approximate distinct counts are `distinct_ops` only).
    pub apx_count_instances: u64,
    /// REP_COUNTP waves (each carrying its instances).
    pub rep_countp_ops: u64,
    /// Zoom/remap broadcasts (Fig. 4 line 3.2).
    pub zoom_ops: u64,
    /// Full value collections (naive baseline).
    pub collect_ops: u64,
    /// COUNT_DISTINCT protocol runs (exact or approximate).
    pub distinct_ops: u64,
    /// Mergeable quantile-summary convergecasts.
    pub quantile_ops: u64,
    /// Bottom-k sampling convergecasts.
    pub sample_ops: u64,
}

impl OpCounts {
    /// Counts one invocation of `op`.
    pub fn record(&mut self, op: &PlanOp) {
        match op {
            PlanOp::Min(_) | PlanOp::Max(_) => self.minmax_ops += 1,
            PlanOp::Count(_) => self.countp_ops += 1,
            PlanOp::Sum(_) => self.sum_ops += 1,
            PlanOp::ApxCount { reps, .. } => {
                self.rep_countp_ops += 1;
                self.apx_count_instances += u64::from(*reps);
            }
            PlanOp::Zoom { .. } => self.zoom_ops += 1,
            PlanOp::Collect => self.collect_ops += 1,
            PlanOp::DistinctExact | PlanOp::DistinctApx { .. } => self.distinct_ops += 1,
            PlanOp::QuantileSummary { .. } => self.quantile_ops += 1,
            PlanOp::BottomK { .. } => self.sample_ops += 1,
        }
    }
}

/// The abstract sensor network of §2.1: a multiset of items distributed
/// over nodes, a distinguished root, and primitive protocols the root can
/// invoke.
///
/// Items carry a *current* value (mutated by [`AggregationNetwork::zoom`])
/// and may become **passive** (excluded from every primitive), matching
/// Fig. 4's node deactivation.
pub trait AggregationNetwork {
    /// Number of network nodes (not items; §5 allows multiple items per
    /// node).
    fn num_nodes(&self) -> usize;

    /// The declared maximum item value `X̄` (§2.1 assumes it is known and
    /// `log X̄ = O(log N)`).
    fn xbar(&self) -> Value;

    /// The approximate-counting configuration in force.
    fn apx_config(&self) -> ApxCountConfig;

    /// Executes one primitive protocol invocation and returns its result
    /// — the one method an implementation provides for every primitive
    /// of §2.2/§3.1 (the typed methods below are views of it).
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] when [`PlanOp::validate`] rejects
    /// the op; propagates protocol failures from the underlying network.
    fn execute(&mut self, op: &PlanOp) -> Result<PlanInput, QueryError>;

    /// MIN over active items, in the given domain (`Log` applies
    /// `⌊log₂ ·⌋` first). `None` when no active items remain.
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn min(&mut self, domain: Domain) -> Result<Option<Value>, QueryError> {
        self.execute(&PlanOp::Min(domain))
            .map(PlanInput::into_opt_val)
    }

    /// MAX over active items (see [`AggregationNetwork::min`]).
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn max(&mut self, domain: Domain) -> Result<Option<Value>, QueryError> {
        self.execute(&PlanOp::Max(domain))
            .map(PlanInput::into_opt_val)
    }

    /// Exact `COUNTP(X, P)`: the number of active items satisfying `P`
    /// (§3.1).
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn count(&mut self, p: &Predicate) -> Result<u64, QueryError> {
        self.execute(&PlanOp::Count(*p)).map(PlanInput::into_num)
    }

    /// Exact `SUM` over active items satisfying `P` (one of the TAG
    /// aggregates of Fact 2.1).
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn sum(&mut self, p: &Predicate) -> Result<u64, QueryError> {
        self.execute(&PlanOp::Sum(*p)).map(PlanInput::into_num)
    }

    /// `REP_COUNTP(r, P)` (Fig. 2): the average of `reps` independent
    /// `APX_COUNT` instances restricted to `P`. Fresh instance seeds are
    /// drawn per invocation.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `1 ≤ reps ≤ u16::MAX`;
    /// otherwise as [`AggregationNetwork::execute`].
    fn rep_apx_count(&mut self, p: &Predicate, reps: u32) -> Result<f64, QueryError> {
        self.execute(&PlanOp::ApxCount { pred: *p, reps })
            .map(PlanInput::into_est)
    }

    /// Fig. 4 lines 3.1–3.3: broadcast `µ̂`, deactivate items outside the
    /// octave `⌊log₂ x⌋ = µ̂`, and rescale survivors to `[1, X̄]`.
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn zoom(&mut self, mu_hat: u32) -> Result<(), QueryError> {
        self.execute(&PlanOp::Zoom { mu_hat }).map(drop)
    }

    /// Restores every item to its original value and reactivates it
    /// (driver-side convenience between queries; not charged).
    fn restore_items(&mut self);

    /// Collects every active item value at the root, in ascending order
    /// — the naive linear-communication protocol (TAG's "holistic"
    /// class), used as a baseline and charged accordingly.
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn collect_values(&mut self) -> Result<Vec<Value>, QueryError> {
        self.execute(&PlanOp::Collect).map(PlanInput::into_values)
    }

    /// Exact COUNT_DISTINCT: number of distinct active values, via
    /// set-union convergecast (§5: linear communication near the root).
    ///
    /// # Errors
    ///
    /// As [`AggregationNetwork::execute`].
    fn distinct_exact(&mut self) -> Result<u64, QueryError> {
        self.execute(&PlanOp::DistinctExact)
            .map(PlanInput::into_num)
    }

    /// Approximate COUNT_DISTINCT: value-hashed sketches (duplicate
    /// insensitive), averaging `reps` instances.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `1 ≤ reps ≤ u16::MAX`;
    /// otherwise as [`AggregationNetwork::execute`].
    fn distinct_apx(&mut self, reps: u32) -> Result<f64, QueryError> {
        self.execute(&PlanOp::DistinctApx { reps })
            .map(PlanInput::into_est)
    }

    /// Mergeable ε-approximate quantile summary over active items
    /// (GK-style, the one-pass comparator the paper cites in §1): every
    /// partial is pruned to at most `budget + 1` entries, and the
    /// returned root summary answers *any* quantile within its certified
    /// rank-error bound.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] if `budget == 0`; otherwise as
    /// [`AggregationNetwork::execute`].
    fn quantile_summary(
        &mut self,
        budget: u32,
    ) -> Result<saq_sketches::QuantileSummary, QueryError> {
        self.execute(&PlanOp::QuantileSummary { budget })
            .map(PlanInput::into_quantile)
    }

    /// Bottom-k (KMV) uniform sample of active item values, keyed by a
    /// deterministic hash of item identity — order- and
    /// duplicate-insensitive, so repeated invocations reproduce the same
    /// sample (and can be served from subtree partial caches).
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] if `k == 0`; otherwise as
    /// [`AggregationNetwork::execute`].
    fn bottom_k(&mut self, k: u32) -> Result<Vec<Value>, QueryError> {
        self.execute(&PlanOp::BottomK { k })
            .map(PlanInput::into_values)
    }

    /// Measurement-only ground truth: the current active item values,
    /// read out-of-band (never charged). Used by verification and the
    /// experiment harness.
    fn ground_truth(&self) -> Vec<Value>;

    /// Cumulative primitive-invocation counters.
    fn op_counts(&self) -> OpCounts;

    /// Per-node bit statistics, when the implementation measures them
    /// (the simulated network does; the local model does not).
    fn net_stats(&self) -> Option<&NetStats> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_default_is_zero() {
        let c = OpCounts::default();
        assert_eq!(c.countp_ops, 0);
        assert_eq!(c.apx_count_instances, 0);
    }
}
