//! The in-memory reference network.
//!
//! [`LocalNetwork`] implements [`AggregationNetwork`] over a flat multiset
//! with **no communication at all**: it evaluates [`CoreWave`]'s
//! aggregates at zero wire cost — the same requests, hash families,
//! LogLog sketches and instance seeding as the simulated network — so
//! algorithm logic and its probabilistic guarantees can be tested
//! quickly, and calibration experiments (E2) can run hundreds of trials.
//!
//! Per-node structure is irrelevant to the algorithms' answers (only to
//! communication accounting), so the local model keeps a single item
//! vector; item identity for instance hashing is the item's index, which
//! matches the simulated network's `(node, slot)` identity scheme in
//! distribution.

use crate::aggregate::ItemRef;
use crate::counting::ApxCountConfig;
use crate::error::QueryError;
use crate::model::{floor_log2, Value};
use crate::net::{AggregationNetwork, OpCounts};
use crate::plan::{PlanInput, PlanOp};
use crate::wave_proto::{CoreRequest, CoreWave, SimItem};

/// An in-memory [`AggregationNetwork`] with modelled (zero) communication.
///
/// # Examples
///
/// ```
/// use saq_core::net::AggregationNetwork;
/// use saq_core::local::LocalNetwork;
/// use saq_core::predicate::Predicate;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let mut net = LocalNetwork::new(vec![2, 4, 6, 8], 10)?;
/// assert_eq!(net.count(&Predicate::less_than(5))?, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LocalNetwork {
    items: Vec<SimItem>,
    proto: CoreWave,
    ops: OpCounts,
    /// Fresh-randomness counter: every sketch op advances it.
    nonce: u32,
}

impl LocalNetwork {
    /// Creates a network holding `items`, with declared maximum `xbar`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::ItemOutOfRange`] if any item exceeds `xbar`.
    pub fn new(items: Vec<Value>, xbar: Value) -> Result<Self, QueryError> {
        Self::with_config(items, xbar, ApxCountConfig::default())
    }

    /// Creates a network with an explicit approximate-counting
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::ItemOutOfRange`] if any item exceeds `xbar`.
    pub fn with_config(
        items: Vec<Value>,
        xbar: Value,
        cfg: ApxCountConfig,
    ) -> Result<Self, QueryError> {
        if xbar > crate::model::XBAR_MAX {
            return Err(QueryError::InvalidParameter(
                "xbar exceeds the doubled-coordinate domain (u64::MAX/2 - 1)",
            ));
        }
        if let Some(&bad) = items.iter().find(|&&x| x > xbar) {
            return Err(QueryError::ItemOutOfRange { item: bad, xbar });
        }
        Ok(LocalNetwork {
            items: items.into_iter().map(SimItem::new).collect(),
            proto: CoreWave { xbar, apx: cfg },
            ops: OpCounts::default(),
            nonce: 0,
        })
    }
}

impl AggregationNetwork for LocalNetwork {
    fn num_nodes(&self) -> usize {
        self.items.len()
    }

    fn xbar(&self) -> Value {
        self.proto.xbar
    }

    fn apx_config(&self) -> ApxCountConfig {
        self.proto.apx
    }

    /// [`SimNetwork`](crate::simnet::SimNetwork)'s execution minus the
    /// wave: one fold of every active item, with identity `(index, 0)`.
    fn execute(&mut self, op: &PlanOp) -> Result<PlanInput, QueryError> {
        op.validate()?;
        self.ops.record(op);
        let req = CoreRequest::from_op(op, || {
            self.nonce = self.nonce.wrapping_add(1);
            self.nonce
        });
        if let CoreRequest::Zoom { mu_hat } = req {
            self.proto.zoom(mu_hat, &mut self.items);
        }
        let active = self.items.iter().enumerate().filter_map(|(idx, it)| {
            it.cur.map(|value| ItemRef {
                node: idx as u64,
                slot: 0,
                value,
            })
        });
        let partial = self.proto.partial_over(&req, active);
        Ok(self.proto.finalize(&req, partial))
    }

    fn restore_items(&mut self) {
        for it in &mut self.items {
            *it = SimItem::new(it.orig);
        }
    }

    fn ground_truth(&self) -> Vec<Value> {
        self.items.iter().filter_map(|it| it.cur).collect()
    }

    fn op_counts(&self) -> OpCounts {
        self.ops
    }
}

/// Fig. 4 line 3.2: if `⌊log₂ cur⌋ == µ̂`, rescale the octave
/// `[lo, hi] = [2^µ̂, 2^{µ̂+1} − 1]` linearly onto `[1, X̄]`; otherwise the
/// item becomes passive. Octave 0 covers `{0, 1}` (our 0-item convention).
pub(crate) fn rescale_into_octave(cur: Value, mu_hat: u32, xbar: Value) -> Option<Value> {
    if floor_log2(cur) != mu_hat {
        return None;
    }
    let (lo, hi) = crate::model::octave_bounds(mu_hat);
    let width = hi - lo;
    if width == 0 {
        return Some(1);
    }
    // Exact integer affine map, monotone and injective since the scale
    // factor (X̄−1)/width ≥ 1 whenever the octave is a strict sub-range.
    // (`max(1)` keeps the degenerate xbar = 0 domain from underflowing.)
    let scaled = (cur - lo) as u128 * (xbar.max(1) - 1) as u128 / width as u128;
    Some(1 + scaled as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::reference_median;
    use crate::predicate::{Domain, Predicate};
    use proptest::prelude::*;

    #[test]
    fn construction_validates_items() {
        assert!(LocalNetwork::new(vec![1, 2, 3], 3).is_ok());
        assert!(matches!(
            LocalNetwork::new(vec![1, 9], 3),
            Err(QueryError::ItemOutOfRange { item: 9, xbar: 3 })
        ));
    }

    #[test]
    fn primitives_exact() {
        let mut net = LocalNetwork::new(vec![5, 1, 9, 5], 10).unwrap();
        assert_eq!(net.min(Domain::Raw).unwrap(), Some(1));
        assert_eq!(net.max(Domain::Raw).unwrap(), Some(9));
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 4);
        assert_eq!(net.count(&Predicate::less_than(5)).unwrap(), 1);
        assert_eq!(net.sum(&Predicate::TRUE).unwrap(), 20);
        assert_eq!(net.sum(&Predicate::less_than(6)).unwrap(), 11);
        assert_eq!(net.op_counts().minmax_ops, 2);
        assert_eq!(net.op_counts().countp_ops, 2);
    }

    #[test]
    fn log_domain_primitives() {
        let mut net = LocalNetwork::new(vec![1, 2, 8, 9], 16).unwrap();
        // log values: 0, 1, 3, 3
        assert_eq!(net.min(Domain::Log).unwrap(), Some(0));
        assert_eq!(net.max(Domain::Log).unwrap(), Some(3));
        // log x < 3 ⟺ x < 8
        assert_eq!(net.count(&Predicate::log_less_than2(6)).unwrap(), 2);
    }

    #[test]
    fn rep_apx_count_tracks_truth() {
        let items: Vec<u64> = (0..5000).collect();
        let mut net = LocalNetwork::new(items, 5000).unwrap();
        let est = net.rep_apx_count(&Predicate::TRUE, 16).unwrap();
        let rel = (est - 5000.0).abs() / 5000.0;
        // 16 averaged instances at sigma 0.162 → sd ~4%.
        assert!(rel < 0.2, "rel err {rel}");
        let est_half = net.rep_apx_count(&Predicate::less_than(2500), 16).unwrap();
        let rel = (est_half - 2500.0).abs() / 2500.0;
        assert!(rel < 0.2, "rel err below-threshold {rel}");
        assert_eq!(net.op_counts().apx_count_instances, 32);
    }

    #[test]
    fn rep_apx_count_fresh_randomness_per_call() {
        let items: Vec<u64> = (0..2000).collect();
        let mut net = LocalNetwork::new(items, 2000).unwrap();
        let a = net.rep_apx_count(&Predicate::TRUE, 1).unwrap();
        let b = net.rep_apx_count(&Predicate::TRUE, 1).unwrap();
        assert_ne!(a, b, "two invocations must use fresh instance seeds");
    }

    #[test]
    fn zero_reps_rejected() {
        let mut net = LocalNetwork::new(vec![1], 2).unwrap();
        assert!(matches!(
            net.rep_apx_count(&Predicate::TRUE, 0),
            Err(QueryError::InvalidParameter(_))
        ));
        assert!(net.distinct_apx(0).is_err());
    }

    #[test]
    fn zoom_deactivates_and_rescales() {
        // Items across octaves: {1, 2, 3, 4, 8, 100}, X̄ = 128.
        let mut net = LocalNetwork::new(vec![1, 2, 3, 4, 8, 100], 128).unwrap();
        // Zoom into octave 1 = values {2, 3}.
        net.zoom(1).unwrap();
        let active = net.ground_truth();
        assert_eq!(active.len(), 2);
        // 2 → 1; 3 → 1 + 1*(127)/1 = 128.
        assert!(active.contains(&1) && active.contains(&128));
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 2);
        net.restore_items();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 6);
    }

    #[test]
    fn zoom_octave_zero() {
        let mut net = LocalNetwork::new(vec![0, 1, 2], 100).unwrap();
        net.zoom(0).unwrap();
        let active = net.ground_truth();
        // {0, 1} survive: 0 → 1, 1 → 1 + 99 = 100.
        assert_eq!(active.len(), 2);
        assert!(active.contains(&1) && active.contains(&100));
    }

    #[test]
    fn distinct_counts() {
        let mut net = LocalNetwork::new(vec![3, 3, 3, 7, 7, 9], 10).unwrap();
        assert_eq!(net.distinct_exact().unwrap(), 3);
        // Approximate distinct with small-range correction lands close.
        let est = net.distinct_apx(8).unwrap();
        assert!((est - 3.0).abs() <= 2.0, "estimate {est}");
    }

    #[test]
    fn distinct_apx_duplicate_insensitive_keying() {
        // 1000 copies of one value ≈ distinct count 1, not 1000.
        let mut net = LocalNetwork::new(vec![42; 1000], 100).unwrap();
        let est = net.distinct_apx(4).unwrap();
        assert!(est < 10.0, "estimate {est} should be near 1");
    }

    #[test]
    fn collect_matches_ground_truth_and_median() {
        let items = vec![9, 2, 5, 7, 1];
        let mut net = LocalNetwork::new(items.clone(), 10).unwrap();
        let mut collected = net.collect_values().unwrap();
        collected.sort_unstable();
        let mut expect = items;
        expect.sort_unstable();
        assert_eq!(collected, expect);
        assert_eq!(reference_median(&net.ground_truth()), Some(5));
    }

    proptest! {
        #[test]
        fn prop_rescale_monotone_injective(mu in 1u32..20, xbar in 1u64 << 21..1u64 << 30) {
            let lo = 1u64 << mu;
            let hi = (1u64 << (mu + 1)) - 1;
            let mut prev: Option<u64> = None;
            // Sample the octave's endpoints and a few interior points
            // (deduplicated: for narrow octaves the samples coincide).
            let mut samples = vec![lo, lo + 1, lo + (hi - lo) / 2, hi - 1, hi];
            samples.sort_unstable();
            samples.dedup();
            for x in samples {
                let y = rescale_into_octave(x, mu, xbar).unwrap();
                prop_assert!(y >= 1 && y <= xbar);
                if let Some(p) = prev {
                    prop_assert!(y > p, "monotone injective: {} !> {}", y, p);
                }
                prev = Some(y);
            }
            // Out-of-octave values become passive.
            prop_assert_eq!(rescale_into_octave(lo - 1, mu, xbar), None);
            prop_assert_eq!(rescale_into_octave(hi + 1, mu, xbar), None);
        }

        #[test]
        fn prop_counts_consistent(items in proptest::collection::vec(0u64..1000, 0..200), y in 0u64..1000) {
            let mut net = LocalNetwork::new(items.clone(), 1000).unwrap();
            let c = net.count(&Predicate::less_than(y)).unwrap();
            prop_assert_eq!(c, items.iter().filter(|&&x| x < y).count() as u64);
        }
    }
}
