//! The deterministic median / order-statistics algorithm (§3, Fig. 1).
//!
//! Binary search over the *value domain*: the root repeatedly asks
//! `COUNTP(X, "< y")` and homes in on the median in
//! `⌈log₂(M − m)⌉ + 1` rounds, for `O((log N)^2)` communication bits per
//! node (Theorem 3.2). Extending to an arbitrary `k`-order statistic just
//! replaces the `n/2` comparisons with `k` (§3.4).
//!
//! The search midpoint `y` can be half-integral; all arithmetic is in
//! exact **doubled coordinates** (`y2 = 2y`, `z2 = 2z`), so the loop
//! invariant of Lemma 3.1 (`µ ∈ [y − z, y + z]`) holds exactly —
//! [`Median::with_invariant_checking`] asserts it against ground truth at
//! every iteration, turning the paper's proof into an executable check.
//!
//! The algorithm itself is compiled into a [`MedianPlan`] wave plan
//! (`crate::plan`); this module's [`Median`] runner drives that plan
//! sequentially. The `StreamingEngine` drives the *same* plan batched with
//! other concurrent queries.

use crate::error::QueryError;
use crate::model::{is_order_statistic2, Value};
use crate::net::AggregationNetwork;
use crate::plan::{MedianPlan, PlanInput, PlanStep, QueryPlan};

/// Ceiling of `log₂ d` for `d ≥ 1` (the paper's `⌈log(M − m)⌉` iteration
/// bound).
pub fn ceil_log2(d: u64) -> u32 {
    debug_assert!(d >= 1);
    if d <= 1 {
        0
    } else {
        64 - (d - 1).leading_zeros()
    }
}

/// The deterministic exact median / order-statistic query (Fig. 1).
///
/// # Examples
///
/// ```
/// use saq_core::local::LocalNetwork;
/// use saq_core::median::Median;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let mut net = LocalNetwork::new(vec![30, 10, 20, 50, 40], 100)?;
/// let outcome = Median::new().run(&mut net)?;
/// assert_eq!(outcome.value, 30);
/// // Any order statistic with the same machinery (§3.4):
/// let min = Median::new().run_order_statistic(&mut net, 1)?;
/// assert_eq!(min.value, 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Median {
    check_invariant: bool,
}

/// Result of a deterministic median/order-statistic query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MedianOutcome {
    /// The exact answer (satisfies Definition 2.3).
    pub value: Value,
    /// Binary-search iterations executed (`= ⌈log₂(M − m)⌉`).
    pub iterations: u32,
    /// Total `COUNTP` invocations, including the initial `COUNT` and the
    /// possible half-integer tie-break (Theorem 3.2 counts
    /// `⌈log(M−m)⌉ + 1` of them plus the three primitives of Line 1).
    pub countp_calls: u32,
}

impl Median {
    /// A plain query runner.
    pub fn new() -> Self {
        Median {
            check_invariant: false,
        }
    }

    /// A runner that asserts Lemma 3.1's loop invariant against
    /// [`AggregationNetwork::ground_truth`] after every iteration.
    ///
    /// # Panics
    ///
    /// The returned runner's `run*` methods panic if the invariant is ever
    /// violated — used by the test suite as an executable proof artifact.
    pub fn with_invariant_checking() -> Self {
        Median {
            check_invariant: true,
        }
    }

    /// Computes `MEDIAN(X) = OS(X, N/2)` (Definition 2.3).
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyInput`] on an empty multiset; protocol errors
    /// are propagated.
    pub fn run<N: AggregationNetwork>(&self, net: &mut N) -> Result<MedianOutcome, QueryError> {
        self.drive(net, MedianPlan::median(net.xbar()))
    }

    /// Computes the `k`-order statistic `OS(X, k)` for `1 ≤ k ≤ N` (§3.4).
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyInput`] / [`QueryError::InvalidRank`] on bad
    /// inputs; protocol errors are propagated.
    pub fn run_order_statistic<N: AggregationNetwork>(
        &self,
        net: &mut N,
        k: u64,
    ) -> Result<MedianOutcome, QueryError> {
        self.drive(net, MedianPlan::order_statistic(net.xbar(), k))
    }

    /// Drives the compiled [`MedianPlan`] sequentially, optionally
    /// asserting Lemma 3.1 after every binary-search iteration.
    fn drive<N: AggregationNetwork>(
        &self,
        net: &mut N,
        mut plan: MedianPlan,
    ) -> Result<MedianOutcome, QueryError> {
        let mut input = PlanInput::Start;
        loop {
            let step = plan.step(input)?;
            if self.check_invariant {
                if let Some((k2, y2, z2)) = plan.window() {
                    self.assert_lemma_3_1(net, k2, y2, z2);
                }
            }
            match step {
                PlanStep::Done(out) => return Ok(out),
                PlanStep::Issue(op) => input = net.execute(&op)?,
            }
        }
    }

    /// Lemma 3.1 as an executable assertion: some valid `k2`-order
    /// statistic lies in `[y − z, y + z]` (doubled: `[y2 − z2, y2 + z2]`).
    fn assert_lemma_3_1<N: AggregationNetwork>(&self, net: &N, k2: u64, y2: i128, z2: i128) {
        let truth = net.ground_truth();
        let lo2 = (y2 - z2).max(0) as u64;
        let hi2 = (y2 + z2).max(0) as u64;
        // Valid answers form a contiguous range of integers; scan the
        // doubled window for one.
        let found = (lo2.div_ceil(2)..=hi2 / 2).any(|y| is_order_statistic2(&truth, k2, y));
        assert!(
            found,
            "Lemma 3.1 violated: no k2={k2} order statistic in doubled window [{lo2}, {hi2}]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalNetwork;
    use crate::model::{is_median, reference_order_statistic2};
    use proptest::prelude::*;

    fn median_of(items: Vec<Value>, xbar: Value) -> MedianOutcome {
        let mut net = LocalNetwork::new(items, xbar).unwrap();
        Median::with_invariant_checking().run(&mut net).unwrap()
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn simple_cases() {
        assert_eq!(median_of(vec![0, 1, 2], 10).value, 1);
        assert_eq!(median_of(vec![5], 10).value, 5);
        assert_eq!(median_of(vec![7, 7, 7], 10).value, 7);
        assert_eq!(median_of(vec![0, 100], 100).value, 0); // k=1: ℓ(0)=0<1, ℓ(1)=1≥1
    }

    #[test]
    fn empty_input_rejected() {
        let mut net = LocalNetwork::new(vec![], 10).unwrap();
        assert!(matches!(
            Median::new().run(&mut net),
            Err(QueryError::EmptyInput)
        ));
    }

    #[test]
    fn iteration_count_matches_theorem() {
        // M - m = 100 → ⌈log₂ 100⌉ = 7 iterations.
        let items: Vec<Value> = (0..=100).collect();
        let out = median_of(items, 200);
        assert_eq!(out.iterations, 7);
        assert_eq!(out.value, 50);
    }

    #[test]
    fn order_statistics_all_ranks() {
        let items = vec![9, 1, 7, 3, 5];
        let mut net = LocalNetwork::new(items.clone(), 10).unwrap();
        let runner = Median::with_invariant_checking();
        for k in 1..=5u64 {
            let got = runner.run_order_statistic(&mut net, k).unwrap().value;
            let expect = reference_order_statistic2(&items, 2 * k).unwrap();
            assert!(
                is_order_statistic2(&items, 2 * k, got),
                "k={k}: got {got} expect like {expect}"
            );
        }
    }

    #[test]
    fn invalid_rank_rejected() {
        let mut net = LocalNetwork::new(vec![1, 2, 3], 10).unwrap();
        assert!(matches!(
            Median::new().run_order_statistic(&mut net, 0),
            Err(QueryError::InvalidRank { k: 0, n: 3 })
        ));
        assert!(matches!(
            Median::new().run_order_statistic(&mut net, 4),
            Err(QueryError::InvalidRank { k: 4, n: 3 })
        ));
    }

    #[test]
    fn countp_calls_bound() {
        // Theorem 3.2: the loop runs ⌈log(M−m)⌉ times; with the initial
        // COUNT and at most one tie-break the total COUNTP budget is
        // ⌈log(M−m)⌉ + 2.
        let items: Vec<Value> = (0..1000).map(|i| i * 7 % 997).collect();
        let out = median_of(items, 1000);
        assert!(out.countp_calls <= ceil_log2(997) + 2);
    }

    proptest! {
        #[test]
        fn prop_median_valid_with_invariant(items in proptest::collection::vec(0u64..10_000, 1..300)) {
            let out = median_of(items.clone(), 10_000);
            prop_assert!(is_median(&items, out.value),
                "value {} is not a median of the input", out.value);
        }

        #[test]
        fn prop_any_order_statistic_valid(items in proptest::collection::vec(0u64..1000, 1..100), k in 1u64..100) {
            let k = k.min(items.len() as u64);
            let mut net = LocalNetwork::new(items.clone(), 1000).unwrap();
            let out = Median::with_invariant_checking()
                .run_order_statistic(&mut net, k)
                .unwrap();
            prop_assert!(is_order_statistic2(&items, 2 * k, out.value));
        }

        #[test]
        fn prop_duplicates_heavy(v in 0u64..100, extra in proptest::collection::vec(0u64..100, 0..50)) {
            // Heavy duplication: half the items share one value.
            let mut items = vec![v; extra.len() + 1];
            items.extend(extra);
            let out = median_of(items.clone(), 100);
            prop_assert!(is_median(&items, out.value));
        }

        #[test]
        fn prop_iterations_are_log_range(lo in 0u64..1000, width_pow in 1u32..20) {
            let hi = lo + (1u64 << width_pow);
            let items = vec![lo, (lo + hi) / 2, hi];
            let mut net = LocalNetwork::new(items, 1 << 21).unwrap();
            let out = Median::new().run(&mut net).unwrap();
            // M − m = 2^width_pow exactly → exactly width_pow iterations.
            prop_assert_eq!(out.iterations, width_pow);
        }
    }
}
