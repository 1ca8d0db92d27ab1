//! The randomized approximate median (§4, Fig. 2, Theorems 4.5–4.6).
//!
//! Same value-domain binary search as Fig. 1, with two changes:
//!
//! * exact `COUNTP` is replaced by `REP_COUNTP(r, ·)` — the average of
//!   `r` independent `APX_COUNT` instances (Durand–Flajolet sketches);
//! * the branch test becomes **error tolerant**: with thresholds
//!   `n(½ ± (α_c + σ))`, a count falling in the uncertain middle band
//!   halts the search immediately — by Lemma 4.4 the midpoint is already
//!   a `(3σ, 1/X̄)`-median.
//!
//! The same search with target rank `k` instead of `n/2` answers
//! approximate `k`-order statistics (Theorem 4.6); run on the **log
//! domain** it is the inner loop of the polyloglog `APX_MEDIAN2`
//! (Fig. 4 line 3.1).

use crate::error::QueryError;
use crate::model::Value;
use crate::net::AggregationNetwork;
use crate::plan::{run_plan, ApxMedianPlan};
use crate::predicate::Domain;

/// Search target: the median rank (estimated `n/2`) or an absolute rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankTarget {
    /// Target `k = n/2` where `n` is the protocol's own population
    /// estimate (the median).
    Median,
    /// An absolute rank target (possibly fractional, as produced by the
    /// rank adjustments of Fig. 4).
    Rank(f64),
}

/// The approximate median / order-statistic query of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct ApxMedian {
    /// Failure-probability budget ε of Theorem 4.5.
    pub epsilon: f64,
}

/// Result of an approximate median/order-statistic query.
#[derive(Debug, Clone, PartialEq)]
pub struct ApxMedianOutcome {
    /// The answer, an `(α, β)`-order statistic with probability ≥ 1 − ε.
    pub value: Value,
    /// Whether the search halted early in the uncertain band
    /// (Fig. 2 line 4.2.1).
    pub halted_early: bool,
    /// Binary-search iterations executed.
    pub iterations: u32,
    /// The protocol's population estimate `n`.
    pub estimated_n: f64,
    /// The rank-error guarantee `α = 3σ` of Theorem 4.5.
    pub alpha_guarantee: f64,
    /// The value-error guarantee `β` (relative to the domain maximum).
    pub beta_guarantee: f64,
    /// Total `APX_COUNT` instances consumed (the communication driver).
    pub apx_count_instances: u64,
}

impl ApxMedian {
    /// Creates a runner with failure budget `epsilon`.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidParameter`] unless `0 < ε < 1`.
    pub fn new(epsilon: f64) -> Result<Self, QueryError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(QueryError::InvalidParameter("epsilon must be in (0, 1)"));
        }
        Ok(ApxMedian { epsilon })
    }

    /// Computes an `(α, β)`-median (Definition 2.4) with probability at
    /// least `1 − ε` (Theorem 4.5): `α = 3σ`, `β = 1/X̄`.
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyInput`] on an empty multiset; protocol errors
    /// are propagated.
    pub fn run<N: AggregationNetwork>(&self, net: &mut N) -> Result<ApxMedianOutcome, QueryError> {
        self.run_target(net, Domain::Raw, RankTarget::Median)
    }

    /// Computes an approximate `k`-order statistic (Theorem 4.6).
    ///
    /// # Errors
    ///
    /// As [`ApxMedian::run`].
    pub fn run_order_statistic<N: AggregationNetwork>(
        &self,
        net: &mut N,
        k: u64,
    ) -> Result<ApxMedianOutcome, QueryError> {
        self.run_target(net, Domain::Raw, RankTarget::Rank(k as f64))
    }

    /// The generic Fig. 2 search in the given domain with the given rank
    /// target. `Domain::Log` is the `APX_MEDIAN2` inner loop: all
    /// thresholds and answers are log-values.
    ///
    /// The algorithm is compiled into an [`ApxMedianPlan`] wave plan
    /// (`crate::plan`) and driven sequentially here; the `StreamingEngine`
    /// drives the same plan batched with other concurrent queries.
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyInput`] if no active items remain; protocol
    /// errors are propagated.
    pub fn run_target<N: AggregationNetwork>(
        &self,
        net: &mut N,
        domain: Domain,
        target: RankTarget,
    ) -> Result<ApxMedianOutcome, QueryError> {
        let mut plan =
            ApxMedianPlan::new(self.epsilon, domain, target, net.apx_config(), net.xbar())?;
        run_plan(net, &mut plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::ApxCountConfig;
    use crate::local::LocalNetwork;
    use crate::model::{is_apx_median, is_apx_order_statistic2};

    fn net_with(items: Vec<Value>, xbar: Value, seed: u64) -> LocalNetwork {
        LocalNetwork::with_config(items, xbar, ApxCountConfig::default().with_seed(seed)).unwrap()
    }

    #[test]
    fn parameter_validation() {
        assert!(ApxMedian::new(0.0).is_err());
        assert!(ApxMedian::new(1.0).is_err());
        assert!(ApxMedian::new(-0.3).is_err());
        assert!(ApxMedian::new(0.25).is_ok());
    }

    #[test]
    fn empty_input_rejected() {
        let mut net = net_with(vec![], 100, 1);
        assert!(matches!(
            ApxMedian::new(0.5).unwrap().run(&mut net),
            Err(QueryError::EmptyInput)
        ));
    }

    #[test]
    fn degenerate_all_equal() {
        let mut net = net_with(vec![9; 50], 100, 1);
        let out = ApxMedian::new(0.5).unwrap().run(&mut net).unwrap();
        assert_eq!(out.value, 9);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.apx_count_instances, 0);
    }

    #[test]
    fn success_rate_beats_epsilon() {
        // Theorem 4.5 check on 40 seeded trials: the output must be a
        // (3σ, 1/N)-median with probability ≥ 1 − ε. We verify against
        // the slightly looser α' = 3σ + small slack to absorb the
        // finite-N sketch bias.
        let items: Vec<Value> = (0..4000u64).map(|i| (i * 37) % 4096).collect();
        let epsilon = 0.5;
        let runner = ApxMedian::new(epsilon).unwrap();
        let mut failures = 0;
        let trials = 40;
        for seed in 0..trials {
            let mut net = net_with(items.clone(), 4096, 1000 + seed);
            let out = runner.run(&mut net).unwrap();
            let alpha = out.alpha_guarantee + 0.05;
            let beta = 2.0 / items.len() as f64;
            if !is_apx_median(&items, alpha, beta, 4096, out.value) {
                failures += 1;
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!(
            rate <= epsilon,
            "failure rate {rate} exceeds epsilon {epsilon} ({failures}/{trials})"
        );
    }

    #[test]
    fn order_statistic_targets_rank() {
        let items: Vec<Value> = (0..2000).collect();
        let runner = ApxMedian::new(0.25).unwrap();
        for (k, seed) in [(200u64, 7u64), (1000, 8), (1800, 9)] {
            let mut net = net_with(items.clone(), 2000, seed);
            let out = runner.run_order_statistic(&mut net, k).unwrap();
            // The guarantee is rank-relative: extreme ranks widen alpha by
            // n/(2k) (see run_target).
            assert!(
                is_apx_order_statistic2(
                    &items,
                    2 * k,
                    out.alpha_guarantee + 0.1,
                    0.02,
                    2000,
                    out.value
                ),
                "k={k}: value {} rejected (alpha {})",
                out.value,
                out.alpha_guarantee
            );
        }
    }

    #[test]
    fn log_domain_search() {
        // Items spread across octaves; the log-domain median is the
        // octave index holding the middle item.
        let mut items = Vec::new();
        for oct in 0..10u32 {
            for i in 0..100u64 {
                items.push((1u64 << oct) + i % (1u64 << oct).max(1));
            }
        }
        let mut net = net_with(items.clone(), 1 << 12, 3);
        let out = ApxMedian::new(0.25)
            .unwrap()
            .run_target(&mut net, Domain::Log, RankTarget::Median)
            .unwrap();
        // True log-median: octave ~4-5 (items uniform across octaves).
        assert!(
            (3..=6).contains(&(out.value as u32)),
            "log-domain median {}",
            out.value
        );
    }

    #[test]
    fn instances_scale_with_epsilon() {
        let items: Vec<Value> = (0..1000).collect();
        let mut net_loose = net_with(items.clone(), 1000, 1);
        let mut net_tight = net_with(items, 1000, 1);
        let loose = ApxMedian::new(0.5).unwrap().run(&mut net_loose).unwrap();
        let tight = ApxMedian::new(0.05).unwrap().run(&mut net_tight).unwrap();
        assert!(
            tight.apx_count_instances > loose.apx_count_instances,
            "tighter epsilon must spend more instances ({} vs {})",
            tight.apx_count_instances,
            loose.apx_count_instances
        );
    }

    #[test]
    fn early_halt_triggers_on_uniform_data() {
        // On uniform data the first midpoint y = (M+m)/2 already has
        // ℓ(y) ≈ n/2: the count lands in the uncertain band and the
        // search halts immediately — and by Lemma 4.4 the midpoint is a
        // valid (3σ, 1/X̄)-median.
        let items: Vec<Value> = (0..4000).collect();
        let mut halted = 0;
        for seed in 0..10 {
            let mut net = net_with(items.clone(), 4000, 40 + seed);
            let out = ApxMedian::new(0.5).unwrap().run(&mut net).unwrap();
            if out.halted_early {
                halted += 1;
                assert!(
                    is_apx_median(&items, out.alpha_guarantee + 0.05, 0.01, 4000, out.value),
                    "halted output {} invalid",
                    out.value
                );
            }
        }
        assert!(
            halted >= 5,
            "uniform input should usually halt early ({halted}/10)"
        );
    }

    #[test]
    fn bimodal_gap_halts_with_rank_valid_answer() {
        // Two equal masses separated by a wide empty gap: every midpoint
        // in the gap has ℓ(y) ≈ n/2, so the tolerant search halts there
        // immediately — and by Definition 2.4 such a y IS a valid
        // (alpha, beta)-median (its own rank qualifies as the witness y').
        // This is the definitional subtlety the alpha slack exists for.
        let items: Vec<Value> = std::iter::repeat_n(10u64, 1000)
            .chain(std::iter::repeat_n(990u64, 1001))
            .collect();
        let mut net = net_with(items.clone(), 1000, 77);
        let out = ApxMedian::new(0.5).unwrap().run(&mut net).unwrap();
        assert!(out.halted_early, "gap counts sit squarely in the band");
        assert!(
            is_apx_median(&items, out.alpha_guarantee + 0.05, 0.0, 1000, out.value),
            "gap value {} must be rank-valid with zero beta slack",
            out.value
        );
    }
}
