//! The query engine: batched multi-query waves over a [`SimNetwork`].
//!
//! The root of a sensor network rarely has one question. The engine lets
//! many independent "users" submit queries ([`QuerySpec`]) and executes
//! them **concurrently**: each round it collects the pending
//! [`crate::plan::PlanOp`] of every active wave plan and multiplexes them
//! into *one shared broadcast–convergecast wave* (the
//! [`saq_protocols::MultiplexWave`] envelope). `k` concurrent queries
//! therefore pay one per-message wave header per round instead of `k` —
//! the saving the paper's per-node bit economy makes worthwhile, measured
//! by experiment E12.
//!
//! **One loop.** The engine is [`crate::streaming::StreamingEngine`],
//! and a closed batch is `submit` × k on an idle engine followed by
//! `run_until_idle` (see [`crate::streaming`]). This module holds the
//! vocabulary the loop and the fleet share: specs, outcomes, bills,
//! reports, the plan compiler and the per-query slot state machine.
//!
//! **Honest accounting.** Every encoded bit of a shared wave is
//! attributed: sub-request and sub-partial bits to the issuing query
//! (exactly, from the envelope's ledger), unattributable framing (wave
//! headers, the slot-count prefix) split evenly across the wave's
//! participants. [`QueryReport::bits`] is the resulting per-query bill.
//!
//! **Isolation.** Queries that mutate item state
//! ([`QuerySpec::mutates_items`], i.e. `APX_MEDIAN2`'s zoom stages)
//! cannot share item state with concurrent readers; the loop
//! runs them after the shareable queries of their cohort, each
//! exclusively, restoring items afterwards.
//!
//! Sequential mode ([`BatchPolicy::Sequential`]) runs the identical
//! plans, nonce assignments and waves one sub-request at a time — so
//! batched and sequential execution return **identical results** (the
//! determinism test in `tests/engine_batching.rs`) and differ only in
//! bits and rounds.

use crate::apx_median::ApxMedianOutcome;
use crate::apx_median::RankTarget;
use crate::apx_median2::ApxMedian2Outcome;
use crate::error::QueryError;
use crate::median::MedianOutcome;
use crate::model::Value;
use crate::net::AggregationNetwork;
use crate::plan::{
    ApxMedian2Plan, ApxMedianPlan, MedianPlan, PlanInput, PlanOp, PlanStep, PrimitivePlan,
    QuantileOutcome, QuantilePlan, QueryPlan,
};
use crate::predicate::{Domain, Predicate};
use crate::simnet::SimNetwork;
use crate::wave_proto::CoreRequest;

/// A user query submitted to the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Exact `COUNTP(X, P)`.
    Count(Predicate),
    /// Exact `SUM` over matching items.
    Sum(Predicate),
    /// MIN over active items.
    Min(Domain),
    /// MAX over active items.
    Max(Domain),
    /// `REP_COUNTP(reps, P)` — approximate population count.
    ApxCount {
        /// The counted predicate.
        pred: Predicate,
        /// Number of independent sketch instances.
        reps: u32,
    },
    /// Exact distinct count (§5; linear near the root by Theorem 5.1).
    DistinctExact,
    /// Approximate distinct count (value-hashed sketches).
    DistinctApx {
        /// Number of independent sketch instances.
        reps: u32,
    },
    /// Collect every value (naive baseline).
    Collect,
    /// ε-approximate φ-quantile via one mergeable-summary convergecast
    /// (GK-style): answers with a certified rank-error bound of at most
    /// `ε · N`.
    Quantile {
        /// The queried quantile, `0 < q ≤ 1` (`0.5` = median).
        q: f64,
        /// Rank-error budget ε as a fraction of the population.
        eps: f64,
    },
    /// Bottom-k uniform sample of item values (ODI: deterministic
    /// identity hashing, so repeats reproduce — and can be served from
    /// subtree partial caches).
    BottomK {
        /// Sample capacity, `k ≥ 1`.
        k: u32,
    },
    /// Exact median (Fig. 1).
    Median,
    /// Exact `k`-order statistic (§3.4).
    OrderStatistic {
        /// The rank, `1 ≤ k ≤ N`.
        k: u64,
    },
    /// Approximate median (Fig. 2).
    ApxMedian {
        /// Failure budget ε.
        epsilon: f64,
    },
    /// Polyloglog approximate median (Fig. 4). Zooms, so runs
    /// exclusively.
    ApxMedian2 {
        /// Value precision β.
        beta: f64,
        /// Failure budget ε.
        epsilon: f64,
    },
}

impl QuerySpec {
    /// Whether this spec compiles to a plan that mutates item state
    /// (`APX_MEDIAN2`'s zoom stages) and therefore runs exclusively —
    /// and can never be registered as a standing query.
    pub fn mutates_items(&self) -> bool {
        matches!(self, QuerySpec::ApxMedian2 { .. })
    }

    /// Whether this spec's plan draws **fresh** sketch randomness per
    /// invocation (`REP_COUNTP`-style nonces). Such specs are not
    /// delta-maintainable: their sub-requests never repeat, so cached
    /// subtree partials can never serve them, and re-running them as a
    /// standing query would either correlate randomness across refreshes
    /// or pay a full convergecast every period. Standing registration
    /// rejects them loudly.
    pub fn draws_fresh_randomness(&self) -> bool {
        matches!(
            self,
            QuerySpec::ApxCount { .. }
                | QuerySpec::DistinctApx { .. }
                | QuerySpec::ApxMedian { .. }
                | QuerySpec::ApxMedian2 { .. }
        )
    }
}

/// A finished query's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome {
    /// Exact count / sum / distinct count.
    Num(u64),
    /// Min/max (None on an empty network).
    OptVal(Option<Value>),
    /// Sketch estimate.
    Est(f64),
    /// Collected values, or a bottom-k sample (key-ordered, i.e.
    /// uniformly shuffled).
    Values(Vec<Value>),
    /// ε-approximate quantile with its certified rank error.
    Quantile(QuantileOutcome),
    /// Exact median / order statistic.
    Median(MedianOutcome),
    /// Approximate median.
    ApxMedian(ApxMedianOutcome),
    /// Polyloglog approximate median.
    ApxMedian2(ApxMedian2Outcome),
}

/// Per-query bit bill (transmit-side; double it for tx+rx network cost
/// under lossless links).
///
/// Exact under [`saq_protocols::wave::Reliability::None`] (the engine's
/// intended setting), including under partial caching: the
/// shared-overhead share bills one wave header per message *actually
/// transmitted*, so cache-silenced subtrees are never charged. Under
/// per-hop ARQ the payload bill is a lower bound (each logical message
/// is charged once at encode time; retransmissions resend the cached
/// payload without re-encoding) while the header share counts every
/// transmitted frame, ACK and retransmission frames included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBits {
    /// Bits of this query's sub-requests in request envelopes.
    pub request_bits: u64,
    /// Bits of this query's sub-partials in partial envelopes.
    pub partial_bits: u64,
    /// This query's even share of unattributable framing (wave headers
    /// and envelope slot-count prefixes).
    pub shared_overhead_bits: u64,
}

impl QueryBits {
    /// The total bill.
    pub fn total(&self) -> u64 {
        self.request_bits + self.partial_bits + self.shared_overhead_bits
    }
}

/// Identifier of a submitted query (submission order).
pub type QueryId = usize;

/// The report the engine returns for one query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// The query's id.
    pub id: QueryId,
    /// The submitted spec.
    pub spec: QuerySpec,
    /// The answer, or the algorithm-level error.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// Honest per-query bit accounting.
    pub bits: QueryBits,
    /// Number of waves this query participated in.
    pub waves: u32,
}

/// How the engine schedules shareable queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Multiplex every round's pending ops into one shared wave.
    #[default]
    Batched,
    /// One wave per op (same plans and seeds; the baseline E12 compares
    /// against).
    Sequential,
}

pub(crate) enum EnginePlan {
    Primitive(PrimitivePlan),
    Quantile(QuantilePlan),
    Median(MedianPlan),
    ApxMedian(ApxMedianPlan),
    ApxMedian2(Box<ApxMedian2Plan>),
}

impl EnginePlan {
    fn step(&mut self, input: PlanInput) -> Result<PlanStep<QueryOutcome>, QueryError> {
        Ok(match self {
            EnginePlan::Primitive(p) => p.step(input)?.map(|raw| match raw {
                PlanInput::Num(v) => QueryOutcome::Num(v),
                PlanInput::OptVal(v) => QueryOutcome::OptVal(v),
                PlanInput::Est(v) => QueryOutcome::Est(v),
                PlanInput::Values(v) => QueryOutcome::Values(v),
                other => unreachable!("primitive produced {other:?}"),
            }),
            EnginePlan::Quantile(p) => p.step(input)?.map(QueryOutcome::Quantile),
            EnginePlan::Median(p) => p.step(input)?.map(QueryOutcome::Median),
            EnginePlan::ApxMedian(p) => p.step(input)?.map(QueryOutcome::ApxMedian),
            EnginePlan::ApxMedian2(p) => p.step(input)?.map(QueryOutcome::ApxMedian2),
        })
    }
}

pub(crate) enum SlotState {
    /// Waiting to be stepped with this input.
    Ready(PlanInput),
    /// Finished.
    Done(Result<QueryOutcome, QueryError>),
}

/// Submission ordinals with a sketch-nonce space of their own: the nonce
/// carries 15 bits of ordinal (see [`QuerySlot`]'s `nonce_ordinal`).
/// Past it, the engine still serves nonce-free specs but refuses
/// randomized ones ([`QuerySpec::draws_fresh_randomness`]) as
/// [`QueryError::InvalidParameter`] rather than correlate their
/// randomness with an earlier query's.
pub(crate) const NONCE_ORDINALS: usize = 0x8000;

pub(crate) struct QuerySlot {
    pub(crate) id: QueryId,
    /// Engine-lifetime submission ordinal feeding the nonce space
    /// `(ordinal << 16) | counter`, so sketch seeds depend only on the
    /// query and its op sequence — identical under batched and
    /// sequential execution and across closed batches (the ordinal is
    /// the streaming engine's submission counter, which never resets).
    /// Collision-free for the first [`NONCE_ORDINALS`] submissions of 65536
    /// sketch ops each; later submissions never draw a nonce (see
    /// [`NONCE_ORDINALS`]). The top bit stays clear: direct [`SimNetwork`]
    /// primitive calls draw nonces with the top bit set, so interleaving
    /// the two APIs on one network never reuses sketch randomness.
    nonce_ordinal: u32,
    pub(crate) spec: QuerySpec,
    pub(crate) plan: EnginePlan,
    pub(crate) state: SlotState,
    pub(crate) bits: QueryBits,
    pub(crate) waves: u32,
    apx_counter: u32,
}

impl QuerySlot {
    /// A fresh slot for a compiled (or born-failed) query. `ordinal` is
    /// the engine-lifetime submission ordinal feeding the sketch-nonce
    /// space; it must be unique per engine lifetime and below
    /// [`NONCE_ORDINALS`] for any query that draws a nonce.
    pub(crate) fn new(
        id: QueryId,
        ordinal: u32,
        spec: QuerySpec,
        compiled: Result<EnginePlan, QueryError>,
    ) -> Self {
        let (plan, state) = match compiled {
            Ok(p) => (p, SlotState::Ready(PlanInput::Start)),
            Err(e) => (
                EnginePlan::Primitive(PrimitivePlan::new(PlanOp::DistinctExact)),
                SlotState::Done(Err(e)),
            ),
        };
        QuerySlot {
            id,
            nonce_ordinal: ordinal,
            spec,
            plan,
            state,
            bits: QueryBits::default(),
            waves: 0,
            apx_counter: 0,
        }
    }

    /// Whether this slot has finished (successfully or not).
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, SlotState::Done(_))
    }

    /// Steps the slot's plan if it is ready: returns the wire request of
    /// the next op it wants issued (leaving the slot in the mid-wave
    /// placeholder state the wave completion overwrites), or `None` once
    /// the slot is done — including when this very step finished it or
    /// surfaced an algorithm-level error.
    pub(crate) fn advance(&mut self) -> Option<CoreRequest> {
        if self.is_done() {
            return None;
        }
        let SlotState::Ready(input) =
            std::mem::replace(&mut self.state, SlotState::Ready(PlanInput::Start))
        else {
            unreachable!("checked Ready above");
        };
        match self.plan.step(input) {
            Ok(PlanStep::Done(out)) => {
                self.state = SlotState::Done(Ok(out));
                None
            }
            Ok(PlanStep::Issue(op)) => {
                let req = CoreRequest::from_op(&op, || self.fresh_nonce());
                self.state = SlotState::Ready(PlanInput::Unit); // placeholder
                Some(req)
            }
            Err(e) => {
                self.state = SlotState::Done(Err(e));
                None
            }
        }
    }

    /// Consumes a finished slot into its report.
    ///
    /// # Panics
    ///
    /// Panics if the slot has not finished.
    pub(crate) fn into_report(self) -> QueryReport {
        QueryReport {
            id: self.id,
            spec: self.spec,
            outcome: match self.state {
                SlotState::Done(r) => r,
                SlotState::Ready(_) => unreachable!("slot retired before completion"),
            },
            bits: self.bits,
            waves: self.waves,
        }
    }

    fn fresh_nonce(&mut self) -> u32 {
        let nonce = ((self.nonce_ordinal & 0x7FFF) << 16) | (self.apx_counter & 0xFFFF);
        self.apx_counter = self.apx_counter.wrapping_add(1);
        nonce
    }
}

/// Compiles a [`QuerySpec`] into its executable wave plan against the
/// deployment parameters of `net` (value domain, sketch configuration,
/// tree shape) — for ad-hoc queries and standing refreshes alike.
pub(crate) fn compile_plan(net: &SimNetwork, spec: &QuerySpec) -> Result<EnginePlan, QueryError> {
    let cfg = net.apx_config();
    let xbar = net.xbar();
    let primitive = |op: PlanOp| -> Result<EnginePlan, QueryError> {
        op.validate()?;
        Ok(EnginePlan::Primitive(PrimitivePlan::new(op)))
    };
    Ok(match spec {
        QuerySpec::Count(p) => primitive(PlanOp::Count(*p))?,
        QuerySpec::Sum(p) => primitive(PlanOp::Sum(*p))?,
        QuerySpec::Min(d) => primitive(PlanOp::Min(*d))?,
        QuerySpec::Max(d) => primitive(PlanOp::Max(*d))?,
        QuerySpec::ApxCount { pred, reps } => primitive(PlanOp::ApxCount {
            pred: *pred,
            reps: *reps,
        })?,
        QuerySpec::DistinctExact => primitive(PlanOp::DistinctExact)?,
        QuerySpec::DistinctApx { reps } => primitive(PlanOp::DistinctApx { reps: *reps })?,
        QuerySpec::Collect => primitive(PlanOp::Collect)?,
        QuerySpec::Quantile { q, eps } => {
            // Worst-case merge-then-prune steps along any root path:
            // every node prunes once per child merge plus once for its
            // own partial, bounded by the tree's communication degree
            // per level.
            let prunes = (net.tree_height() + 1)
                .saturating_mul(net.tree_max_degree().min(u32::MAX as usize) as u32);
            EnginePlan::Quantile(QuantilePlan::new(
                *q,
                QuantilePlan::budget_for(*eps, prunes)?,
            )?)
        }
        QuerySpec::BottomK { k } => primitive(PlanOp::BottomK { k: *k })?,
        QuerySpec::Median => EnginePlan::Median(MedianPlan::median(xbar)),
        QuerySpec::OrderStatistic { k } => {
            EnginePlan::Median(MedianPlan::order_statistic(xbar, *k))
        }
        QuerySpec::ApxMedian { epsilon } => EnginePlan::ApxMedian(ApxMedianPlan::new(
            *epsilon,
            Domain::Raw,
            RankTarget::Median,
            cfg,
            xbar,
        )?),
        QuerySpec::ApxMedian2 { beta, epsilon } => {
            EnginePlan::ApxMedian2(Box::new(ApxMedian2Plan::new(*beta, *epsilon, cfg, xbar)?))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::reference_median;
    use crate::simnet::SimNetworkBuilder;
    use crate::streaming::{AdmissionPolicy, StreamingEngine};
    use saq_netsim::topology::Topology;

    fn grid_net(side: usize, seed_off: u64) -> SimNetwork {
        let topo = Topology::grid(side, side).unwrap();
        let n = side * side;
        let items: Vec<Value> = (0..n as u64).map(|i| (i * 13) % (n as u64)).collect();
        SimNetworkBuilder::new()
            .apx_config(crate::counting::ApxCountConfig::default().with_seed(77 + seed_off))
            .build_one_per_node(&topo, &items, 2 * n as u64)
            .unwrap()
    }

    #[test]
    fn three_concurrent_queries_one_shared_first_wave() {
        let mut engine = StreamingEngine::new(grid_net(4, 0));
        engine.submit(QuerySpec::Count(Predicate::TRUE));
        engine.submit(QuerySpec::Max(Domain::Raw));
        engine.submit(QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 4,
        });
        let reports = engine.run_until_idle().unwrap();
        // All three are single-wave queries: exactly one shared wave.
        assert_eq!(engine.waves_issued(), 1);
        assert_eq!(reports[0].report.outcome, Ok(QueryOutcome::Num(16)));
        assert_eq!(
            reports[1].report.outcome,
            Ok(QueryOutcome::OptVal(Some(15)))
        );
        assert!(matches!(
            reports[2].report.outcome,
            Ok(QueryOutcome::Est(_))
        ));
        for r in &reports {
            assert!(
                r.report.bits.total() > 0,
                "query {} was not billed",
                r.report.id
            );
            assert_eq!(r.report.waves, 1);
        }
    }

    #[test]
    fn median_batches_with_primitives() {
        let mut engine = StreamingEngine::new(grid_net(4, 1));
        let median = engine.submit(QuerySpec::Median);
        let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let reports = engine.run_until_idle().unwrap();
        let truth = {
            let items: Vec<Value> = (0..16u64).map(|i| (i * 13) % 16).collect();
            reference_median(&items).unwrap()
        };
        match &reports[median].report.outcome {
            Ok(QueryOutcome::Median(out)) => assert_eq!(out.value, truth),
            other => panic!("median failed: {other:?}"),
        }
        assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(16)));
        // The count rode the median's first wave: no extra waves beyond
        // the median's own sequence.
        let median_waves = reports[median].report.waves;
        assert_eq!(engine.waves_issued() as u32, median_waves);
    }

    #[test]
    fn exclusive_apx_median2_runs_and_restores() {
        let mut engine = StreamingEngine::new(grid_net(6, 2));
        let cnt = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let am2 = engine.submit(QuerySpec::ApxMedian2 {
            beta: 0.25,
            epsilon: 0.4,
        });
        let reports = engine.run_until_idle().unwrap();
        assert_eq!(reports[cnt].report.outcome, Ok(QueryOutcome::Num(36)));
        assert!(matches!(
            reports[am2].report.outcome,
            Ok(QueryOutcome::ApxMedian2(_))
        ));
        // Items restored after the zooming query.
        let mut net = engine.into_network();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 36);
    }

    #[test]
    fn quantile_and_bottom_k_batch_with_primitives() {
        let mut engine = StreamingEngine::new(grid_net(6, 9));
        let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let quant = engine.submit(QuerySpec::Quantile { q: 0.5, eps: 0.1 });
        let sample = engine.submit(QuerySpec::BottomK { k: 8 });
        let reports = engine.run_until_idle().unwrap();
        // All three are single-wave queries: one shared wave.
        assert_eq!(engine.waves_issued(), 1);
        assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(36)));
        match &reports[quant].report.outcome {
            Ok(QueryOutcome::Quantile(out)) => {
                assert_eq!(out.count, 36);
                let v = out.value.expect("nonempty network");
                // 36 items (i*13)%36: the certified bound must hold for
                // the true rank of the answered value.
                let mut items: Vec<Value> = (0..36u64).map(|i| (i * 13) % 36).collect();
                items.sort_unstable();
                let lo = items.iter().filter(|&&x| x < v).count() as u64 + 1;
                let hi = items.iter().filter(|&&x| x <= v).count() as u64;
                assert!(
                    lo <= 18 + out.rank_error && hi + out.rank_error >= 18,
                    "median {v} outside certified band ±{}",
                    out.rank_error
                );
                // The budget was provisioned for ε·N total rank error
                // across every merge-then-prune on the tree.
                assert!(out.rank_error as f64 <= 0.1 * 36.0);
            }
            other => panic!("quantile failed: {other:?}"),
        }
        match &reports[sample].report.outcome {
            Ok(QueryOutcome::Values(vs)) => assert_eq!(vs.len(), 8),
            other => panic!("bottom-k failed: {other:?}"),
        }
        // Honest per-slot attribution: every query billed, the summary
        // and sample pay more than the cheap count.
        for r in &reports {
            assert!(r.report.bits.total() > 0, "query {} unbilled", r.report.id);
        }
        assert!(reports[quant].report.bits.partial_bits > reports[count].report.bits.partial_bits);
        assert!(reports[sample].report.bits.partial_bits > reports[count].report.bits.partial_bits);
    }

    #[test]
    fn quantile_invalid_parameters_reported() {
        let mut engine = StreamingEngine::new(grid_net(3, 10));
        let bad_q = engine.submit(QuerySpec::Quantile { q: 0.0, eps: 0.1 });
        let bad_eps = engine.submit(QuerySpec::Quantile { q: 0.5, eps: 1.5 });
        let bad_k = engine.submit(QuerySpec::BottomK { k: 0 });
        let reports = engine.run_until_idle().unwrap();
        for id in [bad_q, bad_eps, bad_k] {
            assert!(
                matches!(
                    reports[id].report.outcome,
                    Err(QueryError::InvalidParameter(_))
                ),
                "query {id} should fail: {:?}",
                reports[id].report.outcome
            );
        }
    }

    #[test]
    fn invalid_parameter_reported_per_query() {
        let mut engine = StreamingEngine::new(grid_net(3, 3));
        let bad = engine.submit(QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 0,
        });
        let good = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let reports = engine.run_until_idle().unwrap();
        assert!(matches!(
            reports[bad].report.outcome,
            Err(QueryError::InvalidParameter(_))
        ));
        assert_eq!(reports[good].report.outcome, Ok(QueryOutcome::Num(9)));
    }

    #[test]
    fn batched_strictly_cheaper_than_sequential() {
        let specs = [
            QuerySpec::Count(Predicate::TRUE),
            QuerySpec::Min(Domain::Raw),
            QuerySpec::Max(Domain::Raw),
            QuerySpec::Median,
        ];
        let mut batched = StreamingEngine::with_policy(
            grid_net(4, 4),
            BatchPolicy::Batched,
            AdmissionPolicy::EveryRound,
        );
        let mut sequential = StreamingEngine::with_policy(
            grid_net(4, 4),
            BatchPolicy::Sequential,
            AdmissionPolicy::EveryRound,
        );
        for s in &specs {
            batched.submit(s.clone());
            sequential.submit(s.clone());
        }
        let br = batched.run_until_idle().unwrap();
        let sr = sequential.run_until_idle().unwrap();
        // Identical answers...
        for (b, s) in br.iter().zip(sr.iter()) {
            assert_eq!(
                b.report.outcome.as_ref().unwrap(),
                s.report.outcome.as_ref().unwrap(),
                "policy changed the answer of {:?}",
                b.report.spec
            );
        }
        // ...at strictly lower network cost.
        let b_bits = batched.network().net_stats().unwrap().max_node_bits();
        let s_bits = sequential.network().net_stats().unwrap().max_node_bits();
        assert!(
            b_bits < s_bits,
            "batched {b_bits} !< sequential {s_bits} per-node bits"
        );
        assert!(batched.waves_issued() < sequential.waves_issued());
    }

    #[test]
    fn sharded_engine_reports_match_single_threaded() {
        // The engine's whole report — answers, per-query bit ledgers,
        // wave counts — is identical on the boxed oracle (k = 1) and on
        // flat workers.
        let topo = Topology::balanced_tree(40, 4).unwrap();
        let items: Vec<Value> = (0..40u64).map(|i| (i * 29) % 40).collect();
        let run = |shards: usize| {
            let net = SimNetworkBuilder::new()
                .max_children(4)
                .flat(shards > 1)
                .shards(shards)
                .partial_cache(16)
                .build_one_per_node(&topo, &items, 128)
                .unwrap();
            let mut engine = StreamingEngine::new(net);
            engine.submit(QuerySpec::Median);
            engine.submit(QuerySpec::Quantile { q: 0.5, eps: 0.2 });
            engine.submit(QuerySpec::BottomK { k: 6 });
            engine.submit(QuerySpec::Count(Predicate::TRUE));
            let reports = engine.run_until_idle().unwrap();
            let cache = engine.network().cache_stats();
            (reports, cache)
        };
        let (base, base_cache) = run(1);
        for k in [2usize, 4] {
            let (reports, cache) = run(k);
            for (a, b) in base.iter().zip(&reports) {
                assert_eq!(
                    a.report.outcome, b.report.outcome,
                    "answer differs at k={k}: {:?}",
                    a.report.spec
                );
                assert_eq!(
                    a.report.bits, b.report.bits,
                    "bit ledger differs at k={k}: {:?}",
                    a.report.spec
                );
                assert_eq!(
                    a.report.waves, b.report.waves,
                    "wave count differs at k={k}"
                );
            }
            assert_eq!(base_cache, cache, "cache counters differ at k={k}");
        }
    }

    #[test]
    fn per_query_bits_account_for_everything() {
        let mut engine = StreamingEngine::new(grid_net(4, 5));
        engine.submit(QuerySpec::Count(Predicate::TRUE));
        engine.submit(QuerySpec::Sum(Predicate::TRUE));
        let reports = engine.run_until_idle().unwrap();
        let billed: u64 = reports.iter().map(|r| r.report.bits.total()).sum();
        let tx_total: u64 = {
            let stats = engine.network().net_stats().unwrap();
            (0..stats.len()).map(|v| stats.node(v).tx_bits).sum()
        };
        // Billing is transmit-side; rounding of the even split may drop
        // up to (participants - 1) bits per wave.
        assert!(billed <= tx_total);
        assert!(
            tx_total - billed <= 2,
            "unbilled bits: {} of {tx_total}",
            tx_total - billed
        );
    }

    #[test]
    fn failed_run_hands_back_the_whole_batch_on_retry() {
        // The closed-batch failure contract: a wave failure aborts
        // run_until_idle() and kills the queries in flight; the next
        // call flies no wave and returns every report of the batch in
        // submission order — including one that finished before the
        // failure.
        use saq_netsim::link::LinkConfig;
        use saq_netsim::sim::SimConfig;
        let lossy_net = |seed: u64| {
            let topo = Topology::grid(4, 4).unwrap();
            let items: Vec<Value> = (0..16u64).collect();
            SimNetworkBuilder::new()
                .sim_config(
                    SimConfig::default()
                        .with_link(LinkConfig::default().with_loss(0.05))
                        .with_seed(seed),
                )
                .build_one_per_node(&topo, &items, 32)
                .unwrap()
        };
        // Deterministic hunt for a seed whose first wave survives the
        // loss stream (the count answers) but whose median later loses
        // a frame (under Reliability::None a single drop aborts a wave).
        for seed in 0..200u64 {
            let mut engine = StreamingEngine::new(lossy_net(seed));
            let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
            let median = engine.submit(QuerySpec::Median);
            let Err(e) = engine.run_until_idle() else {
                continue;
            };
            let waves = engine.waves_issued();
            let reports = engine.run_until_idle().unwrap();
            assert_eq!(engine.waves_issued(), waves, "a killed query flew a wave");
            assert_eq!(reports.len(), 2);
            for (i, r) in reports.iter().enumerate() {
                assert_eq!(r.report.id, i, "reports out of submission order");
            }
            assert_eq!(
                reports[count].report.spec,
                QuerySpec::Count(Predicate::TRUE)
            );
            assert_eq!(reports[median].report.spec, QuerySpec::Median);
            assert_eq!(reports[median].report.outcome, Err(e));
            if reports[count].report.outcome.is_err() {
                continue; // wave 0 already lost; try another seed
            }
            assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(16)));
            assert!(
                engine.run_until_idle().unwrap().is_empty(),
                "the batch was drained"
            );
            return;
        }
        panic!("no seed produced the survive-then-fail loss pattern");
    }
}
