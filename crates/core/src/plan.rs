//! Wave plans: the root algorithms as explicit state machines.
//!
//! The paper's algorithms are all *sequences of broadcast–convergecast
//! waves with decisions between them*. This module makes that structure
//! explicit: a [`QueryPlan`] is a resumable state machine that, fed the
//! result of its previous primitive invocation, either **issues** the next
//! [`PlanOp`] or **finishes** with an outcome.
//!
//! Why bother? Because an inverted algorithm composes:
//!
//! * run **sequentially** against any [`AggregationNetwork`] with
//!   [`run_plan`] — exactly the old imperative control flow (and the form
//!   `Median::run` et al. now delegate to);
//! * run **concurrently** by the [`crate::streaming::StreamingEngine`], which
//!   each round collects the pending op of every active plan and batches
//!   them into *one shared wave* via the multiplexed envelope — the
//!   per-node bit saving measured by experiment E12.
//!
//! The compiled plans are [`MedianPlan`] (Fig. 1), [`ApxMedianPlan`]
//! (Fig. 2), [`ApxMedian2Plan`] (Fig. 4, composing `ApxMedianPlan` as its
//! inner log-domain search) and the single-wave [`PrimitivePlan`].

use crate::apx_median::{ApxMedianOutcome, RankTarget};
use crate::apx_median2::{ApxMedian2Outcome, StageTrace};
use crate::counting::ApxCountConfig;
use crate::error::QueryError;
use crate::median::{ceil_log2, MedianOutcome};
use crate::model::{floor_log2, Value};
use crate::net::AggregationNetwork;
use crate::predicate::{Domain, Predicate};
use crate::wave_proto::CoreRequest;

/// One primitive invocation a plan can issue — the vocabulary of
/// [`AggregationNetwork`], network-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanOp {
    /// Exact `COUNTP(X, P)`.
    Count(Predicate),
    /// Exact `SUM` over matching items.
    Sum(Predicate),
    /// MIN over active items in a domain.
    Min(Domain),
    /// MAX over active items in a domain.
    Max(Domain),
    /// `REP_COUNTP(reps, P)`.
    ApxCount {
        /// The counted predicate.
        pred: Predicate,
        /// Number of independent instances.
        reps: u32,
    },
    /// Exact distinct count (§5).
    DistinctExact,
    /// Approximate distinct count.
    DistinctApx {
        /// Number of independent instances.
        reps: u32,
    },
    /// Collect every active value (naive baseline).
    Collect,
    /// Mergeable ε-approximate quantile summary convergecast.
    QuantileSummary {
        /// Prune budget: partials carry at most `budget + 1` entries.
        budget: u32,
    },
    /// Bottom-k (KMV) uniform value sample.
    BottomK {
        /// Sample capacity.
        k: u32,
    },
    /// Fig. 4 zoom broadcast — **mutates every node's items**.
    Zoom {
        /// The selected octave `µ̂`.
        mu_hat: u32,
    },
}

impl PlanOp {
    /// Checks the op's parameters against the protocol's contract: an
    /// op is legal exactly when its wire request is
    /// ([`CoreRequest::check_bounds`]).
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] naming the violated bound.
    pub fn validate(&self) -> Result<(), QueryError> {
        CoreRequest::from_op(self, || 0)
            .check_bounds()
            .map_err(QueryError::InvalidParameter)
    }
}

/// The result of a [`PlanOp`], fed back into [`QueryPlan::step`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanInput {
    /// First step: no previous op.
    Start,
    /// Result of `Count`/`Sum`/`DistinctExact`.
    Num(u64),
    /// Result of `Min`/`Max`.
    OptVal(Option<Value>),
    /// Result of `ApxCount`/`DistinctApx` (the finalized mean estimate).
    Est(f64),
    /// Result of `Collect` or `BottomK` (the finalized sample).
    Values(Vec<Value>),
    /// Result of `QuantileSummary`: the root's merged summary, queryable
    /// for any rank within its certified error.
    Quantile(saq_sketches::QuantileSummary),
    /// Result of `Zoom`.
    Unit,
}

impl PlanInput {
    /// The result of `Count`/`Sum`/`DistinctExact`.
    pub(crate) fn into_num(self) -> u64 {
        match self {
            PlanInput::Num(v) => v,
            other => unreachable!("expected Num, got {other:?}"),
        }
    }

    /// The result of `Min`/`Max`.
    pub(crate) fn into_opt_val(self) -> Option<Value> {
        match self {
            PlanInput::OptVal(v) => v,
            other => unreachable!("expected OptVal, got {other:?}"),
        }
    }

    /// The result of `ApxCount`/`DistinctApx`.
    pub(crate) fn into_est(self) -> f64 {
        match self {
            PlanInput::Est(v) => v,
            other => unreachable!("expected Est, got {other:?}"),
        }
    }

    /// The result of `Collect`/`BottomK`.
    pub(crate) fn into_values(self) -> Vec<Value> {
        match self {
            PlanInput::Values(v) => v,
            other => unreachable!("expected Values, got {other:?}"),
        }
    }

    /// The result of `QuantileSummary`.
    pub(crate) fn into_quantile(self) -> saq_sketches::QuantileSummary {
        match self {
            PlanInput::Quantile(s) => s,
            other => unreachable!("expected Quantile, got {other:?}"),
        }
    }
}

/// What a plan wants next.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep<T> {
    /// Issue this primitive and call [`QueryPlan::step`] with its result.
    Issue(PlanOp),
    /// The query is answered.
    Done(T),
}

impl<T> PlanStep<T> {
    /// Maps the answer of a finished plan; an op to issue passes through.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> PlanStep<U> {
        match self {
            PlanStep::Issue(op) => PlanStep::Issue(op),
            PlanStep::Done(out) => PlanStep::Done(f(out)),
        }
    }
}

/// A root algorithm inverted into a resumable state machine.
pub trait QueryPlan {
    /// The algorithm's outcome type.
    type Outcome;

    /// Advances the plan: `input` is the result of the previously issued
    /// op ([`PlanInput::Start`] on the first call).
    ///
    /// # Errors
    ///
    /// Algorithm-level failures ([`QueryError::EmptyInput`], invalid
    /// parameters) surface here; after an error the plan is dead.
    fn step(&mut self, input: PlanInput) -> Result<PlanStep<Self::Outcome>, QueryError>;
}

/// Drives a plan to completion against a network, one wave at a time —
/// the sequential execution mode.
///
/// # Errors
///
/// Plan-level and protocol-level failures are propagated.
pub fn run_plan<N: AggregationNetwork, P: QueryPlan>(
    net: &mut N,
    plan: &mut P,
) -> Result<P::Outcome, QueryError> {
    let mut input = PlanInput::Start;
    loop {
        match plan.step(input)? {
            PlanStep::Done(out) => return Ok(out),
            PlanStep::Issue(op) => input = net.execute(&op)?,
        }
    }
}

/// A single-wave query: issue one op, return its raw [`PlanInput`].
#[derive(Debug, Clone)]
pub struct PrimitivePlan {
    op: PlanOp,
    issued: bool,
}

impl PrimitivePlan {
    /// Wraps one primitive op as a plan.
    pub fn new(op: PlanOp) -> Self {
        PrimitivePlan { op, issued: false }
    }
}

impl QueryPlan for PrimitivePlan {
    type Outcome = PlanInput;

    fn step(&mut self, input: PlanInput) -> Result<PlanStep<PlanInput>, QueryError> {
        if self.issued {
            Ok(PlanStep::Done(input))
        } else {
            self.issued = true;
            Ok(PlanStep::Issue(self.op))
        }
    }
}

/// Outcome of a [`QuantilePlan`]: the φ-quantile read off the root's
/// merged summary, with the summary's *certified* error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileOutcome {
    /// A value whose rank is within `rank_error` of `⌈φ·count⌉`
    /// (`None` on an empty network).
    pub value: Option<Value>,
    /// Certified worst-case rank deviation of `value`
    /// ([`saq_sketches::QuantileSummary::max_rank_error`]).
    pub rank_error: u64,
    /// Number of items the summary represents.
    pub count: u64,
    /// Entries the root summary retained (its wire footprint driver).
    pub summary_len: usize,
}

/// A single-wave ε-approximate quantile query: one mergeable-summary
/// convergecast ([`PlanOp::QuantileSummary`]), then the φ-quantile is
/// read off the merged summary at the root — the GK-style "all
/// quantiles in one pass" trade-off the paper contrasts with its
/// targeted binary search (§1).
#[derive(Debug, Clone)]
pub struct QuantilePlan {
    /// The queried quantile φ ∈ (0, 1].
    q: f64,
    /// Prune budget shipped in the request.
    budget: u32,
    issued: bool,
}

impl QuantilePlan {
    /// A plan for the φ-quantile with per-partial prune budget `budget`.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `0 < q ≤ 1` and
    /// `budget ≥ 1`.
    pub fn new(q: f64, budget: u32) -> Result<Self, QueryError> {
        if !(q > 0.0 && q <= 1.0) {
            return Err(QueryError::InvalidParameter("quantile must be in (0, 1]"));
        }
        PlanOp::QuantileSummary { budget }.validate()?;
        Ok(QuantilePlan {
            q,
            budget,
            issued: false,
        })
    }

    /// Chooses a prune budget guaranteeing ε-approximate ranks after a
    /// tree aggregation performing at most `prunes` merge-then-prune
    /// steps along any leaf-to-root path. Each prune adds at most
    /// `count/(2·budget)` rank error, telescoping to
    /// `≤ prunes·count/(2·budget)` at the root, so
    /// `budget = ⌈prunes/(2ε)⌉` keeps the total within `ε·count`.
    ///
    /// `prunes` must count **every** prune on the path, not just tree
    /// levels: a node prunes once building its own partial and once per
    /// child merge, so a tree of height `h` and communication degree `d`
    /// performs at most `(h + 1)·d` prunes per path — the bound the
    /// engine passes from the network's measured tree shape.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `0 < ε < 1`, or when the
    /// required budget exceeds the `u16::MAX`-entry wire bound (an ε
    /// this small cannot be certified on a tree this tall — failing
    /// loudly beats silently weakening the guarantee).
    pub fn budget_for(epsilon: f64, prunes: u32) -> Result<u32, QueryError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(QueryError::InvalidParameter("epsilon must be in (0, 1)"));
        }
        let b = (prunes.max(1) as f64 / (2.0 * epsilon)).ceil();
        if b > u16::MAX as f64 {
            return Err(QueryError::InvalidParameter(
                "epsilon too small for this tree: prune budget exceeds the 16-bit wire bound",
            ));
        }
        Ok((b as u32).max(1))
    }
}

impl QueryPlan for QuantilePlan {
    type Outcome = QuantileOutcome;

    fn step(&mut self, input: PlanInput) -> Result<PlanStep<QuantileOutcome>, QueryError> {
        if !self.issued {
            self.issued = true;
            return Ok(PlanStep::Issue(PlanOp::QuantileSummary {
                budget: self.budget,
            }));
        }
        let summary = input.into_quantile();
        Ok(PlanStep::Done(QuantileOutcome {
            value: summary.query_quantile(self.q),
            rank_error: summary.max_rank_error(),
            count: summary.count(),
            summary_len: summary.len(),
        }))
    }
}

/// Target rank of a [`MedianPlan`] in doubled coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MedianTarget {
    /// `k2 = n` (the median).
    Median,
    /// `k2 = 2k` for an explicit rank `k`.
    Rank(u64),
}

#[derive(Debug, Clone)]
enum MedianPhase {
    Init,
    CountN,
    GotMin,
    GotMax { m: Value },
    Loop { y2: i128, z2: i128 },
    TieBreak { ceil_y: u64 },
    Finished,
}

/// Fig. 1 — the deterministic exact median / order statistic as a plan:
/// `COUNT`, `MIN`, `MAX`, then a binary search of `COUNTP` waves in exact
/// doubled coordinates (see `crate::median` for the arithmetic).
#[derive(Debug, Clone)]
pub struct MedianPlan {
    target: MedianTarget,
    xbar: Value,
    phase: MedianPhase,
    k2: u64,
    iterations: u32,
    countp_calls: u32,
    window: Option<(u64, i128, i128)>,
}

impl MedianPlan {
    /// A plan for `MEDIAN(X)`.
    pub fn median(xbar: Value) -> Self {
        MedianPlan {
            target: MedianTarget::Median,
            xbar,
            phase: MedianPhase::Init,
            k2: 0,
            iterations: 0,
            countp_calls: 0,
            window: None,
        }
    }

    /// A plan for the `k`-order statistic `OS(X, k)` (§3.4).
    pub fn order_statistic(xbar: Value, k: u64) -> Self {
        MedianPlan {
            target: MedianTarget::Rank(k),
            xbar,
            phase: MedianPhase::Init,
            k2: 0,
            iterations: 0,
            countp_calls: 0,
            window: None,
        }
    }

    /// The doubled search window `(k2, y2, z2)` as updated by the latest
    /// binary-search iteration — the state Lemma 3.1's invariant speaks
    /// about. `None` before the first iteration.
    pub fn window(&self) -> Option<(u64, i128, i128)> {
        self.window
    }

    fn clamp(&self, v: i128) -> u64 {
        v.clamp(0, 2 * (self.xbar as i128 + 1)) as u64
    }

    fn done(&mut self, value: Value) -> PlanStep<MedianOutcome> {
        self.phase = MedianPhase::Finished;
        PlanStep::Done(MedianOutcome {
            value,
            iterations: self.iterations,
            countp_calls: self.countp_calls,
        })
    }

    fn loop_step(&mut self, y2: i128, z2: i128) -> PlanStep<MedianOutcome> {
        if z2 > 1 {
            self.phase = MedianPhase::Loop { y2, z2 };
            self.countp_calls += 1;
            PlanStep::Issue(PlanOp::Count(Predicate::less_than2(self.clamp(y2))))
        } else if y2.rem_euclid(2) == 0 {
            // Line 4: y integer ⟺ y2 even.
            self.done(y2.max(0) as u64 / 2)
        } else {
            // Line 4.1: one more COUNTP on ⌈y⌉ decides the half.
            let ceil_y = ((y2 + 1).max(0) as u64) / 2;
            self.phase = MedianPhase::TieBreak { ceil_y };
            self.countp_calls += 1;
            PlanStep::Issue(PlanOp::Count(Predicate::less_than(ceil_y)))
        }
    }
}

impl QueryPlan for MedianPlan {
    type Outcome = MedianOutcome;

    fn step(&mut self, input: PlanInput) -> Result<PlanStep<MedianOutcome>, QueryError> {
        match std::mem::replace(&mut self.phase, MedianPhase::Finished) {
            MedianPhase::Init => {
                self.phase = MedianPhase::CountN;
                self.countp_calls += 1;
                Ok(PlanStep::Issue(PlanOp::Count(Predicate::TRUE)))
            }
            MedianPhase::CountN => {
                let n = input.into_num();
                if n == 0 {
                    return Err(QueryError::EmptyInput);
                }
                self.k2 = match self.target {
                    MedianTarget::Median => n,
                    MedianTarget::Rank(k) => {
                        if k == 0 || k > n {
                            return Err(QueryError::InvalidRank { k, n });
                        }
                        2 * k
                    }
                };
                self.phase = MedianPhase::GotMin;
                Ok(PlanStep::Issue(PlanOp::Min(Domain::Raw)))
            }
            MedianPhase::GotMin => {
                let m = input.into_opt_val().expect("nonempty input has a min");
                self.phase = MedianPhase::GotMax { m };
                Ok(PlanStep::Issue(PlanOp::Max(Domain::Raw)))
            }
            MedianPhase::GotMax { m } => {
                let big_m = input.into_opt_val().expect("nonempty input has a max");
                if m == big_m {
                    // Degenerate range: every item equals m.
                    return Ok(self.done(m));
                }
                // Line 2: y ← (M+m)/2, z ← 2^{⌈log(M−m)⌉−1}, doubled.
                let y2 = big_m as i128 + m as i128;
                let z2 = 1i128 << ceil_log2(big_m - m);
                Ok(self.loop_step(y2, z2))
            }
            MedianPhase::Loop { mut y2, mut z2 } => {
                let c = input.into_num();
                // Line 3.2: if c(y) < k then y += z/2 else y -= z/2.
                if 2 * c < self.k2 {
                    y2 += z2 / 2;
                } else {
                    y2 -= z2 / 2;
                }
                z2 /= 2;
                self.iterations += 1;
                self.window = Some((self.k2, y2, z2));
                Ok(self.loop_step(y2, z2))
            }
            MedianPhase::TieBreak { ceil_y } => {
                let c = input.into_num();
                let value = if 2 * c < self.k2 {
                    ceil_y
                } else {
                    ceil_y.saturating_sub(1)
                };
                Ok(self.done(value))
            }
            MedianPhase::Finished => unreachable!("stepping a finished MedianPlan"),
        }
    }
}

#[derive(Debug, Clone)]
enum ApxPhase {
    Init,
    GotMin,
    GotMax { m: Value },
    EstN { m: Value, big_m: Value },
    Loop { y2: i128, z2: i128 },
    Finished,
}

/// Fig. 2 — the tolerant randomized binary search as a plan, generic over
/// domain and rank target (the `Domain::Log` instance is `APX_MEDIAN2`'s
/// inner loop).
#[derive(Debug, Clone)]
pub struct ApxMedianPlan {
    /// Failure budget ε.
    epsilon: f64,
    domain: Domain,
    target: RankTarget,
    cfg: ApxCountConfig,
    xbar: Value,
    phase: ApxPhase,
    // Derived once the range is known:
    reps_c: u32,
    n: f64,
    k_target: f64,
    iterations: u32,
    halted_early: bool,
    instances: u64,
}

impl ApxMedianPlan {
    /// Builds the plan. `cfg`/`xbar` come from the network the plan will
    /// run against.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `0 < ε < 1`.
    pub fn new(
        epsilon: f64,
        domain: Domain,
        target: RankTarget,
        cfg: ApxCountConfig,
        xbar: Value,
    ) -> Result<Self, QueryError> {
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(QueryError::InvalidParameter("epsilon must be in (0, 1)"));
        }
        Ok(ApxMedianPlan {
            epsilon,
            domain,
            target,
            cfg,
            xbar,
            phase: ApxPhase::Init,
            reps_c: 0,
            n: f64::NAN,
            k_target: 0.0,
            iterations: 0,
            halted_early: false,
            instances: 0,
        })
    }

    fn domain_max(&self) -> Value {
        match self.domain {
            Domain::Raw => self.xbar,
            Domain::Log => floor_log2(self.xbar) as u64,
        }
    }

    fn clamp(&self, v: i128) -> u64 {
        v.clamp(0, 2 * (self.domain_max() as i128 + 1)) as u64
    }

    fn pred_at(&self, y2: i128) -> Predicate {
        match self.domain {
            Domain::Raw => Predicate::less_than2(self.clamp(y2)),
            Domain::Log => Predicate::log_less_than2(self.clamp(y2)),
        }
    }

    fn outcome(&self, value: Value) -> ApxMedianOutcome {
        let sigma = self.cfg.sigma();
        // The halting band is ±n(α_c + σ) around the rank target, so the
        // rank-relative guarantee is 3σ for the median and scales by
        // n/(2k) for extreme ranks.
        let alpha = 3.0 * sigma * (self.n / (2.0 * self.k_target.max(1.0))).max(1.0);
        ApxMedianOutcome {
            value,
            halted_early: self.halted_early,
            iterations: self.iterations,
            estimated_n: self.n,
            alpha_guarantee: alpha.max(3.0 * sigma),
            beta_guarantee: 1.0 / self.domain_max().max(1) as f64,
            apx_count_instances: self.instances,
        }
    }

    fn finish(&mut self, y2: i128) -> PlanStep<ApxMedianOutcome> {
        // ⌊y⌋ in doubled coordinates, clamped into the domain.
        let value = ((y2.max(0) as u64) / 2).min(self.domain_max());
        let out = self.outcome(value);
        self.phase = ApxPhase::Finished;
        PlanStep::Done(out)
    }

    fn loop_step(&mut self, y2: i128, z2: i128) -> PlanStep<ApxMedianOutcome> {
        if z2 > 1 {
            let pred = self.pred_at(y2);
            self.phase = ApxPhase::Loop { y2, z2 };
            self.instances += self.reps_c as u64;
            PlanStep::Issue(PlanOp::ApxCount {
                pred,
                reps: self.reps_c,
            })
        } else {
            self.finish(y2)
        }
    }
}

impl QueryPlan for ApxMedianPlan {
    type Outcome = ApxMedianOutcome;

    fn step(&mut self, input: PlanInput) -> Result<PlanStep<ApxMedianOutcome>, QueryError> {
        match std::mem::replace(&mut self.phase, ApxPhase::Finished) {
            ApxPhase::Init => {
                self.phase = ApxPhase::GotMin;
                Ok(PlanStep::Issue(PlanOp::Min(self.domain)))
            }
            ApxPhase::GotMin => {
                let m = input.into_opt_val().ok_or(QueryError::EmptyInput)?;
                self.phase = ApxPhase::GotMax { m };
                Ok(PlanStep::Issue(PlanOp::Max(self.domain)))
            }
            ApxPhase::GotMax { m } => {
                let big_m = input.into_opt_val().ok_or(QueryError::EmptyInput)?;
                if m == big_m {
                    let mut out = self.outcome(m);
                    out.estimated_n = f64::NAN;
                    out.alpha_guarantee = 3.0 * self.cfg.sigma();
                    self.phase = ApxPhase::Finished;
                    return Ok(PlanStep::Done(out));
                }
                // Line 2: q = log(M−m)/ε; n ← REP_COUNTP(⌈2q⌉, TRUE).
                let range = big_m - m;
                let reps_n = self.cfg.reps_for(self.cfg.rep_count, range, self.epsilon);
                self.reps_c = self.cfg.reps_for(self.cfg.rep_search, range, self.epsilon);
                self.phase = ApxPhase::EstN { m, big_m };
                self.instances += reps_n as u64;
                Ok(PlanStep::Issue(PlanOp::ApxCount {
                    pred: Predicate::TRUE,
                    reps: reps_n,
                }))
            }
            ApxPhase::EstN { m, big_m } => {
                let n = input.into_est();
                self.n = n;
                self.k_target = match self.target {
                    RankTarget::Median => n / 2.0,
                    // A rank target cannot exceed the population (Fig. 4's
                    // adjustments can overshoot by sketch noise).
                    RankTarget::Rank(k) => k.clamp(1.0, n.max(1.0)),
                };
                // Line 3: y ← (M+m)/2, z ← 2^{⌈log(M−m)⌉−1}, doubled.
                let y2 = big_m as i128 + m as i128;
                let z2 = 1i128 << ceil_log2(big_m - m);
                Ok(self.loop_step(y2, z2))
            }
            ApxPhase::Loop { mut y2, mut z2 } => {
                let c = input.into_est();
                let band = self.cfg.alpha_c() + self.cfg.sigma();
                self.iterations += 1;
                // Lines 4.2/4.2.1 with ½ generalized to k/n (Thm 4.6).
                if c < self.k_target - self.n * band {
                    y2 += z2 / 2;
                } else if c >= self.k_target + self.n * band {
                    y2 -= z2 / 2;
                } else {
                    // Uncertain band: halt, output ⌊y⌋ (Lemma 4.4).
                    self.halted_early = true;
                    return Ok(self.finish(y2));
                }
                z2 /= 2;
                Ok(self.loop_step(y2, z2))
            }
            ApxPhase::Finished => unreachable!("stepping a finished ApxMedianPlan"),
        }
    }
}

#[derive(Debug)]
enum Apx2Phase {
    Init,
    EstN,
    InnerSearch { inner: Box<ApxMedianPlan> },
    Below { mu_hat: u32 },
    Zoomed { mu_hat: u32 },
    Finished,
}

/// Fig. 4 — the polyloglog `APX_MEDIAN2` as a plan: per stage, a
/// log-domain [`ApxMedianPlan`] locates the median's octave, a rank
/// adjustment counts items below it, and a [`PlanOp::Zoom`] rescales the
/// octave onto the full domain. Because it zooms, it needs exclusive
/// item state ([`crate::engine::QuerySpec::mutates_items`]).
#[derive(Debug)]
pub struct ApxMedian2Plan {
    beta: f64,
    epsilon: f64,
    cfg: ApxCountConfig,
    xbar: Value,
    phase: Apx2Phase,
    j_total: u32,
    eps_stage: f64,
    k: f64,
    // Affine chain original = a·current + b and the running window.
    a: f64,
    b: f64,
    win_lo: f64,
    win_hi: f64,
    stage: u32,
    stages_run: u32,
    trace: Vec<StageTrace>,
    instances: u64,
}

impl ApxMedian2Plan {
    /// Builds the plan; `cfg`/`xbar` come from the target network.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] unless `0 < β ≤ 1`, `0 < ε < 1`.
    pub fn new(
        beta: f64,
        epsilon: f64,
        cfg: ApxCountConfig,
        xbar: Value,
    ) -> Result<Self, QueryError> {
        if !(beta > 0.0 && beta <= 1.0) {
            return Err(QueryError::InvalidParameter("beta must be in (0, 1]"));
        }
        if !(epsilon > 0.0 && epsilon < 1.0) {
            return Err(QueryError::InvalidParameter("epsilon must be in (0, 1)"));
        }
        let j_total = (1.0 / beta).log2().ceil().max(1.0) as u32;
        // Per-stage failure budget (Fig. 4 line 3.1: ε / 2·log(1/β)).
        let eps_stage = (epsilon / (2.0 * j_total as f64)).clamp(1e-6, 0.5);
        Ok(ApxMedian2Plan {
            beta,
            epsilon,
            cfg,
            xbar,
            phase: Apx2Phase::Init,
            j_total,
            eps_stage,
            k: 0.0,
            a: 1.0,
            b: 0.0,
            win_lo: 0.0,
            win_hi: xbar as f64,
            stage: 0,
            stages_run: 0,
            trace: Vec::new(),
            instances: 0,
        })
    }

    fn reps_n(&self) -> u32 {
        // Same [1, u16::MAX] clamp as `ApxCountConfig::reps_for`: the
        // wire carries instance counts in 16 bits.
        ((self.cfg.rep_count * self.j_total as f64 / self.epsilon).ceil())
            .clamp(1.0, u16::MAX as f64) as u32
    }

    fn finish(&mut self) -> PlanStep<ApxMedian2Outcome> {
        let (lo, hi) = self
            .trace
            .last()
            .map(|t| (t.window_lo, t.window_hi))
            .unwrap_or((0.0, self.xbar as f64));
        let value = (((lo + hi) / 2.0).round().max(0.0) as u64).min(self.xbar);
        let sigma = self.cfg.sigma();
        let out = ApxMedian2Outcome {
            value,
            stages: self.stages_run,
            trace: std::mem::take(&mut self.trace),
            alpha_guarantee: 3.0 * sigma * (self.stages_run.max(1) as f64 + 1.0),
            beta_guarantee: self.beta,
            apx_count_instances: self.instances,
        };
        self.phase = Apx2Phase::Finished;
        PlanStep::Done(out)
    }

    fn start_stage(&mut self) -> Result<PlanStep<ApxMedian2Outcome>, QueryError> {
        if self.stage >= self.j_total {
            return Ok(self.finish());
        }
        self.stage += 1;
        // Line 3.1: µ̂ ← APX_OS(X̂, ε_stage, k) on the log domain.
        let mut inner = Box::new(ApxMedianPlan::new(
            self.eps_stage,
            Domain::Log,
            RankTarget::Rank(self.k),
            self.cfg,
            self.xbar,
        )?);
        let first = inner.step(PlanInput::Start)?;
        self.phase = Apx2Phase::InnerSearch { inner };
        match first {
            PlanStep::Issue(op) => Ok(PlanStep::Issue(op)),
            PlanStep::Done(_) => unreachable!("inner search issues at least one op"),
        }
    }

    fn after_inner(&mut self, os: ApxMedianOutcome) -> PlanStep<ApxMedian2Outcome> {
        self.instances += os.apx_count_instances;
        // Clamp into the legal octave range: noisy searches can land one
        // octave outside the populated domain.
        let mu_hat = (os.value as u32).min(floor_log2(self.xbar));
        // Line 3.4's count (before zooming): items strictly below the
        // chosen octave.
        let (octave_lo, _) = crate::model::octave_bounds(mu_hat);
        let reps_adjust = self.reps_n();
        self.phase = Apx2Phase::Below { mu_hat };
        self.instances += reps_adjust as u64;
        PlanStep::Issue(PlanOp::ApxCount {
            pred: Predicate::less_than(octave_lo),
            reps: reps_adjust,
        })
    }
}

impl QueryPlan for ApxMedian2Plan {
    type Outcome = ApxMedian2Outcome;

    fn step(&mut self, input: PlanInput) -> Result<PlanStep<ApxMedian2Outcome>, QueryError> {
        match std::mem::replace(&mut self.phase, Apx2Phase::Finished) {
            Apx2Phase::Init => {
                // Line 1: n ← REP_COUNTP(⌈2 log(1/β)/ε⌉, TRUE); k ← n/2.
                let reps_n = self.reps_n();
                self.phase = Apx2Phase::EstN;
                self.instances += reps_n as u64;
                Ok(PlanStep::Issue(PlanOp::ApxCount {
                    pred: Predicate::TRUE,
                    reps: reps_n,
                }))
            }
            Apx2Phase::EstN => {
                let n = input.into_est();
                if n < 0.5 {
                    return Err(QueryError::EmptyInput);
                }
                self.k = n / 2.0;
                self.start_stage()
            }
            Apx2Phase::InnerSearch { mut inner } => match inner.step(input) {
                Ok(PlanStep::Issue(op)) => {
                    self.phase = Apx2Phase::InnerSearch { inner };
                    Ok(PlanStep::Issue(op))
                }
                Ok(PlanStep::Done(os)) => Ok(self.after_inner(os)),
                // Sketch noise can zoom into an empty octave; the window
                // tracked so far is still a valid β-precision answer.
                Err(QueryError::EmptyInput) => Ok(self.finish()),
                Err(e) => Err(e),
            },
            Apx2Phase::Below { mu_hat } => {
                let below = input.into_est();
                // Lines 3.2–3.3: zoom (broadcast µ̂, deactivate, rescale).
                self.phase = Apx2Phase::Zoomed { mu_hat };
                // Rank adjustment (line 3.4), clamped to stay valid.
                self.k = (self.k - below).max(1.0);
                Ok(PlanStep::Issue(PlanOp::Zoom { mu_hat }))
            }
            Apx2Phase::Zoomed { mu_hat } => {
                debug_assert_eq!(input, PlanInput::Unit);
                self.stages_run = self.stage;
                // Update the affine chain: the octave [lo, hi] in current
                // coordinates maps onto [1, X̄].
                let (octave_lo, octave_hi) = crate::model::octave_bounds(mu_hat);
                let width = (octave_hi - octave_lo).max(1) as f64;
                let a_next = self.a * width / (self.xbar.max(2) - 1) as f64;
                let b_next = self.a * octave_lo as f64 + self.b - a_next;
                self.a = a_next;
                self.b = b_next;
                // Stage window: preimages of current values 1 and X̄,
                // intersected with the running window (the top octave is
                // half-empty when X̄ < 2^{µ̂+1} − 1, so a raw stage window
                // can spill past the previous one).
                self.win_lo = (self.a + self.b).max(self.win_lo);
                self.win_hi = (self.a * self.xbar as f64 + self.b).min(self.win_hi);
                if self.win_lo > self.win_hi {
                    // Degenerate overlap (noise at an octave boundary).
                    let mid = (self.win_lo + self.win_hi) / 2.0;
                    self.win_lo = mid;
                    self.win_hi = mid;
                }
                self.trace.push(StageTrace {
                    stage: self.stage,
                    mu_hat,
                    window_lo: self.win_lo,
                    window_hi: self.win_hi,
                    k: self.k,
                    apx_count_instances: self.instances,
                });
                // The window is already below one original-domain unit:
                // further stages cannot sharpen the answer.
                if self.a * self.xbar as f64 <= 1.0 {
                    return Ok(self.finish());
                }
                self.start_stage()
            }
            Apx2Phase::Finished => unreachable!("stepping a finished ApxMedian2Plan"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::LocalNetwork;
    use crate::model::is_median;

    #[test]
    fn primitive_plan_roundtrip() {
        let mut net = LocalNetwork::new(vec![1, 2, 3], 10).unwrap();
        let mut plan = PrimitivePlan::new(PlanOp::Count(Predicate::TRUE));
        let out = run_plan(&mut net, &mut plan).unwrap();
        assert_eq!(out, PlanInput::Num(3));
    }

    #[test]
    fn zoom_primitive_is_mutating() {
        let mut net = LocalNetwork::new(vec![1, 4, 5, 9], 10).unwrap();
        let mut plan = PrimitivePlan::new(PlanOp::Zoom { mu_hat: 2 });
        assert_eq!(run_plan(&mut net, &mut plan).unwrap(), PlanInput::Unit);
        // Octave 2 is {4..7}: 4 → 1, 5 → 1 + 9/3 = 4; 1 and 9 go passive.
        assert_eq!(net.ground_truth(), vec![1, 4]);
    }

    #[test]
    fn median_plan_sequential_matches_reference() {
        let items = vec![30u64, 10, 20, 50, 40];
        let mut net = LocalNetwork::new(items.clone(), 100).unwrap();
        let mut plan = MedianPlan::median(100);
        let out = run_plan(&mut net, &mut plan).unwrap();
        assert!(is_median(&items, out.value));
        assert_eq!(out.value, 30);
    }

    #[test]
    fn median_plan_empty_input() {
        let mut net = LocalNetwork::new(vec![], 10).unwrap();
        let mut plan = MedianPlan::median(10);
        assert!(matches!(
            run_plan(&mut net, &mut plan),
            Err(QueryError::EmptyInput)
        ));
    }

    #[test]
    fn median_plan_window_only_during_loop() {
        let plan = MedianPlan::median(100);
        assert!(plan.window().is_none());
    }

    #[test]
    fn apx_median2_plan_is_exclusive() {
        use crate::engine::QuerySpec;
        let zooming = QuerySpec::ApxMedian2 {
            beta: 0.1,
            epsilon: 0.25,
        };
        assert!(zooming.mutates_items());
        assert!(!QuerySpec::ApxMedian { epsilon: 0.25 }.mutates_items());
        assert!(!QuerySpec::Median.mutates_items());
    }
}
