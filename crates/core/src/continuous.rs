//! The continuous-aggregate subsystem: standing queries delta-answered
//! from incrementally maintained subtree partials.
//!
//! A monitoring deployment asks the *same* aggregate over and over — "the
//! median temperature, every few rounds, forever". Re-running a fresh
//! convergecast per period pays the full tree cost each time even when
//! almost no sensor changed, and convergecast bits are exactly the
//! resource the paper's model prices. This module closes that gap with a
//! third query lifecycle next to the closed batch
//! ([`crate::engine::QueryEngine`]) and the ad-hoc stream
//! ([`crate::streaming::StreamingEngine`]):
//!
//! * **register** — [`ContinuousEngine::register`] admits a query once,
//!   with a refresh period in rounds;
//! * **refresh** — every period, a refresh slot rides the service loop's
//!   ordinary shared waves and retires into a [`RefreshReport`];
//! * **deregister** — [`ContinuousEngine::deregister`] retires the
//!   standing query.
//!
//! ## Why a refresh is (nearly) free
//!
//! The wave layer's subtree partial caches
//! (`saq_protocols::cache::PartialCache`) already make an *unchanged*
//! repeat cost zero bits. The continuous subsystem extends that across
//! **item updates**: [`ContinuousEngine::update_items`] routes each
//! sensor update through
//! [`PartialAggregate::apply_delta`](crate::aggregate::PartialAggregate::apply_delta)
//! at the mutated node and every ancestor, so
//!
//! * cached COUNT/SUM/MIN/MAX and bottom-k partials absorb the update
//!   **exactly** and keep serving refreshes for zero payload bits;
//! * cached GK quantile summaries absorb pure insertions by
//!   re-contributing an exact sub-summary (zero added rank error —
//!   pruning is deferred to the next upward merge, and growth is
//!   slack-bounded, so the certificate can never drift past its
//!   provisioned ε·N; see [`crate::aggregate::DeltaSupport::Certified`]),
//!   while value changes
//!   invalidate **only the affected entries along the mutated path**
//!   (the fine-grained invalidation the ROADMAP queued), so the next
//!   refresh repairs them with a *dirty-path* wave: reduced envelopes
//!   travel only where subtree partials actually changed, and every
//!   clean subtree answers from cache without a single message below it;
//! * aggregates that cannot delta (collect, exact-distinct) fall back to
//!   the same loud per-entry invalidation.
//!
//! Experiment E15 sweeps update rate × refresh period and shows
//! bits/refresh collapsing toward zero as updates sparsify, with the
//! fresh-convergecast cost as the ceiling; the
//! `tests/continuous_equivalence.rs` property suite proves every
//! standing answer ≡ a fresh convergecast's answer across arbitrary
//! update/refresh interleavings (and that certified ε still holds for
//! quantiles), flat workers included.

use crate::engine::{QueryBits, QueryId, QueryOutcome, QuerySpec};
use crate::error::QueryError;
use crate::model::Value;
use crate::simnet::SimNetwork;
use crate::streaming::{AdmissionPolicy, StreamingEngine, StreamingReport};

/// Identifier of a registered standing query (registration order;
/// never recycled within an engine's lifetime).
pub type StandingId = usize;

/// Base of the [`QueryId`] range standing-refresh slots occupy in wave
/// logs — far above any realistic submission count, so refresh waves are
/// distinguishable from ad-hoc queries without consuming submission ids.
pub const STANDING_QUERY_ID_BASE: QueryId = usize::MAX / 2;

/// One completed refresh of a standing query.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// The standing query this refresh belongs to.
    pub standing: StandingId,
    /// Refresh ordinal (0 for the registration-round refresh).
    pub seq: u64,
    /// The refreshed answer — by construction equal to what a fresh
    /// convergecast over the current items would answer (certified-ε
    /// equivalent for quantiles).
    pub outcome: Result<QueryOutcome, QueryError>,
    /// Honest per-refresh bit bill: **zero** request/partial bits when
    /// every subtree partial was served delta-maintained from cache.
    pub bits: QueryBits,
    /// Waves this refresh participated in.
    pub waves: u32,
    /// Round the refresh fell due (and was staged).
    pub due_round: u64,
    /// Round the refresh completed.
    pub finished_round: u64,
}

/// What one [`ContinuousEngine::step`] produced: ad-hoc retirements and
/// standing refreshes, separately.
#[derive(Debug, Clone, Default)]
pub struct ContinuousRound {
    /// Ad-hoc queries that retired this round (as
    /// [`StreamingEngine::step`] would return them).
    pub retired: Vec<StreamingReport>,
    /// Standing refreshes completed this round.
    pub refreshes: Vec<RefreshReport>,
}

impl ContinuousRound {
    fn absorb(&mut self, mut other: ContinuousRound) {
        self.retired.append(&mut other.retired);
        self.refreshes.append(&mut other.refreshes);
    }
}

/// The continuous-aggregate engine: a service loop whose standing
/// queries are registered once and re-answered every `k` rounds from
/// delta-maintained subtree partials, alongside ordinary ad-hoc
/// submissions.
///
/// This is a curated facade over [`StreamingEngine`]'s standing-slot
/// machinery: the round loop, admission policies, wave sharing, billing
/// and exclusive-query handling are all the service loop's — a standing
/// refresh is just a slot the engine re-creates on schedule.
///
/// Build the underlying network **with a subtree partial cache**
/// ([`crate::simnet::SimNetworkBuilder::partial_cache`]); without one,
/// every refresh legitimately pays a full convergecast.
///
/// # Examples
///
/// ```
/// use saq_core::continuous::ContinuousEngine;
/// use saq_core::engine::{QueryOutcome, QuerySpec};
/// use saq_core::predicate::Predicate;
/// use saq_core::simnet::SimNetworkBuilder;
/// use saq_netsim::topology::Topology;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let topo = Topology::grid(4, 4)?;
/// let items: Vec<u64> = (0..16).collect();
/// let net = SimNetworkBuilder::new()
///     .partial_cache(32)
///     .build_one_per_node(&topo, &items, 64)?;
/// let mut engine = ContinuousEngine::new(net);
///
/// // A standing count, refreshed every 2 rounds.
/// let count = engine.register(QuerySpec::Count(Predicate::TRUE), 2)?;
/// let warm = engine.run_rounds(4)?; // refreshes at rounds 0 and 2
/// assert_eq!(warm.refreshes.len(), 2);
/// assert!(warm.refreshes.iter().all(|r| r.standing == count
///     && r.outcome == Ok(QueryOutcome::Num(16))));
/// // The second refresh rode the warm cache: zero payload bits.
/// assert_eq!(warm.refreshes[1].bits.request_bits, 0);
/// assert_eq!(warm.refreshes[1].bits.partial_bits, 0);
///
/// // A sensor update is delta-folded into the cached partials…
/// engine.update_items(5, vec![60])?;
/// let next = engine.run_rounds(2)?;
/// // …so the refreshed answer is current, still for zero payload bits.
/// assert_eq!(next.refreshes[0].outcome, Ok(QueryOutcome::Num(16)));
/// assert_eq!(next.refreshes[0].bits.partial_bits, 0);
/// # Ok(())
/// # }
/// ```
pub struct ContinuousEngine {
    inner: StreamingEngine,
}

impl ContinuousEngine {
    /// A continuous engine over `net` with the service loop's default
    /// policies (batched waves, per-round admission).
    pub fn new(net: SimNetwork) -> Self {
        ContinuousEngine {
            inner: StreamingEngine::new(net),
        }
    }

    /// A continuous engine with explicit scheduling and admission
    /// policies for its ad-hoc side.
    pub fn with_policy(
        net: SimNetwork,
        policy: crate::engine::BatchPolicy,
        admission: AdmissionPolicy,
    ) -> Self {
        ContinuousEngine {
            inner: StreamingEngine::with_policy(net, policy, admission),
        }
    }

    /// Registers a standing query refreshed every `every_k_rounds`
    /// rounds (the first refresh fires at the next step). See
    /// [`StreamingEngine::register_standing`] for the vetting rules.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] for a zero period, an
    /// item-mutating spec, a fresh-randomness spec, or a spec that fails
    /// to compile.
    pub fn register(
        &mut self,
        spec: QuerySpec,
        every_k_rounds: u64,
    ) -> Result<StandingId, QueryError> {
        self.inner.register_standing(spec, every_k_rounds)
    }

    /// Registers a standing query with an explicit **phase anchor**:
    /// refreshes fire at rounds `≡ anchor (mod every_k_rounds)` instead
    /// of being phased to the registration round (see
    /// [`StreamingEngine::register_standing_at`]). This is the hook the
    /// fleet layer's staggered scheduler uses to spread same-period
    /// standing queries across the rounds of their period.
    ///
    /// # Errors
    ///
    /// As [`ContinuousEngine::register`].
    pub fn register_at(
        &mut self,
        spec: QuerySpec,
        every_k_rounds: u64,
        anchor: u64,
    ) -> Result<StandingId, QueryError> {
        self.inner
            .register_standing_at(spec, every_k_rounds, anchor)
    }

    /// Deregisters a standing query; an in-flight refresh still
    /// completes. Returns `false` for unknown/already-deregistered ids.
    pub fn deregister(&mut self, id: StandingId) -> bool {
        self.inner.deregister_standing(id)
    }

    /// Submits an ordinary ad-hoc query to the underlying service loop.
    pub fn submit(&mut self, spec: QuerySpec) -> QueryId {
        self.inner.submit(spec)
    }

    /// Applies a sensor update: replaces the items hosted by `node`,
    /// delta-maintaining every cached subtree partial along the node's
    /// root path (see [`crate::simnet::SimNetwork::set_node_items`]).
    /// Driver-side, like all item placement in this workspace — the
    /// update itself is not billed; what the experiments measure is the
    /// refresh traffic it does (or does not) cause.
    ///
    /// # Errors
    ///
    /// As [`crate::simnet::SimNetwork::set_node_items`].
    pub fn update_items(&mut self, node: usize, values: Vec<Value>) -> Result<(), QueryError> {
        self.inner.network_mut().set_node_items(node, values)
    }

    /// Executes one service round — standing refreshes due this round,
    /// admission, one shared wave, retirement — and returns what it
    /// produced.
    ///
    /// # Errors
    ///
    /// As [`StreamingEngine::step`]: only network/protocol failures
    /// abort a round; per-query errors ride the reports.
    pub fn step(&mut self) -> Result<ContinuousRound, QueryError> {
        let retired = self.inner.step()?;
        Ok(ContinuousRound {
            retired,
            refreshes: self.inner.drain_refreshes(),
        })
    }

    /// Executes `n` service rounds, accumulating everything they
    /// produce.
    ///
    /// # Errors
    ///
    /// As [`ContinuousEngine::step`]; rounds already executed are lost
    /// to the caller on failure, so prefer per-round stepping when
    /// partial progress matters.
    pub fn run_rounds(&mut self, n: u64) -> Result<ContinuousRound, QueryError> {
        let mut out = ContinuousRound::default();
        for _ in 0..n {
            out.absorb(self.step()?);
        }
        Ok(out)
    }

    /// Service rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.inner.rounds_executed()
    }

    /// Currently registered standing queries.
    pub fn standing_queries(&self) -> usize {
        self.inner.standing_queries()
    }

    /// The underlying network (statistics, cache counters).
    pub fn network(&self) -> &SimNetwork {
        self.inner.network()
    }

    /// Mutable access to the underlying network.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        self.inner.network_mut()
    }

    /// Attaches a telemetry recorder to the underlying network (see
    /// [`SimNetwork::attach_recorder`]); subsequent rounds emit the full
    /// structured event stream, standing-refresh machinery included.
    pub fn attach_recorder(
        &mut self,
        recorder: Box<dyn saq_obs::Recorder>,
    ) -> Option<Box<dyn saq_obs::Recorder>> {
        self.inner.network_mut().attach_recorder(recorder)
    }

    /// One-call operational summary of the underlying deployment (see
    /// [`SimNetwork::observability_snapshot`]).
    pub fn observability_snapshot(&self) -> crate::simnet::ObservabilitySnapshot {
        self.inner.network().observability_snapshot()
    }

    /// The underlying service loop (e.g. to set a bit budget or inspect
    /// wave logs).
    pub fn service(&mut self) -> &mut StreamingEngine {
        &mut self.inner
    }

    /// Consumes the engine, returning the network.
    pub fn into_network(self) -> SimNetwork {
        self.inner.into_network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutcome;
    use crate::predicate::{Domain, Predicate};
    use crate::simnet::SimNetworkBuilder;
    use saq_netsim::topology::Topology;

    fn cached_net(shards: usize) -> SimNetwork {
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<u64> = (0..40u64).map(|i| (i * 13) % 100).collect();
        SimNetworkBuilder::new()
            .partial_cache(64)
            .flat(shards > 1)
            .shards(shards)
            .build_one_per_node(&topo, &items, 128)
            .unwrap()
    }

    #[test]
    fn standing_query_refreshes_on_schedule() {
        let mut engine = ContinuousEngine::new(cached_net(1));
        let id = engine
            .register(QuerySpec::Count(Predicate::TRUE), 3)
            .unwrap();
        let out = engine.run_rounds(7).unwrap(); // due at rounds 0, 3, 6
        let seqs: Vec<u64> = out.refreshes.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        for r in &out.refreshes {
            assert_eq!(r.standing, id);
            assert_eq!(r.outcome, Ok(QueryOutcome::Num(40)));
            assert_eq!(r.finished_round, r.due_round, "single-wave refresh");
        }
        // Warm refreshes are free: only the first pays any payload.
        assert!(out.refreshes[0].bits.total() > 0);
        assert_eq!(out.refreshes[1].bits.request_bits, 0);
        assert_eq!(out.refreshes[1].bits.partial_bits, 0);
        assert_eq!(out.refreshes[2].bits.partial_bits, 0);
    }

    #[test]
    fn update_delta_keeps_refresh_free_and_current() {
        let mut engine = ContinuousEngine::new(cached_net(1));
        engine.register(QuerySpec::Sum(Predicate::TRUE), 1).unwrap();
        engine.register(QuerySpec::Min(Domain::Raw), 1).unwrap();
        let warm = engine.run_rounds(2).unwrap();
        let base_sum: u64 = (0..40u64).map(|i| (i * 13) % 100).sum();
        assert_eq!(warm.refreshes[0].outcome, Ok(QueryOutcome::Num(base_sum)));
        // Update a leaf: 39*13 % 100 = 7 becomes 3.
        engine.update_items(39, vec![3]).unwrap();
        let out = engine.run_rounds(1).unwrap();
        let by_standing = |id: StandingId| {
            out.refreshes
                .iter()
                .find(|r| r.standing == id)
                .expect("refreshed")
        };
        let sum = by_standing(0);
        assert_eq!(
            sum.outcome,
            Ok(QueryOutcome::Num(base_sum - 7 + 3)),
            "refresh reflects the update"
        );
        // The sum absorbed the delta in cache: zero payload bits. The
        // new value 3 is also the new minimum — min absorbed it too
        // (additions always merge exactly; 7's removal is above min 0).
        assert_eq!(sum.bits.request_bits + sum.bits.partial_bits, 0);
        let min = by_standing(1);
        assert_eq!(min.outcome, Ok(QueryOutcome::OptVal(Some(0))));
        assert_eq!(min.bits.request_bits + min.bits.partial_bits, 0);
        assert!(engine.network().cache_stats().delta_applied > 0);
    }

    #[test]
    fn deregister_stops_refreshes() {
        let mut engine = ContinuousEngine::new(cached_net(1));
        let id = engine
            .register(QuerySpec::Count(Predicate::TRUE), 1)
            .unwrap();
        assert_eq!(engine.standing_queries(), 1);
        let out = engine.run_rounds(2).unwrap();
        assert_eq!(out.refreshes.len(), 2);
        assert!(engine.deregister(id));
        assert!(!engine.deregister(id), "double deregistration");
        assert_eq!(engine.standing_queries(), 0);
        let after = engine.run_rounds(3).unwrap();
        assert!(after.refreshes.is_empty());
    }

    #[test]
    fn invalid_standing_specs_are_rejected_at_registration() {
        let mut engine = ContinuousEngine::new(cached_net(1));
        for (spec, why) in [
            (
                QuerySpec::ApxMedian2 {
                    beta: 0.25,
                    epsilon: 0.4,
                },
                "mutating",
            ),
            (
                QuerySpec::ApxCount {
                    pred: Predicate::TRUE,
                    reps: 4,
                },
                "fresh randomness",
            ),
            (QuerySpec::BottomK { k: 0 }, "compile failure"),
        ] {
            assert!(
                matches!(
                    engine.register(spec.clone(), 2),
                    Err(QueryError::InvalidParameter(_))
                ),
                "{why}: {spec:?} must be rejected"
            );
        }
        assert!(matches!(
            engine.register(QuerySpec::Median, 0),
            Err(QueryError::InvalidParameter(_))
        ));
        // Multi-wave deterministic plans (exact median) do stand.
        assert!(engine.register(QuerySpec::Median, 4).is_ok());
    }

    #[test]
    fn standing_and_adhoc_coexist_and_share_waves() {
        let mut engine = ContinuousEngine::new(cached_net(1));
        engine
            .register(QuerySpec::Count(Predicate::TRUE), 1)
            .unwrap();
        engine.run_rounds(1).unwrap();
        let adhoc = engine.submit(QuerySpec::Max(Domain::Raw));
        let out = engine.run_rounds(1).unwrap();
        assert_eq!(out.refreshes.len(), 1, "refresh fired alongside ad-hoc");
        let rep = out
            .retired
            .iter()
            .find(|r| r.report.id == adhoc)
            .expect("ad-hoc retired");
        assert_eq!(rep.report.outcome, Ok(QueryOutcome::OptVal(Some(99))));
        assert_eq!(rep.latency_rounds(), 1, "rode the refresh's wave");
    }

    #[test]
    fn sharded_refreshes_match_single_threaded() {
        let run = |shards: usize| {
            let mut engine = ContinuousEngine::new(cached_net(shards));
            engine
                .register(QuerySpec::Quantile { q: 0.5, eps: 0.2 }, 2)
                .unwrap();
            engine
                .register(QuerySpec::Count(Predicate::TRUE), 2)
                .unwrap();
            let mut rounds = engine.run_rounds(2).unwrap();
            engine.update_items(17, vec![55]).unwrap();
            engine.update_items(3, vec![9]).unwrap();
            rounds.absorb(engine.run_rounds(2).unwrap());
            let stats = engine.network().cache_stats();
            let refreshes: Vec<(StandingId, u64, u64)> = rounds
                .refreshes
                .iter()
                .map(|r| (r.standing, r.seq, r.bits.total()))
                .collect();
            let outcomes: Vec<String> = rounds
                .refreshes
                .iter()
                .map(|r| format!("{:?}", r.outcome))
                .collect();
            (refreshes, outcomes, stats)
        };
        let (bits1, out1, stats1) = run(1);
        let (bits3, out3, stats3) = run(3);
        assert_eq!(bits1, bits3, "per-refresh bills differ on flat workers");
        assert_eq!(out1, out3, "refresh answers differ on flat workers");
        assert_eq!(stats1, stats3, "cache counters differ on flat workers");
    }
}
