//! The online streaming query engine: a long-running service loop with
//! mid-flight admission — the workspace's one engine loop.
//!
//! A sensor-database front-end is a service: queries arrive
//! continuously while earlier ones are still mid-convergecast.
//! [`StreamingEngine`] is that service loop, and a closed batch is the
//! loop drained: submit the batch, then
//! [`StreamingEngine::run_until_idle`]. The other public lifecycle, the
//! fleet ([`crate::service::FleetService`]), owns one and adds standing
//! queries. [`StreamingEngine::submit`] may be called at any time,
//! pending queries are **admitted between rounds** (joining the next
//! shared wave mid-flight, alongside plans that are already several
//! waves deep), and finished queries retire immediately with an
//! incremental [`StreamingReport`] carrying their latency in rounds.
//!
//! The loop keeps no standing-query table. The fleet decides when a
//! standing query refreshes and hands the loop a pre-admitted refresh
//! slot before the round runs; the slot rides the ordinary shared wave
//! and retires into a buffer the fleet drains after the round.
//!
//! ## Scheduling
//!
//! Each [`StreamingEngine::step`] executes one scheduling round as four
//! phases (private methods of the same names):
//!
//! 1. **Admission** (`admit`) — if the [`AdmissionPolicy`] opens the
//!    window this round, every pending query moves into the active set
//!    (stamped with its admission round). A query submitted with a
//!    **deadline** ([`StreamingEngine::submit_with_deadline`]) is
//!    admitted even through a closed window once its deadline round
//!    arrives. Nothing else gates admission: a round's cost is billed
//!    by the waves that run it.
//! 2. **Shared wave** (`shared_wave`) — the pending ops of every active
//!    *shareable* (non-item-mutating) query are multiplexed into one
//!    wave ([`BatchPolicy::Batched`]) or issued one wave each
//!    ([`BatchPolicy::Sequential`]). Queries admitted this round ride
//!    the same wave as queries admitted hundreds of rounds ago.
//! 3. **Exclusive queries** (`run_exclusive`) — when no eligible
//!    shareable query has a pending op, the oldest admitted
//!    item-mutating query (`APX_MEDIAN2`'s zoom stages) runs **to
//!    completion, exclusively**, with items restored afterwards. A
//!    waiting exclusive query yields to the readers of its own admission
//!    cohort but *gates* readers admitted after it (they hold their ops
//!    until it has run), so a continuous reader stream cannot starve it.
//! 4. **Retirement** (`retire`) — every query that finished this round
//!    leaves the active set and its report is returned from `step`;
//!    a finished refresh slot goes to the fleet's buffer instead.
//!
//! ## Equivalence with closed batches
//!
//! A closed batch *is* this loop: a batch submitted to an idle engine
//! is admitted in one round under [`AdmissionPolicy::EveryRound`] and
//! [`AdmissionPolicy::WhenIdle`] alike, so it is one admission cohort —
//! readers first, then each exclusive query alone. Any streaming run
//! whose arrival groups are admitted only once the previous group fully
//! retired therefore equals the sequence of closed batches over the
//! same groups in every observable: answers, per-query
//! [`crate::engine::QueryBits`], cache counters and per-node bit
//! statistics (`tests/streaming_equivalence.rs` pins that a group
//! submitted mid-flight under `WhenIdle` runs exactly as if submitted
//! after the drain). Wider admission windows only coarsen the grouping,
//! merging waves and monotonically shrinking the total bill.
//!
//! ## Bounded memory
//!
//! The loop holds no per-round state: retired slots leave the engine,
//! the wave transport's ARQ dedup set is purged per wave (per-wave seq
//! epoching), and subtree caches are capacity-bounded. Experiment E14
//! drives thousands of rounds and asserts the transport footprint stays
//! flat ([`SimNetwork::transport_footprint`]).

use crate::engine::{
    compile_plan, BatchPolicy, QueryId, QueryReport, QuerySlot, QuerySpec, SlotState,
    NONCE_ORDINALS,
};
use crate::error::QueryError;
use crate::net::AggregationNetwork;
use crate::simnet::SimNetwork;
use crate::wave_proto::CoreRequest;
use std::collections::VecDeque;

/// Base of the [`QueryId`] range standing-refresh slots occupy in slot
/// events — far above any realistic submission count, so refreshes are
/// distinguishable from ad-hoc queries without consuming submission ids.
/// A refresh of fleet slot `s` carries id `STANDING_QUERY_ID_BASE + s`.
pub const STANDING_QUERY_ID_BASE: QueryId = usize::MAX / 2;

/// The reserved nonce ordinal standing-refresh slots are built with.
/// Standing specs are vetted at registration to never draw sketch
/// nonces ([`QuerySpec::draws_fresh_randomness`]), so sharing one
/// ordinal across arbitrarily many refreshes is sound — and it keeps an
/// unbounded refresh stream out of the submission ordinals.
const STANDING_NONCE_ORDINAL: u32 = 0x7FFF;

/// When pending submissions are admitted into the active wave set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Admit every pending query at the start of every round — minimum
    /// latency, smallest shared waves.
    #[default]
    EveryRound,
    /// Admit only every `w`-th round (`w ≥ 1`; `Window(1)` ≡
    /// [`AdmissionPolicy::EveryRound`]): arrivals accumulate for up to
    /// `w` rounds and join as a group, trading rounds of latency for
    /// larger shared waves.
    Window(u32),
    /// Admit only when no query is active — every arrival group runs as
    /// a closed batch, even one submitted while another is in flight.
    WhenIdle,
}

impl AdmissionPolicy {
    fn admits(&self, round: u64, idle: bool) -> bool {
        match self {
            AdmissionPolicy::EveryRound => true,
            AdmissionPolicy::Window(w) => round.is_multiple_of(u64::from((*w).max(1))),
            AdmissionPolicy::WhenIdle => idle,
        }
    }
}

/// The incremental report a retired streaming query returns, wrapping
/// the engine's [`QueryReport`] with the service-loop timeline.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// The answer, spec, per-query bit bill and wave count.
    /// `report.id` is the engine-lifetime [`QueryId`] returned by
    /// [`StreamingEngine::submit`].
    pub report: QueryReport,
    /// Round counter value when the query was submitted.
    pub submitted_round: u64,
    /// Round in which the admission window accepted the query.
    pub admitted_round: u64,
    /// Round in which the query finished and retired.
    pub retired_round: u64,
}

impl StreamingReport {
    /// Rounds from submission to retirement — the service-level latency
    /// measured by experiment E14 (a query finishing in the round it was
    /// submitted has latency 1).
    pub fn latency_rounds(&self) -> u64 {
        self.retired_round - self.submitted_round + 1
    }

    /// Rounds the query spent waiting for admission.
    pub fn queueing_rounds(&self) -> u64 {
        self.admitted_round - self.submitted_round
    }
}

/// An active or pending slot plus its service-loop timestamps.
///
/// Invariant while active and not done: a shareable slot always holds
/// the request of its next op in `staged` — plans are advanced eagerly
/// (at admission and immediately after each wave), so a query retires
/// in the very round its last wave ran and `step` never needs an extra
/// finalize round.
struct StreamSlot {
    slot: QuerySlot,
    /// The next wire request this slot wants issued (shareable slots
    /// only; exclusive plans advance inside their own run-to-completion
    /// loop).
    staged: Option<CoreRequest>,
    submitted_round: u64,
    admitted_round: u64,
    /// Latest admission round this query tolerates: it is pulled through
    /// a closed admission window once `round >= deadline`.
    deadline: Option<u64>,
}

impl StreamSlot {
    /// Whether this slot is a standing-query refresh (its id lies in the
    /// [`STANDING_QUERY_ID_BASE`] range). Refreshes retire into the
    /// fleet's buffer instead of the caller-visible report stream.
    fn is_refresh(&self) -> bool {
        self.slot.id >= STANDING_QUERY_ID_BASE
    }

    /// Re-establishes the staging invariant after the slot's plan
    /// consumed an input: advances the plan and stashes the next
    /// request, if any.
    fn restage(&mut self) {
        debug_assert!(self.staged.is_none(), "restaged over an unissued request");
        self.staged = self.slot.advance();
    }
}

/// A long-running query service over a [`SimNetwork`]: queries are
/// [`StreamingEngine::submit`]ted at any time, admitted into shared
/// waves between rounds, and retired incrementally.
///
/// # Examples
///
/// ```
/// use saq_core::engine::{QueryOutcome, QuerySpec};
/// use saq_core::predicate::Predicate;
/// use saq_core::simnet::SimNetworkBuilder;
/// use saq_core::streaming::StreamingEngine;
/// use saq_netsim::topology::Topology;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let topo = Topology::grid(4, 4)?;
/// let items: Vec<u64> = (0..16).collect();
/// let net = SimNetworkBuilder::new().build_one_per_node(&topo, &items, 32)?;
/// let mut engine = StreamingEngine::new(net);
///
/// // A long query starts alone...
/// let median = engine.submit(QuerySpec::Median);
/// let mut retired = engine.step()?;
///
/// // ...and a later arrival joins its next wave mid-flight.
/// let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
/// while engine.in_service() {
///     retired.extend(engine.step()?);
/// }
/// let by_id = |id| retired.iter().find(|r| r.report.id == id).unwrap();
/// assert_eq!(by_id(count).report.outcome, Ok(QueryOutcome::Num(16)));
/// assert!(by_id(median).report.bits.total() > 0);
/// # Ok(())
/// # }
/// ```
pub struct StreamingEngine {
    net: SimNetwork,
    policy: BatchPolicy,
    admission: AdmissionPolicy,
    /// Submitted, not yet admitted (submission order).
    pending: VecDeque<StreamSlot>,
    /// Admitted and executing (admission = submission order).
    active: Vec<StreamSlot>,
    /// Completed standing refreshes, awaiting the fleet's drain.
    refreshes: Vec<StreamingReport>,
    /// Reports [`StreamingEngine::run_until_idle`] retired before a
    /// failing round; its next call returns them.
    drained: Vec<StreamingReport>,
    /// Engine-lifetime submission counter: the next [`QueryId`] *and*
    /// sketch-nonce ordinal.
    submitted: usize,
    rounds: u64,
    waves: u64,
    /// Largest per-node request envelope (bits) any single wave of the
    /// most recent round carried — the round's peak per-node request
    /// load, the quantity phase-staggered refresh scheduling smooths.
    round_envelope_bits: u64,
    /// Slot count of that largest wave.
    round_envelope_slots: u64,
}

impl StreamingEngine {
    /// A streaming engine with batched waves and per-round admission.
    pub fn new(net: SimNetwork) -> Self {
        Self::with_policy(net, BatchPolicy::default(), AdmissionPolicy::default())
    }

    /// A streaming engine with explicit scheduling and admission
    /// policies.
    pub fn with_policy(net: SimNetwork, policy: BatchPolicy, admission: AdmissionPolicy) -> Self {
        StreamingEngine {
            net,
            policy,
            admission,
            pending: VecDeque::new(),
            active: Vec::new(),
            refreshes: Vec::new(),
            drained: Vec::new(),
            submitted: 0,
            rounds: 0,
            waves: 0,
            round_envelope_bits: 0,
            round_envelope_slots: 0,
        }
    }

    /// The underlying network (e.g. for [`SimNetwork`] statistics).
    pub fn network(&self) -> &SimNetwork {
        &self.net
    }

    /// Mutable access to the underlying network (e.g. `reset_stats`).
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        &mut self.net
    }

    /// Consumes the engine, returning the network.
    pub fn into_network(self) -> SimNetwork {
        self.net
    }

    /// Scheduling rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds
    }

    /// Waves issued so far.
    pub fn waves_issued(&self) -> u64 {
        self.waves
    }

    /// Peak per-node **request envelope** of the most recent round, in
    /// bits: the widest multiplexed broadcast any single wave of that
    /// round carried (sub-request bits plus envelope framing, as
    /// [`crate::simnet::BatchOutcome::request_envelope_bits`] measures
    /// it), `0` for a waveless round. Measured from the waves that ran:
    /// a wave that returns an error adds nothing. Under
    /// [`BatchPolicy::Batched`] a round has at most one shared wave, so
    /// this *is* the round's request load — the per-round spike the
    /// fleet layer's phase-staggered refresh scheduling smooths and its
    /// envelope counters aggregate.
    pub fn last_round_envelope_bits(&self) -> u64 {
        self.round_envelope_bits
    }

    /// Slot count of the most recent round's largest wave (see
    /// [`StreamingEngine::last_round_envelope_bits`]); `0` for a
    /// waveless round.
    pub fn last_round_envelope_slots(&self) -> u64 {
        self.round_envelope_slots
    }

    /// Queries submitted but not yet admitted.
    pub fn pending_queries(&self) -> usize {
        self.pending.len()
    }

    /// Whether any query is pending or active — the service loop's
    /// "work to do" predicate.
    pub fn in_service(&self) -> bool {
        !self.pending.is_empty() || !self.active.is_empty()
    }

    /// Submits a query to the service; it will be admitted at the next
    /// admission point. Returns the engine-lifetime [`QueryId`] its
    /// eventual [`StreamingReport`] carries. Invalid parameters surface
    /// as the query's outcome (the slot is born finished and retires at
    /// its admission round), never as an engine failure — including a
    /// randomized spec submitted after the sketch-nonce space ran out
    /// (32768 submissions; nonce-free specs keep running past it).
    pub fn submit(&mut self, spec: QuerySpec) -> QueryId {
        let id = self.submitted;
        self.submitted += 1;
        let compiled = if id >= NONCE_ORDINALS && spec.draws_fresh_randomness() {
            Err(QueryError::InvalidParameter(
                "engine exhausted its 32768-query sketch-nonce space; \
                 submit randomized queries to a fresh engine",
            ))
        } else {
            compile_plan(&self.net, &spec)
        };
        // Past the nonce space the ordinal is never drawn from.
        let ordinal = (id % NONCE_ORDINALS) as u32;
        self.pending.push_back(StreamSlot {
            slot: QuerySlot::new(id, ordinal, spec, compiled),
            staged: None,
            submitted_round: self.rounds,
            admitted_round: 0,
            deadline: None,
        });
        id
    }

    /// Submits a query with a per-query admission deadline: it waits for
    /// the admission window like every other pending query, but is
    /// pulled through a *closed* window once the round counter reaches
    /// `admit_by` — the latency/sharing knob of
    /// [`AdmissionPolicy::Window`] made per-query. A deadline at or
    /// before the current round admits at the very next step.
    pub fn submit_with_deadline(&mut self, spec: QuerySpec, admit_by: u64) -> QueryId {
        let id = self.submit(spec);
        self.pending
            .back_mut()
            .expect("submit just pushed this slot")
            .deadline = Some(admit_by);
        id
    }

    /// Hands the loop one refresh of fleet slot `slot` (ordinal `seq`)
    /// for the round about to run: the refresh enters the active set
    /// directly — admitted once, at registration, never queued — with
    /// its first op staged, so it rides this round's shared wave.
    pub(crate) fn spawn_refresh(&mut self, slot: usize, seq: u64, spec: &QuerySpec) {
        let round = self.rounds;
        if self.net.telemetry_enabled() {
            self.net.emit_event(&saq_obs::Event::RefreshScheduled {
                standing: slot as u64,
                seq,
                round,
            });
        }
        let mut s = StreamSlot {
            slot: QuerySlot::new(
                STANDING_QUERY_ID_BASE + slot,
                STANDING_NONCE_ORDINAL,
                spec.clone(),
                compile_plan(&self.net, spec),
            ),
            staged: None,
            submitted_round: round,
            admitted_round: round,
            deadline: None,
        };
        s.restage(); // standing specs are vetted non-mutating
        self.active.push(s);
    }

    /// Takes every refresh retired since the last call, in retirement
    /// order.
    pub(crate) fn take_refreshes(&mut self) -> Vec<StreamingReport> {
        std::mem::take(&mut self.refreshes)
    }

    /// Returns `self`. Kept only so the stackbench fleet driver's
    /// `fleet.engine().service()` calls (`benchmark/src/workloads.rs:536`
    /// and `:552`) compile against
    /// [`crate::service::FleetService::engine`], which returns the loop
    /// itself; a benchmark change deletes it.
    #[doc(hidden)]
    pub fn service(&mut self) -> &mut Self {
        self
    }

    /// Executes one scheduling round — admission, at most one shared
    /// wave (or one exclusive query run to completion), retirement —
    /// and returns the queries that retired this round, in submission
    /// order. A round with nothing to do (empty engine, or a closed
    /// admission window with nothing active) still advances the round
    /// counter and returns no reports.
    ///
    /// # Errors
    ///
    /// Only network/protocol failures abort a round; algorithm-level
    /// errors are reported per query. After a failed round the queries
    /// that were mid-wave carry the failure as their outcome and retire
    /// at the next `step`.
    pub fn step(&mut self) -> Result<Vec<StreamingReport>, QueryError> {
        let round = self.rounds;
        self.rounds += 1;
        self.round_envelope_bits = 0;
        self.round_envelope_slots = 0;
        self.admit(round);
        if !self.shared_wave()? {
            self.run_exclusive()?;
        }
        Ok(self.retire(round))
    }

    /// Phase 1: moves the pending queries the admission window and
    /// their deadlines let through into the active set. Newly admitted
    /// shareable plans advance to their first op immediately, so they
    /// participate in this very round's wave (exclusive plans wait for
    /// the exclusive phase).
    fn admit(&mut self, round: u64) {
        // Standing refresh slots do not count against idleness — they
        // are part of the service itself, and letting them block
        // `WhenIdle` would starve ad-hoc arrivals forever.
        let idle = self.active.iter().all(StreamSlot::is_refresh);
        let window_open = self.admission.admits(round, idle);
        let deadline_due = |s: &StreamSlot| s.deadline.is_some_and(|d| round >= d);
        if !self.pending.is_empty() && (window_open || self.pending.iter().any(deadline_due)) {
            let mut kept: VecDeque<StreamSlot> = VecDeque::new();
            while let Some(mut s) = self.pending.pop_front() {
                // Deadline pull: a closed window still admits queries
                // whose admission deadline has arrived.
                if !window_open && !deadline_due(&s) {
                    kept.push_back(s);
                    continue;
                }
                if !s.slot.spec.mutates_items() {
                    s.restage(); // eager staging
                }
                s.admitted_round = round;
                self.active.push(s);
            }
            self.pending = kept;
        }
    }

    /// Phase 2: one shared wave over every staged shareable op (one wave
    /// per op under [`BatchPolicy::Sequential`]), then advances the
    /// participants so finished queries retire *this* round (a
    /// single-wave query has latency 1, not 2). Returns whether any op
    /// was staged; on a wave failure every active query is killed.
    fn shared_wave(&mut self) -> Result<bool, QueryError> {
        // Anti-starvation gate: a waiting exclusive query yields to the
        // readers of its own admission cohort (the closed-batch
        // "readers first" rule), but NOT to readers admitted after it —
        // those hold their staged ops until the exclusive query has
        // run, or a continuous reader stream would defer it forever.
        // Under idle-aligned admission every active query shares one
        // admission round, so the gate never excludes anyone.
        let gate = self
            .active
            .iter()
            .filter(|s| s.slot.spec.mutates_items() && !s.slot.is_done())
            .map(|s| s.admitted_round)
            .min();
        let mut round_ops: Vec<(usize, CoreRequest)> = Vec::new();
        for (i, s) in self.active.iter_mut().enumerate() {
            if gate.is_some_and(|g| s.admitted_round > g) {
                continue;
            }
            if let Some(req) = s.staged.take() {
                round_ops.push((i, req));
            }
        }
        if round_ops.is_empty() {
            return Ok(false);
        }
        let wave_result = match self.policy {
            BatchPolicy::Batched => self.issue_shared_wave(&round_ops),
            BatchPolicy::Sequential => round_ops
                .iter()
                .try_for_each(|entry| self.issue_shared_wave(std::slice::from_ref(entry))),
        };
        if let Err(e) = wave_result {
            self.fail_in_flight(&e);
            return Err(e);
        }
        for (i, _) in &round_ops {
            self.active[*i].restage();
        }
        Ok(true)
    }

    /// Phase 3, for a round in which no reader had an op staged: the
    /// oldest admitted exclusive (item-mutating) query, if any, runs to
    /// completion, alone, with items restored afterwards — admissions
    /// arriving meanwhile wait, because its zoom stages own the global
    /// item state until it restores them.
    fn run_exclusive(&mut self) -> Result<(), QueryError> {
        let Some(i) = self
            .active
            .iter()
            .position(|s| s.slot.spec.mutates_items() && !s.slot.is_done())
        else {
            return Ok(());
        };
        while let Some(req) = self.active[i].slot.advance() {
            if let Err(e) = self.issue_shared_wave(&[(i, req)]) {
                self.fail_in_flight(&e);
                // Never hand back mutilated item state.
                self.net.restore_items();
                return Err(e);
            }
        }
        self.net.restore_items();
        Ok(())
    }

    /// Phase 4: every finished query leaves the active set. Standing
    /// refreshes retire into the fleet's buffer; everything else is
    /// returned to the caller, in submission order.
    fn retire(&mut self, round: u64) -> Vec<StreamingReport> {
        let mut retired = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if !self.active[i].slot.is_done() {
                i += 1;
                continue;
            }
            let s = self.active.remove(i);
            let refresh = s.is_refresh();
            let report = s.slot.into_report();
            if self.net.telemetry_enabled() {
                self.net.emit_event(&saq_obs::Event::SlotRetired {
                    query: report.id as u64,
                    bits: report.bits.total(),
                });
                self.net
                    .record_latency_rounds(round - s.submitted_round + 1);
            }
            let out = StreamingReport {
                submitted_round: s.submitted_round,
                admitted_round: s.admitted_round,
                retired_round: round,
                report,
            };
            if refresh {
                self.refreshes.push(out);
            } else {
                retired.push(out);
            }
        }
        retired
    }

    /// Steps the service until no query is pending or active, returning
    /// every report retired along the way, sorted by `report.id`. A
    /// closed batch is `submit` × k on an idle engine, then this call; a
    /// live service calls [`StreamingEngine::step`] per round instead.
    ///
    /// # Examples
    ///
    /// ```
    /// # use saq_core::engine::{QueryOutcome, QuerySpec};
    /// # use saq_core::predicate::{Domain, Predicate};
    /// # use saq_core::streaming::StreamingEngine;
    /// # let topo = saq_netsim::topology::Topology::grid(4, 4).unwrap();
    /// # let items: Vec<u64> = (0..16).collect();
    /// # let net = saq_core::simnet::SimNetworkBuilder::new();
    /// # let net = net.build_one_per_node(&topo, &items, 32).unwrap();
    /// let mut engine = StreamingEngine::new(net);
    /// let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
    /// let max = engine.submit(QuerySpec::Max(Domain::Raw));
    /// let median = engine.submit(QuerySpec::Median);
    /// let reports = engine.run_until_idle().unwrap();
    /// assert_eq!(reports[count].report.outcome, Ok(QueryOutcome::Num(16)));
    /// assert_eq!(reports[max].report.outcome, Ok(QueryOutcome::OptVal(Some(15))));
    /// assert!(reports[median].report.bits.total() > 0);
    /// ```
    ///
    /// # Errors
    ///
    /// As [`StreamingEngine::step`]. A failure loses nothing: the reports
    /// retired before the failing round stay on the engine, and the next
    /// call — which flies no wave for the killed queries — returns them
    /// together with the killed queries, which carry the failure.
    pub fn run_until_idle(&mut self) -> Result<Vec<StreamingReport>, QueryError> {
        while self.in_service() {
            let retired = self.step()?;
            self.drained.extend(retired);
        }
        let mut all = std::mem::take(&mut self.drained);
        all.sort_unstable_by_key(|r| r.report.id);
        Ok(all)
    }

    /// Issues one shared multiplexed wave answering every `(active index,
    /// request)` of `round_ops` and distributes results and bit charges
    /// back to the issuing slots — the one place per-query billing
    /// happens.
    fn issue_shared_wave(&mut self, round_ops: &[(usize, CoreRequest)]) -> Result<(), QueryError> {
        self.waves += 1;
        if self.net.telemetry_enabled() {
            for (pos, (i, _)) in round_ops.iter().enumerate() {
                self.net.emit_event(&saq_obs::Event::SlotAdmitted {
                    query: self.active[*i].slot.id as u64,
                    slot: pos as u64,
                });
            }
        }
        let reqs: Vec<CoreRequest> = round_ops.iter().map(|(_, r)| r.clone()).collect();
        let out = self.net.run_batch(reqs)?;
        debug_assert_eq!(out.partials.len(), round_ops.len());
        // The round's peak per-node request envelope (the observable the
        // fleet layer's stagger test pins).
        if out.request_envelope_bits > self.round_envelope_bits {
            self.round_envelope_bits = out.request_envelope_bits;
            self.round_envelope_slots = round_ops.len() as u64;
        }
        // Unattributable framing: one wave header per message *actually
        // transmitted*, at the header width of this wave's varint ordinal.
        // Under lossless links without caching that is one request and one
        // partial per spanning-tree edge; with subtree partial caching,
        // silenced subtrees (down to a fully cached, zero-message wave)
        // shrink the bill accordingly.
        let share = (out.header_bits + out.envelope_bits) / round_ops.len() as u64;
        let proto = self.net.core_proto();
        for ((i, req), (partial, bits)) in round_ops
            .iter()
            .zip(out.partials.into_iter().zip(out.slot_bits))
        {
            let slot = &mut self.active[*i].slot;
            slot.bits.request_bits += bits.request_bits;
            slot.bits.partial_bits += bits.partial_bits;
            slot.bits.shared_overhead_bits += share;
            slot.waves += 1;
            slot.state = SlotState::Ready(proto.finalize(req, partial));
        }
        Ok(())
    }

    /// Marks every active query still in flight as failed with `e` —
    /// called when a wave-level network failure aborts a round, so no
    /// slot is left in a mid-wave placeholder state. Done is terminal:
    /// a killed slot also drops any un-issued staged request (a *gated*
    /// reader holds one while sitting in the placeholder state), or the
    /// next round would issue it and overwrite the recorded failure with
    /// a live wave result.
    fn fail_in_flight(&mut self, e: &QueryError) {
        for s in &mut self.active {
            if !s.slot.is_done() {
                s.slot.state = SlotState::Done(Err(e.clone()));
            }
            s.staged = None;
        }
    }
}

/// Aggregate latency/bit statistics over a set of retired reports —
/// what experiment E14's tables are made of.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceStats {
    /// Queries retired.
    pub retired: u64,
    /// Mean latency in rounds (submission → retirement, inclusive).
    pub mean_latency_rounds: f64,
    /// Worst latency in rounds.
    pub max_latency_rounds: u64,
    /// Mean total bits billed per query.
    pub mean_bits_per_query: f64,
}

impl ServiceStats {
    /// Summarizes a set of retired reports.
    pub fn from_reports(reports: &[StreamingReport]) -> ServiceStats {
        if reports.is_empty() {
            return ServiceStats::default();
        }
        let n = reports.len() as u64;
        let lat_sum: u64 = reports.iter().map(StreamingReport::latency_rounds).sum();
        let bits_sum: u64 = reports.iter().map(|r| r.report.bits.total()).sum();
        ServiceStats {
            retired: n,
            mean_latency_rounds: lat_sum as f64 / n as f64,
            max_latency_rounds: reports
                .iter()
                .map(StreamingReport::latency_rounds)
                .max()
                .unwrap_or(0),
            mean_bits_per_query: bits_sum as f64 / n as f64,
        }
    }

    /// Exact total bits billed across the reports.
    pub fn total_bits(reports: &[StreamingReport]) -> u64 {
        reports.iter().map(|r| r.report.bits.total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutcome;
    use crate::predicate::{Domain, Predicate};
    use crate::simnet::SimNetworkBuilder;
    use saq_netsim::topology::Topology;
    use saq_obs::{Event, EventLog, VecRecorder};
    use saq_protocols::{MultiplexWave, WaveProtocol};

    fn grid_net(side: usize, seed_off: u64) -> SimNetwork {
        let topo = Topology::grid(side, side).unwrap();
        let n = side * side;
        let items: Vec<u64> = (0..n as u64).map(|i| (i * 13) % (n as u64)).collect();
        SimNetworkBuilder::new()
            .apx_config(crate::counting::ApxCountConfig::default().with_seed(177 + seed_off))
            .build_one_per_node(&topo, &items, 2 * n as u64)
            .unwrap()
    }

    /// Attaches a recorder whose log [`waves_of`] reads.
    fn record_events(engine: &mut StreamingEngine) -> EventLog {
        let (recorder, log) = VecRecorder::shared();
        engine.network_mut().attach_recorder(Box::new(recorder));
        log
    }

    /// Each wave's participating query ids, in slot order, read off the
    /// telemetry spine: a wave's `SlotAdmitted` events precede its
    /// `WaveStarted`.
    fn waves_of(log: &EventLog) -> Vec<Vec<QueryId>> {
        let (mut waves, mut slots) = (Vec::new(), Vec::new());
        for ev in log.events() {
            match ev {
                Event::SlotAdmitted { query, .. } => slots.push(query as QueryId),
                Event::WaveStarted { .. } => waves.push(std::mem::take(&mut slots)),
                _ => {}
            }
        }
        waves
    }

    #[test]
    fn late_arrival_joins_wave_mid_flight() {
        let mut engine = StreamingEngine::new(grid_net(4, 0));
        let events = record_events(&mut engine);
        let median = engine.submit(QuerySpec::Median);
        // Two rounds of the median alone...
        engine.step().unwrap();
        engine.step().unwrap();
        // ...then a count arrives and must ride the median's next wave.
        let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let mut retired = Vec::new();
        while engine.in_service() {
            retired.extend(engine.step().unwrap());
        }
        let log = waves_of(&events);
        assert!(log[0] == vec![median] && log[1] == vec![median]);
        assert_eq!(
            log[2],
            vec![median, count],
            "the newcomer shares the in-flight median's third wave"
        );
        let count_rep = retired.iter().find(|r| r.report.id == count).unwrap();
        assert_eq!(count_rep.report.outcome, Ok(QueryOutcome::Num(16)));
        assert_eq!(count_rep.report.waves, 1);
        assert_eq!(count_rep.submitted_round, 2);
        assert_eq!(count_rep.admitted_round, 2);
        assert_eq!(count_rep.latency_rounds(), 1);
        let median_rep = retired.iter().find(|r| r.report.id == median).unwrap();
        assert!(matches!(
            median_rep.report.outcome,
            Ok(QueryOutcome::Median(_))
        ));
        assert_eq!(median_rep.submitted_round, 0);
        // Exactly the median's waves were issued: the count added none.
        assert_eq!(engine.waves_issued(), u64::from(median_rep.report.waves));
    }

    #[test]
    fn window_policy_delays_admission() {
        let mut engine = StreamingEngine::with_policy(
            grid_net(4, 1),
            BatchPolicy::Batched,
            AdmissionPolicy::Window(4),
        );
        // Rounds 0..=3: the engine idles (windows at rounds 0, 4, 8...).
        engine.step().unwrap();
        let q = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let mut retired = Vec::new();
        for _ in 0..5 {
            retired.extend(engine.step().unwrap());
        }
        assert_eq!(engine.waves_issued(), 1, "one wave at the round-4 window");
        let rep = retired.iter().find(|r| r.report.id == q).unwrap();
        assert_eq!(rep.submitted_round, 1);
        assert_eq!(rep.admitted_round, 4);
        assert_eq!(rep.queueing_rounds(), 3);
        assert_eq!(rep.report.outcome, Ok(QueryOutcome::Num(16)));
    }

    #[test]
    fn when_idle_admission_reproduces_closed_batches() {
        // Two arrival groups, the second submitted while the first is
        // mid-flight: WhenIdle holds it back, so the streaming run must
        // equal two closed-batch runs bit for bit.
        let specs1 = [QuerySpec::Median, QuerySpec::Count(Predicate::TRUE)];
        let specs2 = [
            QuerySpec::Quantile { q: 0.5, eps: 0.2 },
            QuerySpec::Min(Domain::Raw),
        ];

        let mut streaming = StreamingEngine::with_policy(
            grid_net(5, 2),
            BatchPolicy::Batched,
            AdmissionPolicy::WhenIdle,
        );
        for s in &specs1 {
            streaming.submit(s.clone());
        }
        // Interleave the second group's arrival with the first group's
        // execution: admission must wait for idleness anyway.
        let mut sreports = streaming.step().unwrap();
        for s in &specs2 {
            streaming.submit(s.clone());
        }
        sreports.extend(streaming.run_until_idle().unwrap());

        let mut batch = StreamingEngine::new(grid_net(5, 2));
        let mut breports = Vec::new();
        for s in &specs1 {
            batch.submit(s.clone());
        }
        breports.extend(batch.run_until_idle().unwrap());
        for s in &specs2 {
            batch.submit(s.clone());
        }
        breports.extend(batch.run_until_idle().unwrap());

        assert_eq!(sreports.len(), breports.len());
        sreports.sort_by_key(|r| r.report.id);
        for (s, b) in sreports.iter().zip(&breports) {
            let (s, b) = (&s.report, &b.report);
            assert_eq!(s.outcome, b.outcome, "answer for {:?}", b.spec);
            assert_eq!(s.bits, b.bits, "bit bill for {:?}", b.spec);
            assert_eq!(s.waves, b.waves, "wave count for {:?}", b.spec);
        }
        assert_eq!(streaming.waves_issued(), batch.waves_issued());
        // And the network-level bit statistics agree node for node.
        let (ss, bs) = (
            streaming.network().net_stats().unwrap(),
            batch.network().net_stats().unwrap(),
        );
        for v in 0..ss.len() {
            assert_eq!(ss.node(v).total_bits(), bs.node(v).total_bits(), "node {v}");
        }
    }

    #[test]
    fn exclusive_query_runs_alone_and_restores_items() {
        let mut engine = StreamingEngine::new(grid_net(5, 3));
        let events = record_events(&mut engine);
        let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let am2 = engine.submit(QuerySpec::ApxMedian2 {
            beta: 0.25,
            epsilon: 0.4,
        });
        let sum = engine.submit(QuerySpec::Sum(Predicate::TRUE));
        let reports = engine.run_until_idle().unwrap();
        assert_eq!(reports.len(), 3);
        for r in &reports {
            if r.report.id == am2 {
                assert!(matches!(r.report.outcome, Ok(QueryOutcome::ApxMedian2(_))));
            }
        }
        // Readers shared their wave; every zooming wave ran alone.
        for wave in waves_of(&events) {
            if wave.contains(&am2) {
                assert_eq!(wave.as_slice(), &[am2], "zooming query shared a wave");
            }
        }
        assert!(reports.iter().any(|r| r.report.id == count));
        assert!(reports.iter().any(|r| r.report.id == sum));
        // Items restored after the exclusive query.
        let mut net = engine.into_network();
        assert_eq!(net.count(&Predicate::TRUE).unwrap(), 25);
    }

    #[test]
    fn exclusive_query_is_not_starved_by_a_continuous_reader_stream() {
        // A reader arrives every round; without the admission-cohort
        // gate the zooming query would wait forever (its exclusive
        // phase only runs when no shareable op is staged).
        let mut engine = StreamingEngine::new(grid_net(4, 8));
        let am2 = engine.submit(QuerySpec::ApxMedian2 {
            beta: 0.3,
            epsilon: 0.5,
        });
        let mut am2_retired_at = None;
        for round in 0..400 {
            engine.submit(QuerySpec::Count(Predicate::TRUE));
            for r in engine.step().unwrap() {
                if r.report.id == am2 {
                    assert!(matches!(r.report.outcome, Ok(QueryOutcome::ApxMedian2(_))));
                    am2_retired_at = Some(round);
                }
            }
            if am2_retired_at.is_some() {
                break;
            }
        }
        let retired_at = am2_retired_at.expect("exclusive query starved for 400 rounds");
        // It ran as soon as its own (singleton) cohort had no reader
        // ops — i.e. immediately, not after the stream dried up.
        assert!(
            retired_at <= 2,
            "exclusive query waited {retired_at} rounds"
        );
        // The gated readers resume and drain afterwards.
        let rest = engine.run_until_idle().unwrap();
        assert!(rest.iter().all(|r| r.report.outcome.is_ok()));
        // Items were restored before the readers' counts ran.
        assert!(rest
            .iter()
            .all(|r| !matches!(r.report.outcome, Ok(QueryOutcome::Num(n)) if n != 16)));
    }

    #[test]
    fn wave_failure_kills_gated_slots_terminally() {
        // A gated reader (held back behind a waiting exclusive query)
        // sits in the mid-wave placeholder state with an un-issued
        // staged request. If the round's wave fails, the failure must
        // be terminal for it too: the stale staged op must not be
        // issued later, resurrecting a Done(Err) slot into a live one.
        use saq_netsim::link::LinkConfig;
        use saq_netsim::sim::SimConfig;
        let lossy_net = |seed: u64| {
            let topo = Topology::grid(4, 4).unwrap();
            let items: Vec<u64> = (0..16u64).collect();
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
        // loss stream but whose median eventually loses one (under
        // Reliability::None a single drop aborts the wave).
        'seeds: for seed in 0..200u64 {
            let mut engine = StreamingEngine::new(lossy_net(seed));
            let am2 = engine.submit(QuerySpec::ApxMedian2 {
                beta: 0.3,
                epsilon: 0.5,
            });
            let median = engine.submit(QuerySpec::Median);
            if engine.step().is_err() {
                continue 'seeds; // wave 0 already lost; try another seed
            }
            // Admitted after round 0: gated behind the waiting zoomer.
            let gated = engine.submit(QuerySpec::Count(Predicate::TRUE));
            for _ in 0..300 {
                match engine.step() {
                    Ok(_) => {
                        if !engine.in_service() {
                            continue 'seeds; // no failure this seed
                        }
                    }
                    Err(_) => {
                        // The failing round killed every in-flight
                        // query. From here on: no further wave may fly,
                        // and every remaining slot retires with the
                        // failure — including the gated reader.
                        let waves = engine.waves_issued();
                        let reports = engine.run_until_idle().unwrap();
                        assert_eq!(engine.waves_issued(), waves, "a dead slot issued a wave");
                        assert!(!reports.is_empty());
                        for r in &reports {
                            assert!(
                                r.report.outcome.is_err(),
                                "slot {} resurrected after the failure: {:?}",
                                r.report.id,
                                r.report.outcome
                            );
                        }
                        assert!(reports.iter().any(|r| r.report.id == gated));
                        let _ = (am2, median);
                        return;
                    }
                }
            }
            continue 'seeds;
        }
        panic!("no seed produced the survive-then-fail loss pattern");
    }

    #[test]
    fn deadline_pulls_admission_through_a_closed_window() {
        let mut engine = StreamingEngine::with_policy(
            grid_net(4, 9),
            BatchPolicy::Batched,
            AdmissionPolicy::Window(16),
        );
        // Burn round 0 (the open window), then submit two queries: one
        // patient, one with a round-3 admission deadline.
        engine.step().unwrap();
        let patient = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let urgent = engine.submit_with_deadline(QuerySpec::Sum(Predicate::TRUE), 3);
        let mut retired = Vec::new();
        for _ in 0..20 {
            retired.extend(engine.step().unwrap());
        }
        let by_id = |id: QueryId| retired.iter().find(|r| r.report.id == id).unwrap();
        // The urgent query was admitted at its deadline round, mid-window…
        assert_eq!(by_id(urgent).admitted_round, 3);
        assert_eq!(
            by_id(urgent).report.outcome,
            Ok(QueryOutcome::Num((0..16u64).map(|i| (i * 13) % 16).sum()))
        );
        // …while the patient one waited for the round-16 window.
        assert_eq!(by_id(patient).admitted_round, 16);
        assert_eq!(by_id(patient).report.outcome, Ok(QueryOutcome::Num(16)));
    }

    #[test]
    fn round_envelope_is_the_encoded_request_envelope() {
        // The round's envelope width is read off the wave that ran: it
        // must be the exact length of the encoded root envelope of the
        // round's requests — the one envelope under `Batched`, the
        // widest one-slot envelope under `Sequential`.
        let mix = [
            QuerySpec::Count(Predicate::less_than(7)),
            QuerySpec::Median,
            QuerySpec::Max(Domain::Log),
            QuerySpec::ApxCount {
                pred: Predicate::TRUE,
                reps: 3,
            },
            QuerySpec::BottomK { k: 5 },
            QuerySpec::Sum(Predicate::TRUE),
            QuerySpec::Quantile { q: 0.9, eps: 0.1 },
            QuerySpec::Min(Domain::Raw),
        ];
        let width = |net: &SimNetwork, reqs: Vec<CoreRequest>| {
            let inner = net.core_proto();
            let mut w = saq_netsim::wire::BitWriter::new();
            MultiplexWave::new(inner.clone())
                .encode_request(&MultiplexWave::envelope(&inner, reqs), &mut w);
            w.finish().len_bits()
        };
        for k in [1usize, 2, 3, 7, 8] {
            for policy in [BatchPolicy::Batched, BatchPolicy::Sequential] {
                let mut engine = StreamingEngine::with_policy(
                    grid_net(4, 15),
                    policy,
                    AdmissionPolicy::default(),
                );
                // The first op each query issues, as the engine stages it.
                let reqs: Vec<CoreRequest> = mix[..k]
                    .iter()
                    .enumerate()
                    .map(|(id, spec)| {
                        let plan = compile_plan(engine.network(), spec);
                        let mut slot = QuerySlot::new(id, id as u32, spec.clone(), plan);
                        slot.advance().expect("every mix query issues an op")
                    })
                    .collect();
                for spec in &mix[..k] {
                    engine.submit(spec.clone());
                }
                engine.step().unwrap();
                let expected = match policy {
                    BatchPolicy::Batched => width(engine.network(), reqs),
                    BatchPolicy::Sequential => reqs
                        .into_iter()
                        .map(|r| width(engine.network(), vec![r]))
                        .max()
                        .unwrap(),
                };
                assert_eq!(
                    engine.last_round_envelope_bits(),
                    expected,
                    "{k} requests under {policy:?}"
                );
                let slots = if policy == BatchPolicy::Batched { k } else { 1 };
                assert_eq!(engine.last_round_envelope_slots(), slots as u64);
            }
        }
    }

    #[test]
    fn invalid_parameters_retire_with_their_error() {
        let mut engine = StreamingEngine::new(grid_net(3, 4));
        let bad = engine.submit(QuerySpec::BottomK { k: 0 });
        let good = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let reports = engine.run_until_idle().unwrap();
        let by_id = |id: QueryId| reports.iter().find(|r| r.report.id == id).unwrap();
        assert!(matches!(
            by_id(bad).report.outcome,
            Err(QueryError::InvalidParameter(_))
        ));
        assert_eq!(by_id(good).report.outcome, Ok(QueryOutcome::Num(9)));
    }

    #[test]
    fn service_outlives_the_sketch_nonce_space() {
        // Past 32768 submissions the loop keeps serving: nonce-free specs
        // answer, randomized ones retire with a typed error instead of
        // aborting the process or reusing an earlier query's nonces.
        let mut engine = StreamingEngine::new(grid_net(3, 14));
        engine.submitted = 0x8000;
        let count = engine.submit(QuerySpec::Count(Predicate::TRUE));
        let apx = engine.submit(QuerySpec::ApxCount {
            pred: Predicate::TRUE,
            reps: 2,
        });
        assert_eq!(count, 0x8000);
        let reports = engine.run_until_idle().unwrap();
        let by_id = |id: QueryId| reports.iter().find(|r| r.report.id == id).unwrap();
        assert_eq!(by_id(count).report.outcome, Ok(QueryOutcome::Num(9)));
        assert!(matches!(
            by_id(apx).report.outcome,
            Err(QueryError::InvalidParameter(_))
        ));
        assert_eq!(engine.waves_issued(), 1, "only the count flew");
    }

    #[test]
    fn idle_rounds_cost_nothing_and_keep_counting() {
        let mut engine = StreamingEngine::new(grid_net(3, 5));
        for _ in 0..10 {
            assert!(engine.step().unwrap().is_empty());
        }
        assert_eq!(engine.rounds_executed(), 10);
        assert_eq!(engine.waves_issued(), 0);
        assert_eq!(engine.network().net_stats().unwrap().max_node_bits(), 0);
    }

    #[test]
    fn service_stats_summarize_latency_and_bits() {
        let mut engine = StreamingEngine::new(grid_net(4, 6));
        engine.submit(QuerySpec::Count(Predicate::TRUE));
        engine.submit(QuerySpec::Median);
        let reports = engine.run_until_idle().unwrap();
        let stats = ServiceStats::from_reports(&reports);
        assert_eq!(stats.retired, 2);
        assert!(stats.mean_latency_rounds >= 1.0);
        assert!(stats.max_latency_rounds >= 1);
        assert!(stats.mean_bits_per_query > 0.0);
        assert_eq!(
            ServiceStats::total_bits(&reports),
            reports.iter().map(|r| r.report.bits.total()).sum::<u64>()
        );
        assert_eq!(ServiceStats::from_reports(&[]), ServiceStats::default());
    }
}
