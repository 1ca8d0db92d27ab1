//! The fleet layer: standing queries, served to many subscribers from
//! few shared refresh slots.
//!
//! A monitoring deployment asks the *same* aggregate over and over — "the
//! median temperature, every few rounds, forever" — and usually many
//! users ask it. [`FleetService`] is the one table of standing queries:
//! each distinct `(spec, period)` is one slot that owns its schedule,
//! its refresh ordinal and its subscribers, and
//! a user's standing query is a subscription to a slot. A single
//! registration is simply a slot with fan-out 1.
//!
//! Each [`FleetService::step`] runs three steps over the owned
//! [`StreamingEngine`]:
//!
//! 1. every slot that is due this round, has subscribers and has no
//!    refresh in flight hands the loop one pre-admitted refresh slot
//!    (slot order);
//! 2. the loop runs its round — the refreshes ride the ordinary shared
//!    wave beside ad-hoc [`FleetService::submit`] traffic;
//! 3. finished refreshes are drained from the loop and fanned out to
//!    each slot's subscribers as [`FleetRefresh`] copies.
//!
//! ## Why a refresh is (nearly) free
//!
//! The wave layer's subtree partial caches
//! (`saq_protocols::cache::PartialCache`) already make an *unchanged*
//! repeat cost zero bits. [`FleetService::update_items`] extends that
//! across **item updates**: it routes each sensor update through
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
//!   while value changes invalidate **only the affected entries along
//!   the mutated path**, so the next refresh repairs them with a
//!   *dirty-path* wave: reduced envelopes travel only where subtree
//!   partials actually changed, and every clean subtree answers from
//!   cache without a single message below it;
//! * aggregates that cannot delta (collect, exact-distinct) fall back to
//!   a loud per-entry invalidation.
//!
//! ## Sharing one refresh among many readers
//!
//! * **Spec-level dedup** — registrations with identical `(spec,
//!   every_k_rounds)` coalesce into one slot, keyed by the *canonical
//!   encoding* of the pair (the same idea as the subtree partial
//!   cache's encoded-sub-request keys: equality of meaning is equality
//!   of wire bits). The slot's [`QueryBits`] bill is attributed
//!   **once** in the fleet counters (`slot_refresh_bits`), not per
//!   subscriber — every fan-out copy carries the same `slot_bits` so
//!   readers can see what their answer cost the network, and
//!   `FleetStats::bits_per_query` divides that one bill by the queries
//!   actually served.
//! * **Phase-staggered refresh scheduling** — each *distinct* slot of
//!   period `p` gets a deterministic phase in `0..p` (round-robin per
//!   period, [`RefreshStagger::Spread`]), so a cohort of same-period
//!   slots refreshes `⌈slots/p⌉` at a time instead of spiking together.
//!   The schedule is a pure function of (slot creation order, period) —
//!   no clocks, no randomness — so boxed and flat runs stay
//!   bit-identical.
//! * **Refcounted slot lifecycle** — a slot is released exactly when its
//!   last subscriber leaves, and it stays in the table with its phase
//!   and refresh ordinal. A refresh in flight at the release still
//!   completes; it is served to whoever subscribes by the time it
//!   finishes, and counted as an orphan if nobody does. A later
//!   registration of the same `(spec, period)` re-joins the slot on its
//!   old schedule, never doubling a refresh that is still in flight, and
//!   if the cached subtree partials are still clean the first refresh
//!   after the re-join moves zero bits.
//!
//! `tests/continuous_equivalence.rs` proves every standing answer ≡ a
//! fresh convergecast's answer across arbitrary update/refresh
//! interleavings (certified-ε for quantiles), flat workers included;
//! `tests/fleet_equivalence.rs` pins that `k` deduped registrations are
//! bit-identical to one, that churn never perturbs survivors, and that
//! the staggered envelope beats the unstaggered spike. Experiment E15
//! sweeps update rate × refresh period; E20 sweeps registrations
//! 10² → 10⁵ and charts bits/query falling as ~1/fan-out.

use crate::engine::{compile_plan, QueryBits, QueryId, QueryOutcome, QuerySpec};
use crate::error::QueryError;
use crate::model::Value;
use crate::predicate::{Domain, Predicate, Test};
use crate::simnet::SimNetwork;
use crate::streaming::{StreamingEngine, StreamingReport, STANDING_QUERY_ID_BASE};
use saq_netsim::wire::{BitString, BitWriter};
use std::collections::HashMap;

/// Identifier of one fleet registration (registration order; never
/// recycled within a service's lifetime). Many subscribers may share
/// one [`FleetService`] slot — that is the point.
pub type SubscriberId = usize;

/// Identifier of a shared refresh slot (slot creation order; stable for
/// the service's lifetime, including across release/re-join cycles).
pub type FleetSlotId = usize;

/// How the fleet assigns refresh phases to distinct slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefreshStagger {
    /// Every slot is anchored at phase 0: a cohort of same-period slots
    /// refreshes in one spiking wave (the baseline the stagger test
    /// measures and pins strictly worse).
    None,
    /// Round-robin phases within each period: the `i`-th distinct slot
    /// of period `p` is anchored at round `i mod p`, smoothing the
    /// per-round request envelope to `⌈slots/p⌉` refreshes. A pure
    /// function of (slot creation order, period), so the schedule is
    /// identical across reruns and across boxed and flat execution.
    #[default]
    Spread,
}

/// One subscriber's copy of a completed slot refresh.
#[derive(Debug, Clone)]
pub struct FleetRefresh {
    /// The subscriber this copy is addressed to.
    pub subscriber: SubscriberId,
    /// The shared slot that refreshed.
    pub slot: FleetSlotId,
    /// The slot's own refresh ordinal: 0 for its first refresh, counted
    /// across release and re-join, so a late or re-joining subscriber
    /// sees the slot's numbering, never a restart.
    pub seq: u64,
    /// The refreshed answer — by construction equal to what a fresh
    /// convergecast over the current items would answer (certified-ε
    /// equivalent for quantiles), and identical for every subscriber of
    /// the slot.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// The **shared slot's** bill for this refresh — what the network
    /// moved, once, regardless of how many subscribers it served: zero
    /// request/partial bits when every subtree partial was served
    /// delta-maintained from cache. Fleet totals attribute it once; it
    /// is repeated on each fan-out copy only so a reader can see its
    /// query's network cost.
    pub slot_bits: QueryBits,
    /// Subscribers this refresh was fanned out to (including this one).
    pub fan_out: u32,
    /// Round the refresh fell due (and was staged).
    pub due_round: u64,
    /// Round the refresh completed.
    pub finished_round: u64,
}

/// What one [`FleetService::step`] produced: ad-hoc retirements and
/// fanned-out standing refreshes.
#[derive(Debug, Clone, Default)]
pub struct FleetRound {
    /// Ad-hoc queries that retired this round.
    pub retired: Vec<StreamingReport>,
    /// Fan-out copies of the standing refreshes completed this round
    /// (slot completion order, ascending subscriber id within a slot).
    pub refreshes: Vec<FleetRefresh>,
}

impl FleetRound {
    fn absorb(&mut self, mut other: FleetRound) {
        self.retired.append(&mut other.retired);
        self.refreshes.append(&mut other.refreshes);
    }
}

/// Fleet-level counters, in the spirit of
/// `saq_protocols::cache::CacheStats`: cheap, always-on, and asserted
/// against hand-computed schedules in the test suite.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Registrations accepted over the service's lifetime.
    pub registrations: u64,
    /// Deregistrations over the service's lifetime.
    pub deregistrations: u64,
    /// Registrations that coalesced into an existing slot instead of
    /// creating one (`registrations - coalesced` = slots ever created).
    pub coalesced: u64,
    /// Currently active subscribers.
    pub subscribers: u64,
    /// Currently live shared slots (slots with at least one subscriber;
    /// released slots are excluded).
    pub distinct_slots: u64,
    /// Shared-slot refreshes completed (network-side work units).
    pub slot_refreshes: u64,
    /// Subscriber queries served by those refreshes (fan-out copies
    /// delivered).
    pub queries_served: u64,
    /// Total bits billed to shared-slot refreshes — attributed **once**
    /// per refresh, never multiplied by fan-out. Orphaned refreshes
    /// (every subscriber deregistered mid-flight) are included: the
    /// network really moved those bits.
    pub slot_refresh_bits: u64,
    /// Service rounds executed.
    pub rounds: u64,
    /// Sum over rounds of the peak per-node request-envelope bits (for
    /// [`FleetStats::envelope_mean_bits`]).
    pub envelope_bits_total: u64,
    /// Largest per-node request envelope any round carried, in bits —
    /// the spike the staggered scheduler smooths.
    pub envelope_peak_bits: u64,
    /// Largest wave slot count any round carried.
    pub envelope_peak_slots: u64,
}

impl FleetStats {
    /// Queries served per shared-slot refresh — the dedup amortization
    /// factor (`k` subscribers per slot ⇒ ratio `k`). Zero before any
    /// refresh completed.
    pub fn fan_out_ratio(&self) -> f64 {
        if self.slot_refreshes == 0 {
            0.0
        } else {
            self.queries_served as f64 / self.slot_refreshes as f64
        }
    }

    /// Mean network bits per query *served* — the headline economy:
    /// falls as ~1/fan-out because the numerator is per-slot, not
    /// per-subscriber. Zero before any query was served.
    pub fn bits_per_query(&self) -> f64 {
        if self.queries_served == 0 {
            0.0
        } else {
            self.slot_refresh_bits as f64 / self.queries_served as f64
        }
    }

    /// Mean per-round peak request envelope, in bits.
    pub fn envelope_mean_bits(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.envelope_bits_total as f64 / self.rounds as f64
        }
    }
}

/// One standing query: a distinct `(spec, period)`, its schedule and
/// everyone subscribed to it — the only record of it anywhere. Slots are
/// never removed: a released slot keeps its phase and ordinal, so a
/// re-registration re-joins the exact schedule (and hence the exact
/// cache keys) the released incarnation had.
struct FleetSlot {
    spec: QuerySpec,
    /// Refresh period in rounds (`>= 1`).
    every: u64,
    /// The refresh phase in `0..every`, fixed at slot creation.
    phase: u64,
    /// The next refresh ordinal; kept across release and re-join.
    seq: u64,
    /// Whether a refresh of this slot is in the loop's active set. A due
    /// tick that finds one in flight is skipped rather than queued — a
    /// standing query never piles up behind itself.
    in_flight: bool,
    /// Active subscribers, ascending (registration order). The slot is
    /// released exactly while this is empty.
    subscribers: Vec<SubscriberId>,
}

impl FleetSlot {
    fn due(&self, round: u64) -> bool {
        !self.subscribers.is_empty()
            && !self.in_flight
            && round >= self.phase
            && (round - self.phase).is_multiple_of(self.every)
    }
}

struct SubscriberEntry {
    slot: FleetSlotId,
    active: bool,
}

/// The front-end fleet service: accepts interleaved
/// [`register`](FleetService::register) /
/// [`submit`](FleetService::submit) /
/// [`deregister`](FleetService::deregister) traffic over a
/// [`StreamingEngine`], deduplicating identical `(spec, period)`
/// registrations into shared refresh slots and fanning each refresh
/// out at the service edge (see the [module docs](self)).
///
/// Build the underlying network **with a subtree partial cache** — the
/// fleet serves many readers from one maintained partial; without a
/// cache every refresh legitimately pays a full convergecast.
///
/// # Examples
///
/// ```
/// use saq_core::engine::{QueryOutcome, QuerySpec};
/// use saq_core::predicate::Predicate;
/// use saq_core::service::FleetService;
/// use saq_core::simnet::SimNetworkBuilder;
/// use saq_netsim::topology::Topology;
///
/// # fn main() -> Result<(), saq_core::QueryError> {
/// let topo = Topology::grid(4, 4)?;
/// let items: Vec<u64> = (0..16).collect();
/// let net = SimNetworkBuilder::new()
///     .partial_cache(32)
///     .build_one_per_node(&topo, &items, 64)?;
/// let mut fleet = FleetService::new(net);
///
/// // Three users watch the same count; a fourth watches the median.
/// let a = fleet.register(QuerySpec::Count(Predicate::TRUE), 2)?;
/// let b = fleet.register(QuerySpec::Count(Predicate::TRUE), 2)?;
/// let c = fleet.register(QuerySpec::Count(Predicate::TRUE), 2)?;
/// let d = fleet.register(QuerySpec::Median, 2)?;
/// assert_eq!(fleet.slot_of(a), fleet.slot_of(b));
/// assert_eq!(fleet.slot_of(b), fleet.slot_of(c));
/// assert_ne!(fleet.slot_of(c), fleet.slot_of(d));
///
/// let out = fleet.run_rounds(4)?;
/// // The count slot refreshed twice, serving three readers each time…
/// let served: Vec<_> = out
///     .refreshes
///     .iter()
///     .filter(|r| r.outcome == Ok(QueryOutcome::Num(16)))
///     .collect();
/// assert_eq!(served.len(), 6);
/// // …and all three copies of a refresh carry the SAME slot bill,
/// // attributed once in the fleet totals.
/// let stats = fleet.fleet_stats();
/// assert_eq!(stats.distinct_slots, 2);
/// assert_eq!(stats.subscribers, 4);
/// assert_eq!(stats.coalesced, 2);
/// assert!(stats.fan_out_ratio() > 1.0);
/// # Ok(())
/// # }
/// ```
pub struct FleetService {
    inner: StreamingEngine,
    slots: Vec<FleetSlot>,
    by_key: HashMap<BitString, FleetSlotId>,
    subscribers: Vec<SubscriberEntry>,
    /// Per-period slot-creation counters driving
    /// [`RefreshStagger::Spread`].
    phase_counters: HashMap<u64, u64>,
    stagger: RefreshStagger,
    stats: FleetStats,
}

impl FleetService {
    /// A fleet service over `net` with the default staggered scheduler
    /// and the service loop's default policies.
    pub fn new(net: SimNetwork) -> Self {
        Self::with_stagger(net, RefreshStagger::default())
    }

    /// A fleet service with an explicit stagger policy
    /// ([`RefreshStagger::None`] reproduces the naive spiking schedule
    /// — useful as a measured baseline — and phases every slot to the
    /// round it was registered in when all register at round 0).
    pub fn with_stagger(net: SimNetwork, stagger: RefreshStagger) -> Self {
        FleetService {
            inner: StreamingEngine::new(net),
            slots: Vec::new(),
            by_key: HashMap::new(),
            subscribers: Vec::new(),
            phase_counters: HashMap::new(),
            stagger,
            stats: FleetStats::default(),
        }
    }

    /// Registers a subscriber for `(spec, every_k_rounds)`. Identical
    /// pairs — by canonical encoding, not pointer or string identity —
    /// coalesce into one shared wave slot: the network refreshes the
    /// query once per due round no matter how many subscribers watch
    /// it. A pair whose slot was fully released re-joins it on its old
    /// schedule, without a cold wave if the cached partials are still
    /// clean.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidParameter`] for a zero period, an
    /// item-mutating spec (`APX_MEDIAN2` needs exclusive item state per
    /// run), a spec that draws fresh sketch randomness per invocation
    /// ([`QuerySpec::draws_fresh_randomness`] — such sub-requests never
    /// repeat, so they are not delta-maintainable), or a spec that fails
    /// to compile (e.g. `BottomK { k: 0 }`). A rejected registration
    /// records nothing: no subscriber id, no slot, no phase.
    pub fn register(
        &mut self,
        spec: QuerySpec,
        every_k_rounds: u64,
    ) -> Result<SubscriberId, QueryError> {
        let key = fleet_key(&spec, every_k_rounds);
        let sub = self.subscribers.len();
        let slot_id = match self.by_key.get(&key).copied() {
            Some(slot_id) => {
                self.stats.coalesced += 1;
                slot_id
            }
            None => {
                vet_standing(self.inner.network(), &spec, every_k_rounds)?;
                let phase = self.next_phase(every_k_rounds);
                let slot_id = self.slots.len();
                self.slots.push(FleetSlot {
                    spec,
                    every: every_k_rounds,
                    phase,
                    seq: 0,
                    in_flight: false,
                    subscribers: Vec::new(),
                });
                self.by_key.insert(key, slot_id);
                slot_id
            }
        };
        self.slots[slot_id].subscribers.push(sub);
        self.subscribers.push(SubscriberEntry {
            slot: slot_id,
            active: true,
        });
        self.stats.registrations += 1;
        Ok(sub)
    }

    /// Deregisters a subscriber. The **last** deregistration of a slot
    /// releases it: no further refresh is spawned, and one still in
    /// flight completes and is served to whoever subscribes by then —
    /// with nobody left, its report is dropped (the bits it moved stay
    /// counted in [`FleetStats::slot_refresh_bits`]). Returns `false`
    /// for unknown or already-deregistered ids.
    pub fn deregister(&mut self, sub: SubscriberId) -> bool {
        let slot_id = match self.subscribers.get_mut(sub) {
            Some(e) if e.active => {
                e.active = false;
                e.slot
            }
            _ => return false,
        };
        self.slots[slot_id].subscribers.retain(|&s| s != sub);
        self.stats.deregistrations += 1;
        true
    }

    /// The shared slot a subscriber is (or was) attached to; `None` for
    /// never-issued ids.
    pub fn slot_of(&self, sub: SubscriberId) -> Option<FleetSlotId> {
        self.subscribers.get(sub).map(|e| e.slot)
    }

    /// Every slot's `(period, phase)` in slot-creation order — the
    /// complete refresh schedule, released slots included. A pure
    /// function of the registration sequence: the stagger determinism
    /// test asserts it is identical across reruns and across
    /// boxed and flat execution.
    pub fn slot_schedule(&self) -> Vec<(u64, u64)> {
        self.slots.iter().map(|s| (s.every, s.phase)).collect()
    }

    /// Submits an ordinary ad-hoc query to the underlying service loop
    /// (it shares waves with due refreshes as usual).
    pub fn submit(&mut self, spec: QuerySpec) -> QueryId {
        self.inner.submit(spec)
    }

    /// Applies a sensor update: replaces the items hosted by `node`,
    /// delta-maintaining every cached subtree partial along the node's
    /// root path (see [`SimNetwork::set_node_items`]). Driver-side, like
    /// all item placement in this workspace — the update itself is not
    /// billed; what the experiments measure is the refresh traffic it
    /// does (or does not) cause.
    ///
    /// # Errors
    ///
    /// As [`SimNetwork::set_node_items`].
    ///
    /// # Examples
    ///
    /// ```
    /// use saq_core::engine::{QueryOutcome, QuerySpec};
    /// use saq_core::predicate::Predicate;
    /// use saq_core::service::{FleetService, RefreshStagger};
    /// use saq_core::simnet::SimNetworkBuilder;
    /// use saq_netsim::topology::Topology;
    ///
    /// # fn main() -> Result<(), saq_core::QueryError> {
    /// let topo = Topology::grid(4, 4)?;
    /// let items: Vec<u64> = (0..16).collect();
    /// let net = SimNetworkBuilder::new()
    ///     .partial_cache(32)
    ///     .build_one_per_node(&topo, &items, 64)?;
    /// let mut fleet = FleetService::with_stagger(net, RefreshStagger::None);
    ///
    /// // A standing count, refreshed every 2 rounds.
    /// let count = fleet.register(QuerySpec::Count(Predicate::TRUE), 2)?;
    /// let warm = fleet.run_rounds(4)?; // refreshes at rounds 0 and 2
    /// assert_eq!(warm.refreshes.len(), 2);
    /// assert!(warm.refreshes.iter().all(|r| r.subscriber == count
    ///     && r.outcome == Ok(QueryOutcome::Num(16))));
    /// // The second refresh rode the warm cache: zero payload bits.
    /// assert_eq!(warm.refreshes[1].slot_bits.request_bits, 0);
    /// assert_eq!(warm.refreshes[1].slot_bits.partial_bits, 0);
    ///
    /// // A sensor update is delta-folded into the cached partials…
    /// fleet.update_items(5, vec![60])?;
    /// let next = fleet.run_rounds(2)?;
    /// // …so the refreshed answer is current, still for zero payload bits.
    /// assert_eq!(next.refreshes[0].outcome, Ok(QueryOutcome::Num(16)));
    /// assert_eq!(next.refreshes[0].slot_bits.partial_bits, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn update_items(&mut self, node: usize, values: Vec<Value>) -> Result<(), QueryError> {
        self.inner.network_mut().set_node_items(node, values)
    }

    /// Executes one service round — spawns the refresh of every due
    /// slot, runs the loop's round, and fans completed refreshes out to
    /// their slots' subscribers (ascending subscriber id within each
    /// slot, slot completion order across slots).
    ///
    /// # Errors
    ///
    /// As [`StreamingEngine::step`]: only network/protocol failures
    /// abort a round; per-query errors ride the reports.
    pub fn step(&mut self) -> Result<FleetRound, QueryError> {
        let round = self.inner.rounds_executed();
        for (id, slot) in self.slots.iter_mut().enumerate() {
            if slot.due(round) {
                self.inner.spawn_refresh(id, slot.seq, &slot.spec);
                slot.seq += 1;
                slot.in_flight = true;
            }
        }
        let retired = self.inner.step()?;
        self.stats.rounds += 1;
        let env_bits = self.inner.last_round_envelope_bits();
        let env_slots = self.inner.last_round_envelope_slots();
        self.stats.envelope_bits_total += env_bits;
        self.stats.envelope_peak_bits = self.stats.envelope_peak_bits.max(env_bits);
        self.stats.envelope_peak_slots = self.stats.envelope_peak_slots.max(env_slots);
        let mut refreshes = Vec::new();
        for r in self.inner.take_refreshes() {
            let slot_id = r.report.id - STANDING_QUERY_ID_BASE;
            let slot = &mut self.slots[slot_id];
            slot.in_flight = false;
            // At most one refresh per slot is in flight, so it is the
            // one numbered just below the slot's next ordinal.
            let seq = slot.seq - 1;
            let bits = r.report.bits;
            let fan_out = slot.subscribers.len() as u32;
            self.stats.slot_refreshes += 1;
            self.stats.slot_refresh_bits += bits.total();
            self.stats.queries_served += u64::from(fan_out);
            if self.inner.network().telemetry_enabled() {
                self.inner
                    .network_mut()
                    .emit_event(&saq_obs::Event::RefreshFanout {
                        slot: slot_id as u64,
                        subscribers: u64::from(fan_out),
                        round: r.retired_round,
                    });
            }
            for &sub in &self.slots[slot_id].subscribers {
                refreshes.push(FleetRefresh {
                    subscriber: sub,
                    slot: slot_id,
                    seq,
                    outcome: r.report.outcome.clone(),
                    slot_bits: bits,
                    fan_out,
                    due_round: r.submitted_round,
                    finished_round: r.retired_round,
                });
            }
        }
        Ok(FleetRound { retired, refreshes })
    }

    /// Executes `n` service rounds, accumulating everything they
    /// produce.
    ///
    /// # Errors
    ///
    /// As [`FleetService::step`]; rounds already executed are lost to
    /// the caller on failure, so prefer per-round stepping when partial
    /// progress matters.
    pub fn run_rounds(&mut self, n: u64) -> Result<FleetRound, QueryError> {
        let mut out = FleetRound::default();
        for _ in 0..n {
            out.absorb(self.step()?);
        }
        Ok(out)
    }

    /// A snapshot of the fleet counters (see [`FleetStats`]).
    pub fn fleet_stats(&self) -> FleetStats {
        let mut stats = self.stats;
        stats.subscribers = self.subscribers.iter().filter(|e| e.active).count() as u64;
        stats.distinct_slots = self
            .slots
            .iter()
            .filter(|s| !s.subscribers.is_empty())
            .count() as u64;
        stats
    }

    /// Service rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.inner.rounds_executed()
    }

    /// The underlying network (statistics, cache counters).
    pub fn network(&self) -> &SimNetwork {
        self.inner.network()
    }

    /// Mutable access to the underlying network.
    pub fn network_mut(&mut self) -> &mut SimNetwork {
        self.inner.network_mut()
    }

    /// The underlying service loop (e.g. to set a bit budget on the
    /// ad-hoc side or inspect wave logs). Standing queries exist only
    /// as fleet slots; the loop has no way to register one.
    pub fn engine(&mut self) -> &mut StreamingEngine {
        &mut self.inner
    }

    /// Consumes the service, returning the network.
    pub fn into_network(self) -> SimNetwork {
        self.inner.into_network()
    }

    /// The deterministic phase of a new slot of period `every`; consumes
    /// it under [`RefreshStagger::Spread`].
    fn next_phase(&mut self, every: u64) -> u64 {
        match self.stagger {
            RefreshStagger::None => 0,
            RefreshStagger::Spread => {
                let created = self.phase_counters.entry(every).or_insert(0);
                *created += 1;
                (*created - 1) % every
            }
        }
    }
}

/// Rejects a `(spec, period)` that cannot stand (see
/// [`FleetService::register`]).
fn vet_standing(net: &SimNetwork, spec: &QuerySpec, every: u64) -> Result<(), QueryError> {
    if every == 0 {
        return Err(QueryError::InvalidParameter(
            "standing refresh period must be at least one round",
        ));
    }
    if spec.mutates_items() {
        return Err(QueryError::InvalidParameter(
            "item-mutating queries cannot stand: zoom stages need exclusive item state",
        ));
    }
    if spec.draws_fresh_randomness() {
        return Err(QueryError::InvalidParameter(
            "fresh-randomness queries cannot stand: their sub-requests never repeat, so \
             cached subtree partials can never be delta-maintained for them",
        ));
    }
    compile_plan(net, spec).map(drop)
}

/// The dedup key: a canonical bit-level encoding of `(period, spec)`,
/// mirroring how the wave layer keys subtree partial caches by encoded
/// sub-requests — equality of meaning is equality of wire bits, with
/// no reliance on hashable float fields or formatting. Injective by
/// construction: a gamma variant tag followed by the variant's fields
/// (predicates as domain/test bits, floats as their IEEE-754 bit
/// patterns, integers as varints).
fn fleet_key(spec: &QuerySpec, every: u64) -> BitString {
    let mut w = BitWriter::new();
    w.write_varint(every);
    encode_spec(spec, &mut w);
    w.finish()
}

fn encode_pred(p: &Predicate, w: &mut BitWriter) {
    w.write_bits(matches!(p.domain, Domain::Log) as u64, 1);
    match p.test {
        Test::True => w.write_bits(0, 1),
        Test::LessThan2 { y2 } => {
            w.write_bits(1, 1);
            w.write_varint(y2);
        }
    }
}

fn encode_domain(d: &Domain, w: &mut BitWriter) {
    w.write_bits(matches!(d, Domain::Log) as u64, 1);
}

fn encode_spec(spec: &QuerySpec, w: &mut BitWriter) {
    match spec {
        QuerySpec::Count(p) => {
            w.write_gamma(1);
            encode_pred(p, w);
        }
        QuerySpec::Sum(p) => {
            w.write_gamma(2);
            encode_pred(p, w);
        }
        QuerySpec::Min(d) => {
            w.write_gamma(3);
            encode_domain(d, w);
        }
        QuerySpec::Max(d) => {
            w.write_gamma(4);
            encode_domain(d, w);
        }
        QuerySpec::ApxCount { pred, reps } => {
            w.write_gamma(5);
            encode_pred(pred, w);
            w.write_varint(u64::from(*reps));
        }
        QuerySpec::DistinctExact => w.write_gamma(6),
        QuerySpec::DistinctApx { reps } => {
            w.write_gamma(7);
            w.write_varint(u64::from(*reps));
        }
        QuerySpec::Collect => w.write_gamma(8),
        QuerySpec::Quantile { q, eps } => {
            w.write_gamma(9);
            w.write_bits(q.to_bits(), 64);
            w.write_bits(eps.to_bits(), 64);
        }
        QuerySpec::BottomK { k } => {
            w.write_gamma(10);
            w.write_varint(u64::from(*k));
        }
        QuerySpec::Median => w.write_gamma(11),
        QuerySpec::OrderStatistic { k } => {
            w.write_gamma(12);
            w.write_varint(*k);
        }
        QuerySpec::ApxMedian { epsilon } => {
            w.write_gamma(13);
            w.write_bits(epsilon.to_bits(), 64);
        }
        QuerySpec::ApxMedian2 { beta, epsilon } => {
            w.write_gamma(14);
            w.write_bits(beta.to_bits(), 64);
            w.write_bits(epsilon.to_bits(), 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Domain, Predicate};
    use crate::simnet::SimNetworkBuilder;
    use saq_netsim::topology::Topology;

    fn net_with(cache: usize, shards: usize) -> SimNetwork {
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<u64> = (0..40u64).map(|i| (i * 13) % 100).collect();
        SimNetworkBuilder::new()
            .partial_cache(cache)
            .flat(shards > 1)
            .shards(shards)
            .build_one_per_node(&topo, &items, 128)
            .unwrap()
    }

    fn cached_net() -> SimNetwork {
        net_with(512, 1)
    }

    /// A fleet whose slots all sit at phase 0: with every registration
    /// at round 0, each standing query refreshes at rounds `≡ 0 (mod
    /// period)`.
    fn unstaggered(shards: usize) -> FleetService {
        FleetService::with_stagger(net_with(64, shards), RefreshStagger::None)
    }

    #[test]
    fn identical_pairs_coalesce_distinct_pairs_do_not() {
        let mut fleet = FleetService::new(cached_net());
        let a = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 2)
            .unwrap();
        let b = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 2)
            .unwrap();
        // Same spec, different period: a different slot.
        let c = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 3)
            .unwrap();
        // Different spec, same period: a different slot.
        let d = fleet.register(QuerySpec::Sum(Predicate::TRUE), 2).unwrap();
        assert_eq!(fleet.slot_of(a), fleet.slot_of(b));
        assert_ne!(fleet.slot_of(a), fleet.slot_of(c));
        assert_ne!(fleet.slot_of(a), fleet.slot_of(d));
        let stats = fleet.fleet_stats();
        assert_eq!(stats.registrations, 4);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.distinct_slots, 3);
        assert_eq!(stats.subscribers, 4);
    }

    #[test]
    fn fleet_keys_distinguish_near_identical_specs() {
        // Pairs that must NOT collide: same variant with different
        // fields, and different variants with identical field bits.
        let distinct = [
            (QuerySpec::Count(Predicate::TRUE), 2),
            (QuerySpec::Count(Predicate::TRUE), 3),
            (QuerySpec::Count(Predicate::less_than(7)), 2),
            (QuerySpec::Count(Predicate::less_than(8)), 2),
            (QuerySpec::Sum(Predicate::TRUE), 2),
            (QuerySpec::Min(Domain::Raw), 2),
            (QuerySpec::Min(Domain::Log), 2),
            (QuerySpec::Max(Domain::Raw), 2),
            (QuerySpec::Quantile { q: 0.5, eps: 0.2 }, 2),
            (QuerySpec::Quantile { q: 0.5, eps: 0.25 }, 2),
            (QuerySpec::Quantile { q: 0.25, eps: 0.2 }, 2),
            (QuerySpec::BottomK { k: 5 }, 2),
            (QuerySpec::Median, 2),
            (QuerySpec::OrderStatistic { k: 11 }, 2),
        ];
        for (i, (si, pi)) in distinct.iter().enumerate() {
            for (sj, pj) in distinct.iter().skip(i + 1) {
                assert_ne!(
                    fleet_key(si, *pi),
                    fleet_key(sj, *pj),
                    "{si:?}@{pi} collides with {sj:?}@{pj}"
                );
            }
            // And the key is a function: re-encoding is stable.
            assert_eq!(fleet_key(si, *pi), fleet_key(si, *pi));
        }
    }

    #[test]
    fn rejected_specs_leave_no_trace() {
        let mut fleet = FleetService::new(cached_net());
        assert!(fleet.register(QuerySpec::Median, 0).is_err());
        assert!(fleet
            .register(
                QuerySpec::ApxMedian2 {
                    beta: 0.25,
                    epsilon: 0.4
                },
                2
            )
            .is_err());
        assert!(fleet
            .register(
                QuerySpec::ApxCount {
                    pred: Predicate::TRUE,
                    reps: 4
                },
                2
            )
            .is_err());
        assert!(fleet.register(QuerySpec::BottomK { k: 0 }, 2).is_err());
        let stats = fleet.fleet_stats();
        assert_eq!(stats.registrations, 0);
        assert_eq!(stats.distinct_slots, 0);
        assert_eq!(stats.subscribers, 0);
        // A failed registration burns no subscriber id.
        let ok = fleet.register(QuerySpec::Median, 4).unwrap();
        assert_eq!(ok, 0);
    }

    #[test]
    fn last_deregistration_releases_and_rejoin_remembers_phase() {
        let mut fleet = FleetService::new(cached_net());
        // Occupy phase 0 of period 2 with a single-wave spec, so the
        // slot under test gets phase 1 — a re-join must come back at 1,
        // not 0 — and odd-round waves carry the count alone (a fully
        // warm solo wave is suppressed outright, billing zero).
        fleet
            .register(QuerySpec::Quantile { q: 0.5, eps: 0.2 }, 2)
            .unwrap();
        let a = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 2)
            .unwrap();
        let b = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 2)
            .unwrap();
        let count_slot = fleet.slot_of(a).unwrap();
        assert_eq!(fleet.slot_schedule()[count_slot], (2, 1));
        fleet.run_rounds(4).unwrap();

        assert!(fleet.deregister(a));
        assert!(!fleet.deregister(a), "double deregistration");
        assert_eq!(fleet.fleet_stats().distinct_slots, 2, "slot still live");
        assert!(fleet.deregister(b));
        assert_eq!(fleet.fleet_stats().distinct_slots, 1, "slot released");

        // While released: no refreshes for the count slot.
        let idle = fleet.run_rounds(2).unwrap();
        assert!(idle.refreshes.iter().all(|r| r.slot != count_slot));

        // Re-join: same slot id, same phase, and — with clean cached
        // partials — the first refresh moves zero bits (no cold wave).
        let c = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 2)
            .unwrap();
        assert_eq!(fleet.slot_of(c), Some(count_slot));
        assert_eq!(fleet.slot_schedule()[count_slot], (2, 1));
        let out = fleet.run_rounds(2).unwrap();
        let rejoined: Vec<_> = out
            .refreshes
            .iter()
            .filter(|r| r.slot == count_slot)
            .collect();
        assert_eq!(rejoined.len(), 1);
        assert_eq!(rejoined[0].subscriber, c);
        // The slot's numbering continues: refreshes 0 and 1 came before
        // the release.
        assert_eq!(rejoined[0].seq, 2);
        assert_eq!(rejoined[0].outcome, Ok(QueryOutcome::Num(40)));
        assert_eq!(
            rejoined[0].slot_bits.total(),
            0,
            "re-join caused a cold wave"
        );
        // Refresh rounds stayed on the remembered phase-1 schedule.
        assert_eq!(rejoined[0].due_round % 2, 1);
    }

    #[test]
    fn spread_phases_are_round_robin_per_period() {
        let mut fleet = FleetService::new(cached_net());
        for i in 0..5u64 {
            fleet
                .register(QuerySpec::Count(Predicate::less_than(i + 1)), 3)
                .unwrap();
        }
        fleet.register(QuerySpec::Median, 2).unwrap();
        fleet.register(QuerySpec::Sum(Predicate::TRUE), 2).unwrap();
        assert_eq!(
            fleet.slot_schedule(),
            vec![(3, 0), (3, 1), (3, 2), (3, 0), (3, 1), (2, 0), (2, 1)],
            "per-period round-robin phases"
        );
    }

    #[test]
    fn standing_query_refreshes_on_schedule() {
        let mut fleet = unstaggered(1);
        let id = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 3)
            .unwrap();
        let out = fleet.run_rounds(7).unwrap(); // due at rounds 0, 3, 6
        let seqs: Vec<u64> = out.refreshes.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        for r in &out.refreshes {
            assert_eq!(r.subscriber, id);
            assert_eq!(r.outcome, Ok(QueryOutcome::Num(40)));
            assert_eq!(r.finished_round, r.due_round, "single-wave refresh");
        }
        // Warm refreshes are free: only the first pays any payload.
        assert!(out.refreshes[0].slot_bits.total() > 0);
        assert_eq!(out.refreshes[1].slot_bits.request_bits, 0);
        assert_eq!(out.refreshes[1].slot_bits.partial_bits, 0);
        assert_eq!(out.refreshes[2].slot_bits.partial_bits, 0);
    }

    #[test]
    fn update_delta_keeps_refresh_free_and_current() {
        let mut fleet = unstaggered(1);
        fleet.register(QuerySpec::Sum(Predicate::TRUE), 1).unwrap();
        fleet.register(QuerySpec::Min(Domain::Raw), 1).unwrap();
        let warm = fleet.run_rounds(2).unwrap();
        let base_sum: u64 = (0..40u64).map(|i| (i * 13) % 100).sum();
        assert_eq!(warm.refreshes[0].outcome, Ok(QueryOutcome::Num(base_sum)));
        // Update a leaf: 39*13 % 100 = 7 becomes 3.
        fleet.update_items(39, vec![3]).unwrap();
        let out = fleet.run_rounds(1).unwrap();
        let by_subscriber = |id: SubscriberId| {
            out.refreshes
                .iter()
                .find(|r| r.subscriber == id)
                .expect("refreshed")
        };
        let sum = by_subscriber(0);
        assert_eq!(
            sum.outcome,
            Ok(QueryOutcome::Num(base_sum - 7 + 3)),
            "refresh reflects the update"
        );
        // The sum absorbed the delta in cache: zero payload bits. The
        // new value 3 is also the new minimum — min absorbed it too
        // (additions always merge exactly; 7's removal is above min 0).
        assert_eq!(sum.slot_bits.request_bits + sum.slot_bits.partial_bits, 0);
        let min = by_subscriber(1);
        assert_eq!(min.outcome, Ok(QueryOutcome::OptVal(Some(0))));
        assert_eq!(min.slot_bits.request_bits + min.slot_bits.partial_bits, 0);
        assert!(fleet.network().cache_stats().delta_applied > 0);
    }

    #[test]
    fn deregister_stops_refreshes() {
        let mut fleet = unstaggered(1);
        let id = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 1)
            .unwrap();
        assert_eq!(fleet.fleet_stats().distinct_slots, 1);
        let out = fleet.run_rounds(2).unwrap();
        assert_eq!(out.refreshes.len(), 2);
        assert!(fleet.deregister(id));
        assert!(!fleet.deregister(id), "double deregistration");
        assert_eq!(fleet.fleet_stats().distinct_slots, 0);
        let after = fleet.run_rounds(3).unwrap();
        assert!(after.refreshes.is_empty());
    }

    #[test]
    fn invalid_standing_specs_are_rejected_at_registration() {
        let mut fleet = unstaggered(1);
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
                    fleet.register(spec.clone(), 2),
                    Err(QueryError::InvalidParameter(_))
                ),
                "{why}: {spec:?} must be rejected"
            );
        }
        assert!(matches!(
            fleet.register(QuerySpec::Median, 0),
            Err(QueryError::InvalidParameter(_))
        ));
        // Multi-wave deterministic plans (exact median) do stand.
        assert!(fleet.register(QuerySpec::Median, 4).is_ok());
    }

    #[test]
    fn standing_and_adhoc_coexist_and_share_waves() {
        let mut fleet = unstaggered(1);
        fleet
            .register(QuerySpec::Count(Predicate::TRUE), 1)
            .unwrap();
        fleet.run_rounds(1).unwrap();
        let adhoc = fleet.submit(QuerySpec::Max(Domain::Raw));
        let out = fleet.run_rounds(1).unwrap();
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
            let mut fleet = unstaggered(shards);
            fleet
                .register(QuerySpec::Quantile { q: 0.5, eps: 0.2 }, 2)
                .unwrap();
            fleet
                .register(QuerySpec::Count(Predicate::TRUE), 2)
                .unwrap();
            let mut rounds = fleet.run_rounds(2).unwrap();
            fleet.update_items(17, vec![55]).unwrap();
            fleet.update_items(3, vec![9]).unwrap();
            rounds.absorb(fleet.run_rounds(2).unwrap());
            let stats = fleet.network().cache_stats();
            let refreshes: Vec<(FleetSlotId, u64, u64)> = rounds
                .refreshes
                .iter()
                .map(|r| (r.slot, r.seq, r.slot_bits.total()))
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
