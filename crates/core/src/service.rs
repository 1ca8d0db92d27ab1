//! The fleet layer: a front-end service that serves many standing-query
//! subscribers from few shared refresh slots.
//!
//! The continuous subsystem ([`crate::continuous::ContinuousEngine`])
//! bills every registered standing query its own refresh slot — so 10⁵
//! users all watching "median temperature every 5 rounds" would pay 10⁵
//! times for one delta-maintained subtree partial. [`FleetService`]
//! closes that gap with the classic serving-layer split: **the network
//! maintains one summary per distinct query; the fan-out to readers
//! happens at the service edge, off the network.**
//!
//! Three mechanisms, composed:
//!
//! * **Spec-level dedup** — registrations with identical `(spec,
//!   every_k_rounds)` coalesce into one shared wave slot, keyed by the
//!   *canonical encoding* of the pair (the same idea as the subtree
//!   partial cache's encoded-sub-request keys: equality of meaning is
//!   equality of wire bits). Each completed [`crate::continuous::RefreshReport`] is fanned
//!   out to every subscriber as a [`FleetRefresh`]; the shared slot's
//!   [`QueryBits`] bill is attributed **once** in the fleet counters
//!   (`slot_refresh_bits`), not per subscriber — every fan-out copy
//!   carries the same `slot_bits` so readers can see what their answer
//!   cost the network, and `FleetStats::bits_per_query` divides that
//!   one bill by the queries actually served.
//! * **Phase-staggered refresh scheduling** — each *distinct* slot of
//!   period `p` is anchored at a deterministic phase offset in `0..p`
//!   (round-robin per period, [`RefreshStagger::Spread`]), so a cohort
//!   of same-period slots refreshes `⌈slots/p⌉` at a time instead of
//!   spiking together. The schedule is a pure function of (slot
//!   creation order, period) — no clocks, no randomness — so boxed
//!   and flat runs stay bit-identical, and a released slot *remembers*
//!   its phase: re-registration re-joins the same schedule.
//! * **Refcounted slot lifecycle** — the last deregistration releases
//!   the underlying standing query (an in-flight refresh still
//!   completes; its report, having no subscribers left, is dropped);
//!   a later registration of the same `(spec, period)` re-anchors the
//!   slot at its remembered phase, and if the cached subtree partials
//!   are still clean the first refresh after the re-join moves zero
//!   bits — no cold wave, because the slot's sub-requests (and hence
//!   its cache keys) are byte-identical to the released incarnation's.
//!
//! The `tests/fleet_equivalence.rs` suite pins the contract: `k`
//! deduped registrations are bit-identical to a single registration in
//! answers, per-refresh wave bills, cache counters and per-node bits,
//! across boxed and flat execution; random register/deregister
//! churn never perturbs surviving subscribers; and the staggered
//! envelope stays under the smoothed bound while the unstaggered spike
//! is measured strictly worse. Experiment E20 sweeps registrations
//! 10² → 10⁵ and charts bits/query falling as ~1/fan-out.

use crate::continuous::{ContinuousEngine, StandingId};
use crate::engine::{QueryBits, QueryId, QueryOutcome, QuerySpec};
use crate::error::QueryError;
use crate::model::Value;
use crate::predicate::{Domain, Predicate, Test};
use crate::simnet::SimNetwork;
use crate::streaming::StreamingReport;
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

/// One subscriber's view of a completed shared-slot refresh: the
/// service-edge fan-out copy of a [`crate::continuous::RefreshReport`].
#[derive(Debug, Clone)]
pub struct FleetRefresh {
    /// The subscriber this copy is addressed to.
    pub subscriber: SubscriberId,
    /// The shared slot that refreshed.
    pub slot: FleetSlotId,
    /// Slot-level refresh ordinal (subscribers joining late still see
    /// the slot's own numbering).
    pub seq: u64,
    /// The refreshed answer — identical for every subscriber of the
    /// slot, by construction.
    pub outcome: Result<QueryOutcome, QueryError>,
    /// The **shared slot's** bill for this refresh — what the network
    /// moved, once, regardless of how many subscribers it served. Fleet
    /// totals attribute it once; it is repeated on each fan-out copy
    /// only so a reader can see its query's network cost.
    pub slot_bits: QueryBits,
    /// Subscribers this refresh was fanned out to (including this one).
    pub fan_out: u32,
    /// Round the refresh fell due.
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
    /// Currently live shared slots (slots whose standing query is
    /// registered in the engine; released slots are excluded).
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

/// One shared refresh slot: a distinct `(spec, period)` and everyone
/// subscribed to it. Slots are never removed — a fully released slot
/// stays as a tombstone remembering its phase, so a re-registration
/// re-joins the exact schedule (and hence the exact cache keys) the
/// released incarnation had.
struct FleetSlot {
    spec: QuerySpec,
    every: u64,
    /// The assigned refresh phase in `0..every` — fixed at slot
    /// creation, reused across release/re-join cycles.
    phase: u64,
    /// The engine-level standing query currently backing this slot;
    /// `None` while released.
    standing: Option<StandingId>,
    /// Active subscribers, ascending (registration order).
    subscribers: Vec<SubscriberId>,
}

struct SubscriberEntry {
    slot: FleetSlotId,
    active: bool,
}

/// The front-end fleet service: accepts interleaved
/// [`register`](FleetService::register) /
/// [`submit`](FleetService::submit) /
/// [`deregister`](FleetService::deregister) traffic over a
/// [`ContinuousEngine`], deduplicating identical `(spec, period)`
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
    inner: ContinuousEngine,
    slots: Vec<FleetSlot>,
    by_key: HashMap<BitString, FleetSlotId>,
    by_standing: HashMap<StandingId, FleetSlotId>,
    subscribers: Vec<SubscriberEntry>,
    /// Per-period slot-creation counters driving
    /// [`RefreshStagger::Spread`].
    phase_counters: HashMap<u64, u64>,
    stagger: RefreshStagger,
    stats: FleetStats,
}

impl FleetService {
    /// A fleet service over `net` with the default staggered scheduler
    /// and the continuous engine's default policies.
    pub fn new(net: SimNetwork) -> Self {
        Self::with_stagger(net, RefreshStagger::default())
    }

    /// A fleet service with an explicit stagger policy
    /// ([`RefreshStagger::None`] reproduces the naive spiking schedule
    /// — useful as a measured baseline).
    pub fn with_stagger(net: SimNetwork, stagger: RefreshStagger) -> Self {
        Self::from_engine(ContinuousEngine::new(net), stagger)
    }

    /// A fleet service over an explicitly configured engine (e.g. a
    /// custom [`crate::engine::BatchPolicy`] or
    /// [`crate::streaming::AdmissionPolicy`] for the ad-hoc side, via
    /// [`ContinuousEngine::with_policy`]).
    pub fn from_engine(engine: ContinuousEngine, stagger: RefreshStagger) -> Self {
        FleetService {
            inner: engine,
            slots: Vec::new(),
            by_key: HashMap::new(),
            by_standing: HashMap::new(),
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
    /// it. A pair whose slot was fully released re-joins it at its
    /// remembered phase, without a cold wave if the cached partials
    /// are still clean.
    ///
    /// # Errors
    ///
    /// As [`ContinuousEngine::register`]: zero periods, item-mutating
    /// or fresh-randomness specs, and compile failures are rejected
    /// here, before anything is recorded.
    pub fn register(
        &mut self,
        spec: QuerySpec,
        every_k_rounds: u64,
    ) -> Result<SubscriberId, QueryError> {
        let key = fleet_key(&spec, every_k_rounds);
        let sub = self.subscribers.len();
        let slot_id = match self.by_key.get(&key).copied() {
            Some(slot_id) => {
                if self.slots[slot_id].standing.is_none() {
                    // Re-join a released slot: re-anchor the standing
                    // query at the remembered phase, so the schedule —
                    // and with it every sub-request and cache key — is
                    // exactly the released incarnation's.
                    let phase = self.slots[slot_id].phase;
                    let standing = self.inner.register_at(spec, every_k_rounds, phase)?;
                    self.slots[slot_id].standing = Some(standing);
                    self.by_standing.insert(standing, slot_id);
                }
                self.stats.coalesced += 1;
                self.slots[slot_id].subscribers.push(sub);
                slot_id
            }
            None => {
                let phase = self.peek_phase(every_k_rounds);
                let standing = self
                    .inner
                    .register_at(spec.clone(), every_k_rounds, phase)?;
                // Only a successful registration consumes a phase — a
                // rejected spec must leave the schedule untouched.
                self.commit_phase(every_k_rounds);
                let slot_id = self.slots.len();
                self.slots.push(FleetSlot {
                    spec,
                    every: every_k_rounds,
                    phase,
                    standing: Some(standing),
                    subscribers: vec![sub],
                });
                self.by_key.insert(key, slot_id);
                self.by_standing.insert(standing, slot_id);
                slot_id
            }
        };
        self.subscribers.push(SubscriberEntry {
            slot: slot_id,
            active: true,
        });
        self.stats.registrations += 1;
        Ok(sub)
    }

    /// Deregisters a subscriber. The **last** deregistration of a slot
    /// releases the underlying standing query — an in-flight refresh
    /// still completes, but with nobody left to serve its report is
    /// dropped (the bits it moved stay counted in
    /// [`FleetStats::slot_refresh_bits`]). Returns `false` for unknown
    /// or already-deregistered ids.
    pub fn deregister(&mut self, sub: SubscriberId) -> bool {
        let slot_id = match self.subscribers.get_mut(sub) {
            Some(e) if e.active => {
                e.active = false;
                e.slot
            }
            _ => return false,
        };
        let slot = &mut self.slots[slot_id];
        slot.subscribers.retain(|&s| s != sub);
        if slot.subscribers.is_empty() {
            if let Some(standing) = slot.standing.take() {
                // Release the engine slot; `by_standing` keeps the
                // mapping so a still-in-flight refresh can find (and
                // orphan against) this slot when it retires.
                self.inner.deregister(standing);
            }
        }
        self.stats.deregistrations += 1;
        true
    }

    /// The shared slot a subscriber is (or was) attached to; `None` for
    /// never-issued ids.
    pub fn slot_of(&self, sub: SubscriberId) -> Option<FleetSlotId> {
        self.subscribers.get(sub).map(|e| e.slot)
    }

    /// The distinct `(spec, period)` a slot serves; `None` for
    /// never-created slot ids.
    pub fn slot_query(&self, slot: FleetSlotId) -> Option<(&QuerySpec, u64)> {
        self.slots.get(slot).map(|s| (&s.spec, s.every))
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

    /// Applies a sensor update (see [`ContinuousEngine::update_items`]).
    ///
    /// # Errors
    ///
    /// As [`ContinuousEngine::update_items`].
    pub fn update_items(&mut self, node: usize, values: Vec<Value>) -> Result<(), QueryError> {
        self.inner.update_items(node, values)
    }

    /// Executes one service round and fans completed refreshes out to
    /// their slots' subscribers (ascending subscriber id within each
    /// slot, slot completion order across slots).
    ///
    /// # Errors
    ///
    /// As [`ContinuousEngine::step`].
    pub fn step(&mut self) -> Result<FleetRound, QueryError> {
        let out = self.inner.step()?;
        self.stats.rounds += 1;
        let env_bits = self.inner.service().last_round_envelope_bits();
        let env_slots = self.inner.service().last_round_envelope_slots();
        self.stats.envelope_bits_total += env_bits;
        self.stats.envelope_peak_bits = self.stats.envelope_peak_bits.max(env_bits);
        self.stats.envelope_peak_slots = self.stats.envelope_peak_slots.max(env_slots);
        let mut refreshes = Vec::new();
        for r in out.refreshes {
            // A standing query registered straight on `engine()` has no
            // slot: it was refreshed, but there is nobody here to serve.
            let Some(&slot_id) = self.by_standing.get(&r.standing) else {
                continue;
            };
            self.stats.slot_refreshes += 1;
            self.stats.slot_refresh_bits += r.bits.total();
            let fan_out = self.slots[slot_id].subscribers.len() as u32;
            self.stats.queries_served += u64::from(fan_out);
            if self.inner.network().telemetry_enabled() {
                self.inner
                    .network_mut()
                    .emit_event(&saq_obs::Event::RefreshFanout {
                        slot: slot_id as u64,
                        subscribers: u64::from(fan_out),
                        round: r.finished_round,
                    });
            }
            for &sub in &self.slots[slot_id].subscribers {
                refreshes.push(FleetRefresh {
                    subscriber: sub,
                    slot: slot_id,
                    seq: r.seq,
                    outcome: r.outcome.clone(),
                    slot_bits: r.bits,
                    fan_out,
                    due_round: r.due_round,
                    finished_round: r.finished_round,
                });
            }
        }
        Ok(FleetRound {
            retired: out.retired,
            refreshes,
        })
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
        stats.distinct_slots = self.slots.iter().filter(|s| s.standing.is_some()).count() as u64;
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

    /// The underlying continuous engine (e.g. to inspect the service
    /// loop or set a bit budget on its ad-hoc side). Standing queries
    /// registered here are refreshed, but not served through
    /// [`FleetRound`].
    pub fn engine(&mut self) -> &mut ContinuousEngine {
        &mut self.inner
    }

    /// Consumes the service, returning the network.
    pub fn into_network(self) -> SimNetwork {
        self.inner.into_network()
    }

    /// The deterministic phase the next new slot of period `every`
    /// would get (`every == 0` is rejected downstream; answer 0 so the
    /// doomed registration can reach that rejection).
    fn peek_phase(&self, every: u64) -> u64 {
        match self.stagger {
            RefreshStagger::None => 0,
            RefreshStagger::Spread if every == 0 => 0,
            RefreshStagger::Spread => self.phase_counters.get(&every).copied().unwrap_or(0) % every,
        }
    }

    /// Consumes the phase previewed by [`FleetService::peek_phase`].
    fn commit_phase(&mut self, every: u64) {
        if self.stagger == RefreshStagger::Spread {
            *self.phase_counters.entry(every).or_insert(0) += 1;
        }
    }
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

    fn cached_net() -> SimNetwork {
        let topo = Topology::balanced_tree(40, 3).unwrap();
        let items: Vec<u64> = (0..40u64).map(|i| (i * 13) % 100).collect();
        SimNetworkBuilder::new()
            .partial_cache(512)
            .build_one_per_node(&topo, &items, 128)
            .unwrap()
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
    fn engine_side_standing_refreshes_are_skipped_not_fatal() {
        let mut fleet = FleetService::new(cached_net());
        let sub = fleet
            .register(QuerySpec::Count(Predicate::TRUE), 1)
            .unwrap();
        // No fleet slot owns this one.
        fleet
            .engine()
            .register(QuerySpec::Sum(Predicate::TRUE), 1)
            .unwrap();
        let out = fleet.step().unwrap();
        assert_eq!(out.refreshes.len(), 1);
        assert_eq!(out.refreshes[0].subscriber, sub);
        assert_eq!(out.refreshes[0].outcome, Ok(QueryOutcome::Num(40)));
        let stats = fleet.fleet_stats();
        assert_eq!(stats.slot_refreshes, 1);
        assert_eq!(stats.queries_served, 1);
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
}
