//! Fleet-equivalence property suite (ISSUE-9): the service layer's
//! shared-slot dedup must be **invisible** on the network — `k`
//! registrations of one `(spec, period)` are bit-identical to a single
//! registration in answers, per-refresh wave bills, cache counters and
//! per-node bits, across boxed and flat execution (one worker and
//! four); registration /
//! deregistration churn never perturbs surviving subscribers; and the
//! phase-staggered schedule is a deterministic pure function of
//! registration order whose peak envelope beats the unstaggered spike.

use proptest::prelude::*;
use saq::core::engine::{QueryOutcome, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::service::{FleetService, RefreshStagger, SubscriberId};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::netsim::topology::Topology;
use saq::protocols::CacheStats;

const N: usize = 40;
const XBAR: u64 = 2048;
/// Large enough that FIFO eviction never couples one slot's bills to
/// another slot's working set.
const CACHE: usize = 512;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Repr {
    Boxed,
    Flat,
    FlatWorkers,
}

const REPRS: [Repr; 3] = [Repr::Boxed, Repr::Flat, Repr::FlatWorkers];

fn build_net(repr: Repr) -> SimNetwork {
    let topo = Topology::balanced_tree(N, 3).unwrap();
    let items: Vec<Vec<u64>> = (0..N as u64).map(|i| vec![(i * 13) % 100]).collect();
    let builder = SimNetworkBuilder::new().partial_cache(CACHE);
    let builder = match repr {
        Repr::Boxed => builder,
        Repr::Flat => builder.flat(true),
        Repr::FlatWorkers => builder.flat(true).shards(4),
    };
    builder.build(&topo, items, XBAR).unwrap()
}

/// Single-wave specs only: each refresh completes in its due round, so
/// phase separation is round separation.
fn spec_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::less_than(60)),
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::BottomK { k: 5 },
        QuerySpec::Quantile { q: 0.5, eps: 0.2 },
    ]
}

/// Everything the network can observe of a fleet run: the slot-level
/// refresh log, the cache counters, and every node's total bits.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    slot_log: Vec<(usize, u64, u64, u64, QueryOutcome, u64)>,
    cache: CacheStats,
    per_node_bits: Vec<u64>,
}

/// Runs a fleet with `k` subscribers per spec and fingerprints it,
/// asserting the fan-out invariants along the way: every `(slot, seq)`
/// fans out exactly `k` copies, identical in outcome and slot bill,
/// addressed to that slot's subscribers in ascending order.
fn run_fleet(repr: Repr, period: u64, k: usize, rounds: u64) -> Fingerprint {
    let mut fleet = FleetService::new(build_net(repr));
    let mut subs_by_slot: Vec<Vec<SubscriberId>> = Vec::new();
    for spec in spec_mix() {
        let ids: Vec<SubscriberId> = (0..k)
            .map(|_| fleet.register(spec.clone(), period).unwrap())
            .collect();
        subs_by_slot.push(ids);
    }
    let out = fleet.run_rounds(rounds).unwrap();

    let stats = fleet.fleet_stats();
    assert_eq!(stats.distinct_slots, spec_mix().len() as u64);
    assert_eq!(stats.subscribers, (spec_mix().len() * k) as u64);
    assert_eq!(stats.coalesced, (spec_mix().len() * (k - 1)) as u64);
    assert_eq!(stats.queries_served, stats.slot_refreshes * k as u64);
    if stats.slot_refreshes > 0 {
        assert_eq!(stats.fan_out_ratio(), k as f64);
    }

    // Group the fan-out copies back into slot-level refreshes.
    let mut slot_log = Vec::new();
    let mut i = 0;
    while i < out.refreshes.len() {
        let head = &out.refreshes[i];
        let copies = &out.refreshes[i..i + k];
        for (c, &expect_sub) in copies.iter().zip(&subs_by_slot[head.slot]) {
            assert_eq!(c.subscriber, expect_sub, "fan-out order");
            assert_eq!(c.slot, head.slot, "fan-out crossed slots");
            assert_eq!(c.seq, head.seq);
            assert_eq!(c.outcome, head.outcome, "fan-out copies diverged");
            assert_eq!(c.slot_bits, head.slot_bits, "fan-out bills diverged");
            assert_eq!(c.fan_out as usize, k);
        }
        slot_log.push((
            head.slot,
            head.seq,
            head.due_round,
            head.finished_round,
            head.outcome.clone().expect("refresh succeeds"),
            head.slot_bits.total(),
        ));
        i += k;
    }

    let net = fleet.into_network();
    let s = net.net_stats().unwrap();
    Fingerprint {
        slot_log,
        cache: net.cache_stats(),
        per_node_bits: (0..s.len()).map(|v| s.node(v).total_bits()).collect(),
    }
}

// ---------------------------------------------------------------------
// Satellite 1: the dedup matrix. k deduped registrations ≡ a single
// registration — answers, per-refresh wave bills, cache counters,
// per-node bits — over representation × period × k ∈ {1, 4, 64}.
// ---------------------------------------------------------------------
#[test]
fn dedup_matrix_bit_identical_to_single_registration() {
    for period in [1u64, 3] {
        let rounds = 3 * period;
        let reference = run_fleet(Repr::Boxed, period, 1, rounds);
        assert!(
            !reference.slot_log.is_empty(),
            "reference run produced no refreshes"
        );
        for repr in REPRS {
            for k in [1usize, 4, 64] {
                if repr == Repr::Boxed && k == 1 {
                    continue;
                }
                let got = run_fleet(repr, period, k, rounds);
                assert_eq!(
                    reference.slot_log, got.slot_log,
                    "{repr:?} k={k} period={period}: slot refresh log diverged"
                );
                assert_eq!(
                    reference.cache, got.cache,
                    "{repr:?} k={k} period={period}: cache counters diverged"
                );
                assert_eq!(
                    reference.per_node_bits, got.per_node_bits,
                    "{repr:?} k={k} period={period}: per-node bits diverged"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 3: phase-stagger determinism and the smoothed envelope.
// ---------------------------------------------------------------------

const STAGGER_REGS: u64 = 1000;
const STAGGER_PERIOD: u64 = 16;

/// One stagger run's observables: the per-slot `(period, phase)`
/// schedule plus the `(slot, due_round)` firing log.
type StaggerLog = (Vec<(u64, u64)>, Vec<(usize, u64)>);

/// 10³ *distinct* same-period specs (distinct thresholds, XBAR = 2048
/// keeps them unclamped), so each is its own slot.
fn stagger_fleet(repr: Repr, stagger: RefreshStagger) -> FleetService {
    let mut fleet = FleetService::with_stagger(build_net(repr), stagger);
    for i in 0..STAGGER_REGS {
        fleet
            .register(
                QuerySpec::Count(Predicate::less_than(i + 1)),
                STAGGER_PERIOD,
            )
            .unwrap();
    }
    fleet
}

#[test]
fn stagger_schedule_is_deterministic_across_representations_and_reruns() {
    let mut logs: Vec<StaggerLog> = Vec::new();
    // Boxed twice (the rerun), then flat on one worker and on four.
    for repr in [Repr::Boxed, Repr::Boxed, Repr::Flat, Repr::FlatWorkers] {
        let mut fleet = stagger_fleet(repr, RefreshStagger::Spread);
        let out = fleet.run_rounds(STAGGER_PERIOD).unwrap();
        let fired: Vec<(usize, u64)> = out
            .refreshes
            .iter()
            .map(|r| (r.slot, r.due_round))
            .collect();
        logs.push((fleet.slot_schedule(), fired));
    }
    // The schedule is a pure function of (registration order, period):
    // round-robin phases, and slot i fires exactly at its phase.
    let (schedule, fired) = &logs[0];
    assert_eq!(schedule.len(), STAGGER_REGS as usize);
    for (i, &(every, phase)) in schedule.iter().enumerate() {
        assert_eq!(every, STAGGER_PERIOD);
        assert_eq!(phase, i as u64 % STAGGER_PERIOD, "slot {i} phase");
    }
    assert_eq!(fired.len(), STAGGER_REGS as usize, "one refresh per slot");
    for &(slot, due) in fired {
        assert_eq!(due, schedule[slot].1, "slot {slot} fired off-phase");
    }
    for (i, other) in logs.iter().enumerate().skip(1) {
        assert_eq!(&logs[0], other, "run {i} diverged from run 0");
    }
}

#[test]
fn staggered_envelope_beats_unstaggered_spike() {
    let mut fleet = stagger_fleet(Repr::Boxed, RefreshStagger::Spread);
    fleet.run_rounds(STAGGER_PERIOD).unwrap();
    let spread = fleet.fleet_stats();
    // 1000 slots over 16 phases: the fullest phase holds ⌈1000/16⌉.
    let smoothed_bound = STAGGER_REGS.div_ceil(STAGGER_PERIOD);
    assert!(
        spread.envelope_peak_slots <= smoothed_bound,
        "staggered peak {} exceeds smoothed bound {}",
        spread.envelope_peak_slots,
        smoothed_bound
    );

    let mut fleet = stagger_fleet(Repr::Boxed, RefreshStagger::None);
    fleet.run_rounds(STAGGER_PERIOD).unwrap();
    let spike = fleet.fleet_stats();
    // The unstaggered cohort refreshes as one wave of every slot —
    // strictly (10×) worse on both peak observables.
    assert_eq!(spike.envelope_peak_slots, STAGGER_REGS);
    assert!(
        spike.envelope_peak_slots >= 10 * spread.envelope_peak_slots,
        "spike {} not ≥10× staggered peak {}",
        spike.envelope_peak_slots,
        spread.envelope_peak_slots
    );
    assert!(
        spike.envelope_peak_bits >= 10 * spread.envelope_peak_bits,
        "spike {} bits not ≥10× staggered peak {} bits",
        spike.envelope_peak_bits,
        spread.envelope_peak_bits
    );
    // Same work either way: both schedules refresh every slot once.
    assert_eq!(spread.slot_refreshes, STAGGER_REGS);
    assert_eq!(spike.slot_refreshes, STAGGER_REGS);
}

// ---------------------------------------------------------------------
// Satellite 4: fleet counters vs a hand-computed schedule (the E20
// smoke path re-asserts this scenario's invariants).
// ---------------------------------------------------------------------
#[test]
fn fleet_counters_match_hand_computed_schedule() {
    let mut fleet = FleetService::new(build_net(Repr::Boxed));
    // One period-2 count slot with three subscribers…
    let count = QuerySpec::Count(Predicate::TRUE);
    let c0 = fleet.register(count.clone(), 2).unwrap();
    let c1 = fleet.register(count.clone(), 2).unwrap();
    let c2 = fleet.register(count.clone(), 2).unwrap();
    // …and one period-3 quantile slot with one. Phase counters are
    // per-period, so both slots sit at phase 0 of their own periods.
    let q0 = fleet
        .register(QuerySpec::Quantile { q: 0.5, eps: 0.2 }, 3)
        .unwrap();
    assert_eq!(fleet.slot_schedule(), vec![(2, 0), (3, 0)]);

    // Six rounds: count due at {0, 2, 4}, quantile due at {0, 3}.
    let out = fleet.run_rounds(6).unwrap();
    let count_slot = fleet.slot_of(c0).unwrap();
    let quant_slot = fleet.slot_of(q0).unwrap();
    let count_dues: Vec<u64> = out
        .refreshes
        .iter()
        .filter(|r| r.slot == count_slot && r.subscriber == c0)
        .map(|r| r.due_round)
        .collect();
    let quant_dues: Vec<u64> = out
        .refreshes
        .iter()
        .filter(|r| r.slot == quant_slot)
        .map(|r| r.due_round)
        .collect();
    assert_eq!(count_dues, vec![0, 2, 4]);
    assert_eq!(quant_dues, vec![0, 3]);
    // Each count refresh fans out to all three subscribers, in order.
    let subs: Vec<SubscriberId> = out
        .refreshes
        .iter()
        .filter(|r| r.slot == count_slot && r.due_round == 0)
        .map(|r| r.subscriber)
        .collect();
    assert_eq!(subs, vec![c0, c1, c2]);

    let stats = fleet.fleet_stats();
    assert_eq!(stats.registrations, 4);
    assert_eq!(stats.deregistrations, 0);
    assert_eq!(stats.coalesced, 2);
    assert_eq!(stats.subscribers, 4);
    assert_eq!(stats.distinct_slots, 2);
    // 3 count + 2 quantile refreshes; 3·3 + 2·1 queries served.
    assert_eq!(stats.slot_refreshes, 5);
    assert_eq!(stats.queries_served, 11);
    assert_eq!(stats.fan_out_ratio(), 11.0 / 5.0);
    assert_eq!(stats.rounds, 6);
    // Round 0 carried both slots in one wave: the envelope peak.
    assert_eq!(stats.envelope_peak_slots, 2);
    assert!(stats.envelope_peak_bits > 0);
    assert!(stats.envelope_mean_bits() <= stats.envelope_peak_bits as f64);
    assert!(stats.bits_per_query() > 0.0, "cold waves were billed");

    // Dropping two count subscribers halves the fan-out going forward
    // but rewrites no history.
    assert!(fleet.deregister(c1));
    assert!(fleet.deregister(c2));
    let after = fleet.fleet_stats();
    assert_eq!(after.deregistrations, 2);
    assert_eq!(after.subscribers, 2);
    assert_eq!(after.distinct_slots, 2, "slot survives while c0 holds it");
    assert_eq!(after.queries_served, 11);
}

// ---------------------------------------------------------------------
// Satellite 2: deregistration churn. Random register/deregister
// interleavings — including last-subscriber release + re-register —
// never change surviving subscribers' answers or bills vs an oracle
// fleet that only ever registered the survivors.
// ---------------------------------------------------------------------

const CHURN_PERIOD: u64 = 8;

/// The three survivor channels, registered first (in this order) in
/// both fleets, so they occupy phases 0, 1, 2 of the period in both.
fn survivor_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::less_than(60)),
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::BottomK { k: 5 },
    ]
}

/// Noise channels (distinct from every survivor spec): their slots take
/// phases 3+ of the period, so their waves never share a round with a
/// survivor wave — dedup keeps them off the survivors' bills entirely.
fn noise_specs() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Raw),
        QuerySpec::Quantile { q: 0.5, eps: 0.2 },
        QuerySpec::Count(Predicate::less_than(30)),
    ]
}

fn survivor_log(out: &[saq::core::service::FleetRefresh]) -> Vec<(usize, u64, QueryOutcome, u64)> {
    out.iter()
        .filter(|r| r.slot < survivor_specs().len())
        .filter(|r| r.subscriber < survivor_specs().len())
        .map(|r| {
            (
                r.slot,
                r.due_round,
                r.outcome.clone().expect("survivor refresh succeeds"),
                r.slot_bits.total(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn prop_churn_never_perturbs_survivors(
        ops in proptest::collection::vec((0u8..5, 0usize..64, 0u64..100), 4..20),
    ) {
        // Both fleets: survivors registered first, identically. The
        // oracle then runs untouched; the noisy fleet takes churn.
        let mut noisy = FleetService::new(build_net(Repr::Boxed));
        let mut oracle = FleetService::new(build_net(Repr::Boxed));
        for spec in survivor_specs() {
            noisy.register(spec.clone(), CHURN_PERIOD).unwrap();
            oracle.register(spec, CHURN_PERIOD).unwrap();
        }

        let mut extra_survivor_subs: Vec<Vec<SubscriberId>> =
            vec![Vec::new(); survivor_specs().len()];
        let mut noise_subs: Vec<Vec<SubscriberId>> = vec![Vec::new(); noise_specs().len()];
        let mut noisy_refreshes = Vec::new();
        let mut oracle_refreshes = Vec::new();

        for chunk in ops.chunks(3) {
            for &(op, idx, val) in chunk {
                match op {
                    // Pile extra subscribers onto a survivor slot (they
                    // coalesce — no new slot, no phase consumed)…
                    0 => {
                        let chan = idx % survivor_specs().len();
                        let sub = noisy
                            .register(survivor_specs()[chan].clone(), CHURN_PERIOD)
                            .unwrap();
                        extra_survivor_subs[chan].push(sub);
                    }
                    // …and shed them again (the anchor stays).
                    1 => {
                        let chan = idx % survivor_specs().len();
                        if let Some(sub) = extra_survivor_subs[chan].pop() {
                            prop_assert!(noisy.deregister(sub));
                        }
                    }
                    // Register a noise channel (possibly re-joining a
                    // slot whose last subscriber already left).
                    2 => {
                        let chan = idx % noise_specs().len();
                        let sub = noisy
                            .register(noise_specs()[chan].clone(), CHURN_PERIOD)
                            .unwrap();
                        noise_subs[chan].push(sub);
                    }
                    // Deregister a noise subscriber — possibly the last
                    // one, releasing the slot.
                    3 => {
                        let chan = idx % noise_specs().len();
                        if let Some(sub) = noise_subs[chan].pop() {
                            prop_assert!(noisy.deregister(sub));
                        }
                    }
                    // A sensor update, applied to BOTH fleets.
                    _ => {
                        let node = idx % N;
                        noisy.update_items(node, vec![val]).unwrap();
                        oracle.update_items(node, vec![val]).unwrap();
                    }
                }
            }
            // One full period: every live slot refreshes exactly once.
            noisy_refreshes.extend(noisy.run_rounds(CHURN_PERIOD).unwrap().refreshes);
            oracle_refreshes.extend(oracle.run_rounds(CHURN_PERIOD).unwrap().refreshes);
        }

        // The survivors (anchor subscribers of the first three slots)
        // saw identical answers at identical due rounds with identical
        // slot bills, as if the churn never happened.
        prop_assert_eq!(survivor_log(&noisy_refreshes), survivor_log(&oracle_refreshes));
        // Churn also never moved the survivors' phases.
        prop_assert_eq!(
            &noisy.slot_schedule()[..survivor_specs().len()],
            &oracle.slot_schedule()[..]
        );
    }
}

// The in-flight corner the proptest can't reach with single-wave specs:
// Median's refresh spans many rounds, so subscribers can leave while it
// is mid-flight. Survivors still get the completed refresh; a fully
// deregistered slot's in-flight refresh completes as an orphan (its
// network work is still counted) but fans out to nobody; re-registering
// re-joins the same slot and the refreshes keep answering.
#[test]
fn deregister_while_median_refresh_in_flight() {
    let mut fleet = FleetService::new(build_net(Repr::Boxed));
    let a = fleet.register(QuerySpec::Median, 64).unwrap();
    let b = fleet.register(QuerySpec::Median, 64).unwrap();
    let slot = fleet.slot_of(a).unwrap();

    // Round 0 puts the refresh in flight (the binary search needs many
    // waves, one per round); deregister b mid-flight.
    assert!(fleet.step().unwrap().refreshes.is_empty());
    assert!(fleet.deregister(b));
    let mut first = None;
    for _ in 0..200 {
        let out = fleet.step().unwrap();
        if !out.refreshes.is_empty() {
            first = Some(out.refreshes);
            break;
        }
    }
    let first = first.expect("median refresh completes");
    // Only the survivor is served — exactly once.
    assert_eq!(first.len(), 1);
    assert_eq!(first[0].subscriber, a);
    assert_eq!(first[0].fan_out, 1);
    let answer = first[0].outcome.clone().expect("median refresh succeeds");

    // Deregister the last subscriber while the NEXT refresh (due round
    // 64) is in flight: the slot releases, the refresh completes as an
    // orphan — counted, fanned out to nobody.
    while fleet.rounds_executed() < 66 {
        assert!(fleet.step().unwrap().refreshes.is_empty());
    }
    assert!(fleet.deregister(a));
    assert_eq!(fleet.fleet_stats().distinct_slots, 0, "slot released");
    let before = fleet.fleet_stats().slot_refreshes;
    let orphan_window = fleet.run_rounds(200).unwrap();
    assert!(
        orphan_window.refreshes.is_empty(),
        "orphan refresh must fan out to nobody"
    );
    assert_eq!(
        fleet.fleet_stats().slot_refreshes,
        before + 1,
        "the orphan's network work is still counted"
    );

    // Re-register: the same slot resumes at its remembered phase and
    // serves the same answer.
    let c = fleet.register(QuerySpec::Median, 64).unwrap();
    assert_eq!(fleet.slot_of(c), Some(slot));
    let mut again = None;
    for _ in 0..200 {
        let out = fleet.run_rounds(1).unwrap();
        if !out.refreshes.is_empty() {
            again = Some(out.refreshes);
            break;
        }
    }
    let again = again.expect("re-joined refresh completes");
    assert_eq!(again[0].subscriber, c);
    assert_eq!(again[0].outcome, Ok(answer));
}
