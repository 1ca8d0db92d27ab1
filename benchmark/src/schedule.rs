//! Input generators: items, arrival schedules and fleet churn, all
//! pure functions of `--seed`. Arrivals are a fixed schedule in
//! *rounds* — the service's clock is the simulated round, so a slow
//! simulator receives exactly the same inputs as a fast one.

use crate::rng::Rng;
use crate::truth::XBAR;
use saq::core::engine::QuerySpec;
use saq::core::predicate::{Domain, Predicate};
use std::collections::VecDeque;

// One lane per input family (see `Rng::new`).
const LANE_ITEMS: u64 = 1;
const LANE_ROTATION: u64 = 2;
const LANE_THRESHOLDS: u64 = 3;
const LANE_UPDATES: u64 = 4;
const LANE_CHURN: u64 = 5;
/// Lane of the link-fate seed handed to the lossy deployment.
pub const LANE_LINK: u64 = 6;

/// One item per node, uniform in `0..=X̄`.
pub fn items(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, LANE_ITEMS);
    (0..n).map(|_| rng.below(XBAR + 1)).collect()
}

/// The E16 mix `wave_1e5` submits every round: four single-wave
/// aggregates that share one full-tree wave.
pub fn wave_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::Sum(Predicate::less_than(500)),
    ]
}

/// Ad-hoc arrivals per round on `adhoc_mix_1e4` and
/// `provenance_lossy_1e4`.
const ADHOC_ARRIVALS_PER_ROUND: usize = 2;
const ADHOC_KINDS: usize = 6;

/// The ad-hoc arrival stream: a seeded rotation over six query kinds,
/// two arrivals a round. The rotation fixes the *mix* (every kind once
/// per three rounds, so multi-round `Median` plans always overlap),
/// the seed picks its order and every `Count` threshold.
#[derive(Debug, Clone)]
pub struct AdhocSchedule {
    rotation: [usize; ADHOC_KINDS],
    cursor: usize,
    thresholds: Rng,
}

impl AdhocSchedule {
    pub fn new(seed: u64) -> Self {
        let mut rotation = [0, 1, 2, 3, 4, 5];
        let mut rng = Rng::new(seed, LANE_ROTATION);
        for i in (1..ADHOC_KINDS).rev() {
            rotation.swap(i, rng.below(i as u64 + 1) as usize);
        }
        AdhocSchedule {
            rotation,
            cursor: 0,
            thresholds: Rng::new(seed, LANE_THRESHOLDS),
        }
    }

    /// The next round's arrivals.
    pub fn next_round(&mut self) -> Vec<QuerySpec> {
        (0..ADHOC_ARRIVALS_PER_ROUND)
            .map(|_| {
                let kind = self.rotation[self.cursor % ADHOC_KINDS];
                self.cursor += 1;
                match kind {
                    0 => QuerySpec::Count(Predicate::less_than(1 + self.thresholds.below(XBAR))),
                    1 => QuerySpec::Min(Domain::Raw),
                    2 => QuerySpec::Quantile { q: 0.5, eps: 0.2 },
                    3 => QuerySpec::Sum(Predicate::less_than(64)),
                    4 => QuerySpec::Median,
                    _ => QuerySpec::BottomK { k: 4 },
                }
            })
            .collect()
    }
}

/// A standing `(spec, refresh period in rounds)` pair.
pub type StandingPair = (QuerySpec, u64);

const SHARED_PAIRS: usize = 16;

/// The 16 distinct pairs the fleet's registrations share: eight
/// single-wave specs (so an answer always describes the items of the
/// round it was computed in) × periods 4 and 8.
pub fn standing_pairs() -> Vec<StandingPair> {
    let specs = [
        QuerySpec::Count(Predicate::TRUE),
        QuerySpec::Count(Predicate::less_than(250)),
        QuerySpec::Sum(Predicate::less_than(500)),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::Quantile { q: 0.5, eps: 0.1 },
        QuerySpec::BottomK { k: 8 },
    ];
    specs
        .iter()
        .flat_map(|spec| [4, 8].map(|period| (spec.clone(), period)))
        .collect()
}

/// Every this many rounds the round's registration uses a spec no
/// slot serves yet, so a slot is created (and pays one cold wave)…
const FRESH_EVERY: u64 = 50;
/// …and this many rounds later its only subscriber leaves, so the slot
/// is released.
const FRESH_LIFETIME: u64 = 25;
/// Rounds between ad-hoc submissions on the fleet workload.
const FLEET_ADHOC_EVERY: u64 = 4;

/// Everything the driver hands the fleet in one round, generated
/// before the round's timed spans start.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRoundPlan {
    /// `(node, new item)` sensor updates.
    pub updates: Vec<(usize, u64)>,
    pub register: StandingPair,
    /// The subscriber id that registration must be given (ids are
    /// registration order), so the plan can name it for a later
    /// deregistration without asking the program.
    pub expect_sub: usize,
    pub deregister: usize,
    pub submit: Option<QuerySpec>,
}

/// Registration churn and sensor updates for `fleet_standing_1e4`.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    n: usize,
    updates_per_round: usize,
    /// The 16 shared pairs, then every fresh pair in creation order.
    pairs: Vec<StandingPair>,
    /// Registration order → index into `pairs`.
    sub_pair: Vec<usize>,
    /// Live subscribers of the shared pairs (the deregistration pool).
    pool: Vec<usize>,
    /// Live fresh-slot subscribers, `(subscriber, round registered)`.
    fresh: VecDeque<(usize, u64)>,
    round: u64,
    updates: Rng,
    churn: Rng,
}

impl FleetSchedule {
    /// A schedule over `n` nodes updating `updates_per_round` of them
    /// a round.
    pub fn new(seed: u64, n: usize, updates_per_round: usize) -> Self {
        FleetSchedule {
            n,
            updates_per_round,
            pairs: standing_pairs(),
            sub_pair: Vec::new(),
            pool: Vec::new(),
            fresh: VecDeque::new(),
            round: 0,
            updates: Rng::new(seed, LANE_UPDATES),
            churn: Rng::new(seed, LANE_CHURN),
        }
    }

    /// The next set-up registration: round-robin over the shared pairs.
    pub fn initial_registration(&mut self) -> StandingPair {
        self.register_shared()
    }

    fn register_shared(&mut self) -> StandingPair {
        let pair = self.sub_pair.len() % SHARED_PAIRS;
        self.pool.push(self.sub_pair.len());
        self.sub_pair.push(pair);
        self.pairs[pair].clone()
    }

    /// The spec a subscriber registered, for the verifier.
    pub fn spec_of(&self, sub: usize) -> Option<&QuerySpec> {
        self.sub_pair.get(sub).map(|&p| &self.pairs[p].0)
    }

    /// The next round's inputs.
    pub fn next_round(&mut self) -> FleetRoundPlan {
        let updates = (0..self.updates_per_round)
            .map(|_| {
                (
                    self.updates.below(self.n as u64) as usize,
                    self.updates.below(XBAR + 1),
                )
            })
            .collect();
        let expect_sub = self.sub_pair.len();
        let register = if self.round.is_multiple_of(FRESH_EVERY) {
            // Odd thresholds never collide with the shared `< 250`.
            let k = self.pairs.len() - SHARED_PAIRS;
            let fresh = (
                QuerySpec::Count(Predicate::less_than(1 + 2 * (k as u64 % (XBAR / 2)))),
                4,
            );
            self.fresh.push_back((expect_sub, self.round));
            self.sub_pair.push(self.pairs.len());
            self.pairs.push(fresh.clone());
            fresh
        } else {
            self.register_shared()
        };
        let deregister = match self.fresh.front() {
            Some(&(sub, born)) if born + FRESH_LIFETIME <= self.round => {
                self.fresh.pop_front();
                sub
            }
            _ => {
                let i = self.churn.below(self.pool.len() as u64) as usize;
                self.pool.swap_remove(i)
            }
        };
        // Dashboard-style ad-hoc reads from a small menu: after its
        // first use a menu entry is answered from the delta-maintained
        // caches like a standing query, so the cache population — and
        // with it the cost of an item update — stays put.
        let submit = self.round.is_multiple_of(FLEET_ADHOC_EVERY).then(|| {
            let t = 100 * (1 + self.churn.below(4));
            match self.churn.below(4) {
                0 => QuerySpec::Count(Predicate::less_than(t)),
                1 => QuerySpec::Sum(Predicate::less_than(t)),
                2 => QuerySpec::Min(Domain::Raw),
                _ => QuerySpec::Quantile { q: 0.25, eps: 0.1 },
            }
        });
        self.round += 1;
        FleetRoundPlan {
            updates,
            register,
            expect_sub,
            deregister,
            submit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_repeat_per_seed_and_stay_in_range() {
        assert_eq!(items(1, 500), items(1, 500));
        assert_ne!(items(1, 500), items(2, 500));
        assert!(items(3, 5000).iter().all(|&v| v <= XBAR));
    }

    #[test]
    fn adhoc_schedule_repeats_per_seed_and_keeps_the_mix() {
        let rounds = |seed| {
            let mut s = AdhocSchedule::new(seed);
            (0..30).flat_map(|_| s.next_round()).collect::<Vec<_>>()
        };
        assert_eq!(rounds(1), rounds(1));
        assert_ne!(rounds(1), rounds(2));
        // Whatever the order, every kind arrives once per three rounds.
        for seed in 1..5 {
            let medians = rounds(seed)
                .iter()
                .filter(|q| **q == QuerySpec::Median)
                .count();
            assert_eq!(medians, 10);
        }
    }

    #[test]
    fn standing_pairs_are_sixteen_distinct() {
        let pairs = standing_pairs();
        assert_eq!(pairs.len(), SHARED_PAIRS);
        for (i, a) in pairs.iter().enumerate() {
            assert!(pairs[i + 1..].iter().all(|b| a != b));
        }
    }

    fn fleet_rounds(seed: u64, rounds: usize) -> (FleetSchedule, Vec<FleetRoundPlan>) {
        let mut s = FleetSchedule::new(seed, 1000, 10);
        for _ in 0..64 {
            s.initial_registration();
        }
        let plans = (0..rounds).map(|_| s.next_round()).collect();
        (s, plans)
    }

    #[test]
    fn fleet_schedule_repeats_per_seed() {
        assert_eq!(fleet_rounds(1, 120).1, fleet_rounds(1, 120).1);
        assert_ne!(fleet_rounds(1, 120).1, fleet_rounds(2, 120).1);
    }

    #[test]
    fn fleet_churn_creates_and_releases_fresh_slots() {
        let (s, plans) = fleet_rounds(7, 120);
        let mut live: Vec<usize> = (0..64).collect();
        for (round, plan) in plans.iter().enumerate() {
            assert_eq!(plan.updates.len(), 10);
            assert_eq!(
                plan.submit.is_some(),
                (round as u64).is_multiple_of(FLEET_ADHOC_EVERY)
            );
            assert_eq!(s.spec_of(plan.expect_sub), Some(&plan.register.0));
            live.push(plan.expect_sub);
            // Only live subscribers are ever deregistered, once each.
            let at = live.iter().position(|&sub| sub == plan.deregister);
            live.swap_remove(at.expect("deregisters a live subscriber"));
        }
        // Rounds 0, 50, 100 registered fresh specs; the first two were
        // released 25 rounds later, the third is still live.
        let fresh: Vec<usize> = [0, 50, 100].iter().map(|&r| plans[r].expect_sub).collect();
        assert_eq!(plans[25].deregister, fresh[0]);
        assert_eq!(plans[75].deregister, fresh[1]);
        assert!(live.contains(&fresh[2]));
        assert_eq!(live.len(), 64);
    }
}
