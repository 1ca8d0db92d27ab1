//! End-to-end tests of the continuous-aggregate subsystem (ISSUE-5):
//! across arbitrary interleavings of sensor updates and standing-query
//! refreshes, every refresh must answer exactly what a **fresh
//! convergecast** over the current items would answer (certified-ε
//! equivalent for quantiles) — while moving only dirty-path bits — and
//! item updates must leave sibling-subtree cache entries resident (the
//! fine-grained invalidation that replaced whole-path clears).

use proptest::prelude::*;
use saq::core::engine::{QueryEngine, QueryOutcome, QuerySpec};
use saq::core::net::AggregationNetwork;
use saq::core::predicate::{Domain, Predicate};
use saq::core::service::{FleetRefresh, FleetService, RefreshStagger};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::protocols::wave::Reliability;

const N: usize = 40;
const XBAR: u64 = 100;

/// Standing-mix indices whose aggregates absorb **value changes**
/// exactly (count, sum, bottom-k): their refreshes must stay at zero
/// payload bits under any update. Min/max invalidate whenever the
/// removed value ties a subtree extremum — always true at a
/// single-item leaf — and the quantile declines value changes, so
/// those three pay (only) dirty-path bits.
const ALWAYS_FREE: [usize; 3] = [0, 1, 4];

fn topology() -> Topology {
    Topology::balanced_tree(N, 3).unwrap()
}

fn build_net(items_per_node: Vec<Vec<u64>>, cache: usize, shards: usize) -> SimNetwork {
    build_net_rel(items_per_node, cache, shards, None)
}

/// Like [`build_net`], but with `Some(p)` every link drops frames with
/// probability `p` from its per-edge fate streams and the refresh waves
/// run stop-and-wait ARQ (ISSUE-7). ARQ repairs every drop, so the
/// lossless [`fresh_convergecast`] oracle still states the exact
/// expected answers.
fn build_net_rel(
    items_per_node: Vec<Vec<u64>>,
    cache: usize,
    shards: usize,
    loss: Option<f64>,
) -> SimNetwork {
    // One worker is the boxed event-driven oracle; more run the flat
    // substrate's workers.
    let mut builder = SimNetworkBuilder::new().flat(shards > 1).shards(shards);
    if cache > 0 {
        builder = builder.partial_cache(cache);
    }
    if let Some(p) = loss {
        builder = builder
            .sim_config(
                SimConfig::default()
                    .with_link(LinkConfig::default().with_loss(p))
                    .with_seed(0xC0_47),
            )
            .reliability(Reliability::Ack {
                timeout: SimDuration::from_millis(400),
            });
    }
    builder.build(&topology(), items_per_node, XBAR).unwrap()
}

fn singletons(items: &[u64]) -> Vec<Vec<u64>> {
    items.iter().map(|&v| vec![v]).collect()
}

fn standing_mix() -> Vec<QuerySpec> {
    vec![
        QuerySpec::Count(Predicate::less_than(60)),
        QuerySpec::Sum(Predicate::TRUE),
        QuerySpec::Min(Domain::Raw),
        QuerySpec::Max(Domain::Log),
        QuerySpec::BottomK { k: 5 },
        QuerySpec::Quantile { q: 0.5, eps: 0.2 },
    ]
}

/// The oracle: the same specs answered by a fresh convergecast (one
/// cold, uncached batch) over the *current* items.
fn fresh_convergecast(items_per_node: Vec<Vec<u64>>) -> Vec<QueryOutcome> {
    let mut engine = QueryEngine::new(build_net(items_per_node, 0, 1));
    for spec in standing_mix() {
        engine.submit(spec);
    }
    engine
        .run()
        .unwrap()
        .into_iter()
        .map(|r| r.outcome.expect("oracle query succeeds"))
        .collect()
}

/// Asserts one refresh cycle ≡ the fresh convergecast's answers. Exact
/// aggregates must match bit-for-bit; the quantile must answer within
/// its own certified rank error of a true rank (and within the ε·N it
/// was provisioned for) — the declared equivalence of its aggregate.
fn assert_cycle_equivalent(refreshes: &[FleetRefresh], items_per_node: &[Vec<u64>], ctx: &str) {
    let oracle = fresh_convergecast(items_per_node.to_vec());
    assert_eq!(refreshes.len(), oracle.len(), "{ctx}: refresh count");
    let mut sorted: Vec<u64> = items_per_node.iter().flatten().copied().collect();
    sorted.sort_unstable();
    for r in refreshes {
        let got = r.outcome.as_ref().expect("refresh succeeds");
        let want = &oracle[r.slot];
        match (got, want) {
            (QueryOutcome::Quantile(out), QueryOutcome::Quantile(_)) => {
                // Certified-ε equivalence, against ground truth.
                let v = out.value.expect("nonempty network");
                let target = (out.count).div_ceil(2);
                let lo = sorted.iter().filter(|&&x| x < v).count() as u64 + 1;
                let hi = (sorted.iter().filter(|&&x| x <= v).count() as u64).max(lo);
                assert!(
                    lo <= target + out.rank_error && hi + out.rank_error >= target,
                    "{ctx}: quantile {v} outside certified ±{} of rank {target}",
                    out.rank_error
                );
                assert!(
                    out.rank_error as f64 <= 0.2 * out.count as f64,
                    "{ctx}: certificate {} exceeds eps·N",
                    out.rank_error
                );
                assert_eq!(out.count, sorted.len() as u64, "{ctx}: quantile count");
            }
            _ => assert_eq!(got, want, "{ctx}: slot {} diverged", r.slot),
        }
    }
}

#[test]
fn dirty_tracking_leaves_sibling_subtree_entries_resident() {
    // Warm every node's cache with one refresh cycle, then update ONE
    // leaf: exact-delta entries survive everywhere, and invalidation is
    // confined to the leaf's root path — sibling subtrees keep their
    // entries and stay silent through the repair refresh.
    let items: Vec<u64> = (0..N as u64).map(|i| (i * 13) % XBAR).collect();
    let mut engine =
        FleetService::with_stagger(build_net(singletons(&items), 64, 1), RefreshStagger::None);
    for spec in standing_mix() {
        engine.register(spec, 1).unwrap();
    }
    engine.run_rounds(1).unwrap();
    let warm = engine.network().cache_stats();
    assert!(warm.entries > 0);

    // Node 39's root path is 39 → 12 → 3 → 0: four nodes.
    let leaf = N - 1;
    let path_len = 4u64;
    engine.update_items(leaf, vec![55]).unwrap();
    let after = engine.network().cache_stats();
    // Exact-delta aggregates absorbed the update in place…
    assert!(after.delta_applied > 0, "no delta was applied");
    // …and every invalidation stayed on the path: at worst each of the
    // six standing slots dropped one entry per path node. Everything
    // off the path — 36 of 40 nodes' entries — stays resident.
    let lost = warm.entries - after.entries;
    assert!(
        lost <= path_len * standing_mix().len() as u64,
        "lost {lost} entries; invalidation left the mutated path"
    );
    assert_eq!(
        after.delta_invalidated, lost,
        "loss must be per-entry, not clears"
    );
    assert!(
        after.entries >= warm.entries - lost,
        "off-path entries must stay resident"
    );

    // The repair refresh answers fresh values, bills only dirty paths,
    // and the always-free aggregates really move zero payload.
    let bits_before = {
        let s = engine.network().net_stats().unwrap();
        (0..s.len()).map(|v| s.node(v).total_bits()).sum::<u64>()
    };
    let out = engine.run_rounds(1).unwrap();
    let mut current = items.clone();
    current[leaf] = 55;
    assert_cycle_equivalent(
        &out.refreshes,
        &singletons(&current),
        "after one-leaf update",
    );
    for r in &out.refreshes {
        if ALWAYS_FREE.contains(&r.slot) {
            assert_eq!(
                r.slot_bits.request_bits + r.slot_bits.partial_bits,
                0,
                "slot {} paid payload after an absorbable update",
                r.slot
            );
        }
    }
    // The repair re-stored the entries its dirty-path wave traversed
    // (entries below a node whose own entry absorbed the delta refill
    // lazily, only if that ancestor ever misses) and the next cycle is
    // completely silent.
    let repaired = engine.network().cache_stats();
    assert!(
        repaired.entries > after.entries,
        "repair must re-store dirty-path entries"
    );
    let bits_after_repair = {
        let s = engine.network().net_stats().unwrap();
        (0..s.len()).map(|v| s.node(v).total_bits()).sum::<u64>()
    };
    assert!(bits_after_repair > bits_before, "repair was billed");
    let silent = engine.run_rounds(1).unwrap();
    assert!(silent.refreshes.iter().all(|r| r.slot_bits.total() == 0));
    assert_cycle_equivalent(&silent.refreshes, &singletons(&current), "silent cycle");
}

#[test]
fn insertion_deltas_keep_quantile_certificate_valid() {
    // Adding items to a node (multi-item multisets, §5) takes the
    // quantile's re-contribute-and-prune path: every aggregate absorbs
    // a pure insertion, nothing is invalidated, and the refreshed
    // quantile's certificate must still hold.
    let items: Vec<u64> = (0..N as u64).map(|i| (i * 7) % XBAR).collect();
    let mut engine =
        FleetService::with_stagger(build_net(singletons(&items), 64, 1), RefreshStagger::None);
    for spec in standing_mix() {
        engine.register(spec, 1).unwrap();
    }
    engine.run_rounds(1).unwrap();

    // Node 9 gains two items next to its original one.
    let grown = vec![(9 * 7) % XBAR, 3, 88];
    engine.update_items(9, grown.clone()).unwrap();
    let before = engine.network().cache_stats();
    let out = engine.run_rounds(1).unwrap();
    let mut current = singletons(&items);
    current[9] = grown;
    assert_cycle_equivalent(&out.refreshes, &current, "after insertion");
    // The pure-insertion delta was absorbed by every aggregate —
    // including min/max (additions always merge) and the quantile — so
    // nothing was invalidated and the cycle moved zero payload bits.
    assert_eq!(
        engine.network().cache_stats().delta_invalidated,
        before.delta_invalidated,
        "insertion delta should invalidate nothing"
    );
    for r in &out.refreshes {
        assert_eq!(r.slot_bits.request_bits + r.slot_bits.partial_bits, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // The headline property: after ANY interleaving of single-node
    // value updates and refresh cycles, every standing answer equals a
    // fresh convergecast's answer over the current items — on the boxed
    // oracle and on four flat workers alike, and the two executions
    // bill identical per-refresh bits.
    #[test]
    fn prop_standing_answers_equal_fresh_convergecast(
        seed in 0u64..500,
        updates in proptest::collection::vec((0usize..N, 0u64..XBAR), 1..12),
        cycles_between in proptest::collection::vec(1u64..3, 1..4),
    ) {
        let items: Vec<u64> = (0..N as u64).map(|i| (i.wrapping_mul(seed + 3)) % XBAR).collect();
        let mut bills: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 4] {
            let mut engine = FleetService::with_stagger(build_net(singletons(&items), 64, shards), RefreshStagger::None);
            for spec in standing_mix() {
                engine.register(spec, 2).unwrap();
            }
            // Warm cycle.
            let warm = engine.run_rounds(2).unwrap();
            assert_cycle_equivalent(&warm.refreshes, &singletons(&items), "warm");
            let mut current = items.clone();
            let mut bill = Vec::new();
            let mut update_stream = updates.iter().cycle();
            for (i, &gap) in cycles_between.iter().enumerate() {
                // A burst of updates…
                for _ in 0..=(i % 3) {
                    let &(node, val) = update_stream.next().unwrap();
                    current[node] = val;
                    engine.update_items(node, vec![val]).unwrap();
                }
                // …then `gap` refresh cycles; each must answer fresh.
                for _ in 0..gap {
                    let out = engine.run_rounds(2).unwrap();
                    prop_assert_eq!(out.refreshes.len(), standing_mix().len());
                    assert_cycle_equivalent(&out.refreshes, &singletons(&current), "interleaved");
                    bill.extend(out.refreshes.iter().map(|r| r.slot_bits.total()));
                }
            }
            bills.push(bill);
        }
        // The flat substrate is an execution strategy, not a semantics
        // change: identical per-refresh bit bills.
        prop_assert_eq!(&bills[0], &bills[1], "flat bills diverged");
    }

    // Lossy row (ISSUE-7): the same interleavings over links that drop
    // 15% of frames, repaired by ARQ. Answers still match the lossless
    // fresh-convergecast oracle (ARQ repairs every drop), and the
    // per-refresh bills — now including retransmissions and ACKs — are
    // still identical between the boxed oracle and four flat workers,
    // because every (edge, transmission-count) pair draws its fate from
    // the same per-edge stream regardless of which runner or thread
    // executes it.
    #[test]
    fn prop_standing_answers_survive_lossy_links_with_arq(
        seed in 0u64..500,
        updates in proptest::collection::vec((0usize..N, 0u64..XBAR), 1..8),
        cycles_between in proptest::collection::vec(1u64..3, 1..3),
    ) {
        let items: Vec<u64> = (0..N as u64).map(|i| (i.wrapping_mul(seed + 11)) % XBAR).collect();
        let mut bills: Vec<Vec<u64>> = Vec::new();
        for shards in [1usize, 4] {
            let net = build_net_rel(singletons(&items), 64, shards, Some(0.15));
            let mut engine = FleetService::with_stagger(net, RefreshStagger::None);
            for spec in standing_mix() {
                engine.register(spec, 2).unwrap();
            }
            let warm = engine.run_rounds(2).unwrap();
            assert_cycle_equivalent(&warm.refreshes, &singletons(&items), "lossy warm");
            let mut current = items.clone();
            let mut bill = Vec::new();
            let mut update_stream = updates.iter().cycle();
            for &gap in &cycles_between {
                let &(node, val) = update_stream.next().unwrap();
                current[node] = val;
                engine.update_items(node, vec![val]).unwrap();
                for _ in 0..gap {
                    let out = engine.run_rounds(2).unwrap();
                    assert_cycle_equivalent(&out.refreshes, &singletons(&current), "lossy interleaved");
                    bill.extend(out.refreshes.iter().map(|r| r.slot_bits.total()));
                }
            }
            bills.push(bill);
        }
        prop_assert_eq!(&bills[0], &bills[1], "flat lossy bills diverged");
    }
}
