//! Failure injection: loss, duplication, and the recovery machinery.

use saq::core::net::AggregationNetwork;
use saq::core::predicate::Predicate;
use saq::core::simnet::SimNetworkBuilder;
use saq::core::{Median, QueryError};
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::protocols::wave::Reliability;
use saq::protocols::ProtocolError;

fn lossy(loss: f64, seed: u64) -> SimConfig {
    SimConfig::default()
        .with_link(LinkConfig::default().with_loss(loss))
        .with_seed(seed)
}

#[test]
fn loss_without_arq_surfaces_as_no_result() {
    let topo = Topology::grid(5, 5).expect("grid");
    let items: Vec<u64> = (0..25).collect();
    let mut net = SimNetworkBuilder::new()
        .sim_config(lossy(0.9, 3))
        .build_one_per_node(&topo, &items, 32)
        .expect("net");
    let err = net.count(&Predicate::TRUE).unwrap_err();
    assert!(matches!(err, QueryError::Protocol(ProtocolError::NoResult)));
}

#[test]
fn arq_makes_full_median_queries_survive_loss() {
    let topo = Topology::grid(5, 5).expect("grid");
    let items: Vec<u64> = (0..25u64).map(|i| i * 11 % 128).collect();
    let mut net = SimNetworkBuilder::new()
        .sim_config(lossy(0.3, 11))
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(40),
        })
        .build_one_per_node(&topo, &items, 128)
        .expect("net");
    let out = Median::new().run(&mut net).expect("median under loss");
    assert!(saq::core::model::is_median(&items, out.value));
}

#[test]
fn arq_is_exact_under_duplication() {
    let topo = Topology::grid(5, 5).expect("grid");
    let items: Vec<u64> = (0..25).collect();
    let mut net = SimNetworkBuilder::new()
        .sim_config(
            SimConfig::default()
                .with_link(LinkConfig::default().with_duplication(0.6))
                .with_seed(5),
        )
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(40),
        })
        .build_one_per_node(&topo, &items, 32)
        .expect("net");
    // Duplicate deliveries must not double-count.
    assert_eq!(net.count(&Predicate::TRUE).expect("count"), 25);
    assert_eq!(
        net.sum(&Predicate::TRUE).expect("sum"),
        (0..25).sum::<u64>()
    );
}

#[test]
fn tree_convergecast_dedups_duplicates_even_without_arq() {
    let topo = Topology::grid(6, 6).expect("grid");
    let items: Vec<u64> = (0..36).collect();
    let mut net = SimNetworkBuilder::new()
        .sim_config(
            SimConfig::default()
                .with_link(LinkConfig::default().with_duplication(0.8))
                .with_seed(13),
        )
        .build_one_per_node(&topo, &items, 64)
        .expect("net");
    assert_eq!(net.count(&Predicate::TRUE).expect("count"), 36);
}

#[test]
fn lossy_distributed_tree_construction_recovers() {
    let topo = Topology::grid(6, 6).expect("grid");
    let cfg = lossy(0.25, 21);
    let (tree, _) = saq::protocols::tree::build_distributed_lossy(&topo, cfg, 0, 30).expect("tree");
    tree.validate(&topo).expect("valid tree");
}

#[test]
fn event_budget_guards_against_livelock() {
    // 100% loss with ARQ retransmits forever; the budget must fire.
    let topo = Topology::line(3).expect("line");
    let mut cfg = lossy(1.0, 1);
    cfg.max_events = 10_000;
    let mut net = SimNetworkBuilder::new()
        .sim_config(cfg)
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(5),
        })
        .build_one_per_node(&topo, &[1, 2, 3], 4)
        .expect("net");
    let err = net.count(&Predicate::TRUE).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Protocol(ProtocolError::Netsim(
                saq::netsim::NetsimError::EventBudgetExhausted { .. }
            ))
        ),
        "got {err:?}"
    );
}

#[test]
fn dead_nodes_before_deployment_queries_still_work() {
    // Node death before tree construction: rebuild on the survivor
    // subgraph and re-run the query (the paper's protocols are oblivious
    // to which nodes exist — they only need a connected tree).
    let topo = Topology::grid(5, 5).expect("grid");
    let items: Vec<u64> = (0..25u64).map(|i| i * 7 % 64).collect();
    let (sub, map) = topo
        .without_nodes(&[7, 13, 24])
        .expect("survivors connected");
    let surviving_items: Vec<u64> = map.iter().map(|&old| items[old]).collect();
    let mut net = SimNetworkBuilder::new()
        .build_one_per_node(&sub, &surviving_items, 64)
        .expect("net");
    let out = Median::new().run(&mut net).expect("median");
    assert!(saq::core::model::is_median(&surviving_items, out.value));
    assert_eq!(
        net.count(&Predicate::TRUE).expect("count"),
        surviving_items.len() as u64
    );
}

#[test]
fn jitter_does_not_change_results_only_timing() {
    // Same seed, different jitter settings: answers identical (protocol
    // correctness is schedule-independent), time differs.
    let topo = Topology::grid(4, 4).expect("grid");
    let items: Vec<u64> = (0..16).collect();
    let with_jitter = |jitter_us: u64| {
        let link = LinkConfig {
            jitter: SimDuration::from_micros(jitter_us),
            ..LinkConfig::default()
        };
        let mut net = SimNetworkBuilder::new()
            .sim_config(SimConfig::default().with_link(link).with_seed(3))
            .build_one_per_node(&topo, &items, 16)
            .expect("net");
        Median::new().run(&mut net).expect("median").value
    };
    assert_eq!(with_jitter(0), with_jitter(5_000));
}

#[test]
fn scripted_first_transmission_drops_cost_exactly_one_retransmission_per_hop() {
    // Adversarial fate schedule (ISSUE-7): on the root-path edge
    // 1 <-> 4 of tree(13,3), the FIRST data transmission in each
    // direction is forced lost — the crafted stream every runner must
    // replay. ARQ repairs each drop with exactly one retransmission,
    // billed to the transmitting endpoint of that hop and nowhere
    // else, and the answer is unchanged. Receive counts are unchanged
    // everywhere: the dropped copy never arrives, so the repaired run
    // delivers exactly the frames the clean run delivered.
    use saq::netsim::link::{FrameClass, ScriptedDrop};

    let topo = Topology::balanced_tree(13, 3).expect("tree");
    let items: Vec<u64> = (0..13).collect();
    let build = |scripted: bool, flat: bool| {
        let mut link = LinkConfig::default();
        if scripted {
            link = link
                .with_scripted_drop(ScriptedDrop {
                    src: 1,
                    dst: 4,
                    class: FrameClass::Data,
                    index: 0,
                })
                .with_scripted_drop(ScriptedDrop {
                    src: 4,
                    dst: 1,
                    class: FrameClass::Data,
                    index: 0,
                });
        }
        SimNetworkBuilder::new()
            .flat(flat)
            .shards(if flat { 2 } else { 1 })
            .sim_config(SimConfig::default().with_link(link).with_seed(7))
            .reliability(Reliability::Ack {
                timeout: SimDuration::from_millis(40),
            })
            .build_one_per_node(&topo, &items, 16)
            .expect("net")
    };
    let run = |mut net: saq::core::simnet::SimNetwork| {
        let count = net.count(&Predicate::TRUE).expect("count");
        let stats = net.net_stats().expect("stats");
        let per_node: Vec<(u64, u64, u64, u64)> = (0..13)
            .map(|v| {
                let s = stats.node(v);
                (s.tx_packets, s.rx_packets, s.tx_bits, s.rx_bits)
            })
            .collect();
        (count, per_node)
    };
    let (clean_count, clean) = run(build(false, false));
    let (count, injected) = run(build(true, false));
    assert_eq!(count, clean_count, "scripted loss changed the answer");
    for v in 0..13 {
        let (ctx, crx, ctxb, _) = clean[v];
        let (itx, irx, itxb, _) = injected[v];
        if v == 1 || v == 4 {
            assert_eq!(itx, ctx + 1, "node {v}: exactly one retransmission");
            assert!(itxb > ctxb, "node {v}: the retransmission must be billed");
        } else {
            assert_eq!(itx, ctx, "node {v} must not retransmit");
            assert_eq!(itxb, ctxb, "node {v}'s tx bill must be unchanged");
        }
        assert_eq!(irx, crx, "node {v}'s receive count must be unchanged");
    }
    // Fate replay: the crafted schedule keys on (edge, class, index),
    // not on the executing thread — the flat runner's workers must
    // reproduce the injected run's per-node bills bit-for-bit.
    let (c, p) = run(build(true, true));
    assert_eq!(c, clean_count, "flat: answer diverged");
    assert_eq!(p, injected, "flat: scripted schedule replay diverged");
}

#[test]
fn transport_footprint_stays_bounded_under_sustained_loss() {
    // The PR-4 bounded-memory claim, extended to lossy mode (ISSUE-7):
    // 200 streaming rounds over links dropping 20% of frames. ARQ
    // repairs every round, and between waves the transport state the
    // repairs left behind stays flat — no un-ACKed frames, no buffered
    // partials, and a dedup residue bounded by ONE wave's worth of
    // entries (the admission-time purge), never a total that grows
    // with the round count.
    use saq::core::engine::{BatchPolicy, QuerySpec};
    use saq::core::predicate::Domain;
    use saq::core::streaming::{AdmissionPolicy, StreamingEngine};

    const N: usize = 40;
    const ROUNDS: usize = 200;
    let topo = Topology::balanced_tree(N, 3).expect("tree");
    let items: Vec<u64> = (0..N as u64).map(|i| (i * 17) % 64).collect();
    let net = SimNetworkBuilder::new()
        .partial_cache(8)
        .sim_config(lossy(0.2, 0x200))
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(40),
        })
        .build_one_per_node(&topo, &items, 64)
        .expect("net");
    let mut engine =
        StreamingEngine::with_policy(net, BatchPolicy::Batched, AdmissionPolicy::EveryRound);
    // One wave's worth of dedup entries: at most one request key per
    // node plus one partial key per tree edge.
    let dedup_bound = (2 * N - 1) as u64;
    let cache_bound = (8 * N) as u64;
    let mut retired = 0usize;
    for round in 0..ROUNDS {
        let spec = match round % 4 {
            0 => QuerySpec::Count(Predicate::TRUE),
            1 => QuerySpec::Sum(Predicate::less_than(32)),
            2 => QuerySpec::Min(Domain::Raw),
            _ => QuerySpec::Max(Domain::Raw),
        };
        engine.submit(spec);
        while engine.in_service() {
            retired += engine.step().expect("lossy streaming round").len();
        }
        let fp = engine.network().transport_footprint();
        assert_eq!(
            fp.pending_frames, 0,
            "round {round}: un-ACKed frames leaked"
        );
        assert_eq!(
            fp.buffered_partials, 0,
            "round {round}: buffered partials leaked"
        );
        assert!(
            fp.dedup_entries <= dedup_bound,
            "round {round}: dedup residue {} exceeds one wave's worth {}",
            fp.dedup_entries,
            dedup_bound
        );
        assert!(
            fp.cache_entries <= cache_bound,
            "round {round}: cache {} over capacity {}",
            fp.cache_entries,
            cache_bound
        );
    }
    assert_eq!(retired, ROUNDS, "every lossy round must retire its query");
}
