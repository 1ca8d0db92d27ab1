//! The flat runner's row path equals the boxed oracle. On a flat wave
//! every `Count`, `Sum`, `Min` and `Max` slot rides in a row of words
//! (`saq_protocols::row`) while every other slot keeps its
//! `CorePartial`; the boxed `WaveRunner` sends real frames of the
//! enum partials. Random envelopes of 1–8 slots interleave the row
//! kinds with GK summaries, bottom-k samples, LogLog sketches,
//! collect, distinct and zoom slots, on random trees with ties and
//! passive items. Each script runs a dense envelope, repeats it (cache
//! hits), updates items (delta repair, invalidation, so repeats forward
//! subset envelopes mid-tree) and runs a shuffled sub-envelope, with the
//! cache on or off, over lossless links or 10 % loss under ARQ, at
//! W ∈ {1, 2, 4}. After every wave the answers (`Debug`, so min/max
//! runner-ups count too), frames, per-slot ledger, transport footprint
//! and trace must equal the oracle's; at the end every node's and tree
//! edge's bits and the cache counters must.

use proptest::prelude::*;
use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CoreRequest, CoreWave, SimItem};
use saq::netsim::flat::NestDepth;
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::protocols::mux::{MultiplexWave, MuxEntry};
use saq::protocols::wave::Reliability;
use saq::protocols::{FlatWaveRunner, NodeTraceEntry, SpanningTree, WaveRunner, WaveSubstrate};

type Mux = MultiplexWave<CoreWave>;

fn inner(xbar: u64) -> CoreWave {
    CoreWave {
        xbar,
        apx: ApxCountConfig::default(),
    }
}

/// Request kind `kind` (row kinds are 0..4 and drawn twice as often),
/// its parameters read off `x`.
fn request(kind: u32, x: u64, xbar: u64) -> CoreRequest {
    let domain = if x.is_multiple_of(2) {
        Domain::Raw
    } else {
        Domain::Log
    };
    let pred = Predicate::less_than(x % (xbar + 2));
    let nonce = (x >> 8) as u32;
    match kind % 15 {
        0 | 4 => CoreRequest::Count(pred),
        1 | 5 => CoreRequest::Sum(pred),
        2 | 6 => CoreRequest::Min(domain),
        3 | 7 => CoreRequest::Max(domain),
        8 => CoreRequest::Quantile {
            budget: 1 + (x % 9) as u32,
        },
        9 => CoreRequest::BottomK {
            k: 1 + (x % 6) as u32,
            nonce: 0,
        },
        10 => CoreRequest::ApxCount {
            pred,
            reps: 1 + (x % 3) as u32,
            nonce,
        },
        11 => CoreRequest::DistinctApx {
            reps: 1 + (x % 2) as u32,
            nonce,
        },
        12 => CoreRequest::Collect,
        13 => CoreRequest::DistinctExact,
        _ => CoreRequest::Zoom {
            mu_hat: (x % 4) as u32,
        },
    }
}

/// One drained trace entry: node, its parent, the entry.
type Traced = (usize, Option<usize>, NodeTraceEntry);

fn take_trace(runner: &mut dyn WaveSubstrate<Mux>) -> Vec<Traced> {
    let mut out = Vec::new();
    runner.drain_trace(&mut |node, parent, entry| out.push((node, parent, entry)));
    out
}

/// What happens between two waves of a script.
enum Step {
    Wave(Vec<MuxEntry<CoreRequest>>),
    SetItems(usize, Vec<SimItem>),
}

#[allow(clippy::too_many_arguments)]
fn check(
    n: usize,
    fanout: usize,
    values: &[u64],
    kinds: &[u32],
    params: u64,
    cache: bool,
    lossy: bool,
    fate_seed: u64,
) {
    let xbar = 15 + params % 1000;
    let topo = Topology::balanced_tree(n, fanout).expect("tree");
    let tree = SpanningTree::bfs(&topo, 0).expect("spanning tree");
    // One to three items a node, small values (ties), every fifth
    // item passive.
    let items: Vec<Vec<SimItem>> = (0..n)
        .map(|v| {
            (0..1 + (values[v % values.len()] % 3) as usize)
                .map(|k| {
                    let x = values[(v * 3 + k) % values.len()] % (xbar + 1);
                    let mut item = SimItem::new(x);
                    if (v + k) % 5 == 4 {
                        item.cur = None;
                    }
                    item
                })
                .collect()
        })
        .collect();
    let reqs: Vec<CoreRequest> = kinds
        .iter()
        .enumerate()
        .map(|(i, &k)| request(k, params.rotate_left(9 * i as u32), xbar))
        .collect();
    let dense = MultiplexWave::envelope(&inner(xbar), reqs.clone());
    // Every other slot, in reverse: a sparse envelope whose slot tags
    // are not its positions.
    let sparse: Vec<MuxEntry<CoreRequest>> = reqs
        .iter()
        .enumerate()
        .rev()
        .step_by(2)
        .map(|(i, r)| MuxEntry::new(&inner(xbar), i as u32, r.clone()))
        .collect();
    let updates: Vec<Step> = (0..3)
        .map(|k| {
            let node = (params as usize >> (8 * k)) % n;
            let value = (params >> (4 * k)) % (xbar + 1);
            Step::SetItems(node, vec![SimItem::new(value), SimItem::new(value / 2)])
        })
        .collect();
    let mut script = vec![Step::Wave(dense.clone()), Step::Wave(dense.clone())];
    script.extend(updates);
    script.extend([
        Step::Wave(dense.clone()),
        Step::Wave(sparse),
        Step::Wave(dense),
    ]);

    let (cfg, rel) = if lossy {
        (
            SimConfig::default()
                .with_link(LinkConfig::default().with_loss(0.1))
                .with_seed(fate_seed),
            Reliability::Ack {
                timeout: SimDuration::from_millis(200),
            },
        )
    } else {
        (SimConfig::default(), Reliability::None)
    };
    for workers in [1usize, 2, 4] {
        let what = format!("W = {workers}, cache {cache}, lossy {lossy}, {reqs:?}");
        let mut boxed = WaveRunner::new(
            &topo,
            cfg.clone(),
            &tree,
            MultiplexWave::new(inner(xbar)),
            items.clone(),
            rel,
        )
        .expect("boxed runner");
        let mut flat = FlatWaveRunner::new(
            &topo,
            cfg.clone(),
            &tree,
            MultiplexWave::new(inner(xbar)),
            items.clone(),
            rel,
            workers,
            NestDepth::Auto,
        )
        .expect("flat runner");
        if cache {
            boxed.enable_partial_cache(6);
            flat.enable_partial_cache(6);
        }
        boxed.set_tracing(true);
        flat.set_tracing(true);
        for step in &script {
            let env = match step {
                Step::SetItems(node, items) => {
                    prop_assert_eq!(
                        boxed.set_items(*node, items.clone()),
                        flat.set_items(*node, items.clone()),
                        "delta repair differs ({})",
                        &what
                    );
                    continue;
                }
                Step::Wave(env) => env,
            };
            boxed.protocol().ledger_mut().reset(0);
            flat.protocol().ledger_mut().reset(0);
            let a = boxed.run_wave(env.clone()).expect("boxed wave");
            let b = flat.run_wave(env.clone()).expect("flat wave");
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "answers ({})", &what);
            prop_assert_eq!(boxed.last_wave_frames(), flat.last_wave_frames());
            {
                let (x, y) = (boxed.protocol().ledger_mut(), flat.protocol().ledger_mut());
                prop_assert_eq!(x.slots(), y.slots(), "slot bills ({})", &what);
                prop_assert_eq!(x.envelope_bits(), y.envelope_bits());
            }
            prop_assert_eq!(boxed.transport_footprint(), flat.transport_footprint());
            prop_assert_eq!(
                take_trace(&mut boxed),
                take_trace(&mut flat),
                "trace ({})",
                &what
            );
        }
        for v in 0..n {
            let (x, y) = (boxed.stats().node(v), flat.stats().node(v));
            prop_assert_eq!(
                (x.tx_bits, x.rx_bits, x.tx_packets, x.rx_packets),
                (y.tx_bits, y.rx_bits, y.tx_packets, y.rx_packets),
                "node {} ({})",
                v,
                &what
            );
            if let Some(p) = tree.parent(v) {
                prop_assert_eq!(boxed.stats().link_bits(p, v), flat.stats().link_bits(p, v));
            }
        }
        prop_assert_eq!(boxed.cache_stats(), flat.cache_stats(), "cache ({})", &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_row_path_equals_the_boxed_oracle(
        n in 8usize..48,
        fanout in 1usize..5,
        values in proptest::collection::vec(0u64..1 << 20, 4..16),
        kinds in proptest::collection::vec(0u32..15, 1..9),
        params: u64,
        cache: bool,
        lossy: bool,
        fate: u64,
    ) {
        check(n, fanout, &values, &kinds, params, cache, lossy, fate);
    }
}

// The long run of the suite above:
// `cargo test --release --test row_oracle -- --ignored`.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16_384))]

    #[test]
    #[ignore]
    fn prop_row_path_equals_the_boxed_oracle_long_run(
        n in 8usize..48,
        fanout in 1usize..5,
        values in proptest::collection::vec(0u64..1 << 20, 4..16),
        kinds in proptest::collection::vec(0u32..15, 1..9),
        params: u64,
        cache: bool,
        lossy: bool,
        fate: u64,
    ) {
        check(n, fanout, &values, &kinds, params, cache, lossy, fate);
    }
}
