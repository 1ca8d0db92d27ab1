//! Single-layer kernels of the traced pass: each calls one layer's
//! public functions on data shaped like what the workloads move
//! through it, checks the result (verify-then-time: a ns/op for a
//! codec that corrupts data is worse than no number), then reports
//! the median of a few timed batches.

use crate::meter;
use crate::rng::Rng;
use crate::stats::median;
use crate::truth::XBAR;
use crate::workloads::{workers, FANOUT};
use saq::core::aggregate::{CountSumOp, ItemRef, PartialAggregate};
use saq::core::plan::QuantilePlan;
use saq::core::predicate::Predicate;
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::wave_proto::{CorePartial, CoreRequest};
use saq::netsim::flat::{FlatTree, NestDepth, ShardPlan};
use saq::netsim::topology::Topology;
use saq::netsim::wire::{BitReader, BitWriter};
use saq::obs::{Event, FrameKind, RingRecorder, Telemetry};
use saq::protocols::wave::WaveProtocol;
use saq::protocols::{PartialCache, SpanningTree};
use saq::sketches::QuantileSummary;
use std::hint::black_box;
use std::time::Instant;

pub type Metrics = Vec<(&'static str, f64)>;

const BATCHES: usize = 9;

/// Median over [`BATCHES`] timed runs of `batch` (after one untimed
/// run), in nanoseconds per operation.
fn ns_per_op(ops_per_batch: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops_per_batch as f64
        })
        .collect();
    median(&mut samples)
}

fn ensure(ok: bool, what: &str) -> Result<(), String> {
    ok.then_some(())
        .ok_or_else(|| format!("kernel check failed: {what}"))
}

/// One codec primitive: encodes `vals`, checks the round trip consumes
/// every bit and returns every value, then times write and read.
fn codec(
    out: &mut Metrics,
    names: (&'static str, &'static str),
    vals: &[u64],
    write: impl Fn(&mut BitWriter, u64),
    read: impl Fn(&mut BitReader<'_>) -> Option<u64>,
) -> Result<(), String> {
    let encode = || {
        let mut w = BitWriter::new();
        for &v in vals {
            write(&mut w, black_box(v));
        }
        w.finish()
    };
    let bits = encode();
    let mut r = BitReader::new(&bits);
    let back: Option<Vec<u64>> = vals.iter().map(|_| read(&mut r)).collect();
    ensure(back.as_deref() == Some(vals) && r.remaining() == 0, names.0)?;
    out.push((names.0, ns_per_op(vals.len(), || drop(black_box(encode())))));
    out.push((
        names.1,
        ns_per_op(vals.len(), || {
            let mut r = BitReader::new(&bits);
            let sum = vals
                .iter()
                .fold(0u64, |acc, _| acc.wrapping_add(read(&mut r).unwrap_or(0)));
            black_box(sum);
        }),
    ));
    Ok(())
}

/// `netsim.wire`: the bit codec on frame-shaped data — header-width
/// fields, small varints (ordinals, counts), gamma-coded lengths and
/// sorted value columns as quantile and bottom-k partials ship them.
fn wire(out: &mut Metrics, rng: &mut Rng) -> Result<(), String> {
    const LEN: usize = 4096;
    // Field widths of a mux frame: kind tags, slot tags, thresholds,
    // counts up to N.
    const WIDTHS: [u32; 8] = [2, 4, 11, 1, 17, 8, 11, 14];
    let fields: Vec<u64> = (0..LEN)
        .map(|i| rng.below(1 << WIDTHS[i % WIDTHS.len()]))
        .collect();
    let encode = || {
        let mut w = BitWriter::new();
        for (i, &v) in fields.iter().enumerate() {
            w.write_bits(black_box(v), WIDTHS[i % WIDTHS.len()]);
        }
        w.finish()
    };
    let bits = encode();
    let decode = |check: bool| -> bool {
        let mut r = BitReader::new(&bits);
        let mut sum = 0u64;
        for (i, &v) in fields.iter().enumerate() {
            let got = r.read_bits(WIDTHS[i % WIDTHS.len()]).unwrap_or(u64::MAX);
            if check && got != v {
                return false;
            }
            sum = sum.wrapping_add(got);
        }
        black_box(sum);
        r.remaining() == 0
    };
    ensure(decode(true), "netsim.wire bits round trip")?;
    out.push((
        "netsim.wire.bits_write_ns_per_op",
        ns_per_op(LEN, || drop(black_box(encode()))),
    ));
    out.push((
        "netsim.wire.bits_read_ns_per_op",
        ns_per_op(LEN, || {
            black_box(decode(false));
        }),
    ));

    let small: Vec<u64> = (0..LEN).map(|_| rng.below(1 << 14)).collect();
    codec(
        out,
        (
            "netsim.wire.varint_write_ns_per_op",
            "netsim.wire.varint_read_ns_per_op",
        ),
        &small,
        |w, v| w.write_varint(v),
        |r| r.read_varint().ok(),
    )?;
    let lengths: Vec<u64> = (0..LEN).map(|_| 1 + rng.below(XBAR)).collect();
    codec(
        out,
        (
            "netsim.wire.gamma_write_ns_per_op",
            "netsim.wire.gamma_read_ns_per_op",
        ),
        &lengths,
        |w, v| w.write_gamma(v),
        |r| r.read_gamma().ok(),
    )?;

    // 64 columns of 64 sorted values in 0..=X̄.
    const COLUMN: usize = 64;
    let columns: Vec<Vec<u64>> = (0..LEN / COLUMN)
        .map(|_| {
            let mut col: Vec<u64> = (0..COLUMN).map(|_| rng.below(XBAR + 1)).collect();
            col.sort_unstable();
            col
        })
        .collect();
    let encode = || {
        let mut w = BitWriter::new();
        for col in &columns {
            w.write_sorted_deltas(black_box(col));
        }
        w.finish()
    };
    let bits = encode();
    let decode = || {
        let mut r = BitReader::new(&bits);
        let cols: Vec<Vec<u64>> = columns
            .iter()
            .map(|_| r.read_sorted_deltas(COLUMN as u64).unwrap_or_default())
            .collect();
        (cols, r.remaining())
    };
    ensure(decode() == (columns.clone(), 0), "sorted_deltas round trip")?;
    out.push((
        "netsim.wire.sorted_deltas_write_ns_per_value",
        ns_per_op(LEN, || drop(black_box(encode()))),
    ));
    out.push((
        "netsim.wire.sorted_deltas_read_ns_per_value",
        ns_per_op(LEN, || drop(black_box(decode()))),
    ));
    Ok(())
}

/// Merge / encode / decode of one aggregate on a pair of partials,
/// after checking that decode inverts encode.
fn aggregate<A: PartialAggregate>(
    out: &mut Metrics,
    names: [&'static str; 3],
    agg: &A,
    a: &A::Partial,
    b: &A::Partial,
) -> Result<(), String> {
    const REPS: usize = 256;
    let encode = |p: &A::Partial| {
        let mut w = BitWriter::new();
        agg.encode(p, &mut w);
        w.finish()
    };
    let merged = agg.merge(a.clone(), b.clone());
    let bits = encode(&merged);
    let mut r = BitReader::new(&bits);
    // Decoding may drop knowledge that never travels (a MIN's
    // runner-up claim), so compare what a second hop would send.
    let back = agg.decode(&mut r).map_err(|e| e.to_string())?;
    ensure(encode(&back) == bits && r.remaining() == 0, names[1])?;
    out.push((
        names[0],
        ns_per_op(REPS, || {
            for _ in 0..REPS {
                black_box(agg.merge(black_box(a.clone()), black_box(b.clone())));
            }
        }),
    ));
    out.push((
        names[1],
        ns_per_op(REPS, || {
            for _ in 0..REPS {
                black_box(encode(black_box(&merged)));
            }
        }),
    ));
    out.push((
        names[2],
        ns_per_op(REPS, || {
            for _ in 0..REPS {
                black_box(agg.decode(&mut BitReader::new(black_box(&bits))).ok());
            }
        }),
    ));
    Ok(())
}

/// `core.aggregate` and `sketches.quantile`: the three partial kinds
/// the workloads merge most, at the size an interior node of `net`'s
/// tree handles — two sibling subtrees of 512 items each.
fn aggregates(out: &mut Metrics, net: &SimNetwork, rng: &mut Rng) -> Result<(), String> {
    const SUBTREE: u64 = 512;
    let proto = net.core_proto();
    let mut subtree = |first_node: u64| -> Vec<ItemRef> {
        (0..SUBTREE)
            .map(|i| ItemRef {
                node: first_node + i,
                slot: 0,
                value: rng.below(XBAR + 1),
            })
            .collect()
    };
    let (left, right) = (subtree(0), subtree(SUBTREE));

    let count = proto.countsum_agg(CountSumOp::Count, Predicate::less_than(500));
    aggregate(
        out,
        [
            "core.aggregate.merge_ns_per_op.count",
            "core.aggregate.encode_ns_per_op.count",
            "core.aggregate.decode_ns_per_op.count",
        ],
        &count,
        &count.partial_over(left.iter().copied()),
        &count.partial_over(right.iter().copied()),
    )?;

    // The budget the engine provisions for Quantile{ε = 0.2} on this
    // tree (see `compile_plan`).
    let prunes = (net.tree_height() + 1) * net.tree_max_degree() as u32;
    let budget = QuantilePlan::budget_for(0.2, prunes).map_err(|e| e.to_string())?;
    let quantile = proto.quantile_agg(budget);
    let (qa, qb) = (
        quantile.partial_over(left.iter().copied()),
        quantile.partial_over(right.iter().copied()),
    );
    aggregate(
        out,
        [
            "core.aggregate.merge_ns_per_op.quantile",
            "core.aggregate.encode_ns_per_op.quantile",
            "core.aggregate.decode_ns_per_op.quantile",
        ],
        &quantile,
        &qa,
        &qb,
    )?;
    let merged = QuantileSummary::merged(&qa, &qb);
    ensure(
        merged.count() == 2 * SUBTREE,
        "merged summary keeps every item",
    )?;
    const REPS: usize = 256;
    out.push((
        "sketches.quantile.merge_prune_ns_per_op",
        ns_per_op(REPS, || {
            for _ in 0..REPS {
                let mut s = QuantileSummary::merged(black_box(&qa), black_box(&qb));
                s.prune(budget as usize);
                black_box(s);
            }
        }),
    ));

    let bottomk = proto.bottomk_agg(8, 0);
    aggregate(
        out,
        [
            "core.aggregate.merge_ns_per_op.bottomk",
            "core.aggregate.encode_ns_per_op.bottomk",
            "core.aggregate.decode_ns_per_op.bottomk",
        ],
        &bottomk,
        &bottomk.partial_over(left.iter().copied()),
        &bottomk.partial_over(right.iter().copied()),
    )
}

/// `protocols.cache`: `PartialCache` keyed by real encoded
/// sub-requests, at the fleet workload's capacity.
fn cache(out: &mut Metrics, net: &SimNetwork) -> Result<(), String> {
    const KEYS: u64 = 128;
    let proto = net.core_proto();
    let entries: Vec<_> = (0..KEYS)
        .map(|i| {
            let req = match i % 4 {
                0 => CoreRequest::Count(Predicate::less_than(1 + i)),
                1 => CoreRequest::Sum(Predicate::less_than(1 + i)),
                2 => CoreRequest::Quantile {
                    budget: 1 + i as u32,
                },
                _ => CoreRequest::BottomK {
                    k: 1 + i as u32,
                    nonce: 0,
                },
            };
            let mut w = BitWriter::new();
            proto.encode_request(&req, &mut w);
            (w.finish(), CorePartial::Num(i))
        })
        .collect();
    let fill = || {
        let mut cache = PartialCache::new(256);
        for (key, value) in &entries {
            cache.insert(key.clone(), value.clone());
        }
        cache
    };
    let mut cache = fill();
    ensure(
        cache.len() == KEYS as usize
            && entries
                .iter()
                .all(|(key, value)| cache.get(key).as_ref() == Some(value)),
        "every distinct sub-request is its own cache entry",
    )?;
    out.push((
        "protocols.cache.get_ns_per_op",
        ns_per_op(entries.len(), || {
            for (key, _) in &entries {
                black_box(cache.get(black_box(key)));
            }
        }),
    ));
    out.push((
        "protocols.cache.insert_ns_per_op",
        ns_per_op(entries.len(), || drop(black_box(fill()))),
    ));
    Ok(())
}

/// `netsim.flat`: columnar tree and shard-plan construction at the
/// workload's N, and how evenly the plan loads the workers.
fn flat_tree(out: &mut Metrics, n: usize) -> Result<(), String> {
    let topo = Topology::balanced_tree(n, FANOUT).map_err(|e| e.to_string())?;
    let spanning = SpanningTree::bfs_bounded(&topo, 0, FANOUT).map_err(|e| e.to_string())?;
    let parents: Vec<Option<usize>> = (0..n).map(|v| spanning.parent(v)).collect();
    let t = Instant::now();
    let tree = FlatTree::from_parents(0, &parents);
    let tree_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    let plan = ShardPlan::new(&tree, workers(), NestDepth::Auto);
    let plan_ns = t.elapsed().as_nanos() as f64;
    let covered: usize =
        plan.spine().len() + plan.blocks().iter().map(|b| b.len as usize).sum::<usize>();
    ensure(
        tree.len() == n && covered == n,
        "spine and blocks cover the tree",
    )?;
    // A wave waits for its most loaded worker.
    let loads: Vec<f64> = plan
        .groups()
        .iter()
        .map(|group| group.iter().map(|&b| f64::from(plan.blocks()[b].len)).sum())
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    let max = loads.iter().copied().fold(0.0, f64::max);
    out.push(("netsim.flat.tree_build_ns_per_node", tree_ns / n as f64));
    out.push(("netsim.flat.plan_build_ns_per_node", plan_ns / n as f64));
    out.push((
        "netsim.flat.block_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    ));
    Ok(())
}

fn count_net(n: usize, workers: usize) -> Result<SimNetwork, String> {
    let topo = Topology::balanced_tree(n, FANOUT).map_err(|e| e.to_string())?;
    let items: Vec<u64> = (0..n as u64).map(|i| i % (XBAR + 1)).collect();
    SimNetworkBuilder::new()
        .max_children(FANOUT)
        .flat(true)
        .shards(workers)
        .build_one_per_node(&topo, &items, XBAR)
        .map_err(|e| e.to_string())
}

/// Median wall time of one `COUNT` wave through `run_batch`, in ns,
/// and the allocations one such wave makes.
fn count_wave(net: &mut SimNetwork, n: usize, waves: usize) -> Result<(f64, u64), String> {
    let wave = |net: &mut SimNetwork| -> Result<(), String> {
        let out = net
            .run_batch(vec![CoreRequest::Count(Predicate::TRUE)])
            .map_err(|e| e.to_string())?;
        ensure(
            out.partials == [CorePartial::Num(n as u64)],
            "COUNT wave counts every node",
        )
    };
    wave(net)?;
    let before = meter::allocations();
    meter::count_allocations(true);
    let counted = wave(net);
    meter::count_allocations(false);
    counted?;
    let allocs = meter::allocations() - before;
    let mut samples = Vec::with_capacity(waves);
    for _ in 0..waves {
        let t = Instant::now();
        wave(net)?;
        samples.push(t.elapsed().as_nanos() as f64);
    }
    Ok((median(&mut samples), allocs))
}

/// `protocols.flat`: one `COUNT` wave at the scale point and at
/// N = 1024, with one worker and with all of them. At N = 1024 the
/// wave itself is tiny, so `wN − w1` is the spawn/join/barrier floor
/// every multi-worker wave pays.
fn flat_wave(out: &mut Metrics, big_n: usize) -> Result<(), String> {
    const SMALL_N: usize = 1024;
    let w = workers();
    let (w1_ns, allocs) = count_wave(&mut count_net(big_n, 1)?, big_n, 5)?;
    let (small_w1_ns, _) = count_wave(&mut count_net(SMALL_N, 1)?, SMALL_N, 101)?;
    // With one core there is no second configuration to measure.
    let (wn_ns, small_wn_ns) = if w > 1 {
        (
            count_wave(&mut count_net(big_n, w)?, big_n, 5)?.0,
            count_wave(&mut count_net(SMALL_N, w)?, SMALL_N, 101)?.0,
        )
    } else {
        (w1_ns, small_w1_ns)
    };
    out.push(("protocols.flat.wave_ns_per_node_w1", w1_ns / big_n as f64));
    out.push(("protocols.flat.wave_ns_per_node_wN", wn_ns / big_n as f64));
    out.push(("protocols.flat.parallel_speedup", w1_ns / wn_ns));
    out.push(("protocols.flat.fanout_floor_ns", small_wn_ns - small_w1_ns));
    out.push(("protocols.flat.allocs_per_wave", allocs as f64));
    Ok(())
}

/// `obs`: the cost of emitting one frame event into a ring sink.
fn emit(out: &mut Metrics) -> Result<(), String> {
    const EVENTS: usize = 1 << 15;
    let (recorder, ring) = RingRecorder::shared(EVENTS);
    let mut telemetry = Telemetry::disabled();
    telemetry.attach(Box::new(recorder));
    let batch = |telemetry: &mut Telemetry| {
        for i in 0..EVENTS as u64 {
            telemetry.emit(black_box(&Event::FrameSent {
                from: i,
                to: i / FANOUT as u64,
                bits: 40 + i % 64,
                kind: FrameKind::Partial,
            }));
        }
    };
    batch(&mut telemetry);
    ensure(
        ring.len() == EVENTS && telemetry.metrics().snapshot().data_frames == EVENTS as u64,
        "ring and metrics lane saw every event",
    )?;
    out.push((
        "obs.emit_ns_per_event",
        ns_per_op(EVENTS, || batch(&mut telemetry)),
    ));
    Ok(())
}

/// Runs every kernel. `net` is the workload's own deployment (for its
/// protocol configuration and tree shape), `n` its node count and
/// `big_n` the scale point of the flat-wave kernel.
///
/// # Errors
///
/// The first kernel whose output is wrong.
pub fn run(net: &SimNetwork, n: usize, big_n: usize, seed: u64) -> Result<Metrics, String> {
    const LANE_KERNELS: u64 = 7;
    let mut rng = Rng::new(seed, LANE_KERNELS);
    let mut out = Metrics::new();
    wire(&mut out, &mut rng)?;
    aggregates(&mut out, net, &mut rng)?;
    cache(&mut out, net)?;
    flat_tree(&mut out, n)?;
    flat_wave(&mut out, big_n)?;
    emit(&mut out)?;
    Ok(out)
}
