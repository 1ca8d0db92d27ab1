//! What a flat deployment costs in memory, pinned in bytes per node: a
//! `shards(2)` flat `SimNetwork` with no cache, one item per node, at
//! N = 2^16 holds at most 189 live heap bytes per node at rest (built
//! and warmed by one `Count` wave), and its build never holds more than
//! 190 bytes per node above what the caller already held (topology and
//! items). A wave of the four-slot E16 mix (`Count`, `Min`, `Max`,
//! `Sum`: every slot a row slot, six words a node) leaves it at most at
//! 190: a sweep keeps a stack of a few rows per tree level, not a row
//! per node, and no node keeps an accumulator. A later wave that merges
//! value lists (`Collect`) leaves it at most at 190 too — its threads
//! keep only the few emptied accumulators a sweep held at once — and a
//! second one at most 1 byte per node more: no accumulator keeps
//! merged data between waves.
//! Only the columns the deployment uses exist — no cache, trace or ARQ
//! column here — and the build frees the spanning tree before the
//! per-node columns are allocated. Live bytes are a function of the
//! code (no time, no randomness), so they gate in tier-1.
//!
//! This binary holds exactly one `#[test]`: the counters are
//! process-wide, and a second test running beside it would be counted
//! too.

use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::SimNetworkBuilder;
use saq::core::wave_proto::CoreRequest;
use saq::netsim::topology::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated (requested sizes, allocator overhead
/// excluded).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, keeping a live-bytes count and its peak.
struct LiveBytes;

impl LiveBytes {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LiveBytes::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LiveBytes::shrink(layout.size());
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; `layout` and `new_size` are the caller's.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LiveBytes::shrink(layout.size());
            LiveBytes::grow(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

const N: usize = 1 << 16;
const XBAR: u64 = 1000;
const FANOUT: usize = 8;

#[test]
fn a_flat_node_fits_its_byte_budget() {
    let topo = Topology::balanced_tree(N, FANOUT).unwrap();
    let items: Vec<u64> = (0..N as u64).map(|i| i * 7 % (XBAR + 1)).collect();

    let held = LIVE.load(Ordering::Relaxed);
    PEAK.store(held, Ordering::Relaxed);
    let mut net = SimNetworkBuilder::new()
        .max_children(FANOUT)
        .flat(true)
        .shards(2)
        .build_one_per_node(&topo, &items, XBAR)
        .unwrap();
    let build_peak = PEAK.load(Ordering::Relaxed) - held;

    let answer = net
        .run_batch(vec![CoreRequest::Count(Predicate::TRUE)])
        .unwrap();
    assert_eq!(answer.messages, 2 * (N as u64 - 1), "one full wave");
    let at_rest = LIVE.load(Ordering::Relaxed) - held;

    // The four-slot E16 mix: every slot a row slot, six words a node.
    let mix = net
        .run_batch(vec![
            CoreRequest::Count(Predicate::TRUE),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Max(Domain::Log),
            CoreRequest::Sum(Predicate::less_than(500)),
        ])
        .unwrap();
    assert_eq!(mix.messages, 2 * (N as u64 - 1), "one full wave");
    drop(mix);
    let after_mix = LIVE.load(Ordering::Relaxed) - held;

    // A wave whose partials are value lists leaves no merged list
    // behind: every accumulator at rest is released. The first such
    // wave fills its threads' free lists; a second one finds them warm,
    // so anything it leaves is retained data.
    let collected = net.run_batch(vec![CoreRequest::Collect]).unwrap();
    drop(collected);
    let after_collect = LIVE.load(Ordering::Relaxed) - held;
    let collected = net.run_batch(vec![CoreRequest::Collect]).unwrap();
    drop(collected);
    let after_second = LIVE.load(Ordering::Relaxed) - held;

    let per_node = |bytes: usize| bytes as f64 / N as f64;
    println!(
        "N = {N}: {:.1} B/node at rest, {:.1} after the E16 mix, {:.1} after a Collect wave, \
         {:.1} after a second one, build peak {:.1} B/node",
        per_node(at_rest),
        per_node(after_mix),
        per_node(after_collect),
        per_node(after_second),
        per_node(build_peak)
    );
    assert!(
        at_rest <= 189 * N,
        "the network holds {:.1} B per node at rest (budget 189)",
        per_node(at_rest)
    );
    assert!(
        after_mix <= 190 * N,
        "the E16 mix left {:.1} B per node at rest (budget 190)",
        per_node(after_mix)
    );
    assert!(
        after_collect <= 190 * N,
        "a Collect wave left {:.1} B per node at rest (budget 190)",
        per_node(after_collect)
    );
    assert!(
        after_second <= after_collect + N,
        "a second Collect wave left {:.1} B per node more at rest (budget 1)",
        per_node(after_second.saturating_sub(after_collect))
    );
    assert!(
        build_peak <= 190 * N,
        "the build peaked at {:.1} B per node above the caller's (budget 190)",
        per_node(build_peak)
    );
}
