//! The item-update allocation budget, pinned: once warm, replacing one
//! node's items delta-maintains every cached entry on its root path
//! without a single heap allocation, on both wave runners. The update
//! is diffed once ([`saq::core::wave_proto::ItemDiff`], whose buffers the
//! runner reuses), each entry's key was parsed when the entry was
//! stored, and invalidated entries leave the cache in place. Only the
//! caller's new item vector is allocated, and it is built before the
//! count starts. The count is a function of the code, so it gates in
//! tier-1.
//!
//! This binary holds exactly one `#[test]`: the counter is process-wide,
//! and a second test running beside it would be counted too.

use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CoreRequest, CoreWave, SimItem};
use saq::netsim::flat::NestDepth;
use saq::netsim::sim::SimConfig;
use saq::netsim::topology::Topology;
use saq::protocols::mux::MultiplexWave;
use saq::protocols::wave::Reliability;
use saq::protocols::{FlatWaveRunner, SpanningTree, WaveRunner, WaveSubstrate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls that obtain memory (mirrors
/// `tests/wave_allocs.rs`).
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 1024;
const XBAR: u64 = 1000;
const UPDATES: usize = 200;

/// One cacheable slot per delta-maintained aggregate: group deltas,
/// extremum repair (raw and log domain), identity-keyed samples, and a
/// quantile summary, whose value changes always decline.
fn envelope() -> Vec<saq::protocols::mux::MuxEntry<CoreRequest>> {
    MultiplexWave::envelope(
        &CoreWave {
            xbar: XBAR,
            apx: ApxCountConfig::default(),
        },
        vec![
            CoreRequest::Count(Predicate::TRUE),
            CoreRequest::Count(Predicate::less_than(250)),
            CoreRequest::Sum(Predicate::less_than(500)),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Max(Domain::Log),
            CoreRequest::BottomK { k: 8, nonce: 3 },
            CoreRequest::Quantile { budget: 16 },
        ],
    )
}

fn value(i: usize) -> u64 {
    (i as u64 * 7919) % (XBAR + 1)
}

fn items() -> Vec<Vec<SimItem>> {
    (0..N).map(|i| vec![SimItem::new(value(i))]).collect()
}

fn proto() -> MultiplexWave<CoreWave> {
    MultiplexWave::new(CoreWave {
        xbar: XBAR,
        apx: ApxCountConfig::default(),
    })
}

/// Warms `runner`'s caches and its delta buffers, then replaces one
/// item at each of `UPDATES` nodes; returns the allocations those
/// updates made and the cache entries they maintained or dropped.
fn update_allocations(runner: &mut dyn WaveSubstrate<MultiplexWave<CoreWave>>) -> (u64, u64) {
    runner.enable_partial_cache(64);
    runner.run_wave(envelope()).unwrap();
    runner.set_items(N - 1, vec![SimItem::new(1)]);

    let nodes: Vec<usize> = (0..UPDATES).map(|i| (i * 389 + 17) % N).collect();
    let fresh: Vec<Vec<SimItem>> = (0..UPDATES)
        .map(|i| vec![SimItem::new(value(i + N))])
        .collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut touched = 0;
    for (node, items) in nodes.into_iter().zip(fresh) {
        let (applied, invalidated) = runner.set_items(node, items);
        touched += applied + invalidated;
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before, touched)
}

#[test]
fn a_warm_item_update_allocates_nothing() {
    let topo = Topology::balanced_tree(N, 8).unwrap();
    let tree = SpanningTree::bfs(&topo, 0).unwrap();
    let mut flat = FlatWaveRunner::new(
        &topo,
        SimConfig::default(),
        &tree,
        proto(),
        items(),
        Reliability::None,
        2,
        NestDepth::Auto,
    )
    .unwrap();
    let mut boxed = WaveRunner::new(
        &topo,
        SimConfig::default(),
        &tree,
        proto(),
        items(),
        Reliability::None,
    )
    .unwrap();

    let (flat_allocs, flat_touched) = update_allocations(&mut flat);
    let (boxed_allocs, boxed_touched) = update_allocations(&mut boxed);

    // Every update reaches at least its own cache's seven entries, so
    // the count below is not vacuous.
    assert!(flat_touched >= 7 * UPDATES as u64, "{flat_touched} entries");
    assert_eq!(flat_touched, boxed_touched);
    assert_eq!(flat.cache_stats(), boxed.cache_stats());
    assert_eq!(flat_allocs, 0, "{UPDATES} flat updates allocated");
    assert_eq!(boxed_allocs, 0, "{UPDATES} boxed updates allocated");
}
