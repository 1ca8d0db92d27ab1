//! The allocation budget of a cached refresh, pinned: once warm, a
//! refresh after a few item updates allocates in proportion to the
//! nodes that execute it, not to the nodes that answer it from their
//! subtree cache. Updates invalidate the quantile slot along their root
//! paths (GK summaries decline value deltas), so the refresh executes
//! that slot on the dirty paths, while every clean sibling of a dirty
//! node answers all of its slots with one cache probe each and a reply
//! encoded straight from the cache entries — no key encoding, no copy
//! of the cached partial, no joined reply. The answer equals the boxed
//! oracle's. The counts are a function of the code (no time, no
//! randomness), so they gate in tier-1: here 103 nodes execute, and the
//! refresh makes 1 624 allocations at W = 1 and about 1 593 at W = 2
//! (most of them the growth of each executing node's GK accumulator,
//! one per merged child). A cache path that re-encodes every key,
//! copies every hit and joins every cached reply makes 4 640.
//!
//! This binary holds exactly one `#[test]`: the counter is process-wide,
//! and a second test running beside it would be counted too.

use saq::core::counting::ApxCountConfig;
use saq::core::predicate::{Domain, Predicate};
use saq::core::wave_proto::{CoreRequest, CoreWave, SimItem};
use saq::netsim::flat::NestDepth;
use saq::netsim::sim::SimConfig;
use saq::netsim::topology::Topology;
use saq::protocols::mux::{MultiplexWave, MuxEntry};
use saq::protocols::wave::Reliability;
use saq::protocols::{FlatWaveRunner, SpanningTree, WaveRunner, WaveSubstrate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls that obtain memory (mirrors
/// `tests/update_allocs.rs`).
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

const N: usize = 4096;
const XBAR: u64 = 1000;
/// Leaves whose items change before the refresh.
const UPDATES: usize = 32;
/// Allocations allowed per executing node.
const PER_EXECUTING_NODE: u64 = 16;

fn envelope() -> Vec<MuxEntry<CoreRequest>> {
    MultiplexWave::envelope(
        &CoreWave {
            xbar: XBAR,
            apx: ApxCountConfig::default(),
        },
        vec![
            CoreRequest::Count(Predicate::TRUE),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Quantile { budget: 120 },
        ],
    )
}

fn items() -> Vec<Vec<SimItem>> {
    (0..N as u64)
        .map(|i| vec![SimItem::new(i * 7 % (XBAR + 1))])
        .collect()
}

fn proto() -> MultiplexWave<CoreWave> {
    MultiplexWave::new(CoreWave {
        xbar: XBAR,
        apx: ApxCountConfig::default(),
    })
}

/// Warms `runner`'s caches and frame pools, changes the items of
/// `UPDATES` leaves spread over the tree, and refreshes. Returns the
/// refresh's answer, its allocations and its cache misses.
fn refresh(
    runner: &mut dyn WaveSubstrate<MultiplexWave<CoreWave>>,
) -> (Vec<saq::core::wave_proto::CorePartial>, u64, u64) {
    runner.enable_partial_cache(64);
    runner.run_wave(envelope()).unwrap();
    // Nodes 512.. are the leaves of the degree-8 tree over 4096 nodes.
    for k in 0..UPDATES {
        let leaf = 512 + k * 111;
        runner.set_items(leaf, vec![SimItem::new((leaf as u64 * 13) % (XBAR + 1))]);
    }
    let misses = runner.cache_stats().misses;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let answer = runner.run_wave(envelope()).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (answer, allocs, runner.cache_stats().misses - misses)
}

#[test]
fn a_cached_refresh_allocates_per_executing_node_only() {
    let topo = Topology::balanced_tree(N, 8).unwrap();
    let tree = SpanningTree::bfs(&topo, 0).unwrap();
    let mut boxed = WaveRunner::new(
        &topo,
        SimConfig::default(),
        &tree,
        proto(),
        items(),
        Reliability::None,
    )
    .unwrap();
    let (expected, _, boxed_misses) = refresh(&mut boxed);

    for workers in [1usize, 2] {
        let mut flat = FlatWaveRunner::new(
            &topo,
            SimConfig::default(),
            &tree,
            proto(),
            items(),
            Reliability::None,
            workers,
            NestDepth::Auto,
        )
        .unwrap();
        assert_eq!(flat.worker_count(), workers);
        let (answer, allocs, executing) = refresh(&mut flat);
        assert_eq!(answer, expected, "W = {workers}");
        assert_eq!(executing, boxed_misses);
        // The dirty root paths, and many more clean siblings answering
        // from cache: the bound below is not vacuous.
        let frames = flat.last_wave_frames();
        assert!(
            executing >= 64 && frames >= 8 * executing,
            "{executing} executing, {frames} frames"
        );
        assert!(
            allocs <= PER_EXECUTING_NODE * executing + 64,
            "a cached refresh made {allocs} allocations for {executing} executing nodes at W = {workers}"
        );
    }
}
