//! The allocation budget of a warm flat wave carrying one GK quantile
//! partial, pinned: after warm-up, a `Quantile { budget: 120 }` wave
//! over N nodes allocates at most `1.25·N + 256` times. Each node builds
//! its summary's entries in an envelope `Vec` taken from its thread's
//! free list. Children are decoded into per-thread scratch and merged
//! into the accumulator's own entries, which are sized once, at the
//! first child, for all of them: one more allocation per interior node
//! (4 626 allocations at W = 1 and 4 663 at W = 2 when this bound was
//! set). The answer equals the boxed oracle's. The counts are a
//! function of the code (no time, no randomness), so they gate in
//! tier-1.
//!
//! This binary holds exactly one `#[test]`: the counter is process-wide,
//! and a second test running beside it would be counted too.

use saq::core::counting::ApxCountConfig;
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
/// `benchmark/src/meter.rs`).
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

fn envelope() -> Vec<saq::protocols::mux::MuxEntry<CoreRequest>> {
    MultiplexWave::envelope(
        &CoreWave {
            xbar: XBAR,
            apx: ApxCountConfig::default(),
        },
        vec![CoreRequest::Quantile { budget: 120 }],
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

#[test]
fn a_warm_quantile_wave_allocates_at_most_three_times_per_node() {
    let topo = Topology::balanced_tree(N, 8).unwrap();
    let tree = SpanningTree::bfs(&topo, 0).unwrap();
    let mut answers = Vec::new();
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
        let warm = flat.run_wave(envelope()).unwrap();
        flat.run_wave(envelope()).unwrap();

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let answer = flat.run_wave(envelope()).unwrap();
        let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

        assert_eq!(answer, warm);
        assert_eq!(flat.last_wave_frames(), 2 * (N as u64 - 1));
        assert!(
            allocs <= 5 * N as u64 / 4 + 256,
            "a warm quantile wave made {allocs} allocations at N = {N}, W = {workers}"
        );
        answers.push(answer);
    }

    // The boxed oracle decodes and merges each child the default way.
    let mut boxed = WaveRunner::new(
        &topo,
        SimConfig::default(),
        &tree,
        proto(),
        items(),
        Reliability::None,
    )
    .unwrap();
    let answer = boxed.run_wave(envelope()).unwrap();
    assert!(answers.iter().all(|a| *a == answer));
}
