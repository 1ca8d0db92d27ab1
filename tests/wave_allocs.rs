//! The wave runners' allocation budgets, pinned: after warm-up, one
//! 4-slot flat wave over N nodes allocates at most 256 times, however
//! large N is — each node refills a spent accumulator from its thread's
//! free list and absorbs its children into it in place, so what is left
//! is a per-wave allowance for blocks, distinct requests and worker
//! threads (15 allocations at W = 1 and 44 at W = 2 when this bound was
//! set; at most 22 once partials crossed flat edges as widths). The
//! boxed event-driven oracle runs the same wave on the same tree within
//! `8·N` allocations (it makes ~7 per node — 28 683 at N = 4096 when
//! this bound was set, N − 1 fewer than the 32 778 of a merge that
//! collected a fresh envelope per child, and down from ~25 before its
//! nodes stopped cloning the request per child and the accumulator per
//! reply — moving by a few between waves, so this is a bound and not an
//! equality), and always above the flat count. The counts are a
//! function of the code (no time, no randomness), so they gate in
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

/// The E16 mix `wave_1e5` submits every round.
fn envelope() -> Vec<saq::protocols::mux::MuxEntry<CoreRequest>> {
    MultiplexWave::envelope(
        &CoreWave {
            xbar: XBAR,
            apx: ApxCountConfig::default(),
        },
        vec![
            CoreRequest::Count(Predicate::TRUE),
            CoreRequest::Min(Domain::Raw),
            CoreRequest::Max(Domain::Log),
            CoreRequest::Sum(Predicate::less_than2(500)),
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

#[test]
fn a_warm_flat_wave_allocates_at_most_once_per_node() {
    let topo = Topology::balanced_tree(N, 8).unwrap();
    let tree = SpanningTree::bfs(&topo, 0).unwrap();
    let mut flat_max = 0;
    let mut flat_answer = None;
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
            allocs <= 256,
            "a warm wave made {allocs} allocations at N = {N}, W = {workers}"
        );
        flat_max = flat_max.max(allocs);
        flat_answer = Some(answer);
    }

    // The boxed oracle: same tree, same envelope, two warm-up waves.
    let mut boxed = WaveRunner::new(
        &topo,
        SimConfig::default(),
        &tree,
        proto(),
        items(),
        Reliability::None,
    )
    .unwrap();
    boxed.run_wave(envelope()).unwrap();
    boxed.run_wave(envelope()).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let answer = boxed.run_wave(envelope()).unwrap();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(Some(answer), flat_answer);
    println!("warm wave at N = {N}: flat at most {flat_max} allocations, boxed {allocs}");
    assert!(
        allocs <= 8 * N as u64,
        "a warm boxed wave made {allocs} allocations at N = {N}"
    );
    assert!(
        flat_max < allocs,
        "flat made {flat_max} allocations, boxed {allocs}"
    );
}
