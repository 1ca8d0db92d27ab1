//! The telemetry drain's allocation budget, pinned: once warm, a lossy
//! ARQ wave traced into a ring recorder — every node's trace entries
//! drained in canonical order, every frame re-expanded into its attempt
//! history by fate replay, every event folded into the metrics lane and
//! the ring — allocates no more than the same wave with no recorder
//! attached. Trace entries are handed over in place, the drain's event
//! buffer is reused, and a full ring evicts in place, so the drain's
//! allocations do not grow with N or with the events it emits. The
//! counts are a function of the code, so they gate in tier-1.
//!
//! This binary holds exactly one `#[test]`: the counter is process-wide,
//! and a second test running beside it would be counted too.

use saq::core::predicate::{Domain, Predicate};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::wave_proto::CoreRequest;
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::obs::RingRecorder;
use saq::protocols::wave::Reliability;
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

const N: usize = 2048;

/// Runs one four-slot wave and returns the allocations it made.
fn wave(net: &mut SimNetwork) -> u64 {
    let reqs = vec![
        CoreRequest::Count(Predicate::TRUE),
        CoreRequest::Min(Domain::Raw),
        CoreRequest::Max(Domain::Raw),
        CoreRequest::Sum(Predicate::TRUE),
    ];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    net.run_batch(reqs).expect("ARQ repairs every loss");
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_traced_wave_allocates_no_more_than_an_untraced_one() {
    let topo = Topology::balanced_tree(N, 8).unwrap();
    let items: Vec<u64> = (0..N as u64).map(|i| i * 7 % 1001).collect();
    let mut net = SimNetworkBuilder::new()
        .max_children(8)
        .flat(true)
        .sim_config(
            SimConfig::default()
                .with_link(LinkConfig::default().with_loss(0.1))
                .with_seed(0x5EED),
        )
        .reliability(Reliability::Ack {
            timeout: SimDuration::from_millis(200),
        })
        .build_one_per_node(&topo, &items, 1000)
        .unwrap();
    wave(&mut net);
    wave(&mut net);
    let untraced = wave(&mut net);

    // A ring far smaller than one wave's events, so it wraps every wave.
    let (recorder, ring) = RingRecorder::shared(1 << 12);
    net.attach_recorder(Box::new(recorder));
    wave(&mut net);
    wave(&mut net);
    let traced = wave(&mut net);

    assert!(
        net.metrics_snapshot().retransmits > 0,
        "loss 0.1 never forced a retransmission"
    );
    assert!(ring.dropped() > 0, "the ring never wrapped");
    assert!(
        traced <= untraced,
        "a warm traced wave made {traced} allocations, the same wave untraced {untraced}"
    );
}
