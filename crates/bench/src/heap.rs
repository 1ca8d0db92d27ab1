//! A live-heap counter for the experiment binaries.
//!
//! [`CountingAlloc`] is the system allocator plus a running tally of the
//! bytes it holds allocated. A binary that installs it as its
//! `#[global_allocator]` (the `run_all` binary does) makes
//! [`live_bytes`] read that tally, so an experiment can report what a
//! deployment keeps on the heap — a figure that, unlike `VmRSS`, does
//! not depend on how much memory earlier experiments freed but left
//! resident. Without it installed, [`live_bytes`] is `None` and the
//! experiments print "n/a".

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static LIVE: AtomicU64 = AtomicU64::new(0);
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The system allocator, counting live heap bytes for [`live_bytes`].
#[derive(Debug)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`; `layout` and `new_size` are the caller's.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grew(new_size as u64);
        }
        out
    }
}

fn grew(bytes: u64) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    if !INSTALLED.load(Ordering::Relaxed) {
        INSTALLED.store(true, Ordering::Relaxed);
    }
}

/// Bytes currently allocated through [`CountingAlloc`], or `None` when
/// the running binary did not install it as its global allocator.
pub fn live_bytes() -> Option<u64> {
    INSTALLED
        .load(Ordering::Relaxed)
        .then(|| LIVE.load(Ordering::Relaxed))
}
