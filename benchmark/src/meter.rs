//! Timing taken from outside the program: one span around every call
//! the driver makes into it.
//!
//! The untraced pass keeps only totals per call kind and one sample
//! per round; the traced pass also keeps every span in memory (written
//! out when the run ends) and switches the allocation counter on.

use crate::json::{num, obj, s, Json};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The calls into the program the driver times. Everything else a
/// round does (input generation, verification) is harness time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    UpdateItems,
    Register,
    Deregister,
    Submit,
    Step,
    RunUntilIdle,
}

impl Call {
    pub const ALL: [Call; 6] = [
        Call::UpdateItems,
        Call::Register,
        Call::Deregister,
        Call::Submit,
        Call::Step,
        Call::RunUntilIdle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::UpdateItems => "update_items",
            Call::Register => "register",
            Call::Deregister => "deregister",
            Call::Submit => "submit",
            Call::Step => "step",
            Call::RunUntilIdle => "run_until_idle",
        }
    }
}

/// One recorded span. `round` is the parent: every span of a round
/// shares it. `wave` and `drain` spans are *derived* — the program's
/// own wall-clock lane reports their durations, not their positions,
/// so they carry the start of the `step` that contains them.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Operations the span covers (a round's item updates share one).
    pub ops: u64,
}

impl Span {
    pub fn to_json(&self) -> Json {
        obj([
            ("name", s(self.name)),
            ("round", num(self.round as f64)),
            ("start_ns", num(self.start_ns as f64)),
            ("dur_ns", num(self.dur_ns as f64)),
            ("ops", num(self.ops as f64)),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct CallTotal {
    pub ns: u64,
    pub ops: u64,
}

/// Accumulates the spans of one timed section.
#[derive(Debug)]
pub struct Meter {
    epoch: Instant,
    traced: bool,
    round: u64,
    round_ns: u64,
    last_start_ns: u64,
    /// Time inside the program per completed round, in ns.
    pub round_samples: Vec<u64>,
    totals: [CallTotal; Call::ALL.len()],
    pub spans: Vec<Span>,
}

impl Meter {
    pub fn new(traced: bool) -> Self {
        Meter {
            epoch: Instant::now(),
            traced,
            round: 0,
            round_ns: 0,
            last_start_ns: 0,
            round_samples: Vec::new(),
            totals: [CallTotal::default(); Call::ALL.len()],
            spans: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Runs `f` — a call into the program covering `ops` operations —
    /// inside a span.
    pub fn time<T>(&mut self, call: Call, ops: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let total = &mut self.totals[call as usize];
        total.ns += dur_ns;
        total.ops += ops;
        self.round_ns += dur_ns;
        self.last_start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        if self.traced {
            self.spans.push(Span {
                name: call.name(),
                round: self.round,
                start_ns: self.last_start_ns,
                dur_ns,
                ops,
            });
        }
        out
    }

    /// Records a span the program measured itself (`wave`, `drain`)
    /// as a child of the most recent call.
    pub fn derived(&mut self, name: &'static str, dur_ns: u64, ops: u64) {
        if self.traced && ops > 0 {
            self.spans.push(Span {
                name,
                round: self.round,
                start_ns: self.last_start_ns,
                dur_ns,
                ops,
            });
        }
    }

    /// Closes the current round: its program time becomes one sample.
    pub fn end_round(&mut self) {
        self.round_samples.push(self.round_ns);
        self.round_ns = 0;
        self.round += 1;
    }

    pub fn total(&self, call: Call) -> CallTotal {
        self.totals[call as usize]
    }

    /// Nanoseconds inside the program over the whole section.
    pub fn program_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.ns).sum()
    }
}

/// The system allocator plus an allocation counter that is off except
/// while the traced pass runs, so the untraced pass pays one relaxed
/// load per allocation and no shared write.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches allocation counting on or off (a statistic only: `Relaxed`
/// publishes nothing else).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_sum_their_spans_and_trace_keeps_them() {
        let mut m = Meter::new(true);
        m.time(Call::Submit, 2, || std::hint::black_box(1 + 1));
        m.time(Call::Step, 1, || std::hint::black_box(2 + 2));
        m.derived("wave", 5, 1);
        m.derived("drain", 0, 0); // nothing measured: no span
        m.end_round();
        m.time(Call::Step, 1, || ());
        m.end_round();
        assert_eq!(m.round_samples.len(), 2);
        assert_eq!(
            m.round_samples.iter().sum::<u64>(),
            m.program_ns(),
            "round samples partition program time"
        );
        assert_eq!(m.total(Call::Submit).ops, 2);
        assert_eq!(m.total(Call::Step).ops, 2);
        let names: Vec<_> = m.spans.iter().map(|s| (s.name, s.round)).collect();
        assert_eq!(
            names,
            [("submit", 0), ("step", 0), ("wave", 0), ("step", 1)]
        );
        assert!(Meter::new(false).spans.is_empty());
    }
}
