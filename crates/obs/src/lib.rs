//! # saq-obs — the telemetry spine
//!
//! A zero-overhead-when-disabled observability layer for the aggregate
//! query system: structured [`Event`]s, a pluggable [`Recorder`] sink
//! trait with a flight-recorder ring buffer ([`RingRecorder`]) and a
//! JSONL trace writer ([`JsonlRecorder`]), a [`MetricsRegistry`] of
//! deterministic counters and bucketed histograms (with a clearly
//! separated **wall-clock lane** excluded from equivalence checks), and
//! a [`trace`] summarizer that turns a recorded JSONL stream into
//! per-query **bit-provenance reports** (`saq-trace` binary).
//!
//! The load-bearing property is *determinism*: with a recorder
//! attached, the merged event stream a deployment emits is a pure
//! function of the workload — **bit-identical across the boxed and
//! flat execution substrates** — because per-node trace
//! entries are buffered during the wave and drained in ascending
//! global node id order at the driver, and frame-level ARQ detail is
//! expanded from the same per-edge fate streams every runner consumes
//! (see ARCHITECTURE §15). Wall-clock timers never enter that stream:
//! they live in the registry's separate non-deterministic lane.
//!
//! This crate is dependency-free and simulator-agnostic; the binding
//! to the wave runners lives in `saq-core::simnet`.

#![warn(missing_docs)]

mod event;
mod metrics;
mod record;
pub mod trace;

pub use event::{Event, FrameKind};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, WallPhase};
pub use record::{
    EventLog, JsonlRecorder, NullRecorder, Recorder, RingHandle, RingRecorder, VecRecorder,
};

/// The telemetry front door a driver owns: an optional [`Recorder`]
/// plus an always-consistent [`MetricsRegistry`]. When no recorder is
/// attached the lane is disabled and [`Telemetry::emit`] is a no-op —
/// the zero-overhead-when-disabled contract.
#[derive(Debug, Default)]
pub struct Telemetry {
    recorder: Option<Box<dyn Recorder>>,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// A disabled telemetry lane (no recorder, empty metrics).
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// Whether a recorder is attached (events flow, metrics update).
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Attaches a recorder, enabling the lane. Replaces (and returns)
    /// any previous recorder; metrics keep accumulating across swaps.
    pub fn attach(&mut self, recorder: Box<dyn Recorder>) -> Option<Box<dyn Recorder>> {
        self.recorder.replace(recorder)
    }

    /// Detaches the recorder, disabling the lane.
    pub fn detach(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

    /// Emits one event: updates the deterministic metrics lane, then
    /// forwards to the recorder. No-op when disabled.
    pub fn emit(&mut self, event: &Event) {
        if let Some(rec) = self.recorder.as_mut() {
            self.metrics.update(event);
            rec.record(event);
        }
    }

    /// Emits a run of events, in order — the same as
    /// [`Telemetry::emit`] on each, with one recorder call for the run
    /// ([`Recorder::record_all`]). No-op when disabled.
    pub fn emit_all(&mut self, events: &[Event]) {
        if let Some(rec) = self.recorder.as_mut() {
            for event in events {
                self.metrics.update(event);
            }
            rec.record_all(events);
        }
    }

    /// The metrics registry (deterministic counters + wall-clock lane).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable registry access (wall-clock timers, direct latency
    /// observations).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }
}
