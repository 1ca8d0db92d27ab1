//! Recorder sinks: where emitted events go.
//!
//! Three production sinks plus a test sink:
//! - [`RingRecorder`] — bounded flight recorder (keeps the last `cap`
//!   events, counts what it dropped);
//! - [`JsonlRecorder`] — streams canonical JSONL to any writer;
//! - [`NullRecorder`] — accepts and discards (isolates pure emission
//!   overhead in stackbench's `obs.recorder_overhead_ratio`);
//! - [`VecRecorder`] — unbounded shared log for tests and examples.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::event::Event;

/// A sink for telemetry events.
///
/// Implementations must be cheap per call: `record` sits on the hot
/// path of every instrumented wave. `Send` (plus `Debug`) is required
/// so a boxed recorder can live inside driver state that crosses
/// thread boundaries in a parallel runner's driver.
pub trait Recorder: fmt::Debug + Send {
    /// Accepts one event.
    fn record(&mut self, event: &Event);

    /// Accepts a run of events, in order — the same as
    /// [`Recorder::record`] on each. A driver draining a wave calls
    /// this; sinks behind a shared lock override it to take the lock
    /// once per run.
    fn record_all(&mut self, events: &[Event]) {
        for event in events {
            self.record(event);
        }
    }

    /// Flushes any buffered output (JSONL writers). Default: no-op.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A recorder that accepts and discards every event. Metrics still
/// accumulate in the registry, so this is the cheapest way to keep the
/// deterministic lane live — and what stackbench's
/// `obs.recorder_overhead_ratio` uses to price pure emission.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn record(&mut self, _event: &Event) {}
}

/// Shared handle onto a [`VecRecorder`]'s event log.
#[derive(Debug, Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<Event>>>);

impl EventLog {
    /// A clone of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.0.lock().expect("event log poisoned").clone()
    }

    /// Events recorded so far.
    pub fn len(&self) -> usize {
        self.0.lock().expect("event log poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The recorded stream rendered as canonical JSONL (one event per
    /// line, trailing newline). Byte-comparable across runs.
    pub fn to_jsonl(&self) -> String {
        let log = self.0.lock().expect("event log poisoned");
        let mut out = String::new();
        for ev in log.iter() {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Clears the log.
    pub fn clear(&self) {
        self.0.lock().expect("event log poisoned").clear();
    }
}

/// An unbounded in-memory recorder; read through its [`EventLog`]
/// handle. Intended for tests, examples and the equivalence suite.
#[derive(Debug, Default)]
pub struct VecRecorder(Arc<Mutex<Vec<Event>>>);

impl VecRecorder {
    /// Creates a recorder plus a shared read handle onto its log.
    pub fn shared() -> (VecRecorder, EventLog) {
        let log = Arc::new(Mutex::new(Vec::new()));
        (VecRecorder(Arc::clone(&log)), EventLog(log))
    }
}

impl Recorder for VecRecorder {
    fn record(&mut self, event: &Event) {
        self.0
            .lock()
            .expect("event log poisoned")
            .push(event.clone());
    }

    fn record_all(&mut self, events: &[Event]) {
        self.0
            .lock()
            .expect("event log poisoned")
            .extend_from_slice(events);
    }
}

/// Shared handle onto a [`RingRecorder`]'s buffer.
#[derive(Debug, Clone)]
pub struct RingHandle(Arc<Mutex<RingState>>);

#[derive(Debug)]
struct RingState {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
}

impl RingHandle {
    /// The retained tail of the stream, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.0
            .lock()
            .expect("ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted to honour the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.0.lock().expect("ring poisoned").dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.0.lock().expect("ring poisoned").buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.0.lock().expect("ring poisoned").cap
    }
}

/// A bounded flight recorder: keeps the most recent `cap` events and
/// counts evictions, so a long run can always explain its final waves
/// without unbounded memory.
#[derive(Debug)]
pub struct RingRecorder(Arc<Mutex<RingState>>);

impl RingRecorder {
    /// Creates a ring of capacity `cap` (min 1) plus its read handle.
    pub fn shared(cap: usize) -> (RingRecorder, RingHandle) {
        let cap = cap.max(1);
        let state = Arc::new(Mutex::new(RingState {
            buf: VecDeque::with_capacity(cap),
            cap,
            dropped: 0,
        }));
        (RingRecorder(Arc::clone(&state)), RingHandle(state))
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: &Event) {
        let mut s = self.0.lock().expect("ring poisoned");
        if s.buf.len() == s.cap {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(event.clone());
    }

    fn record_all(&mut self, events: &[Event]) {
        let mut s = self.0.lock().expect("ring poisoned");
        // Of the run, only its last `cap` events can survive it.
        let keep = &events[events.len().saturating_sub(s.cap)..];
        let evict = (s.buf.len() + keep.len()).saturating_sub(s.cap);
        s.buf.drain(..evict);
        s.dropped += (evict + events.len() - keep.len()) as u64;
        s.buf.extend(keep.iter().cloned());
    }
}

/// Streams events as canonical JSONL (one event per line) to any
/// writer. Lines are identical to [`EventLog::to_jsonl`] output, so a
/// file written here feeds `saq-trace` directly.
pub struct JsonlRecorder<W: Write + Send> {
    out: W,
    line: String,
    lines: u64,
}

impl JsonlRecorder<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlRecorder::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlRecorder<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlRecorder {
            out,
            line: String::new(),
            lines: 0,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the inner writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write + Send> fmt::Debug for JsonlRecorder<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlRecorder")
            .field("lines", &self.lines)
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        // A trace writer must not abort the simulation on I/O trouble;
        // the summarizer detects truncated traces instead.
        let _ = self.out.write_all(self.line.as_bytes());
        self.lines += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FrameKind;

    fn ev(wave: u64) -> Event {
        Event::WaveStarted { wave, slots: 1 }
    }

    #[test]
    fn vec_recorder_shares_its_log() {
        let (mut rec, log) = VecRecorder::shared();
        assert!(log.is_empty());
        rec.record(&ev(1));
        rec.record(&ev(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[1], ev(2));
        assert_eq!(
            log.to_jsonl(),
            "{\"type\":\"WaveStarted\",\"wave\":1,\"slots\":1}\n\
             {\"type\":\"WaveStarted\",\"wave\":2,\"slots\":1}\n"
        );
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn ring_recorder_bounds_memory_and_counts_drops() {
        let (mut rec, ring) = RingRecorder::shared(3);
        for w in 0..10 {
            rec.record(&ev(w));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        assert_eq!(ring.dropped(), 7);
        assert_eq!(ring.events(), vec![ev(7), ev(8), ev(9)]);
    }

    #[test]
    fn runs_record_exactly_like_single_events() {
        let events: Vec<Event> = (0..20).map(ev).collect();
        for run in [1, 2, 3, 7, 20] {
            let (mut vec_rec, log) = VecRecorder::shared();
            for chunk in events.chunks(run) {
                vec_rec.record_all(chunk);
            }
            assert_eq!(log.events(), events, "vec sink, runs of {run}");
            for cap in [1, 3, 8, 64] {
                let (mut one, by_event) = RingRecorder::shared(cap);
                let (mut many, by_run) = RingRecorder::shared(cap);
                for e in &events {
                    one.record(e);
                }
                for chunk in events.chunks(run) {
                    many.record_all(chunk);
                }
                assert_eq!(
                    by_run.events(),
                    by_event.events(),
                    "cap {cap}, runs of {run}"
                );
                assert_eq!(
                    by_run.dropped(),
                    by_event.dropped(),
                    "cap {cap}, runs of {run}"
                );
            }
        }
    }

    #[test]
    fn jsonl_recorder_writes_parseable_lines() {
        let mut rec = JsonlRecorder::new(Vec::new());
        rec.record(&ev(3));
        rec.record(&Event::FrameSent {
            from: 1,
            to: 0,
            bits: 42,
            kind: FrameKind::Partial,
        });
        assert_eq!(rec.lines(), 2);
        let bytes = rec.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<Event> = text.lines().map(|l| Event::from_json(l).unwrap()).collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], ev(3));
    }

    #[test]
    fn null_recorder_discards() {
        let mut rec = NullRecorder;
        rec.record(&ev(0));
        assert!(rec.flush().is_ok());
    }
}
