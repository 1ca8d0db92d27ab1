//! One workload run: the untraced pass that yields the end-to-end
//! metrics, and the traced pass that yields the per-layer ones.

use crate::json::{num, obj, s, Json};
use crate::kernels::{self, Metrics};
use crate::meter::{self, Call, Meter};
use crate::stats::{median, percentile, percentile_of, samples_beyond};
use crate::workloads::{set_up, Counters, Driver, Shape, Stack, Tally, Workload};
use saq::core::net::AggregationNetwork;
use saq::obs::{MetricsSnapshot, NullRecorder};
use std::hint::black_box;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds of each arm of the recorder on/off comparison.
const RECORDER_AB_ROUNDS: u64 = 20;

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl RunSpec {
    fn shape(&self) -> Shape {
        self.workload.shape(self.smoke)
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Hash over every answer, every bill and the final per-node
    /// tx/rx bits. Not a metric: equal seeds on equal code must agree.
    pub sim_fingerprint: u64,
    /// Round and sample counts, for the run's provenance line.
    pub info: Json,
}

/// One timed stretch of rounds on a deployed stack.
struct Section {
    meter: Meter,
    tally: Tally,
    before: Counters,
    after: Counters,
    wall_ns: u64,
}

impl Section {
    /// Runs `rounds` rounds, and `finish` if the section ends the run.
    fn run(
        driver: &mut dyn Driver,
        rounds: u64,
        traced: bool,
        finish: bool,
    ) -> Result<Section, String> {
        let before = driver.counters();
        let mut meter = Meter::new(traced);
        let mut tally = Tally::default();
        let start = Instant::now();
        for _ in 0..rounds {
            driver.round(&mut meter, &mut tally)?;
        }
        if finish {
            driver.finish(&mut meter, &mut tally)?;
        }
        let wall_ns = start.elapsed().as_nanos() as u64;
        let after = driver.counters();
        Ok(Section {
            meter,
            tally,
            before,
            after,
            wall_ns,
        })
    }

    /// Difference of one deterministic telemetry counter.
    fn metric(&self, field: fn(&MetricsSnapshot) -> u64) -> f64 {
        (field(&self.after.metrics) - field(&self.before.metrics)) as f64
    }

    /// Median time inside the program per round, in ns, where one
    /// sample is the mean over one period of the arrival schedule.
    /// Rounds of one period differ by design (on the fleet five in
    /// eight carry no `Quantile` repair and are nearly free); a median
    /// over single rounds would see only the commoner kind and miss a
    /// regression in the other.
    fn round_p50_ns(&self, period: usize) -> f64 {
        let mut periods: Vec<u64> = self
            .meter
            .round_samples
            .chunks_exact(period)
            .map(|rounds| rounds.iter().sum::<u64>() / period as u64)
            .collect();
        percentile_of(&mut periods, 0.5) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` has none.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fixed pure-CPU kernel, in ns: the noisy-box canary. It touches no
/// memory to speak of, so when it slows the box is busy, not the code.
fn calibrate() -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..2_000_000u64 {
                x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ i;
            }
            black_box(x);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// The canary's fields of a provenance line. A canary that moved by
/// more than a twentieth between the start and the end of a run means
/// the box was busy: the run is marked `noisy` and its host figures
/// deserve a second look.
fn canary_info(before: f64, after: f64) -> [(&'static str, Json); 3] {
    let drift = (after - before).abs() / before;
    [
        ("calib_ns", num((before + after) / 2.0)),
        ("calib_drift", num(drift)),
        ("noisy", Json::Bool(drift > 0.05)),
    ]
}

/// The untraced pass: [`SETUPS`] set-ups (the last one is kept), then
/// the timed section, ended by `run_until_idle` where plans can still
/// be in flight.
///
/// # Errors
///
/// Set-up or round failures of the stack itself.
pub fn end_to_end(spec: &RunSpec) -> Result<RunOutput, String> {
    let shape = spec.shape();
    let calib_before = calibrate();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut stack: Option<Stack> = None;
    for _ in 0..SETUPS {
        drop(stack.take()); // one deployment resident at a time
        let next = set_up(spec.workload, &shape, spec.seed)?;
        setups.push(next.setup.total_ns as f64 / 1e9);
        stack = Some(next);
    }
    let mut stack = stack.expect("SETUPS > 0");
    let driver = stack.driver.as_mut();

    driver.service().network_mut().reset_stats();
    let rounds = shape.timed_rounds(spec.seconds);
    let mut section = Section::run(driver, rounds, false, true)?;
    let rss = peak_rss_mib();

    let stats = driver
        .net()
        .net_stats()
        .expect("simulated network keeps stats");
    let fp = &mut section.tally.fingerprint;
    for node in stats.iter() {
        fp.u64(node.tx_bits);
        fp.u64(node.rx_bits);
    }
    let messages: u64 = stats.iter().map(|node| node.tx_packets).sum();
    let executed = (section.after.rounds - section.before.rounds) as f64;
    let round_p50_ms = section.round_p50_ns(shape.period) / 1e6;
    let Section { meter, tally, .. } = &mut section;
    let latency_samples = tally.latency_rounds.len();
    tally.latency_rounds.sort_unstable();
    let latency = |p| percentile(&tally.latency_rounds, p).unwrap_or(0) as f64;

    let metrics = vec![
        (
            "rounds_per_s",
            ratio(executed, meter.program_ns() as f64 / 1e9),
        ),
        ("round_ms_p50", round_p50_ms),
        ("setup_s", median(&mut setups)),
        ("peak_rss_mib", rss),
        (
            "bits_per_query",
            ratio(tally.billed_bits as f64, tally.answered as f64),
        ),
        (
            "max_node_bits_per_round",
            ratio(stats.max_node_bits() as f64, executed),
        ),
        (
            "tx_bits_per_round",
            ratio(stats.total_tx_bits() as f64, executed),
        ),
        ("messages_per_round", ratio(messages as f64, executed)),
        ("latency_rounds_p50", latency(0.5)),
        ("latency_rounds_p95", latency(0.95)),
        ("queries_answered", tally.answered as f64),
    ];
    Ok(RunOutput {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: std::mem::take(&mut tally.failures),
        sim_fingerprint: tally.fingerprint.value(),
        info: obj([
            ("timed_rounds", num(executed)),
            ("warmup_rounds", num(shape.warmup_rounds as f64)),
            ("round_samples", num(meter.round_samples.len() as f64)),
            ("latency_samples", num(latency_samples as f64)),
            (
                "latency_samples_beyond_p95",
                num(samples_beyond(latency_samples, 0.95) as f64),
            ),
            ("setups", num(SETUPS as f64)),
        ]
        .into_iter()
        .chain(canary_info(calib_before, calibrate()))),
    })
}

/// The recorder on/off comparison of the lossy workload: the same
/// rounds on two fresh deployments, one with its ring recorder
/// detached. Returns on ÷ off median round time.
fn recorder_ab(spec: &RunSpec, shape: &Shape) -> Result<f64, String> {
    let arm = |recorder_on: bool| -> Result<f64, String> {
        let mut stack = set_up(spec.workload, shape, spec.seed)?;
        if !recorder_on {
            stack.driver.service().network_mut().detach_recorder();
        }
        let rounds = RECORDER_AB_ROUNDS.min(shape.timed_rounds(spec.seconds));
        Ok(Section::run(stack.driver.as_mut(), rounds, false, false)?.round_p50_ns(shape.period))
    };
    let off = arm(false)?;
    Ok(ratio(arm(true)?, off))
}

/// The traced pass: one set-up, a quarter of the timed rounds
/// untraced (the baseline of `stack.trace_overhead_ratio`), a quarter
/// traced, then the single-layer kernels. Spans go to `spans`.
///
/// # Errors
///
/// As [`end_to_end`], plus a kernel whose output is wrong.
pub fn traced(spec: &RunSpec, spans: &mut Vec<meter::Span>) -> Result<RunOutput, String> {
    let shape = spec.shape();
    let calib_before = calibrate();
    let mut stack = set_up(spec.workload, &shape, spec.seed)?;
    let setup = stack.setup;
    let driver = stack.driver.as_mut();
    let rounds = (shape.timed_rounds(spec.seconds) / 4).max(4);

    let untraced = Section::run(driver, rounds, false, false)?;

    // Workloads without a recorder get the discarding one, so the
    // program's wall-clock lane (`wave`, `drain`) and its deterministic
    // counters are live.
    if stack.ring.is_none() {
        driver
            .service()
            .network_mut()
            .attach_recorder(Box::new(NullRecorder));
    }
    let ring_events = |ring: &Option<saq::obs::RingHandle>| {
        ring.as_ref()
            .map_or((0, 0), |r| (r.len() as u64 + r.dropped(), r.dropped()))
    };
    let (events_before, dropped_before) = ring_events(&stack.ring);
    let allocs_before = meter::allocations();
    meter::count_allocations(true);
    let mut section = Section::run(driver, rounds, true, false)?;
    meter::count_allocations(false);
    let allocs = meter::allocations() - allocs_before;
    let (events_after, dropped_after) = ring_events(&stack.ring);

    // Drain what is still in flight so every answer is checked; this
    // is outside both sections.
    let mut rest = Tally::default();
    driver.finish(&mut Meter::new(false), &mut rest)?;
    spans.append(&mut section.meter.spans);

    // Per-call times come from the untraced quarter, where no recorder
    // taxes the program; only the wave/drain split — which the program
    // measures itself, and only with a recorder attached — and what is
    // derived from it come from the traced quarter.
    let t = &section;
    let per_op = |c: Call| {
        let total = untraced.meter.total(c);
        ratio(total.ns as f64, total.ops as f64)
    };
    let traced_rounds = t.meter.round_samples.len() as f64;
    let step = t.meter.total(Call::Step);
    let step_ns = step.ns as f64;
    let wave_ns = (t.after.wall.wave_ns - t.before.wall.wave_ns) as f64;
    let drain_ns = (t.after.wall.drain_ns - t.before.wall.drain_ns) as f64;
    let wall_waves = (t.after.wall.waves - t.before.wall.waves) as f64;
    let drains = (t.after.wall.drains - t.before.wall.drains) as f64;
    let waves = (t.after.waves - t.before.waves) as f64;
    let step_per_round = per_op(Call::Step);
    let self_per_round = ratio(step_ns - wave_ns - drain_ns, step.ops as f64);
    let is_fleet = t.after.fleet.is_some();
    let (service_step, stream_step) = if is_fleet {
        ((step_per_round, self_per_round), (0.0, 0.0))
    } else {
        ((0.0, 0.0), (step_per_round, self_per_round))
    };
    let fleet = |field: fn(&saq::core::service::FleetStats) -> u64| -> f64 {
        match (&t.before.fleet, &t.after.fleet) {
            (Some(b), Some(a)) => (field(a) - field(b)) as f64,
            _ => 0.0,
        }
    };
    let cache = |field: fn(&saq::protocols::CacheStats) -> u64| -> f64 {
        (field(&t.after.cache) - field(&t.before.cache)) as f64
    };
    let frame_bits = t.metric(|m| m.frame_bits_total());
    let frames = t.metric(|m| m.data_frames + m.retransmits + m.ack_frames);
    let billed = t.metric(|m| m.header_bits + m.envelope_bits)
        + t.metric(|m| m.slot_request_bits + m.slot_partial_bits);

    let mut untraced_samples = untraced.meter.round_samples.clone();
    untraced_samples.sort_unstable();
    let decile = (untraced_samples.len() / 10).max(1);
    let in_order = &untraced.meter.round_samples;
    let p50_of = |window: &[u64]| percentile_of(&mut window.to_vec(), 0.5) as f64;
    let ms = |p| percentile(&untraced_samples, p).unwrap_or(0) as f64 / 1e6;
    let mut queue = t.tally.queue_rounds.clone();

    let mut metrics: Metrics = vec![
        ("stack.round_ms_p95", ms(0.95)),
        ("stack.round_ms_p99", ms(0.99)),
        (
            "stack.round_ms_drift",
            ratio(
                p50_of(&in_order[in_order.len() - decile..]),
                p50_of(&in_order[..decile]),
            ),
        ),
        (
            "stack.allocs_per_round",
            ratio(allocs as f64, traced_rounds),
        ),
        (
            "stack.trace_overhead_ratio",
            ratio(
                t.round_p50_ns(shape.period),
                untraced.round_p50_ns(shape.period),
            ),
        ),
        (
            "stack.harness_overhead_share",
            1.0 - ratio(untraced.meter.program_ns() as f64, untraced.wall_ns as f64),
        ),
        ("core.service.step_ns_per_round", service_step.0),
        ("core.service.self_ns_per_round", service_step.1),
        ("core.service.register_ns_per_op", per_op(Call::Register)),
        (
            "core.service.deregister_ns_per_op",
            per_op(Call::Deregister),
        ),
        (
            "core.service.fanout_per_refresh",
            ratio(fleet(|f| f.queries_served), fleet(|f| f.slot_refreshes)),
        ),
        (
            "core.service.slot_refreshes_per_round",
            ratio(fleet(|f| f.slot_refreshes), traced_rounds),
        ),
        (
            "core.service.coalesced_share",
            ratio(fleet(|f| f.coalesced), fleet(|f| f.registrations)),
        ),
        (
            "core.service.orphan_refreshes",
            (fleet(|f| f.slot_refreshes) - t.tally.refreshes as f64).max(0.0),
        ),
        (
            "core.continuous.update_ns_per_item",
            per_op(Call::UpdateItems),
        ),
        (
            "core.continuous.refresh_bits_per_refresh",
            ratio(fleet(|f| f.slot_refresh_bits), fleet(|f| f.slot_refreshes)),
        ),
        (
            "core.continuous.zero_bit_refresh_share",
            ratio(t.tally.zero_bit_refreshes as f64, t.tally.refreshes as f64),
        ),
        ("core.streaming.step_ns_per_round", stream_step.0),
        ("core.streaming.self_ns_per_round", stream_step.1),
        ("core.streaming.submit_ns_per_op", per_op(Call::Submit)),
        (
            "core.streaming.waves_per_round",
            ratio(waves, traced_rounds),
        ),
        (
            "core.streaming.slots_per_wave",
            ratio(t.metric(|m| m.envelope_slots.total), waves),
        ),
        (
            "core.streaming.envelope_bits_per_round",
            ratio(t.tally.envelope_bits as f64, traced_rounds),
        ),
        (
            "core.streaming.queue_rounds_p50",
            percentile_of(&mut queue, 0.5) as f64,
        ),
        ("core.simnet.wave_ns_per_wave", ratio(wave_ns, wall_waves)),
        ("core.simnet.wave_share", ratio(wave_ns, step_ns)),
        (
            "core.simnet.messages_per_wave",
            ratio(t.metric(|m| m.messages), t.metric(|m| m.waves)),
        ),
        (
            "core.simnet.header_bits_per_wave",
            ratio(t.metric(|m| m.header_bits), t.metric(|m| m.waves)),
        ),
        (
            "core.simnet.build_ns_per_node",
            setup.build_ns as f64 / shape.n as f64,
        ),
        (
            "protocols.cache.hit_share",
            ratio(cache(|c| c.hits), cache(|c| c.hits + c.misses)),
        ),
        (
            "protocols.cache.delta_applied_per_round",
            ratio(cache(|c| c.delta_applied), traced_rounds),
        ),
        (
            "protocols.cache.delta_invalidated_per_round",
            ratio(cache(|c| c.delta_invalidated), traced_rounds),
        ),
        (
            "protocols.cache.resident_entries",
            t.after.cache.entries as f64,
        ),
        (
            "protocols.wave.envelope_bits_share",
            ratio(t.metric(|m| m.header_bits + m.envelope_bits), billed),
        ),
        (
            "protocols.wave.retx_frames_share",
            ratio(t.metric(|m| m.retransmits), frames),
        ),
        (
            "protocols.wave.dedup_entries_peak",
            t.tally.dedup_entries_peak as f64,
        ),
        (
            "netsim.wire.frame_bits_per_message",
            ratio(t.metric(|m| m.data_frame_bits), t.metric(|m| m.data_frames)),
        ),
        (
            "netsim.topology.build_ns_per_node",
            setup.topology_ns as f64 / shape.n as f64,
        ),
        (
            "netsim.link.retx_bits_share",
            ratio(t.metric(|m| m.retransmit_bits), frame_bits),
        ),
        (
            "netsim.link.ack_bits_share",
            ratio(t.metric(|m| m.ack_frame_bits), frame_bits),
        ),
        ("obs.drain_ns_per_wave", ratio(drain_ns, drains)),
        ("obs.drain_share", ratio(drain_ns, step_ns)),
        (
            "obs.events_per_wave",
            ratio((events_after - events_before) as f64, waves),
        ),
        (
            "obs.ring_dropped_share",
            ratio(
                (dropped_after - dropped_before) as f64,
                (events_after - events_before) as f64,
            ),
        ),
    ];

    // The flat-wave kernel's scale point is the first workload's N.
    let big_n = Workload::Wave1e5.shape(spec.smoke).n;
    metrics.extend(kernels::run(driver.net(), shape.n, big_n, spec.seed)?);
    metrics.push((
        "obs.recorder_overhead_ratio",
        if stack.ring.is_some() {
            recorder_ab(spec, &shape)?
        } else {
            0.0
        },
    ));
    let calib_after = calibrate();
    metrics.push(("stack.calib_ns", (calib_before + calib_after) / 2.0));

    let attempted = untraced.tally.attempted + t.tally.attempted;
    let failed = untraced.tally.failed + t.tally.failed + rest.failed;
    let mut failures = untraced.tally.failures;
    failures.extend(section.tally.failures);
    failures.extend(rest.failures);
    Ok(RunOutput {
        metrics,
        attempted,
        failed,
        failures,
        sim_fingerprint: section.tally.fingerprint.value(),
        info: obj([
            ("untraced_rounds", num(rounds as f64)),
            ("traced_rounds", num(traced_rounds)),
            ("spans", num(spans.len() as f64)),
            (
                "recorder",
                s(if stack.ring.is_some() { "ring" } else { "null" }),
            ),
        ]
        .into_iter()
        .chain(canary_info(calib_before, calib_after))),
    })
}
