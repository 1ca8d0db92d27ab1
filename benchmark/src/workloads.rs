//! The four workloads: what each deploys, what it feeds the stack per
//! round, and how every answer that comes back is checked.
//!
//! All four run closed-loop in host time (round *t+1* starts when
//! round *t* returns) through the public API of the real stack:
//! `FleetService` → `ContinuousEngine`/`StreamingEngine` → `SimNetwork`
//! → flat runner → codec. Work is fixed: the number of timed rounds is
//! a function of `--seconds` alone, so every simulated figure repeats
//! exactly for a seed.

use crate::meter::{Call, Meter};
use crate::rng::Rng;
use crate::schedule::{self, AdhocSchedule, FleetSchedule, LANE_LINK};
use crate::stats::Fingerprint;
use crate::truth::{Truth, XBAR};
use saq::core::engine::{BatchPolicy, QueryBits, QueryOutcome, QuerySpec};
use saq::core::service::{FleetRound, FleetService, FleetStats};
use saq::core::simnet::{SimNetwork, SimNetworkBuilder};
use saq::core::streaming::{AdmissionPolicy, StreamingEngine, StreamingReport};
use saq::core::QueryError;
use saq::netsim::link::LinkConfig;
use saq::netsim::sim::SimConfig;
use saq::netsim::time::SimDuration;
use saq::netsim::topology::Topology;
use saq::obs::{MetricsSnapshot, RingHandle, RingRecorder};
use saq::protocols::wave::Reliability;
use saq::protocols::CacheStats;
use std::time::Instant;

/// Tree fan-out of every deployment (`balanced_tree(N, 8)`,
/// `max_children(8)`).
pub const FANOUT: usize = 8;
/// Ring capacity of the lossy workload's flight recorder.
const RING_CAPACITY: usize = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Wave1e5,
    AdhocMix1e4,
    FleetStanding1e4,
    ProvenanceLossy1e4,
}

/// Worker threads for the sharded workloads: `min(nproc, 4)`, never
/// more threads than the machine has.
pub fn workers() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The size of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub n: usize,
    pub workers: usize,
    pub cache_entries: usize,
    pub lossy: bool,
    /// Untimed rounds that end set-up: caches filled, lazy buffers
    /// grown, multi-round plans overlapping as in steady state.
    pub warmup_rounds: u64,
    /// Timed rounds per requested second of measurement: what the
    /// 2-core reference box sustains, so a timed section lasts about
    /// `--seconds` there. Work is a function of `--seconds` alone — a
    /// faster simulator finishes the same rounds sooner.
    pub rounds_per_second: f64,
    /// Rounds after which the arrival schedule repeats its pattern of
    /// round kinds (the ad-hoc rotation spans 3 rounds, the fleet's
    /// refresh periods 8).
    pub period: usize,
    /// Fleet only: set-up registrations and item updates per round.
    pub registrations: usize,
    pub updates_per_round: usize,
}

impl Shape {
    /// Timed rounds for `seconds` of requested measurement.
    pub fn timed_rounds(&self, seconds: f64) -> u64 {
        ((self.rounds_per_second * seconds).round() as u64).max(8)
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Wave1e5,
        Workload::AdhocMix1e4,
        Workload::FleetStanding1e4,
        Workload::ProvenanceLossy1e4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Wave1e5 => "wave_1e5",
            Workload::AdhocMix1e4 => "adhoc_mix_1e4",
            Workload::FleetStanding1e4 => "fleet_standing_1e4",
            Workload::ProvenanceLossy1e4 => "provenance_lossy_1e4",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Full size, or the `--smoke` size (N = 1024, a few rounds).
    pub fn shape(self, smoke: bool) -> Shape {
        let fleet = self == Workload::FleetStanding1e4;
        let mut shape = match self {
            Workload::Wave1e5 => Shape {
                n: 100_000,
                workers: workers(),
                cache_entries: 0,
                lossy: false,
                warmup_rounds: 4,
                rounds_per_second: 3.4,
                period: 1,
                registrations: 0,
                updates_per_round: 0,
            },
            Workload::AdhocMix1e4 => Shape {
                n: 10_000,
                workers: workers(),
                cache_entries: 0,
                lossy: false,
                warmup_rounds: 16,
                rounds_per_second: 16.0,
                period: 3,
                registrations: 0,
                updates_per_round: 0,
            },
            Workload::FleetStanding1e4 => Shape {
                n: 10_000,
                workers: 1,
                cache_entries: 256,
                lossy: false,
                warmup_rounds: 16,
                rounds_per_second: 85.0,
                period: 8,
                registrations: 20_000,
                updates_per_round: 100,
            },
            Workload::ProvenanceLossy1e4 => Shape {
                n: 10_000,
                workers: 1,
                cache_entries: 0,
                lossy: true,
                warmup_rounds: 16,
                rounds_per_second: 13.0,
                period: 3,
                registrations: 0,
                updates_per_round: 0,
            },
        };
        if smoke {
            shape.n = 1024;
            shape.warmup_rounds = 4;
            shape.rounds_per_second = 24.0; // × the smoke run's 1 s
            if fleet {
                shape.registrations = 2_000;
                shape.updates_per_round = 10;
            }
        }
        shape
    }
}

/// The program's wall-clock lane (`SimNetwork::metrics().wall_phases()`),
/// live only while a recorder is attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallLane {
    pub wave_ns: u64,
    pub waves: u64,
    pub drain_ns: u64,
    pub drains: u64,
}

impl WallLane {
    fn read(net: &SimNetwork) -> WallLane {
        let mut lane = WallLane::default();
        for phase in net.metrics().wall_phases() {
            match phase.phase {
                "wave" => (lane.wave_ns, lane.waves) = (phase.nanos as u64, phase.samples),
                "drain" => (lane.drain_ns, lane.drains) = (phase.nanos as u64, phase.samples),
                _ => {}
            }
        }
        lane
    }
}

/// Program-side counters read before and after a section; the layer
/// metrics are their differences.
#[derive(Debug, Clone)]
pub struct Counters {
    pub rounds: u64,
    pub waves: u64,
    pub cache: CacheStats,
    pub metrics: MetricsSnapshot,
    pub wall: WallLane,
    pub fleet: Option<FleetStats>,
}

/// What the verifier and the simulated-cost accounting collect over a
/// section. Nothing here is timed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations handed to the program (submissions, registrations,
    /// deregistrations, item updates) plus fleet deliveries received.
    pub attempted: u64,
    /// Of those: refused, answered with an error, or rejected by the
    /// verifier.
    pub failed: u64,
    /// Answers delivered: ad-hoc retirements plus fleet deliveries.
    pub answered: u64,
    /// Bits billed to those answers (a fleet slot bills once).
    pub billed_bits: u64,
    pub latency_rounds: Vec<u64>,
    pub queue_rounds: Vec<u64>,
    /// Distinct slot refreshes seen in fleet rounds, and how many of
    /// them moved zero bits.
    pub refreshes: u64,
    pub zero_bit_refreshes: u64,
    /// Sum over rounds of the round's peak request envelope.
    pub envelope_bits: u64,
    /// Largest ARQ dedup footprint seen between rounds (traced only).
    pub dedup_entries_peak: u64,
    pub fingerprint: Fingerprint,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    fn outcome(
        &mut self,
        truth: &Truth,
        spec: Option<&QuerySpec>,
        outcome: &Result<QueryOutcome, QueryError>,
        bits: QueryBits,
    ) {
        self.fingerprint.bytes(format!("{outcome:?}").as_bytes());
        for part in [
            bits.request_bits,
            bits.partial_bits,
            bits.shared_overhead_bits,
        ] {
            self.fingerprint.u64(part);
        }
        match (spec, outcome) {
            (Some(spec), Ok(answer)) => {
                if let Err(why) = truth.check(spec, answer) {
                    self.fail(why);
                }
            }
            (None, _) => self.fail(format!("answer {outcome:?} to a query never asked")),
            (Some(spec), Err(e)) => self.fail(format!("{spec:?} failed: {e}")),
        }
    }

    /// Checks one retired ad-hoc query.
    fn adhoc(&mut self, truth: &Truth, specs: &[QuerySpec], report: &StreamingReport) {
        self.answered += 1;
        self.billed_bits += report.report.bits.total();
        self.latency_rounds.push(report.latency_rounds());
        self.queue_rounds.push(report.queueing_rounds());
        self.outcome(
            truth,
            specs.get(report.report.id),
            &report.report.outcome,
            report.report.bits,
        );
    }
}

/// One deployed stack under a workload's driver.
pub trait Driver {
    /// One service round: generate the round's inputs, hand them to
    /// the program inside spans, then verify what came back.
    ///
    /// # Errors
    ///
    /// A network or protocol failure that aborts the round; per-query
    /// failures go to the tally instead.
    fn round(&mut self, meter: &mut Meter, tally: &mut Tally) -> Result<(), String>;

    /// Ends a timed section: the streaming workloads drain in-flight
    /// plans with `run_until_idle`, and whatever was submitted and
    /// never answered is failed.
    ///
    /// # Errors
    ///
    /// As [`Driver::round`].
    fn finish(&mut self, meter: &mut Meter, tally: &mut Tally) -> Result<(), String>;

    fn service(&mut self) -> &mut StreamingEngine;
    fn net(&self) -> &SimNetwork;

    fn fleet_stats(&self) -> Option<FleetStats> {
        None
    }

    fn counters(&mut self) -> Counters {
        let fleet = self.fleet_stats();
        let service = self.service();
        Counters {
            rounds: service.rounds_executed(),
            waves: service.waves_issued(),
            cache: service.network().cache_stats(),
            metrics: service.network().metrics_snapshot(),
            wall: WallLane::read(service.network()),
            fleet,
        }
    }
}

/// Bookkeeping shared by both drivers after a `step`.
struct AfterStep {
    wall: WallLane,
}

impl AfterStep {
    fn record(&mut self, service: &mut StreamingEngine, meter: &mut Meter, tally: &mut Tally) {
        tally.envelope_bits += service.last_round_envelope_bits();
        if meter.traced() {
            let now = WallLane::read(service.network());
            meter.derived(
                "wave",
                now.wave_ns - self.wall.wave_ns,
                now.waves - self.wall.waves,
            );
            meter.derived(
                "drain",
                now.drain_ns - self.wall.drain_ns,
                now.drains - self.wall.drains,
            );
            self.wall = now;
            // An O(N) walk over transport state: traced pass only.
            let footprint = service.network().transport_footprint();
            tally.dedup_entries_peak = tally.dedup_entries_peak.max(footprint.dedup_entries);
        }
    }
}

enum Arrivals {
    /// The same mix every round (`wave_1e5`).
    Fixed(Vec<QuerySpec>),
    Rotation(AdhocSchedule),
}

/// Driver of the three `StreamingEngine` workloads.
struct StreamDriver {
    engine: StreamingEngine,
    arrivals: Arrivals,
    truth: Truth,
    /// Every submitted spec, by `QueryId` (ids are submission order).
    specs: Vec<QuerySpec>,
    retired: usize,
    after: AfterStep,
}

impl StreamDriver {
    fn check(&mut self, reports: &[StreamingReport], tally: &mut Tally) {
        self.retired += reports.len();
        for report in reports {
            tally.adhoc(&self.truth, &self.specs, report);
        }
    }
}

impl Driver for StreamDriver {
    fn round(&mut self, meter: &mut Meter, tally: &mut Tally) -> Result<(), String> {
        let arrivals = match &mut self.arrivals {
            Arrivals::Fixed(mix) => mix.clone(),
            Arrivals::Rotation(schedule) => schedule.next_round(),
        };
        let first_id = self.specs.len();
        self.specs.extend(arrivals.iter().cloned());
        tally.attempted += arrivals.len() as u64;
        let engine = &mut self.engine;
        let ids_in_order = meter.time(Call::Submit, arrivals.len() as u64, || {
            let mut next = first_id;
            arrivals.into_iter().fold(true, |ok, spec| {
                next += 1;
                ok & (engine.submit(spec) == next - 1)
            })
        });
        tally.expect(ids_in_order, || "submit returned an out-of-order id".into());
        let reports = meter
            .time(Call::Step, 1, || engine.step())
            .map_err(|e| format!("step failed: {e}"))?;
        self.after.record(engine, meter, tally);
        meter.end_round();
        self.check(&reports, tally);
        Ok(())
    }

    fn finish(&mut self, meter: &mut Meter, tally: &mut Tally) -> Result<(), String> {
        let engine = &mut self.engine;
        let reports = meter
            .time(Call::RunUntilIdle, 1, || engine.run_until_idle())
            .map_err(|e| format!("run_until_idle failed: {e}"))?;
        self.after.record(engine, meter, tally);
        self.check(&reports, tally);
        for lost in self.retired..self.specs.len() {
            tally.fail(format!("query {lost} was never answered"));
        }
        Ok(())
    }

    fn service(&mut self) -> &mut StreamingEngine {
        &mut self.engine
    }

    fn net(&self) -> &SimNetwork {
        self.engine.network()
    }
}

/// Driver of `fleet_standing_1e4`.
struct FleetDriver {
    fleet: FleetService,
    schedule: FleetSchedule,
    truth: Truth,
    /// Ad-hoc specs by `QueryId`.
    adhoc: Vec<QuerySpec>,
    retired: usize,
    after: AfterStep,
}

impl FleetDriver {
    fn check(&mut self, round: &FleetRound, tally: &mut Tally) {
        self.retired += round.retired.len();
        for report in &round.retired {
            tally.adhoc(&self.truth, &self.adhoc, report);
        }
        // Fan-out copies arrive grouped by (slot, refresh ordinal): the
        // first of a group is checked against ground truth, the rest
        // must be identical to it.
        let mut copies = round.refreshes.iter().peekable();
        while let Some(first) = copies.next() {
            let spec = self.schedule.spec_of(first.subscriber);
            tally.refreshes += 1;
            tally.zero_bit_refreshes += u64::from(first.slot_bits.total() == 0);
            tally.billed_bits += first.slot_bits.total();
            tally.attempted += 1;
            tally.answered += 1;
            tally.outcome(&self.truth, spec, &first.outcome, first.slot_bits);
            tally.fingerprint.u64(u64::from(first.fan_out));
            let mut delivered = 1;
            while let Some(copy) = copies.next_if(|c| (c.slot, c.seq) == (first.slot, first.seq)) {
                delivered += 1;
                tally.attempted += 1;
                tally.answered += 1;
                tally.expect(
                    copy.outcome == first.outcome
                        && copy.slot_bits == first.slot_bits
                        && self.schedule.spec_of(copy.subscriber) == spec,
                    || format!("slot {} fan-out copies differ", first.slot),
                );
            }
            tally.expect(delivered == first.fan_out, || {
                format!(
                    "slot {} delivered {delivered} of {} copies",
                    first.slot, first.fan_out
                )
            });
        }
    }
}

impl Driver for FleetDriver {
    fn round(&mut self, meter: &mut Meter, tally: &mut Tally) -> Result<(), String> {
        let plan = self.schedule.next_round();
        let fleet = &mut self.fleet;

        let updates: Vec<(usize, Vec<u64>)> = plan
            .updates
            .iter()
            .map(|&(node, v)| (node, vec![v]))
            .collect();
        let n_updates = updates.len() as u64;
        tally.attempted += n_updates;
        let refused = meter.time(Call::UpdateItems, n_updates, || {
            updates.into_iter().fold(0, |refused, (node, values)| {
                refused + u64::from(fleet.update_items(node, values).is_err())
            })
        });
        for _ in 0..refused {
            tally.fail("update_items refused an in-range update".into());
        }
        for &(node, value) in &plan.updates {
            self.truth.set(node, value);
        }

        let (spec, period) = plan.register;
        tally.attempted += 1;
        let sub = meter.time(Call::Register, 1, || fleet.register(spec, period));
        tally.expect(sub == Ok(plan.expect_sub), || {
            format!(
                "register gave {sub:?}, expected subscriber {}",
                plan.expect_sub
            )
        });

        tally.attempted += 1;
        let left = meter.time(Call::Deregister, 1, || fleet.deregister(plan.deregister));
        tally.expect(left, || {
            format!("deregister refused live subscriber {}", plan.deregister)
        });

        if let Some(spec) = plan.submit {
            tally.attempted += 1;
            self.adhoc.push(spec.clone());
            let id = meter.time(Call::Submit, 1, || fleet.submit(spec));
            tally.expect(id + 1 == self.adhoc.len(), || {
                "submit returned an out-of-order id".into()
            });
        }

        let round = meter
            .time(Call::Step, 1, || fleet.step())
            .map_err(|e| format!("step failed: {e}"))?;
        self.after.record(fleet.engine().service(), meter, tally);
        meter.end_round();
        self.check(&round, tally);
        Ok(())
    }

    fn finish(&mut self, _meter: &mut Meter, tally: &mut Tally) -> Result<(), String> {
        // Every ad-hoc query here is single-wave and retires in the
        // round it was submitted: nothing to drain.
        for lost in self.retired..self.adhoc.len() {
            tally.fail(format!("query {lost} was never answered"));
        }
        Ok(())
    }

    fn service(&mut self) -> &mut StreamingEngine {
        self.fleet.engine().service()
    }

    fn net(&self) -> &SimNetwork {
        self.fleet.network()
    }

    fn fleet_stats(&self) -> Option<FleetStats> {
        Some(self.fleet.fleet_stats())
    }
}

/// Where set-up time went, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology_ns: u64,
    pub build_ns: u64,
    pub register_ns: u64,
    pub warmup_ns: u64,
    pub total_ns: u64,
}

/// A workload's stack, deployed and warmed up.
pub struct Stack {
    pub driver: Box<dyn Driver>,
    pub setup: SetupTimes,
    /// The lossy workload's flight recorder.
    pub ring: Option<RingHandle>,
}

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Deploys `workload` at `shape` from `seed` and runs its warm-up
/// rounds: topology, tree and network build, registrations, warm-up.
///
/// # Errors
///
/// Construction failures, and any failed or wrong answer during
/// warm-up — a stack that is wrong before timing starts is not timed.
pub fn set_up(workload: Workload, shape: &Shape, seed: u64) -> Result<Stack, String> {
    let start = Instant::now();
    let items = schedule::items(seed, shape.n);

    let t = Instant::now();
    let topo = Topology::balanced_tree(shape.n, FANOUT).map_err(|e| e.to_string())?;
    let topology_ns = ns_since(t);

    let t = Instant::now();
    let mut builder = SimNetworkBuilder::new()
        .max_children(FANOUT)
        .flat(true)
        .shards(shape.workers)
        .partial_cache(shape.cache_entries);
    if shape.lossy {
        // The E18 settings: 10 % loss repaired by per-hop ARQ.
        builder = builder
            .sim_config(
                SimConfig::default()
                    .with_link(LinkConfig::default().with_loss(0.1))
                    .with_seed(Rng::new(seed, LANE_LINK).next_u64()),
            )
            .reliability(Reliability::Ack {
                timeout: SimDuration::from_millis(200),
            });
    }
    let mut net = builder
        .build_one_per_node(&topo, &items, XBAR)
        .map_err(|e| e.to_string())?;
    let build_ns = ns_since(t);
    drop(topo);

    let ring = shape.lossy.then(|| {
        let (recorder, handle) = RingRecorder::shared(RING_CAPACITY);
        net.attach_recorder(Box::new(recorder));
        handle
    });
    let truth = Truth::new(items);
    let after = AfterStep {
        wall: WallLane::default(),
    };

    let mut register_ns = 0;
    let mut driver: Box<dyn Driver> = if workload == Workload::FleetStanding1e4 {
        let mut fleet = FleetService::new(net);
        let mut schedule = FleetSchedule::new(seed, shape.n, shape.updates_per_round);
        let pairs: Vec<_> = (0..shape.registrations)
            .map(|_| schedule.initial_registration())
            .collect();
        let t = Instant::now();
        for (spec, period) in pairs {
            fleet.register(spec, period).map_err(|e| e.to_string())?;
        }
        register_ns = ns_since(t);
        Box::new(FleetDriver {
            fleet,
            schedule,
            truth,
            adhoc: Vec::new(),
            retired: 0,
            after,
        })
    } else {
        Box::new(StreamDriver {
            engine: StreamingEngine::with_policy(
                net,
                BatchPolicy::Batched,
                AdmissionPolicy::EveryRound,
            ),
            arrivals: match workload {
                Workload::Wave1e5 => Arrivals::Fixed(schedule::wave_mix()),
                _ => Arrivals::Rotation(AdhocSchedule::new(seed)),
            },
            truth,
            specs: Vec::new(),
            retired: 0,
            after,
        })
    };

    let t = Instant::now();
    let mut tally = Tally::default();
    let mut meter = Meter::new(false);
    for _ in 0..shape.warmup_rounds {
        driver.round(&mut meter, &mut tally)?;
    }
    if tally.failed > 0 {
        return Err(format!("warm-up failed: {}", tally.failures.join("; ")));
    }
    Ok(Stack {
        driver,
        setup: SetupTimes {
            topology_ns,
            build_ns,
            register_ns,
            warmup_ns: ns_since(t),
            total_ns: ns_since(start),
        },
        ring,
    })
}
