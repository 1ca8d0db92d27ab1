//! Network health audit: firmware inventory and robust counting.
//!
//! ```text
//! cargo run --release --example network_health
//! ```
//!
//! An operator wants to know **how many distinct firmware versions** are
//! deployed (a COUNT_DISTINCT query — the paper's §5 aggregate) and how
//! many nodes are alive, over a radio layer that *duplicates* packets
//! (multipath, as in the synopsis-diffusion line of work).
//!
//! The demo shows:
//! 1. exact vs approximate distinct counts and their per-node bit cost;
//! 2. the duplication hazard: a duplicate-sensitive COUNT inflates on the
//!    multipath rings overlay, the ODI sketch count does not.

use saq::core::simnet::SimNetworkBuilder;
use saq::core::CountDistinct;
use saq::netsim::link::LinkConfig;
use saq::netsim::rng::Xoshiro256StarStar;
use saq::netsim::sim::{NodeId, SimConfig};
use saq::netsim::topology::Topology;
use saq::netsim::wire::{BitReader, BitWriter};
use saq::netsim::NetsimError;
use saq::protocols::rings::RingsRunner;
use saq::protocols::wave::WaveProtocol;
use saq::sketches::{DistinctSketch, HashFamily, LogLog};

/// Duplicate-sensitive alive-count for the rings overlay.
#[derive(Debug, Clone)]
struct AliveCount;

/// The largest count [`AliveCount`]'s 24-bit frame carries.
const ALIVE_MAX: u64 = (1 << 24) - 1;

impl WaveProtocol for AliveCount {
    type Request = ();
    type Partial = u64;
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();
    fn encode_request(&self, _r: &(), _w: &mut BitWriter) {}
    fn decode_request(&self, _r: &mut BitReader<'_>) -> Result<(), NetsimError> {
        Ok(())
    }
    fn encode_partial(&self, _req: &Self::Request, p: &u64, w: &mut BitWriter) {
        // Saturating: multipath duplication can blow the sum past any
        // fixed counter width — exactly the failure mode under study.
        w.write_bits((*p).min(ALIVE_MAX), 24);
    }
    fn decode_partial(
        &self,
        _req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<u64, NetsimError> {
        r.read_bits(24)
    }
    fn local(&self, _n: NodeId, items: &mut [u64], _r: &()) -> u64 {
        items.len() as u64
    }
    /// Adds the child as its frame carries it: saturated at `ALIVE_MAX`.
    fn absorb_partial(
        &self,
        _r: &(),
        acc: &mut u64,
        child: &u64,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        *acc += (*child).min(ALIVE_MAX);
        Ok(())
    }
}

/// ODI alive-count: LogLog keyed by node identity.
#[derive(Debug, Clone)]
struct AliveSketch;

impl WaveProtocol for AliveSketch {
    type Request = ();
    type Partial = LogLog;
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();
    fn encode_request(&self, _r: &(), _w: &mut BitWriter) {}
    fn decode_request(&self, _r: &mut BitReader<'_>) -> Result<(), NetsimError> {
        Ok(())
    }
    fn encode_partial(&self, _req: &Self::Request, p: &LogLog, w: &mut BitWriter) {
        for &reg in p.registers() {
            w.write_bits(reg as u64, 7);
        }
    }
    fn decode_partial(
        &self,
        _req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<LogLog, NetsimError> {
        let mut regs = Vec::with_capacity(64);
        for _ in 0..64 {
            regs.push(r.read_bits(7)? as u8);
        }
        LogLog::from_registers(6, regs).map_err(|_| NetsimError::WireDecode("regs"))
    }
    fn local(&self, node: NodeId, _items: &mut [u64], _r: &()) -> LogLog {
        let mut sk = LogLog::new(6);
        sk.insert_hash(HashFamily::new(0xA11CE).hash(node as u64));
        sk
    }
    fn absorb_partial(
        &self,
        _r: &(),
        acc: &mut LogLog,
        child: &LogLog,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        acc.merge_from(child);
        Ok(())
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 225usize;
    let topo = Topology::grid(15, 15)?;
    // Firmware versions: most nodes on v7, stragglers on older builds.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF1A4);
    let firmware: Vec<u64> = (0..n)
        .map(|_| match rng.next_below(100) {
            0..=79 => 7,
            80..=92 => 6,
            93..=97 => 5,
            _ => 1 + rng.next_below(4),
        })
        .collect();
    let mut truth: Vec<u64> = firmware.clone();
    truth.sort_unstable();
    truth.dedup();

    // --- Part 1: firmware inventory over the reliable tree.
    let mut net = SimNetworkBuilder::new().build_one_per_node(&topo, &firmware, 15)?;
    let exact = CountDistinct::new().exact(&mut net)?;
    // The one-call health bundle: bit extremes, transport occupancy and
    // cache counters together (see `SimNetwork::observability_snapshot`).
    let exact_bits = net.observability_snapshot().max_node_bits;
    net.reset_stats();
    let approx = CountDistinct::new().approximate(&mut net, 8)?;
    let health = net.observability_snapshot();
    let approx_bits = health.max_node_bits;
    println!("firmware versions deployed (truth {}):", truth.len());
    println!(
        "  exact COUNT_DISTINCT : {} ({exact_bits} bits/node)",
        exact.count
    );
    println!(
        "  sketch estimate      : {:.1} ({approx_bits} bits/node, sigma {:.2})",
        approx.estimate, approx.sigma
    );
    println!("\ndeployment health after the sketch query:");
    println!("  nodes                : {}", health.nodes);
    println!("  waves run            : {}", health.waves_run);
    println!(
        "  busiest node         : {} bits (network total {})",
        health.max_node_bits, health.total_bits
    );
    println!(
        "  packets transmitted  : {} (peak envelope {} slots / {} framing bits)",
        health.total_tx_packets, health.peak_wave_slots, health.peak_wave_envelope_bits
    );
    println!(
        "  transport residue    : {} entries between waves (bounded)",
        health.transport.total()
    );

    // --- Part 2: alive count over duplicating multipath.
    println!("\nalive-node count over multipath rings (duplication 0.3):");
    let cfg = SimConfig::default().with_link(LinkConfig::default().with_duplication(0.3));
    let items: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64]).collect();
    let mut naive = RingsRunner::new(&topo, cfg.clone(), 0, AliveCount, items.clone(), 512)?;
    let naive_count = naive.run_epoch(())?;
    let mut sketch = RingsRunner::new(&topo, cfg, 0, AliveSketch, items, 512)?;
    let sketch_count = sketch.run_epoch(())?.estimate();
    println!("  duplicate-sensitive sum : {naive_count}  (true {n} — multipath inflates it)");
    println!("  ODI LogLog sketch       : {sketch_count:.1}  (duplication-proof)");

    Ok(())
}
