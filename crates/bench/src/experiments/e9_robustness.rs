//! E9 — robustness: duplication and loss (the \[2\]/\[10\] motivation).
//!
//! The paper's §1 contrasts the fragile spanning tree with
//! duplicate-insensitive synopses: *"to improve robustness, the spanning
//! tree condition is relaxed to allow for arbitrary duplication by the
//! communication subsystem"*. Two tables:
//!
//! 1. **Synopsis diffusion** (multipath rings): exact COUNT inflates with
//!    the number of redundant paths; the ODI `APX_COUNT` sketch is
//!    unaffected by construction.
//! 2. **Loss on the tree**: without ARQ a lossy wave dies; with per-hop
//!    acknowledgements it completes at a constant-factor bit overhead.

use crate::table::{banner, f3, Table};
use crate::Scale;
use saq_core::counting::ApxCountConfig;
use saq_core::net::AggregationNetwork;
use saq_core::predicate::Predicate;
use saq_core::simnet::SimNetworkBuilder;
use saq_netsim::link::LinkConfig;
use saq_netsim::sim::{NodeId, SimConfig};
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_netsim::wire::{BitReader, BitWriter};
use saq_netsim::NetsimError;
use saq_protocols::rings::RingsRunner;
use saq_protocols::wave::{Reliability, WaveProtocol};
use saq_sketches::{DistinctSketch, HashFamily, LogLog};

/// Machine-checkable summary for tests.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `(duplication probability, naive count rel error, sketch rel error)`.
    pub dup_rows: Vec<(f64, f64, f64)>,
    /// `(loss probability, ack-mode bit overhead factor)`.
    pub loss_rows: Vec<(f64, f64)>,
}

/// Duplicate-sensitive count over the rings overlay.
#[derive(Debug, Clone)]
struct RingCount;

/// The largest count [`RingCount`]'s 32-bit frame carries.
const RING_COUNT_MAX: u64 = (1 << 32) - 1;

impl WaveProtocol for RingCount {
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
        w.write_bits((*p).min(RING_COUNT_MAX), 32);
    }
    fn decode_partial(
        &self,
        _req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<u64, NetsimError> {
        r.read_bits(32)
    }
    fn local(&self, _n: NodeId, items: &mut [u64], _r: &()) -> u64 {
        items.len() as u64
    }
    /// Adds the child as its frame carries it: saturated at
    /// `RING_COUNT_MAX`.
    fn absorb_partial(
        &self,
        _r: &(),
        acc: &mut u64,
        child: &u64,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        *acc += (*child).min(RING_COUNT_MAX);
        Ok(())
    }
}

/// ODI count (LogLog keyed by item identity) over the rings overlay.
#[derive(Debug, Clone)]
struct RingSketchCount {
    b: u32,
    seed: u64,
}

impl WaveProtocol for RingSketchCount {
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
        let m = 1usize << self.b;
        let mut regs = Vec::with_capacity(m);
        for _ in 0..m {
            regs.push(r.read_bits(7)? as u8);
        }
        LogLog::from_registers(self.b, regs)
            .map_err(|_| NetsimError::WireDecode("ring sketch registers"))
    }
    fn local(&self, node: NodeId, items: &mut [u64], _r: &()) -> LogLog {
        let h = HashFamily::new(self.seed);
        let mut sk = LogLog::new(self.b);
        for (idx, _) in items.iter().enumerate() {
            sk.insert_hash(h.hash_pair(node as u64, idx as u64));
        }
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

/// Runs E9 and prints its tables.
pub fn run(scale: Scale) -> Summary {
    banner(
        "E9",
        "robustness: multipath duplication and lossy links",
        "duplicate-sensitive COUNT inflates under multipath; ODI sketches don't; ARQ completes lossy waves at constant overhead",
    );

    // --- Part 1: duplication via synopsis diffusion.
    let side = match scale {
        Scale::Quick => 8usize,
        Scale::Full => 16,
    };
    let n = side * side;
    let trials = match scale {
        Scale::Quick => 5u64,
        Scale::Full => 15,
    };
    println!("multipath rings on a {side}x{side} grid (N={n}), extra duplication swept:");
    let mut dup_table = Table::new(&[
        "dup_p",
        "naive count",
        "naive rel err",
        "sketch est",
        "sketch rel err",
    ]);
    let mut dup_rows = Vec::new();
    for dup in [0.0, 0.25, 0.5] {
        let mut naive_sum = 0.0;
        let mut sketch_sum = 0.0;
        for t in 0..trials {
            let topo = Topology::grid(side, side).expect("grid");
            let cfg = SimConfig::default()
                .with_link(LinkConfig::default().with_duplication(dup))
                .with_seed(0xE9_00 + t);
            let items: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64]).collect();
            let mut naive = RingsRunner::new(&topo, cfg.clone(), 0, RingCount, items.clone(), 512)
                .expect("rings");
            naive_sum += naive.run_epoch(()).expect("epoch") as f64;
            let mut sketch = RingsRunner::new(
                &topo,
                cfg,
                0,
                RingSketchCount {
                    b: 6,
                    seed: 0x5EED + t,
                },
                items,
                512,
            )
            .expect("rings");
            sketch_sum += sketch.run_epoch(()).expect("epoch").estimate();
        }
        let naive_mean = naive_sum / trials as f64;
        let sketch_mean = sketch_sum / trials as f64;
        let naive_err = (naive_mean - n as f64) / n as f64;
        let sketch_err = (sketch_mean - n as f64) / n as f64;
        dup_table.row(&[
            format!("{dup}"),
            f3(naive_mean),
            f3(naive_err),
            f3(sketch_mean),
            f3(sketch_err),
        ]);
        dup_rows.push((dup, naive_err, sketch_err));
    }
    dup_table.print();

    // --- Part 2: loss on the tree with and without ARQ.
    println!("\ntree COUNT under loss (grid {side}x{side}):");
    let mut loss_table = Table::new(&[
        "loss_p",
        "no-ARQ result",
        "ARQ result",
        "ARQ bits/node",
        "overhead vs lossless",
    ]);
    let mut loss_rows = Vec::new();
    let lossless_bits = {
        let topo = Topology::grid(side, side).expect("grid");
        let items: Vec<u64> = (0..n as u64).collect();
        let mut net = SimNetworkBuilder::new()
            .build_one_per_node(&topo, &items, 4 * n as u64)
            .expect("net");
        net.count(&Predicate::TRUE).expect("count");
        net.net_stats().expect("stats").max_node_bits()
    };
    for loss in [0.05, 0.15, 0.3] {
        let topo = Topology::grid(side, side).expect("grid");
        let items: Vec<u64> = (0..n as u64).collect();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(loss))
            .with_seed(0xE9_77);
        // Without ARQ the wave usually dies.
        let no_arq = {
            let mut net = SimNetworkBuilder::new()
                .sim_config(cfg.clone())
                .build_one_per_node(&topo, &items, 4 * n as u64)
                .expect("net");
            match net.count(&Predicate::TRUE) {
                Ok(c) => format!("{c}"),
                Err(_) => "stalled".into(),
            }
        };
        // With ARQ it completes exactly.
        let mut net = SimNetworkBuilder::new()
            .sim_config(cfg)
            .reliability(Reliability::Ack {
                timeout: SimDuration::from_millis(40),
            })
            .apx_config(ApxCountConfig::default())
            .build_one_per_node(&topo, &items, 4 * n as u64)
            .expect("net");
        let arq_count = net.count(&Predicate::TRUE).expect("ARQ count");
        assert_eq!(arq_count, n as u64, "ARQ must deliver the exact count");
        let bits = net.net_stats().expect("stats").max_node_bits();
        let overhead = bits as f64 / lossless_bits as f64;
        loss_table.row(&[
            format!("{loss}"),
            no_arq,
            arq_count.to_string(),
            bits.to_string(),
            f3(overhead),
        ]);
        loss_rows.push((loss, overhead));
    }
    loss_table.print();

    Summary {
        dup_rows,
        loss_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A count past the 32-bit frame is absorbed as the frame carries
    /// it, saturated, whether or not it crossed the wire.
    #[test]
    fn ring_count_absorbs_a_child_as_its_saturated_frame() {
        for child in [7, RING_COUNT_MAX, RING_COUNT_MAX + 1, u64::MAX / 2] {
            let mut w = BitWriter::new();
            RingCount.encode_partial(&(), &child, &mut w);
            let frame = w.finish();
            let wire = RingCount
                .decode_partial(&(), &mut BitReader::new(&frame))
                .unwrap();
            assert_eq!(wire, child.min(RING_COUNT_MAX));
            let mut acc = 5;
            RingCount
                .absorb_partial(&(), &mut acc, &child, None)
                .unwrap();
            assert_eq!(acc, 5 + wire, "child {child}");
        }
    }
}
