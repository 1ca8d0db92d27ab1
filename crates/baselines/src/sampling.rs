//! Uniform-sampling median — the Nath et al. \[10\] comparator.
//!
//! An order- and duplicate-insensitive bottom-k synopsis flows up the
//! tree: each item enters with a hash key drawn from its `(node, slot)`
//! identity, the network keeps the `k` smallest keys (a uniform sample of
//! the item population), and the root answers the median of the sample.
//!
//! Costs `Θ(k·log N)` bits per node and delivers rank error
//! `Θ(N/√k)` — in the paper's framing:
//!
//! > *"they propose using their tool to solve the median problem
//! > approximately by uniform sampling; in our terms, the complexity of
//! > that algorithm is Ω(log N) communication bits per node, as opposed
//! > to our polyloglog approximate algorithm."*

use crate::BaselineOutcome;
use saq_core::QueryError;
use saq_netsim::rng::derive_seed;
use saq_netsim::sim::{NodeId, SimConfig};
use saq_netsim::topology::Topology;
use saq_netsim::wire::{width_for_max, BitReader, BitWriter};
use saq_netsim::NetsimError;
use saq_protocols::wave::Reliability;
use saq_protocols::{Envelope, SpanningTree, WaveProtocol, WaveRunner, WaveSubstrate};
use saq_sketches::{BottomK, HashFamily};

/// Wave protocol carrying bottom-k sample synopses.
#[derive(Debug, Clone)]
pub struct SampleWave {
    /// Declared maximum item value.
    pub xbar: u64,
    /// Sample capacity.
    pub k: usize,
    /// Hash seed (shared network-wide).
    pub seed: u64,
}

impl SampleWave {
    fn value_width(&self) -> u32 {
        width_for_max(self.xbar)
    }
}

impl WaveProtocol for SampleWave {
    /// Per-query nonce for fresh sampling keys.
    type Request = u16;
    type Partial = BottomK;
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();

    fn encode_request(&self, req: &u16, w: &mut BitWriter) {
        w.write_bits(*req as u64, 16);
    }

    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u16, NetsimError> {
        Ok(r.read_bits(16)? as u16)
    }

    fn encode_partial(&self, _req: &Self::Request, p: &BottomK, w: &mut BitWriter) {
        w.write_bits(p.len() as u64, 16);
        for (key, value) in p.entries() {
            // 32-bit truncated keys: collisions are immaterial for
            // sampling and it halves the wire cost.
            w.write_bits(key >> 32, 32);
            w.write_bits(*value, self.value_width());
        }
    }

    fn decode_partial(
        &self,
        _req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<BottomK, NetsimError> {
        let len = r.read_bits(16)? as usize;
        let mut s = BottomK::new(self.k, self.value_width());
        for _ in 0..len {
            let key = r.read_bits(32)? << 32;
            let value = r.read_bits(self.value_width())?;
            s.insert(key, value);
        }
        Ok(s)
    }

    fn local(&self, node: NodeId, items: &mut [u64], req: &u16) -> BottomK {
        let h = HashFamily::new(derive_seed(self.seed, *req as u64, 0));
        let mut s = BottomK::new(self.k, self.value_width());
        for (idx, &v) in items.iter().enumerate() {
            // Key from the item identity: uniform, duplicate-stable.
            // Keys are truncated to their top 32 bits *at insertion* so
            // local and decoded synopses live in the same key space.
            let key = h.hash_pair(node as u64, idx as u64) & (u64::MAX << 32);
            s.insert(key, v);
        }
        s
    }

    /// The child's pairs inserted as its frame decodes them: keys cut
    /// to their top 32 bits. A sample from [`local`](Self::local) is
    /// already cut, so this is `BottomK::merge_from` of it.
    fn absorb_partial(
        &self,
        _req: &u16,
        acc: &mut BottomK,
        child: &BottomK,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        for &(key, value) in child.entries() {
            acc.insert(key & (u64::MAX << 32), value);
        }
        Ok(())
    }
}

/// The tree runner runs it bare: one slot, never cached.
impl Envelope for SampleWave {}

/// The sampling median runner.
#[derive(Debug, Clone, Copy)]
pub struct SamplingMedian {
    /// Sample size `k`.
    pub k: usize,
    /// Hash seed.
    pub seed: u64,
}

impl SamplingMedian {
    /// Creates a runner with sample capacity `k`.
    pub fn new(k: usize, seed: u64) -> Self {
        SamplingMedian { k: k.max(1), seed }
    }

    /// Runs one sampling convergecast and answers the sample median.
    ///
    /// # Errors
    ///
    /// [`QueryError::EmptyInput`] on an empty multiset; protocol errors
    /// are propagated.
    pub fn run(
        &self,
        topo: &Topology,
        cfg: SimConfig,
        items_per_node: Vec<Vec<u64>>,
        xbar: u64,
    ) -> Result<BaselineOutcome, QueryError> {
        let tree = SpanningTree::bfs_bounded(topo, 0, 3).map_err(QueryError::from)?;
        let proto = SampleWave {
            xbar,
            k: self.k,
            seed: self.seed,
        };
        let mut runner =
            WaveRunner::new(topo, cfg, &tree, proto, items_per_node, Reliability::None)
                .map_err(QueryError::from)?;
        let sample = runner.run_wave(1).map_err(QueryError::from)?;
        let value = sample.median().ok_or(QueryError::EmptyInput)?;
        let stats = runner.stats().clone();
        Ok(BaselineOutcome {
            value,
            max_node_bits: stats.max_node_bits(),
            mean_node_bits: stats.mean_node_bits(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_core::model::rank_lt;

    #[test]
    fn sample_median_near_true_median() {
        let topo = Topology::grid(16, 16).unwrap();
        let n = 256u64;
        let items: Vec<u64> = (0..n).map(|i| (i * 97) % 1024).collect();
        let per_node: Vec<Vec<u64>> = items.iter().map(|&v| vec![v]).collect();
        let out = SamplingMedian::new(64, 42)
            .run(&topo, SimConfig::default(), per_node, 1024)
            .unwrap();
        // Rank error ~ n/sqrt(k) = 32; allow 3x.
        let rank = rank_lt(&items, out.value) as i64;
        assert!(
            (rank - n as i64 / 2).unsigned_abs() < 96,
            "sample median {} at rank {rank}",
            out.value
        );
    }

    #[test]
    fn bigger_samples_cost_more_bits() {
        let topo = Topology::grid(8, 8).unwrap();
        let items: Vec<Vec<u64>> = (0..64u64).map(|v| vec![v * 3]).collect();
        let small = SamplingMedian::new(8, 1)
            .run(&topo, SimConfig::default(), items.clone(), 1024)
            .unwrap();
        let large = SamplingMedian::new(64, 1)
            .run(&topo, SimConfig::default(), items, 1024)
            .unwrap();
        assert!(large.max_node_bits > small.max_node_bits);
    }

    #[test]
    fn empty_input_rejected() {
        let topo = Topology::line(2).unwrap();
        let err = SamplingMedian::new(8, 1)
            .run(&topo, SimConfig::default(), vec![vec![], vec![]], 10)
            .unwrap_err();
        assert!(matches!(err, QueryError::EmptyInput));
    }

    /// The absorb is `BottomK::merge_from` of the child's decoded frame,
    /// entry for entry: for a sample from `local` (keys already cut to
    /// 32 bits) and for one whose keys are not cut, which the frame cuts.
    #[test]
    fn absorb_is_merge_from_of_the_decoded_child() {
        use saq_sketches::DistinctSketch;
        let proto = SampleWave {
            xbar: 1000,
            k: 8,
            seed: 3,
        };
        let mut uncut = BottomK::new(8, proto.value_width());
        for i in 0..20u64 {
            uncut.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i * 41 % 1001);
        }
        for n in [0u64, 3, 30] {
            let mut xs: Vec<u64> = (0..n).map(|i| i * 37 % 1001).collect();
            let mut ys: Vec<u64> = (0..n + 2).map(|i| i * 53 % 1001).collect();
            let acc = proto.local(0, &mut xs, &7);
            let child = proto.local(1, &mut ys, &7);
            for child in [&child, &uncut] {
                let mut w = BitWriter::new();
                proto.encode_partial(&7, child, &mut w);
                let frame = w.finish();
                let decoded = proto
                    .decode_partial(&7, &mut BitReader::new(&frame))
                    .unwrap();
                let mut expected = acc.clone();
                expected.merge_from(&decoded);
                let mut absorbed = acc.clone();
                proto
                    .absorb_partial(&7, &mut absorbed, child, None)
                    .unwrap();
                assert_eq!(absorbed.entries(), expected.entries(), "n = {n}");
            }
        }
    }
}
