//! One-pass tree aggregation of mergeable quantile summaries — the
//! Greenwald–Khanna \[4\] comparator.
//!
//! Every node summarizes its subtree: merge the children's summaries with
//! its own items, prune to `k + 1` entries, forward. One convergecast
//! answers **any** quantile at the root with certified rank error
//! `≤ Σ prune losses ≈ height · N/(2k)` — the trade the paper describes:
//!
//! > *"The algorithm in \[4\], however, can compute deterministically,
//! > after one pass over the data and O((log N)^3) communication bits,
//! > any approximate order statistic. In contrast, our randomized
//! > approximate algorithm computes only a single order statistic, but it
//! > does it using exponentially fewer communication bits."*
//!
//! Per-node message: `O(k·(log X̄ + log N))` bits; choosing
//! `k = Θ(height/ε)` yields an ε-approximate all-quantiles summary.

use crate::BaselineOutcome;
use saq_core::QueryError;
use saq_netsim::sim::{NodeId, SimConfig};
use saq_netsim::topology::Topology;
use saq_netsim::wire::{width_for_max, BitReader, BitWriter};
use saq_netsim::NetsimError;
use saq_protocols::wave::Reliability;
use saq_protocols::{Envelope, SpanningTree, WaveProtocol, WaveRunner, WaveSubstrate};
use saq_sketches::quantile::{QEntry, QuantileSummary};

/// Wave protocol carrying pruned quantile summaries up the tree.
#[derive(Debug, Clone)]
pub struct GkWave {
    /// Declared maximum item value (for wire widths).
    pub xbar: u64,
    /// Upper bound on represented items (rank wire width).
    pub max_count: u64,
}

impl GkWave {
    fn value_width(&self) -> u32 {
        width_for_max(self.xbar)
    }

    fn rank_width(&self) -> u32 {
        width_for_max(self.max_count.max(1))
    }
}

impl WaveProtocol for GkWave {
    /// The prune parameter `k`.
    type Request = u32;
    type Partial = QuantileSummary;
    type Item = u64;
    type ItemDelta = ();
    type DeltaKey = ();

    fn encode_request(&self, req: &u32, w: &mut BitWriter) {
        w.write_bits(*req as u64, 16);
    }

    fn decode_request(&self, r: &mut BitReader<'_>) -> Result<u32, NetsimError> {
        Ok(r.read_bits(16)? as u32)
    }

    fn encode_partial(&self, _req: &Self::Request, p: &QuantileSummary, w: &mut BitWriter) {
        w.write_bits(p.count(), self.rank_width());
        w.write_bits(p.len() as u64, 16);
        for e in p.entries() {
            w.write_bits(e.value, self.value_width());
            w.write_bits(e.rmin, self.rank_width());
            w.write_bits(e.rmax, self.rank_width());
        }
    }

    fn decode_partial(
        &self,
        _req: &Self::Request,
        r: &mut BitReader<'_>,
    ) -> Result<QuantileSummary, NetsimError> {
        let count = r.read_bits(self.rank_width())?;
        let len = r.read_bits(16)? as usize;
        let mut entries = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            let value = r.read_bits(self.value_width())?;
            let rmin = r.read_bits(self.rank_width())?;
            let rmax = r.read_bits(self.rank_width())?;
            if rmin > rmax || rmax > count {
                return Err(NetsimError::WireDecode("gk entry ranks invalid"));
            }
            entries.push(QEntry { value, rmin, rmax });
        }
        QuantileSummary::from_parts(entries, count)
            .map_err(|_| NetsimError::WireDecode("gk summary not sorted"))
    }

    fn local(&self, _node: NodeId, items: &mut [u64], req: &u32) -> QuantileSummary {
        let mut sorted = items.to_vec();
        sorted.sort_unstable();
        let mut s = QuantileSummary::from_sorted(&sorted);
        s.prune(*req as usize);
        s
    }

    /// The child's summary merged in place, then pruned to `req`. Its
    /// codec carries every entry exactly, so a summary is its own
    /// wire-normal form.
    fn absorb_partial(
        &self,
        req: &u32,
        acc: &mut QuantileSummary,
        child: &QuantileSummary,
        _first_of: Option<usize>,
    ) -> Result<(), NetsimError> {
        acc.merge_from(child);
        acc.prune(*req as usize);
        Ok(())
    }
}

/// The tree runner runs it bare: one slot, never cached.
impl Envelope for GkWave {}

/// Outcome of the GK-tree protocol: the common cost fields plus the
/// summary's certified error and all-quantiles capability.
#[derive(Debug, Clone, PartialEq)]
pub struct GkOutcome {
    /// Cost summary (value = median estimate).
    pub base: BaselineOutcome,
    /// The root summary's certified worst-case rank error.
    pub certified_rank_error: u64,
    /// The full root summary (answers any quantile).
    pub summary: QuantileSummary,
}

/// The GK-tree median runner.
#[derive(Debug, Clone, Copy)]
pub struct GkTreeMedian {
    /// Prune parameter `k`: summaries keep at most `k + 1` entries.
    pub k: u32,
}

impl GkTreeMedian {
    /// Creates a runner with prune parameter `k` (≥ 2).
    pub fn new(k: u32) -> Self {
        GkTreeMedian { k: k.max(2) }
    }

    /// Runs one summary convergecast on the given deployment and reads
    /// the median (and certified error) from the root summary.
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
    ) -> Result<GkOutcome, QueryError> {
        let total: u64 = items_per_node.iter().map(|v| v.len() as u64).sum();
        let tree = SpanningTree::bfs_bounded(topo, 0, 3).map_err(QueryError::from)?;
        let proto = GkWave {
            xbar,
            max_count: total.max(1),
        };
        let mut runner =
            WaveRunner::new(topo, cfg, &tree, proto, items_per_node, Reliability::None)
                .map_err(QueryError::from)?;
        let summary = runner.run_wave(self.k).map_err(QueryError::from)?;
        if summary.is_empty() {
            return Err(QueryError::EmptyInput);
        }
        let value = summary
            .query_rank(summary.count().div_ceil(2))
            .expect("nonempty summary answers queries");
        let stats = runner.stats().clone();
        Ok(GkOutcome {
            base: BaselineOutcome {
                value,
                max_node_bits: stats.max_node_bits(),
                mean_node_bits: stats.mean_node_bits(),
                stats,
            },
            certified_rank_error: summary.max_rank_error(),
            summary,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saq_core::model::rank_lt;

    fn run_on_grid(side: usize, k: u32) -> (GkOutcome, Vec<u64>) {
        let topo = Topology::grid(side, side).unwrap();
        let n = side * side;
        let items: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 1000).collect();
        let per_node: Vec<Vec<u64>> = items.iter().map(|&v| vec![v]).collect();
        let out = GkTreeMedian::new(k)
            .run(&topo, SimConfig::default(), per_node, 1000)
            .unwrap();
        (out, items)
    }

    #[test]
    fn median_within_certified_error() {
        let (out, items) = run_on_grid(8, 16);
        let n = items.len() as u64;
        let got_rank_lo = rank_lt(&items, out.base.value);
        let got_rank_hi = rank_lt(&items, out.base.value + 1);
        let err = out.certified_rank_error;
        let target = n.div_ceil(2);
        assert!(
            got_rank_lo <= target + err && got_rank_hi + err >= target,
            "median {} ranks [{got_rank_lo},{got_rank_hi}] vs target {target} ± {err}",
            out.base.value
        );
    }

    #[test]
    fn larger_k_means_tighter_error_and_more_bits() {
        let (small_k, _) = run_on_grid(8, 8);
        let (large_k, _) = run_on_grid(8, 64);
        assert!(large_k.certified_rank_error <= small_k.certified_rank_error);
        assert!(large_k.base.max_node_bits > small_k.base.max_node_bits);
    }

    #[test]
    fn all_quantiles_from_one_pass() {
        let (out, items) = run_on_grid(6, 32);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        let err = out.certified_rank_error;
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let got = out.summary.query_quantile(phi).unwrap();
            let target = ((phi * n as f64).ceil() as u64).clamp(1, n);
            let lo = rank_lt(&items, got);
            let hi = rank_lt(&items, got + 1);
            assert!(
                lo <= target + err && hi + err >= target,
                "phi={phi}: value {got} ranks [{lo},{hi}] vs {target} ± {err}"
            );
        }
    }

    #[test]
    fn empty_input_rejected() {
        let topo = Topology::line(3).unwrap();
        let err = GkTreeMedian::new(8)
            .run(
                &topo,
                SimConfig::default(),
                vec![vec![], vec![], vec![]],
                10,
            )
            .unwrap_err();
        assert!(matches!(err, QueryError::EmptyInput));
    }

    /// The absorb is `QuantileSummary::merged` then `prune`, entry for
    /// entry, of the child or of its decoded frame alike: over summaries
    /// small enough to stay exact and large enough to prune.
    #[test]
    fn absorb_is_merged_then_pruned() {
        let proto = GkWave {
            xbar: 1000,
            max_count: 1000,
        };
        for k in [2u32, 5, 64] {
            for (a, b) in [(0..1, 0..0), (0..3, 3..7), (0..150, 150..400)] {
                let mut xs: Vec<u64> = a.map(|i: u64| i * 37 % 1001).collect();
                let mut ys: Vec<u64> = b.map(|i: u64| i * 53 % 1001).collect();
                let acc = proto.local(0, &mut xs, &k);
                let child = proto.local(1, &mut ys, &k);
                let mut expected = QuantileSummary::merged(&acc, &child);
                expected.prune(k as usize);

                let mut w = BitWriter::new();
                proto.encode_partial(&k, &child, &mut w);
                let frame = w.finish();
                let decoded = proto
                    .decode_partial(&k, &mut BitReader::new(&frame))
                    .unwrap();
                for child in [&child, &decoded] {
                    let mut absorbed = acc.clone();
                    proto
                        .absorb_partial(&k, &mut absorbed, child, None)
                        .unwrap();
                    assert_eq!(absorbed.entries(), expected.entries(), "k = {k}");
                    assert_eq!(absorbed.count(), expected.count());
                }
            }
        }
    }
}
