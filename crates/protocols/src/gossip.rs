//! Push-sum gossip (Kempe, Dobra & Gehrke, FOCS 2003).
//!
//! The paper's §1 cites \[6\] as the best randomized comparator for
//! order statistics: `O((log N)^3)` bits per node under ideal "diffusion
//! speed". This module provides the substrate: the **push-sum** protocol
//! for sums/counts/averages, run in synchronous rounds. Each node keeps a
//! `(sum, weight)` pair; every round it halves both and sends one half to
//! a uniformly random neighbour. The ratio `sum/weight` converges to the
//! network-wide average at a rate governed by the graph's conductance
//! (complete graphs: `O(log N)` rounds).
//!
//! The gossip *median* baseline built on top of this lives in
//! `saq-baselines`; experiment E10 measures convergence and per-node bits.
//!
//! Values travel as 48-bit fixed-point numbers (32.16): enough precision
//! for the counts the baselines need while keeping messages `Θ(log N)`
//! bits, as the analysis assumes.

use crate::error::ProtocolError;
use saq_netsim::rng::{derive_seed, Xoshiro256StarStar};
use saq_netsim::sim::{Context, NodeId, NodeRuntime, SimConfig, Simulator};
use saq_netsim::stats::NetStats;
use saq_netsim::time::SimDuration;
use saq_netsim::topology::Topology;
use saq_netsim::wire::{BitReader, BitString, BitWriter};

/// Fixed-point scale: 16 fractional bits.
const FP_SHIFT: u32 = 16;
/// Wire width of one fixed-point value.
const FP_BITS: u32 = 48;
const TAG_ROUND: u64 = 1;

fn to_fp(x: f64) -> u64 {
    let v = (x * (1u64 << FP_SHIFT) as f64).round();
    // Clamp into the representable range; weights/sums in push-sum shrink,
    // they never grow past the initial network totals.
    v.clamp(0.0, ((1u128 << FP_BITS) - 1) as f64) as u64
}

fn from_fp(v: u64) -> f64 {
    v as f64 / (1u64 << FP_SHIFT) as f64
}

/// Per-node state for push-sum.
#[derive(Debug)]
pub struct PushSumNode {
    /// Current sum share.
    pub sum: f64,
    /// Current weight share.
    pub weight: f64,
    /// Inbox accumulated during the current round.
    inbox_sum: f64,
    inbox_weight: f64,
    /// Rounds still to run after the current one.
    rounds_left: u32,
    /// Gap between rounds (set at construction).
    round_gap: SimDuration,
    /// The node's own stream, which draws the peer of every push.
    rng: Xoshiro256StarStar,
}

impl PushSumNode {
    /// The node's current estimate of the network average `Σx / Σw`.
    pub fn estimate(&self) -> f64 {
        if self.weight > 0.0 {
            self.sum / self.weight
        } else {
            0.0
        }
    }

    fn message(sum: f64, weight: f64) -> BitString {
        let mut w = BitWriter::new();
        w.write_bits(to_fp(sum), FP_BITS);
        w.write_bits(to_fp(weight), FP_BITS);
        w.finish()
    }
}

impl NodeRuntime for PushSumNode {
    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag != TAG_ROUND {
            return;
        }
        // Fold in everything received last round.
        self.sum += self.inbox_sum;
        self.weight += self.inbox_weight;
        self.inbox_sum = 0.0;
        self.inbox_weight = 0.0;

        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;

        // Halve and push to a uniformly random neighbour.
        let degree = ctx.neighbors().len();
        if degree > 0 {
            let idx = self.rng.next_below(degree as u64) as usize;
            let pick = ctx.neighbors()[idx];
            self.sum /= 2.0;
            self.weight /= 2.0;
            ctx.send(pick, Self::message(self.sum, self.weight));
        }
        ctx.set_timer(self.round_gap, TAG_ROUND);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _from: NodeId, payload: &BitString) {
        let mut r = BitReader::new(payload);
        let (Ok(s), Ok(w)) = (r.read_bits(FP_BITS), r.read_bits(FP_BITS)) else {
            return;
        };
        self.inbox_sum += from_fp(s);
        self.inbox_weight += from_fp(w);
    }
}

/// Result of a push-sum run.
#[derive(Debug, Clone, PartialEq)]
pub struct PushSumOutcome {
    /// The root's final estimate of `Σ values / Σ weights`.
    pub root_estimate: f64,
    /// Every node's final estimate (for convergence studies).
    pub estimates: Vec<f64>,
}

/// Runs `rounds` of synchronous push-sum over `topo`.
///
/// `values[i]` is node `i`'s initial sum; `weights[i]` its initial weight.
/// With all weights 1 the estimate converges to the average; with only the
/// root's weight 1 it converges to the network **sum** (hence COUNT with
/// all values 1).
///
/// # Errors
///
/// Returns [`ProtocolError::ShapeMismatch`] on input length mismatches and
/// propagates simulator errors.
///
/// # Examples
///
/// ```
/// use saq_netsim::topology::Topology;
/// use saq_netsim::sim::SimConfig;
/// use saq_protocols::gossip::run_push_sum;
///
/// # fn main() -> Result<(), saq_protocols::ProtocolError> {
/// let topo = Topology::complete(32)?;
/// // COUNT: every node holds 1; only the root carries weight.
/// let values = vec![1.0; 32];
/// let mut weights = vec![0.0; 32];
/// weights[0] = 1.0;
/// let (out, _stats) = run_push_sum(&topo, SimConfig::default(), &values, &weights, 40)?;
/// assert!((out.root_estimate - 32.0).abs() / 32.0 < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn run_push_sum(
    topo: &Topology,
    cfg: SimConfig,
    values: &[f64],
    weights: &[f64],
    rounds: u32,
) -> Result<(PushSumOutcome, NetStats), ProtocolError> {
    if values.len() != topo.len() || weights.len() != topo.len() {
        return Err(ProtocolError::ShapeMismatch("values/weights vs topology"));
    }
    let round_gap =
        cfg.link.delay_for(2 * FP_BITS as u64) + cfg.link.jitter + SimDuration::from_micros(300);
    let nodes: Vec<PushSumNode> = (0..topo.len())
        .map(|i| PushSumNode {
            sum: values[i],
            weight: weights[i],
            inbox_sum: 0.0,
            inbox_weight: 0.0,
            rounds_left: rounds,
            round_gap,
            rng: Xoshiro256StarStar::seed_from_u64(derive_seed(cfg.seed, i as u64, 1)),
        })
        .collect();
    let mut sim = Simulator::with_nodes(topo.clone(), cfg, nodes);
    for v in 0..topo.len() {
        sim.kick(v, TAG_ROUND);
    }
    sim.run_until_quiescent()?;
    // One final fold for messages received in the last round.
    for v in 0..topo.len() {
        sim.kick(v, TAG_ROUND);
    }
    sim.run_until_quiescent()?;
    let estimates: Vec<f64> = (0..topo.len()).map(|v| sim.node(v).estimate()).collect();
    Ok((
        PushSumOutcome {
            root_estimate: estimates[0],
            estimates,
        },
        sim.stats().clone(),
    ))
}

/// Convenience: estimates the node count via push-sum (all values 1, only
/// the root weighted).
///
/// # Errors
///
/// See [`run_push_sum`].
pub fn gossip_count(
    topo: &Topology,
    cfg: SimConfig,
    rounds: u32,
) -> Result<(f64, NetStats), ProtocolError> {
    let values = vec![1.0; topo.len()];
    let mut weights = vec![0.0; topo.len()];
    weights[0] = 1.0;
    let (out, stats) = run_push_sum(topo, cfg, &values, &weights, rounds)?;
    Ok((out.root_estimate, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_roundtrip() {
        for x in [0.0, 1.0, 0.5, 1234.25, 65535.9] {
            assert!((from_fp(to_fp(x)) - x).abs() < 1e-3, "x={x}");
        }
    }

    #[test]
    fn average_on_complete_graph() {
        let topo = Topology::complete(24).unwrap();
        let values: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let weights = vec![1.0; 24];
        let (out, _) = run_push_sum(&topo, SimConfig::default(), &values, &weights, 40).unwrap();
        let avg = values.iter().sum::<f64>() / 24.0;
        for (i, e) in out.estimates.iter().enumerate() {
            assert!(
                (e - avg).abs() / avg < 0.05,
                "node {i} estimate {e} vs {avg}"
            );
        }
    }

    #[test]
    fn count_on_complete_graph() {
        let topo = Topology::complete(50).unwrap();
        let (c, _) = gossip_count(&topo, SimConfig::default(), 60).unwrap();
        assert!((c - 50.0).abs() / 50.0 < 0.05, "count estimate {c}");
    }

    #[test]
    fn count_on_grid_converges_slower_but_gets_there() {
        let topo = Topology::grid(5, 5).unwrap();
        let (c, _) = gossip_count(&topo, SimConfig::default(), 400).unwrap();
        assert!((c - 25.0).abs() / 25.0 < 0.10, "count estimate {c}");
    }

    #[test]
    fn mass_conservation() {
        // Total sum and weight are invariant (up to fixed-point rounding).
        let topo = Topology::ring(12).unwrap();
        let values: Vec<f64> = (0..12).map(|i| (i * 3) as f64).collect();
        let weights = vec![1.0; 12];
        let (out, _) = run_push_sum(&topo, SimConfig::default(), &values, &weights, 100).unwrap();
        // Everyone's estimate should be near the average; mass cannot be
        // created.
        let avg = values.iter().sum::<f64>() / 12.0;
        for e in &out.estimates {
            assert!(
                (e - avg).abs() < avg * 0.2 + 0.5,
                "estimate {e} vs avg {avg}"
            );
        }
    }

    #[test]
    fn bits_per_round_are_constant() {
        let topo = Topology::complete(16).unwrap();
        let (_, s1) = gossip_count(&topo, SimConfig::default(), 10).unwrap();
        let (_, s2) = gossip_count(&topo, SimConfig::default(), 20).unwrap();
        // Twice the rounds, about twice the max per-node traffic (within
        // 3x slack: random neighbor choice skews receive counts).
        let r = s2.max_node_bits() as f64 / s1.max_node_bits() as f64;
        assert!(r > 1.3 && r < 3.5, "ratio {r}");
    }

    #[test]
    fn shape_mismatch_rejected() {
        let topo = Topology::line(3).unwrap();
        let err =
            run_push_sum(&topo, SimConfig::default(), &[1.0], &[1.0, 1.0, 1.0], 5).unwrap_err();
        assert!(matches!(err, ProtocolError::ShapeMismatch(_)));
    }
}
