//! Per-node communication accounting.
//!
//! The paper's central cost measure (§2.1):
//!
//! > *"the communication complexity of a protocol \[is\] the maximum, over
//! > all inputs, of the number of bits transmitted and received by any
//! > node. We stress that our communication complexity measure is
//! > individual."*
//!
//! [`NetStats`] tracks transmitted and received bits and packets per node,
//! and [`NetStats::max_node_bits`] is exactly the paper's per-execution
//! individual communication complexity. The experiment harness takes the
//! max of this quantity over many sampled inputs to estimate the
//! worst-case measure.

use crate::energy::{EnergyLedger, EnergyModel};

/// Communication counters for a single node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStats {
    /// Bits transmitted by this node.
    pub tx_bits: u64,
    /// Bits received by this node.
    pub rx_bits: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Radio energy spent.
    pub energy: EnergyLedger,
}

impl NodeStats {
    /// Bits transmitted plus received: the paper's per-node communication
    /// cost.
    pub fn total_bits(&self) -> u64 {
        self.tx_bits + self.rx_bits
    }
}

/// Traffic on one spanning-tree edge, tallied at the edge's **child**
/// endpoint (every non-root node owns exactly one tree edge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeLinkBits {
    /// Bits scheduled parent → child.
    pub down: u64,
    /// Bits scheduled child → parent.
    pub up: u64,
}

impl TreeLinkBits {
    /// Bits in both directions.
    pub fn total(&self) -> u64 {
        self.down + self.up
    }
}

/// `tree_parent` entry of a node without a declared tree edge.
const NO_PARENT: usize = usize::MAX;

/// Communication statistics for a whole network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetStats {
    nodes: Vec<NodeStats>,
    energy_model: EnergyModel,
    /// Parent of each node on the declared spanning tree ([`NO_PARENT`]
    /// for the root); empty unless built by [`NetStats::with_tree`].
    tree_parent: Vec<usize>,
    /// Dense ledger of the declared tree's edges, indexed by child id —
    /// a convergecast runner charges 2·(N−1) of these per wave, which is
    /// what keeps that off the hash map below.
    tree_links: Vec<TreeLinkBits>,
    /// Directed per-link traffic on every *other* edge: bits scheduled
    /// from `src` toward `dst` (counted per physical transmission
    /// reaching that receiver, independent of loss). Keyed `(src, dst)`.
    links: std::collections::HashMap<(usize, usize), u64>,
}

impl NetStats {
    /// Creates zeroed statistics for `n` nodes with the given energy model.
    pub fn new(n: usize, energy_model: EnergyModel) -> Self {
        NetStats {
            nodes: vec![NodeStats::default(); n],
            energy_model,
            tree_parent: Vec::new(),
            tree_links: Vec::new(),
            links: std::collections::HashMap::new(),
        }
    }

    /// As [`NetStats::new`], additionally declaring a spanning tree
    /// (the `v`-th item of `parents` is `v`'s parent, `None` at the
    /// root) whose edges are tallied in a dense column instead of the
    /// link map. Purely a representation choice: every accessor returns
    /// what the map-backed tracker would.
    pub fn with_tree(
        energy_model: EnergyModel,
        parents: impl IntoIterator<Item = Option<usize>>,
    ) -> Self {
        let tree_parent: Vec<usize> = parents
            .into_iter()
            .map(|p| p.unwrap_or(NO_PARENT))
            .collect();
        let n = tree_parent.len();
        NetStats {
            tree_parent,
            tree_links: vec![TreeLinkBits::default(); n],
            ..NetStats::new(n, energy_model)
        }
    }

    /// When the declared tree has the edge `{a, b}`: its child endpoint,
    /// and whether `a → b` is the downward direction.
    fn tree_edge(&self, a: usize, b: usize) -> Option<(usize, bool)> {
        if self.tree_parent.get(b) == Some(&a) {
            Some((b, true))
        } else if self.tree_parent.get(a) == Some(&b) {
            Some((a, false))
        } else {
            None
        }
    }

    /// Records `bits` of traffic on the directed link `src → dst`.
    pub fn charge_link(&mut self, src: usize, dst: usize, bits: u64) {
        match self.tree_edge(src, dst) {
            Some((child, true)) => self.tree_links[child].down += bits,
            Some((child, false)) => self.tree_links[child].up += bits,
            None => *self.links.entry((src, dst)).or_insert(0) += bits,
        }
    }

    /// Mutable access to the dense tree-edge tallies (indexed by child
    /// id; empty without a declared tree), for runners that keep their
    /// own per-edge columns and flush them wholesale — the link-side
    /// companion of [`NetStats::nodes_mut`].
    pub fn tree_links_mut(&mut self) -> &mut [TreeLinkBits] {
        &mut self.tree_links
    }

    /// Total bits carried by the undirected link `{a, b}`.
    pub fn link_bits(&self, a: usize, b: usize) -> u64 {
        let tree = self
            .tree_edge(a, b)
            .map_or(0, |(child, _)| self.tree_links[child].total());
        tree + self.links.get(&(a, b)).copied().unwrap_or(0)
            + self.links.get(&(b, a)).copied().unwrap_or(0)
    }

    /// Bits crossing the node cut `{0..left} | {left..n}` in either
    /// direction — the two-party communication of a protocol simulated by
    /// splitting the network (Theorem 5.1's reduction measures exactly
    /// this on a line).
    pub fn cut_bits(&self, left: usize) -> u64 {
        let tree: u64 = self
            .tree_parent
            .iter()
            .zip(&self.tree_links)
            .enumerate()
            .filter(|&(c, (&p, _))| p != NO_PARENT && (p < left) != (c < left))
            .map(|(_, (_, e))| e.total())
            .sum();
        let other: u64 = self
            .links
            .iter()
            .filter(|(&(s, d), _)| (s < left) != (d < left))
            .map(|(_, &b)| b)
            .sum();
        tree + other
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per-node counters.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node(&self, node: usize) -> &NodeStats {
        &self.nodes[node]
    }

    /// Iterates over all per-node counters.
    pub fn iter(&self) -> impl Iterator<Item = &NodeStats> {
        self.nodes.iter()
    }

    /// Mutable access to the per-node counters, for runners that keep
    /// their own contiguous counter columns and flush them into a
    /// [`NetStats`] ledger wholesale (the flat convergecast substrate).
    pub fn nodes_mut(&mut self) -> &mut [NodeStats] {
        &mut self.nodes
    }

    /// Records that `node` transmitted a packet of `bits` bits.
    pub fn charge_tx(&mut self, node: usize, bits: u64) {
        let model = self.energy_model;
        let s = &mut self.nodes[node];
        s.tx_bits += bits;
        s.tx_packets += 1;
        s.energy.charge_tx(&model, bits);
    }

    /// Records that `node` received a packet of `bits` bits.
    pub fn charge_rx(&mut self, node: usize, bits: u64) {
        let model = self.energy_model;
        let s = &mut self.nodes[node];
        s.rx_bits += bits;
        s.rx_packets += 1;
        s.energy.charge_rx(&model, bits);
    }

    /// The paper's individual communication complexity for this execution:
    /// `max` over nodes of transmitted + received bits.
    pub fn max_node_bits(&self) -> u64 {
        self.nodes
            .iter()
            .map(NodeStats::total_bits)
            .max()
            .unwrap_or(0)
    }

    /// The node attaining [`NetStats::max_node_bits`].
    pub fn max_node(&self) -> Option<usize> {
        (0..self.nodes.len()).max_by_key(|&i| self.nodes[i].total_bits())
    }

    /// Total bits transmitted network-wide (each transmission counted once;
    /// receptions excluded to avoid double counting).
    pub fn total_tx_bits(&self) -> u64 {
        self.nodes.iter().map(|s| s.tx_bits).sum()
    }

    /// Mean per-node total bits.
    pub fn mean_node_bits(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .map(|s| s.total_bits() as f64)
            .sum::<f64>()
            / self.nodes.len() as f64
    }

    /// Maximum per-node energy in nanojoules.
    pub fn max_node_energy_nj(&self) -> f64 {
        self.nodes
            .iter()
            .map(|s| s.energy.total_nj())
            .fold(0.0, f64::max)
    }

    /// Resets every counter to zero, keeping the node count and model.
    pub fn reset(&mut self) {
        self.nodes.fill(NodeStats::default());
        self.tree_links.fill(TreeLinkBits::default());
        self.links.clear();
    }

    /// Merges another run's counters into this one (element-wise sum).
    /// Useful for charging a multi-phase protocol to one ledger.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn absorb(&mut self, other: &NetStats) {
        assert_eq!(self.len(), other.len(), "node count mismatch");
        for (a, b) in self.nodes.iter_mut().zip(&other.nodes) {
            a.tx_bits += b.tx_bits;
            a.rx_bits += b.rx_bits;
            a.tx_packets += b.tx_packets;
            a.rx_packets += b.rx_packets;
            a.energy.tx_nj += b.energy.tx_nj;
            a.energy.rx_nj += b.energy.rx_nj;
        }
        // Through `charge_link`, so each edge lands in this tracker's
        // own representation whichever one `other` kept it in.
        for (c, (&p, e)) in other.tree_parent.iter().zip(&other.tree_links).enumerate() {
            if e.down > 0 {
                self.charge_link(p, c, e.down);
            }
            if e.up > 0 {
                self.charge_link(c, p, e.up);
            }
        }
        for (&(s, d), &v) in &other.links {
            self.charge_link(s, d, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_node() {
        let mut s = NetStats::new(3, EnergyModel::default());
        s.charge_tx(0, 100);
        s.charge_rx(1, 100);
        s.charge_tx(1, 50);
        assert_eq!(s.node(0).tx_bits, 100);
        assert_eq!(s.node(1).total_bits(), 150);
        assert_eq!(s.node(2).total_bits(), 0);
        assert_eq!(s.max_node_bits(), 150);
        assert_eq!(s.max_node(), Some(1));
        assert_eq!(s.total_tx_bits(), 150);
    }

    #[test]
    fn mean_and_energy() {
        let mut s = NetStats::new(2, EnergyModel::default());
        s.charge_tx(0, 10);
        s.charge_rx(1, 10);
        assert!((s.mean_node_bits() - 10.0).abs() < 1e-12);
        assert!(s.max_node_energy_nj() > 0.0);
        // tx is more expensive than rx under the default model
        assert!(s.node(0).energy.total_nj() > s.node(1).energy.total_nj());
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut s = NetStats::new(2, EnergyModel::default());
        s.charge_tx(0, 10);
        s.reset();
        assert_eq!(s.max_node_bits(), 0);
        assert_eq!(s.node(0).tx_packets, 0);
    }

    #[test]
    fn absorb_sums() {
        let mut a = NetStats::new(2, EnergyModel::default());
        let mut b = NetStats::new(2, EnergyModel::default());
        a.charge_tx(0, 5);
        b.charge_tx(0, 7);
        b.charge_rx(1, 3);
        a.absorb(&b);
        assert_eq!(a.node(0).tx_bits, 12);
        assert_eq!(a.node(1).rx_bits, 3);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn absorb_size_mismatch_panics() {
        let mut a = NetStats::new(2, EnergyModel::default());
        let b = NetStats::new(3, EnergyModel::default());
        a.absorb(&b);
    }

    #[test]
    fn link_and_cut_accounting() {
        let mut s = NetStats::new(4, EnergyModel::default());
        s.charge_link(0, 1, 10);
        s.charge_link(1, 0, 5);
        s.charge_link(2, 3, 100);
        s.charge_link(1, 2, 7);
        assert_eq!(s.link_bits(0, 1), 15);
        assert_eq!(s.link_bits(1, 2), 7);
        assert_eq!(s.link_bits(0, 3), 0);
        // Cut {0,1} | {2,3}: only the 1→2 link crosses.
        assert_eq!(s.cut_bits(2), 7);
        // Cut {0} | rest: 0↔1 traffic crosses.
        assert_eq!(s.cut_bits(1), 15);
        s.reset();
        assert_eq!(s.link_bits(0, 1), 0);
    }

    #[test]
    fn absorb_merges_links() {
        let mut a = NetStats::new(2, EnergyModel::default());
        let mut b = NetStats::new(2, EnergyModel::default());
        a.charge_link(0, 1, 3);
        b.charge_link(0, 1, 4);
        b.charge_link(1, 0, 2);
        a.absorb(&b);
        assert_eq!(a.link_bits(0, 1), 9);
    }

    /// The same charges on a map-backed tracker and on one that keeps
    /// the tree `0 ← 1 ← 2, 1 ← 3` densely; `0 ↔ 3` is not a tree edge.
    fn map_and_dense() -> (NetStats, NetStats) {
        let parents = [None, Some(0), Some(1), Some(1)];
        let mut pair = (
            NetStats::new(4, EnergyModel::default()),
            NetStats::with_tree(EnergyModel::default(), parents),
        );
        for s in [&mut pair.0, &mut pair.1] {
            s.charge_link(0, 1, 10);
            s.charge_link(1, 0, 5);
            s.charge_link(1, 2, 7);
            s.charge_link(3, 1, 2);
            s.charge_link(0, 3, 100);
            s.charge_link(3, 0, 1);
        }
        (pair.0, pair.1)
    }

    fn assert_same_links(a: &NetStats, b: &NetStats) {
        for x in 0..a.len() {
            for y in 0..a.len() {
                assert_eq!(a.link_bits(x, y), b.link_bits(x, y), "link {x}<->{y}");
            }
        }
        for left in 0..=a.len() {
            assert_eq!(a.cut_bits(left), b.cut_bits(left), "cut at {left}");
        }
    }

    #[test]
    fn dense_tree_tally_matches_the_map() {
        let (map, dense) = map_and_dense();
        assert_eq!(dense.link_bits(0, 1), 15);
        assert_eq!(dense.link_bits(1, 3), 2);
        assert_eq!(dense.link_bits(0, 3), 101, "non-tree edge stays in the map");
        assert_eq!(dense.cut_bits(1), 15 + 101);
        assert_same_links(&map, &dense);
        // Tree edges never reached the map; the other edge never left it.
        assert_eq!(dense.links.len(), 2);
        assert_eq!(dense.tree_links[1], TreeLinkBits { down: 10, up: 5 });
    }

    #[test]
    fn absorb_and_reset_agree_across_representations() {
        let (map, dense) = map_and_dense();
        // Every pairing of target and source representation sums alike.
        let (mut into_map, mut into_dense) = map_and_dense();
        into_map.absorb(&dense);
        into_dense.absorb(&map);
        assert_same_links(&into_map, &into_dense);
        assert_eq!(into_dense.link_bits(0, 1), 30);
        assert_eq!(into_dense.link_bits(0, 3), 202);
        // Reset zeroes both ledgers and keeps the declared tree.
        into_dense.reset();
        assert_same_links(&into_dense, &NetStats::new(4, EnergyModel::default()));
        into_dense.charge_link(1, 2, 9);
        assert_eq!(into_dense.tree_links[2].down, 9);
    }

    #[test]
    fn empty_stats() {
        let s = NetStats::new(0, EnergyModel::default());
        assert_eq!(s.max_node_bits(), 0);
        assert_eq!(s.max_node(), None);
        assert_eq!(s.mean_node_bits(), 0.0);
        assert!(s.is_empty());
    }
}
