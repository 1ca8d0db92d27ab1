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

    /// Records a transmitted packet of `bits` bits.
    pub fn charge_tx(&mut self, model: &EnergyModel, bits: u64) {
        self.tx_bits += bits;
        self.tx_packets += 1;
        self.energy.charge_tx(model, bits);
    }

    /// Records a received packet of `bits` bits.
    pub fn charge_rx(&mut self, model: &EnergyModel, bits: u64) {
        self.rx_bits += bits;
        self.rx_packets += 1;
        self.energy.charge_rx(model, bits);
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
const NO_PARENT: u32 = u32::MAX;

/// Communication statistics for a whole network, stored in an order
/// fixed when built (see [`NetStats::with_tree`]); every accessor keyed
/// by node id, iteration and equality included, hides that order.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Per-node counters, in storage order.
    nodes: Vec<NodeStats>,
    /// Storage slot of each node id; empty when storage is in id order.
    slot_of: Vec<u32>,
    energy_model: EnergyModel,
    /// Parent id of each node on the declared spanning tree
    /// ([`NO_PARENT`] for the root), indexed by id; empty unless built by
    /// [`NetStats::with_tree`].
    tree_parent: Vec<u32>,
    /// Dense ledger of the declared tree's edges, at the child's storage
    /// slot — a convergecast runner charges 2·(N−1) of these per wave,
    /// which is what keeps that off the hash map below.
    tree_links: Vec<TreeLinkBits>,
    /// Directed per-link traffic on every *other* edge: bits scheduled
    /// from `src` toward `dst` (counted per physical transmission
    /// reaching that receiver, independent of loss). Keyed `(src, dst)`.
    links: std::collections::HashMap<(usize, usize), u64>,
}

impl NetStats {
    /// Creates zeroed statistics for `n` nodes with the given energy
    /// model, stored in node-id order.
    pub fn new(n: usize, energy_model: EnergyModel) -> Self {
        NetStats {
            nodes: vec![NodeStats::default(); n],
            energy_model,
            ..NetStats::default()
        }
    }

    /// As [`NetStats::new`], additionally declaring a spanning tree
    /// (the `v`-th item of `parents` is `v`'s parent, `None` at the
    /// root) whose edges are tallied in a dense column instead of the
    /// link map, and storing the counters in `order` (its `s`-th item
    /// is the id kept in slot `s`; a flat runner's DFS order). Purely a
    /// representation choice: every accessor returns what the
    /// map-backed, id-ordered tracker would.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the node ids, or if a
    /// node id does not fit in a `u32`.
    pub fn with_tree(
        energy_model: EnergyModel,
        parents: impl IntoIterator<Item = Option<usize>>,
        order: impl IntoIterator<Item = usize>,
    ) -> Self {
        let id = |v: usize| u32::try_from(v).expect("node id fits in u32");
        let tree_parent: Vec<u32> = parents
            .into_iter()
            .map(|p| p.map_or(NO_PARENT, id))
            .collect();
        let n = tree_parent.len();
        let mut slot_of = vec![u32::MAX; n];
        for (s, v) in order.into_iter().enumerate() {
            slot_of[v] = id(s);
        }
        // Only a permutation of `0..n` leaves every id a slot below `n`.
        assert!(
            slot_of.iter().all(|&s| (s as usize) < n),
            "not a permutation"
        );
        NetStats {
            slot_of,
            tree_parent,
            tree_links: vec![TreeLinkBits::default(); n],
            ..NetStats::new(n, energy_model)
        }
    }

    /// Storage slot of `node`.
    fn slot(&self, node: usize) -> usize {
        self.slot_of.get(node).map_or(node, |&s| s as usize)
    }

    /// `node`'s parent on the declared tree.
    fn tree_parent(&self, node: usize) -> Option<usize> {
        let p = *self.tree_parent.get(node)?;
        (p != NO_PARENT).then_some(p as usize)
    }

    /// When the declared tree has the edge `{a, b}`: the storage slot of
    /// its child endpoint, and whether `a → b` is the downward direction.
    fn tree_edge(&self, a: usize, b: usize) -> Option<(usize, bool)> {
        if self.tree_parent(b) == Some(a) {
            Some((self.slot(b), true))
        } else if self.tree_parent(a) == Some(b) {
            Some((self.slot(a), false))
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

    /// The per-node counters and the declared tree's edge tallies (at
    /// the child; empty without a tree) in storage order, for a runner
    /// that bills in that order in place (the flat substrate).
    pub fn storage_mut(&mut self) -> (&mut [NodeStats], &mut [TreeLinkBits]) {
        (&mut self.nodes, &mut self.tree_links)
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
            .tree_edges()
            .filter(|&(c, p, _)| (p < left) != (c < left))
            .map(|(.., e)| e.total())
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
        &self.nodes[self.slot(node)]
    }

    /// Iterates over all per-node counters in ascending node id.
    pub fn iter(&self) -> impl Iterator<Item = &NodeStats> {
        (0..self.len()).map(|v| self.node(v))
    }

    /// Records that `node` transmitted a packet of `bits` bits.
    pub fn charge_tx(&mut self, node: usize, bits: u64) {
        let slot = self.slot(node);
        self.nodes[slot].charge_tx(&self.energy_model, bits);
    }

    /// Records that `node` received a packet of `bits` bits.
    pub fn charge_rx(&mut self, node: usize, bits: u64) {
        let slot = self.slot(node);
        self.nodes[slot].charge_rx(&self.energy_model, bits);
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

    /// The node attaining [`NetStats::max_node_bits`] (the highest id
    /// among ties).
    pub fn max_node(&self) -> Option<usize> {
        (0..self.len()).max_by_key(|&v| self.node(v).total_bits())
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
        self.iter().map(|s| s.total_bits() as f64).sum::<f64>() / self.nodes.len() as f64
    }

    /// Maximum per-node energy in nanojoules.
    pub fn max_node_energy_nj(&self) -> f64 {
        self.nodes
            .iter()
            .map(|s| s.energy.total_nj())
            .fold(0.0, f64::max)
    }

    /// Resets every counter to zero, keeping the node count, model,
    /// declared tree and storage order.
    pub fn reset(&mut self) {
        self.nodes.fill(NodeStats::default());
        self.tree_links.fill(TreeLinkBits::default());
        self.links.clear();
    }

    /// Every declared tree edge as `(child, parent, tally)`, by child id.
    fn tree_edges(&self) -> impl Iterator<Item = (usize, usize, &TreeLinkBits)> {
        (0..self.tree_parent.len())
            .filter_map(|c| Some((c, self.tree_parent(c)?, &self.tree_links[self.slot(c)])))
    }

    /// Merges another run's counters into this one (element-wise sum).
    /// Useful for charging a multi-phase protocol to one ledger.
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn absorb(&mut self, other: &NetStats) {
        assert_eq!(self.len(), other.len(), "node count mismatch");
        for (v, b) in other.iter().enumerate() {
            let slot = self.slot(v);
            let a = &mut self.nodes[slot];
            a.tx_bits += b.tx_bits;
            a.rx_bits += b.rx_bits;
            a.tx_packets += b.tx_packets;
            a.rx_packets += b.rx_packets;
            a.energy.tx_nj += b.energy.tx_nj;
            a.energy.rx_nj += b.energy.rx_nj;
        }
        // Through `charge_link`, so each edge lands in this tracker's
        // own representation whichever one `other` kept it in.
        for (c, p, e) in other.tree_edges() {
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

impl PartialEq for NetStats {
    /// Compares node by node and edge by edge in id order, whatever the
    /// two storage orders.
    fn eq(&self, other: &Self) -> bool {
        (self.energy_model, &self.tree_parent, &self.links)
            == (other.energy_model, &other.tree_parent, &other.links)
            && self.iter().eq(other.iter())
            && self.tree_edges().eq(other.tree_edges())
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

    /// The same frames charged to a map-backed tracker, to one that
    /// keeps the tree `0 ← 1 ← 2, 1 ← 3` densely in id order, and to one
    /// that keeps it densely in the storage order `[3, 1, 0, 2]`;
    /// `0 ↔ 3` is not a tree edge.
    fn map_and_dense() -> (NetStats, NetStats, NetStats) {
        let parents = [None, Some(0), Some(1), Some(1)];
        let mut all = (
            NetStats::new(4, EnergyModel::default()),
            NetStats::with_tree(EnergyModel::default(), parents, 0..4),
            NetStats::with_tree(EnergyModel::default(), parents, [3, 1, 0, 2]),
        );
        for s in [&mut all.0, &mut all.1, &mut all.2] {
            for (src, dst, bits) in [
                (0, 1, 10),
                (1, 0, 5),
                (1, 2, 7),
                (3, 1, 2),
                (0, 3, 100),
                (3, 0, 1),
            ] {
                s.charge_tx(src, bits);
                s.charge_rx(dst, bits);
                s.charge_link(src, dst, bits);
            }
        }
        all
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

    /// Per-node counters as `iter()` yields them.
    fn per_node(s: &NetStats) -> Vec<NodeStats> {
        s.iter().copied().collect()
    }

    #[test]
    fn dense_tree_tally_matches_the_map() {
        let (map, dense, permuted) = map_and_dense();
        for s in [&dense, &permuted] {
            assert_eq!(s.link_bits(0, 1), 15);
            assert_eq!(s.link_bits(1, 3), 2);
            assert_eq!(s.link_bits(0, 3), 101, "non-tree edge stays in the map");
            assert_eq!(s.cut_bits(1), 15 + 101);
            assert_same_links(&map, s);
            // Tree edges never reached the map; the other edge never left it.
            assert_eq!(s.links.len(), 2);
            assert_eq!(s.tree_links[s.slot(1)], TreeLinkBits { down: 10, up: 5 });
        }
        // `iter()` yields id order whatever the storage order.
        let totals: Vec<u64> = permuted.iter().map(NodeStats::total_bits).collect();
        assert_eq!(totals, [116, 24, 7, 103]);
        assert_eq!(per_node(&map), per_node(&permuted));
        assert_eq!(dense, permuted, "equality is per id");
        assert_ne!(map, dense, "the edge representation is compared too");
        for s in [&map, &dense, &permuted] {
            assert_eq!((s.max_node(), s.max_node_bits()), (Some(0), 116));
            assert_eq!(s.total_tx_bits(), 125);
        }
        // A tie goes to the highest id, never to the last storage slot
        // (node 0 sits after node 1 in `permuted`'s storage).
        let (mut map, mut dense, mut permuted) = map_and_dense();
        for s in [&mut map, &mut dense, &mut permuted] {
            s.charge_tx(1, 92);
            assert_eq!((s.max_node(), s.max_node_bits()), (Some(1), 116));
        }
    }

    #[test]
    fn absorb_and_reset_agree_across_representations() {
        let sources = map_and_dense();
        // Every pairing of target and source representation sums alike.
        for source in [&sources.0, &sources.1, &sources.2] {
            let (mut into_map, mut into_dense, mut into_permuted) = map_and_dense();
            for target in [&mut into_map, &mut into_dense, &mut into_permuted] {
                target.absorb(source);
                assert_eq!(target.link_bits(0, 1), 30);
                assert_eq!(target.link_bits(0, 3), 202);
                assert_eq!(target.node(3).total_bits(), 206);
            }
            assert_same_links(&into_map, &into_dense);
            assert_same_links(&into_map, &into_permuted);
            assert_eq!(per_node(&into_map), per_node(&into_permuted));
            assert_eq!(into_dense, into_permuted);
        }
        // Reset zeroes every ledger and keeps the declared tree and the
        // storage order.
        let (_, _, mut permuted) = map_and_dense();
        permuted.reset();
        let zero = NetStats::new(4, EnergyModel::default());
        assert_same_links(&permuted, &zero);
        assert_eq!(per_node(&permuted), per_node(&zero));
        permuted.charge_link(1, 2, 9);
        assert_eq!(permuted.tree_links[permuted.slot(2)].down, 9);
        assert_eq!(permuted.slot(2), 3);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn storage_order_must_be_a_permutation() {
        // Each id has a slot, but slot 2 is past the end.
        NetStats::with_tree(EnergyModel::default(), [None, Some(0)], [1, 0, 1]);
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
