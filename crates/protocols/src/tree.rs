//! Spanning-tree construction.
//!
//! Fact 2.1 of the paper rests on broadcast–convergecast over a spanning
//! tree, with the remark:
//!
//! > *"in order to get the stated complexity bounds, one usually uses a
//! > bounded-degree spanning tree of the network \[9\] (bounded degree is
//! > required to maintain low individual communication complexity)."*
//!
//! Three constructions are provided:
//!
//! * [`SpanningTree::bfs`] — plain breadth-first tree (minimum depth,
//!   possibly high degree);
//! * [`SpanningTree::bfs_bounded`] — BFS that caps the number of children
//!   per node whenever the topology allows, trading a little depth for
//!   bounded degree (on a star no bound is achievable: the hub must serve
//!   every leaf, which is exactly the single-hop asymmetry of experiment
//!   E8);
//! * [`build_distributed`] — an actual distributed flooding protocol
//!   executed in the simulator, so tree-construction cost can be measured
//!   (`O(log N)` bits per node: each node transmits one JOIN beacon with
//!   its depth and one PARENT notification).

use crate::error::ProtocolError;
use saq_netsim::flat::FlatTree;
use saq_netsim::sim::{Context, NodeId, NodeRuntime, SimConfig, Simulator};
use saq_netsim::stats::NetStats;
use saq_netsim::topology::Topology;
use saq_netsim::wire::{BitReader, BitString, BitWriter};
use std::collections::VecDeque;

/// A rooted spanning tree of a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
}

impl SpanningTree {
    /// Builds a breadth-first spanning tree rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidRoot`] if `root` is out of range.
    pub fn bfs(topo: &Topology, root: NodeId) -> Result<Self, ProtocolError> {
        Self::bfs_bounded(topo, root, usize::MAX)
    }

    /// Builds a BFS spanning tree in which nodes accept at most
    /// `max_children` children when alternatives exist.
    ///
    /// Discovery proceeds level by level; a discovered node prefers the
    /// shallowest already-attached neighbour with spare child capacity,
    /// falling back to the least-loaded neighbour when every candidate is
    /// full (unavoidable on stars and other high-degree cut vertices).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::InvalidRoot`] if `root` is out of range.
    pub fn bfs_bounded(
        topo: &Topology,
        root: NodeId,
        max_children: usize,
    ) -> Result<Self, ProtocolError> {
        let n = topo.len();
        if root >= n {
            return Err(ProtocolError::InvalidRoot { root, len: n });
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut attached = vec![false; n];
        let mut child_count = vec![0usize; n];
        let mut depth = vec![0u32; n];
        attached[root] = true;

        let mut frontier = VecDeque::new();
        frontier.push_back(root);
        while let Some(u) = frontier.pop_front() {
            for &v in topo.neighbors(u) {
                if attached[v] {
                    continue;
                }
                // v is discovered; choose its parent among attached
                // neighbours: shallowest with capacity, else least loaded.
                let candidates: Vec<NodeId> = topo
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| attached[w])
                    .collect();
                let best = candidates
                    .iter()
                    .copied()
                    .filter(|&w| child_count[w] < max_children)
                    .min_by_key(|&w| (depth[w], child_count[w]))
                    .or_else(|| candidates.iter().copied().min_by_key(|&w| child_count[w]))
                    .expect("discovered node has an attached neighbour");
                parent[v] = Some(best);
                child_count[best] += 1;
                depth[v] = depth[best] + 1;
                attached[v] = true;
                frontier.push_back(v);
            }
        }

        Ok(Self::from_parents(root, parent, depth))
    }

    fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>, depth: Vec<u32>) -> Self {
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(v);
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        SpanningTree {
            root,
            parent,
            children,
            depth,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent of `v`, or `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// The tree laid out in DFS position order for the flat runner —
    /// built straight from this tree's parent array, with no copy of it.
    pub fn flatten(&self) -> FlatTree {
        FlatTree::from_parents(self.root, &self.parent)
    }

    /// Children of `v`, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// Depth of `v` (root = 0).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v]
    }

    /// Tree height: the maximum depth.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Communication degree of `v` in the tree: children plus parent link.
    pub fn degree(&self, v: NodeId) -> usize {
        self.children[v].len() + usize::from(self.parent[v].is_some())
    }

    /// Maximum communication degree over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.len()).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Validates structural invariants against a topology: every non-root
    /// node has a parent it is adjacent to, depths increase by one along
    /// parent edges, and children lists mirror parents.
    pub fn validate(&self, topo: &Topology) -> Result<(), ProtocolError> {
        if self.len() != topo.len() {
            return Err(ProtocolError::ShapeMismatch("tree size vs topology"));
        }
        for v in 0..self.len() {
            match self.parent[v] {
                None => {
                    if v != self.root {
                        return Err(ProtocolError::ShapeMismatch("non-root without parent"));
                    }
                }
                Some(p) => {
                    if !topo.has_edge(v, p) {
                        return Err(ProtocolError::ShapeMismatch("tree edge not in topology"));
                    }
                    if self.depth[v] != self.depth[p] + 1 {
                        return Err(ProtocolError::ShapeMismatch("depth not parent+1"));
                    }
                    if !self.children[p].contains(&v) {
                        return Err(ProtocolError::ShapeMismatch("parent missing child"));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Distributed construction
// ---------------------------------------------------------------------------

/// Node state machine for distributed BFS construction: the root floods a
/// JOIN beacon carrying the sender's depth; each node adopts the first
/// beacon's sender as parent, notifies it with a PARENT message, and
/// re-floods.
#[derive(Debug, Default)]
pub struct TreeBuildNode {
    /// Chosen parent, if any.
    pub parent: Option<NodeId>,
    /// Own depth once attached.
    pub depth: Option<u32>,
    /// Nodes that chose us as parent.
    pub children: Vec<NodeId>,
}

const MSG_JOIN: u64 = 0;
const MSG_PARENT: u64 = 1;

impl TreeBuildNode {
    fn beacon(depth: u32) -> BitString {
        let mut w = BitWriter::new();
        w.write_bits(MSG_JOIN, 1);
        // Depth fits comfortably in 16 bits for any simulated network.
        w.write_bits(depth as u64, 16);
        w.finish()
    }

    fn parent_notice() -> BitString {
        let mut w = BitWriter::new();
        w.write_bits(MSG_PARENT, 1);
        w.finish()
    }
}

impl NodeRuntime for TreeBuildNode {
    fn on_timer(&mut self, ctx: &mut Context<'_>, _tag: u64) {
        match self.depth {
            // First kick of the root: attach at depth 0 and flood.
            None => {
                self.depth = Some(0);
                ctx.broadcast_local(Self::beacon(0));
            }
            // Re-kick of an attached node: re-beacon so neighbours whose
            // earlier beacon was lost get another chance to attach.
            Some(d) => ctx.broadcast_local(Self::beacon(d)),
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: &BitString) {
        let mut r = BitReader::new(payload);
        let kind = match r.read_bits(1) {
            Ok(k) => k,
            Err(_) => return,
        };
        match kind {
            MSG_JOIN => {
                let Ok(d) = r.read_bits(16) else { return };
                if self.depth.is_none() {
                    let my_depth = d as u32 + 1;
                    self.depth = Some(my_depth);
                    self.parent = Some(from);
                    ctx.send(from, Self::parent_notice());
                    ctx.broadcast_local(Self::beacon(my_depth));
                }
            }
            MSG_PARENT if !self.children.contains(&from) => {
                self.children.push(from);
            }
            _ => {}
        }
    }
}

/// Runs the distributed BFS construction inside the simulator and returns
/// the resulting tree together with the communication statistics of the
/// construction itself.
///
/// Each node transmits one JOIN beacon (17 bits) and one PARENT notice
/// (1 bit), receiving at most `deg` beacons — `O(log N)`-bit individual
/// complexity on bounded-degree topologies, as assumed by the paper for
/// its (uncharged) setup phase.
///
/// # Errors
///
/// Returns [`ProtocolError::InvalidRoot`] for an out-of-range root and
/// propagates simulator errors.
pub fn build_distributed(
    topo: &Topology,
    cfg: SimConfig,
    root: NodeId,
) -> Result<(SpanningTree, NetStats), ProtocolError> {
    if root >= topo.len() {
        return Err(ProtocolError::InvalidRoot {
            root,
            len: topo.len(),
        });
    }
    let mut sim: Simulator<TreeBuildNode> = Simulator::new(topo.clone(), cfg);
    sim.kick(root, 0);
    sim.run_until_quiescent()?;

    let n = topo.len();
    let mut parent = vec![None; n];
    let mut depth = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        let node = sim.node(v);
        parent[v] = node.parent;
        depth[v] = node.depth.unwrap_or(0);
        if node.depth.is_none() {
            // Unreached node: connectivity is checked at topology
            // construction, so this can only happen with lossy links.
            return Err(ProtocolError::NoResult);
        }
    }
    let tree = SpanningTree::from_parents(root, parent, depth);
    Ok((tree, sim.stats().clone()))
}

/// Convenience: distributed construction retried with the same seed but
/// a JOIN re-flood per attempt, for lossy links. Falls back to at most
/// `attempts` kicks of the root.
///
/// # Errors
///
/// As [`build_distributed`]; returns [`ProtocolError::NoResult`] if some
/// node remains unattached after all attempts.
pub fn build_distributed_lossy(
    topo: &Topology,
    cfg: SimConfig,
    root: NodeId,
    attempts: u32,
) -> Result<(SpanningTree, NetStats), ProtocolError> {
    if root >= topo.len() {
        return Err(ProtocolError::InvalidRoot {
            root,
            len: topo.len(),
        });
    }
    let mut sim: Simulator<TreeBuildNode> = Simulator::new(topo.clone(), cfg);
    for _ in 0..attempts.max(1) {
        // Re-flood: attached nodes re-beacon so neighbours whose earlier
        // beacons were lost get another chance to attach.
        for v in 0..topo.len() {
            if sim.node(v).depth.is_some() {
                sim.kick(v, 0);
            }
        }
        // The root's first kick handles the very first attachment.
        sim.kick(root, 0);
        sim.run_until_quiescent()?;
        if (0..topo.len()).all(|v| sim.node(v).depth.is_some()) {
            break;
        }
    }
    let n = topo.len();
    let mut parent = vec![None; n];
    let mut depth = vec![0u32; n];
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        let node = sim.node(v);
        if node.depth.is_none() {
            return Err(ProtocolError::NoResult);
        }
        parent[v] = node.parent;
        depth[v] = node.depth.unwrap_or(0);
    }
    Ok((
        SpanningTree::from_parents(root, parent, depth),
        sim.stats().clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use saq_netsim::link::LinkConfig;

    #[test]
    fn bfs_on_line_is_the_line() {
        let topo = Topology::line(5).unwrap();
        let t = SpanningTree::bfs(&topo, 0).unwrap();
        t.validate(&topo).unwrap();
        assert_eq!(t.height(), 4);
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.children(2), &[3]);
        assert_eq!(t.root(), 0);
    }

    #[test]
    fn bfs_depth_is_shortest_path() {
        let topo = Topology::grid(5, 5).unwrap();
        let t = SpanningTree::bfs(&topo, 0).unwrap();
        let dist = topo.bfs_distances(0);
        for (v, d) in dist.iter().enumerate() {
            assert_eq!(t.depth(v), d.unwrap());
        }
    }

    #[test]
    fn invalid_root_rejected() {
        let topo = Topology::line(3).unwrap();
        assert!(matches!(
            SpanningTree::bfs(&topo, 9),
            Err(ProtocolError::InvalidRoot { root: 9, len: 3 })
        ));
    }

    #[test]
    fn bounded_degree_on_grid() {
        let topo = Topology::grid(8, 8).unwrap();
        let unbounded = SpanningTree::bfs(&topo, 0).unwrap();
        let bounded = SpanningTree::bfs_bounded(&topo, 0, 2).unwrap();
        bounded.validate(&topo).unwrap();
        assert!(bounded.max_degree() <= 3, "degree {}", bounded.max_degree());
        // Bounded tree may be deeper but not absurdly so.
        assert!(bounded.height() <= unbounded.height() * 4 + 4);
    }

    #[test]
    fn star_cannot_be_degree_bounded() {
        let topo = Topology::star(20).unwrap();
        let t = SpanningTree::bfs_bounded(&topo, 0, 2).unwrap();
        t.validate(&topo).unwrap();
        // The hub must parent everyone regardless of the cap.
        assert_eq!(t.max_degree(), 19);
    }

    #[test]
    fn distributed_matches_bfs_depths() {
        let topo = Topology::grid(6, 6).unwrap();
        let (tree, stats) = build_distributed(&topo, SimConfig::default(), 0).unwrap();
        tree.validate(&topo).unwrap();
        let dist = topo.bfs_distances(0);
        for (v, d) in dist.iter().enumerate() {
            // Jitter can make some node attach via a non-shortest beacon,
            // but never shallower than the BFS distance.
            assert!(tree.depth(v) >= d.unwrap());
            assert!(tree.depth(v) <= d.unwrap() + 2);
        }
        // Each node transmitted one beacon + maybe one parent notice:
        // per-node tx is tiny.
        for v in 0..topo.len() {
            assert!(
                stats.node(v).tx_bits <= 18 * 2,
                "node {v} tx {}",
                stats.node(v).tx_bits
            );
        }
    }

    #[test]
    fn distributed_construction_under_loss_retries() {
        let topo = Topology::grid(4, 4).unwrap();
        let cfg = SimConfig::default()
            .with_link(LinkConfig::default().with_loss(0.2))
            .with_seed(5);
        let (tree, _) = build_distributed_lossy(&topo, cfg, 0, 20).unwrap();
        tree.validate(&topo).unwrap();
    }

    #[test]
    fn tree_degree_accounts_parent_link() {
        let topo = Topology::line(3).unwrap();
        let t = SpanningTree::bfs(&topo, 0).unwrap();
        assert_eq!(t.degree(0), 1); // one child
        assert_eq!(t.degree(1), 2); // parent + child
        assert_eq!(t.degree(2), 1); // parent only
        assert_eq!(t.max_degree(), 2);
    }

    proptest! {
        #[test]
        fn prop_bfs_spans_and_validates(n in 1usize..80, seed: u64) {
            let topo = Topology::random_geometric(n, 0.3, seed).unwrap();
            let t = SpanningTree::bfs(&topo, 0).unwrap();
            t.validate(&topo).unwrap();
            // Exactly n-1 parent edges.
            let edges = (0..n).filter(|&v| t.parent(v).is_some()).count();
            prop_assert_eq!(edges, n - 1);
        }

        #[test]
        fn prop_bounded_tree_validates(n in 2usize..60, cap in 1usize..4, seed: u64) {
            let topo = Topology::random_geometric(n, 0.35, seed).unwrap();
            let t = SpanningTree::bfs_bounded(&topo, 0, cap).unwrap();
            t.validate(&topo).unwrap();
            prop_assert_eq!(t.root(), 0);
        }

        #[test]
        fn prop_children_sorted_and_consistent(n in 2usize..50, seed: u64) {
            let topo = Topology::random_geometric(n, 0.4, seed).unwrap();
            let t = SpanningTree::bfs(&topo, 0).unwrap();
            for v in 0..n {
                let cs = t.children(v);
                prop_assert!(cs.windows(2).all(|w| w[0] < w[1]));
                for &c in cs {
                    prop_assert_eq!(t.parent(c), Some(v));
                }
            }
        }
    }
}
