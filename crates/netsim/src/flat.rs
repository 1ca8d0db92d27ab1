//! Columnar flat-tree substrate: contiguous, index-addressed tree
//! storage for million-node convergecast simulation.
//!
//! The boxed per-node state machines behind the discrete-event engine
//! ([`crate::sim::Simulator`]) are faithful but pointer-heavy: every hop
//! of a wave chases a child list, and only coarse partitions
//! parallelise. This module provides the substrate for the flat
//! alternative:
//!
//! * [`FlatTree`] — a rooted tree laid out as struct-of-arrays over a
//!   precomputed **DFS pre-order**: parent links, child lists (CSR),
//!   subtree sizes and depths live in contiguous `u32` columns indexed
//!   by *position*. Children are visited in ascending global-id order —
//!   the same fixed child order the canonical convergecast merge uses —
//!   so traversal is pure index arithmetic: the subtree of position `p`
//!   is exactly the range `[p, p + subtree(p))`.
//! * [`ShardPlan`] — a **nested** static partition of a [`FlatTree`]
//!   into a *spine* (positions executed sequentially by the driver) and
//!   contiguous subtree *blocks* (executed by workers). Unlike a
//!   root-only cut, any block larger than a threshold is re-cut at its
//!   own root, so one giant subtree no longer serialises a whole
//!   worker. Partitioning is deterministic and work-stealing-free:
//!   block-to-worker assignment is a pure function of subtree sizes, so
//!   execution order — and with it every observable of a deterministic
//!   protocol — is independent of thread timing by construction.
//!
//! Protocol logic (what runs *over* these columns) lives in
//! `saq-protocols`; this module knows nothing about waves or requests.

/// Sentinel parent position of the root in [`FlatTree::parent_pos`]'s
/// backing column.
const NO_PARENT: u32 = u32::MAX;

/// A rooted tree in struct-of-arrays layout over a DFS pre-order.
///
/// Positions (`0..n`, root at `0`) are the storage index; the original
/// node ids are *global ids*. All columns are position-indexed; the
/// [`FlatTree::pos_of`] / [`FlatTree::global_of`] maps translate.
///
/// # Examples
///
/// ```
/// use saq_netsim::flat::FlatTree;
///
/// // A path 0 → 1 → 2 rooted at 0.
/// let tree = FlatTree::from_parents(0, &[None, Some(0), Some(1)]);
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.children_pos(0), &[1]);
/// assert_eq!(tree.parent_pos(tree.pos_of(2)), Some(tree.pos_of(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatTree {
    /// Position → global id.
    order: Vec<u32>,
    /// Global id → position.
    pos: Vec<u32>,
    /// Position → parent position ([`NO_PARENT`] at the root).
    parent: Vec<u32>,
    /// CSR row starts into `child_pos` (length `n + 1`).
    child_start: Vec<u32>,
    /// Child positions, ascending (ascending global id ⇒ ascending
    /// position under this DFS order).
    child_pos: Vec<u32>,
    /// Position → subtree size; the subtree of `p` is `[p, p + size)`.
    subtree: Vec<u32>,
    /// Position → depth (root = 0).
    depth: Vec<u32>,
}

impl FlatTree {
    /// Builds the flat layout from a parent array (`parent[v]` is `v`'s
    /// parent global id, `None` exactly at `root`).
    ///
    /// # Panics
    ///
    /// Panics if the parent array does not describe a tree rooted at
    /// `root` covering every node (cycles, forests, out-of-range ids).
    pub fn from_parents(root: usize, parent: &[Option<usize>]) -> Self {
        let n = parent.len();
        assert!(root < n, "root out of range");
        assert!(n <= u32::MAX as usize, "flat tree limited to u32 ids");
        // Children sorted ascending by global id — the fixed child order
        // of the canonical convergecast merge.
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            match *p {
                Some(p) => {
                    assert!(p < n, "parent id out of range");
                    children[p].push(v as u32);
                }
                None => assert_eq!(v, root, "non-root node without a parent"),
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }

        // Iterative DFS pre-order, children in ascending order (pushed
        // reversed so the smallest pops first).
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut pos: Vec<u32> = vec![u32::MAX; n];
        let mut depth: Vec<u32> = vec![0; n];
        let mut stack: Vec<(u32, u32)> = vec![(root as u32, 0)];
        while let Some((v, d)) = stack.pop() {
            assert_eq!(pos[v as usize], u32::MAX, "parent array has a cycle");
            pos[v as usize] = order.len() as u32;
            order.push(v);
            depth[v as usize] = d;
            for &c in children[v as usize].iter().rev() {
                stack.push((c, d + 1));
            }
        }
        assert_eq!(order.len(), n, "parent array is not a single rooted tree");

        // CSR child lists and parent links in position space.
        let mut child_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut child_pos: Vec<u32> = Vec::with_capacity(n.saturating_sub(1));
        let mut par: Vec<u32> = Vec::with_capacity(n);
        let mut dep: Vec<u32> = Vec::with_capacity(n);
        for &g in &order {
            child_start.push(child_pos.len() as u32);
            child_pos.extend(children[g as usize].iter().map(|&c| pos[c as usize]));
            par.push(match parent[g as usize] {
                Some(p) => pos[p],
                None => NO_PARENT,
            });
            dep.push(depth[g as usize]);
        }
        child_start.push(child_pos.len() as u32);

        // Subtree sizes: children always sit at higher positions in a
        // pre-order, so one reverse sweep suffices.
        let mut subtree = vec![1u32; n];
        for p in (0..n).rev() {
            let (s, e) = (child_start[p] as usize, child_start[p + 1] as usize);
            for &c in &child_pos[s..e] {
                subtree[p] += subtree[c as usize];
            }
        }

        FlatTree {
            order,
            pos,
            parent: par,
            child_start,
            child_pos,
            subtree,
            depth: dep,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the tree is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Global id stored at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn global_of(&self, pos: usize) -> usize {
        self.order[pos] as usize
    }

    /// Position of global id `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn pos_of(&self, v: usize) -> usize {
        self.pos[v] as usize
    }

    /// Parent position of `pos`, or `None` at the root.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn parent_pos(&self, pos: usize) -> Option<usize> {
        match self.parent[pos] {
            NO_PARENT => None,
            p => Some(p as usize),
        }
    }

    /// Child positions of `pos`, in the fixed (ascending) child order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn children_pos(&self, pos: usize) -> &[u32] {
        let (s, e) = (
            self.child_start[pos] as usize,
            self.child_start[pos + 1] as usize,
        );
        &self.child_pos[s..e]
    }

    /// Depth of `pos` (root = 0).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn depth_of(&self, pos: usize) -> u32 {
        self.depth[pos]
    }

    /// Tree height: the maximum depth.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

/// One contiguous subtree assigned to a worker: the positions
/// `start..start + len` of the [`FlatTree`] it was planned over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBlock {
    /// Position of the block's subtree root.
    pub start: u32,
    /// Number of positions in the block (the root's subtree size).
    pub len: u32,
}

/// How far blocks larger than the balance threshold are recursively
/// re-cut at their own roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NestDepth {
    /// Re-cut until every block fits the threshold (bounded by a safety
    /// cap) — the default.
    #[default]
    Auto,
    /// Exactly this many refinement rounds past the root cut (`0` = the
    /// classic cut at the root's children only).
    Fixed(u32),
}

/// Blocks are considered oversized above `subtree_nodes / (workers ·
/// OVERPARTITION)`: a few blocks per worker keep the static assignment
/// balanced without a scheduler.
const OVERPARTITION: usize = 4;

/// Safety cap on [`NestDepth::Auto`] refinement rounds (a path-shaped
/// tree can absorb a round per level without ever balancing).
const MAX_AUTO_ROUNDS: u32 = 16;

/// A deterministic nested partition of a [`FlatTree`] into a sequential
/// **spine** and parallel subtree **blocks**, with a static
/// block-to-worker assignment.
///
/// Invariants (checked by `debug_assert` and the unit tests):
///
/// * spine positions and block ranges cover every position exactly once;
/// * every child of a spine node is itself a spine node or a block root
///   (so a driver can execute the spine top-down, hand block roots to
///   workers, and merge bottom-up without ever reaching *into* a block);
/// * the assignment is a pure function of `(tree, workers, depth)` —
///   no work stealing, so parallel execution replays deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Parallel blocks, ascending by `start`.
    blocks: Vec<ShardBlock>,
    /// Spine positions, ascending (top-down topological order: a DFS
    /// pre-order puts every ancestor before its descendants).
    spine: Vec<u32>,
    /// Per-worker block indices (into `blocks`), each ascending.
    groups: Vec<Vec<usize>>,
    /// Refinement rounds actually applied.
    depth: u32,
}

impl ShardPlan {
    /// Plans `tree` for `workers` parallel workers with the given
    /// nesting depth.
    ///
    /// With one worker (or a single-node tree) the plan degenerates
    /// gracefully: blocks still exist but all land in one group, and a
    /// driver may execute them inline.
    pub fn new(tree: &FlatTree, workers: usize, depth: NestDepth) -> Self {
        let n = tree.len();
        let workers = workers.max(1);
        let threshold = (n.div_ceil(workers * OVERPARTITION)).max(1);

        let mut spine: Vec<u32> = vec![0];
        let mut blocks: Vec<ShardBlock> = tree
            .children_pos(0)
            .iter()
            .map(|&c| ShardBlock {
                start: c,
                len: tree.subtree[c as usize],
            })
            .collect();

        let rounds = match depth {
            NestDepth::Auto => MAX_AUTO_ROUNDS,
            NestDepth::Fixed(d) => d,
        };
        let mut applied = 0;
        for _ in 0..rounds {
            let oversized: Vec<usize> = (0..blocks.len())
                .filter(|&i| blocks[i].len as usize > threshold && blocks[i].len > 1)
                .collect();
            if oversized.is_empty() {
                break;
            }
            applied += 1;
            // Re-cut each oversized block at its own root: the root
            // joins the spine, its child subtrees become blocks.
            let mut next: Vec<ShardBlock> = Vec::with_capacity(blocks.len() + oversized.len());
            for (i, b) in blocks.iter().enumerate() {
                if oversized.binary_search(&i).is_ok() {
                    spine.push(b.start);
                    next.extend(
                        tree.children_pos(b.start as usize)
                            .iter()
                            .map(|&c| ShardBlock {
                                start: c,
                                len: tree.subtree[c as usize],
                            }),
                    );
                } else {
                    next.push(*b);
                }
            }
            blocks = next;
        }
        blocks.sort_unstable_by_key(|b| b.start);
        spine.sort_unstable();

        // Static assignment: largest block first onto the least-loaded
        // worker, ties to the lower index — deterministic, so the
        // assignment is a pure function of the plan.
        let groups_len = workers.min(blocks.len());
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); groups_len];
        let mut load = vec![0usize; groups_len];
        let mut by_size: Vec<usize> = (0..blocks.len()).collect();
        by_size.sort_unstable_by_key(|&i| (u32::MAX - blocks[i].len, blocks[i].start));
        for i in by_size {
            let g = (0..groups.len())
                .min_by_key(|&g| (load[g], g))
                .expect("at least one group");
            groups[g].push(i);
            load[g] += blocks[i].len as usize;
        }
        for g in &mut groups {
            g.sort_unstable();
        }

        let plan = ShardPlan {
            blocks,
            spine,
            groups,
            depth: applied,
        };
        debug_assert!(plan.covers(tree), "spine + blocks must tile the tree");
        plan
    }

    /// Parallel blocks, ascending by start position.
    pub fn blocks(&self) -> &[ShardBlock] {
        &self.blocks
    }

    /// Spine positions, ascending (equivalently: top-down order).
    pub fn spine(&self) -> &[u32] {
        &self.spine
    }

    /// Per-worker block indices into [`ShardPlan::blocks`].
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Refinement rounds applied past the root cut.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Whether spine and blocks tile `0..tree.len()` exactly once and
    /// block assignment covers every block exactly once.
    fn covers(&self, tree: &FlatTree) -> bool {
        let mut seen = vec![false; tree.len()];
        for &p in &self.spine {
            if std::mem::replace(&mut seen[p as usize], true) {
                return false;
            }
        }
        for b in &self.blocks {
            for p in b.start..b.start + b.len {
                if std::mem::replace(&mut seen[p as usize], true) {
                    return false;
                }
            }
        }
        let mut assigned = vec![false; self.blocks.len()];
        for g in &self.groups {
            for &i in g {
                if std::mem::replace(&mut assigned[i], true) {
                    return false;
                }
            }
        }
        seen.into_iter().all(|s| s) && assigned.into_iter().all(|a| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A balanced ternary tree over global ids 0..n with BFS parenting.
    fn balanced_parents(n: usize, degree: usize) -> Vec<Option<usize>> {
        (0..n)
            .map(|v| if v == 0 { None } else { Some((v - 1) / degree) })
            .collect()
    }

    #[test]
    fn flat_tree_preorder_invariants() {
        let parents = balanced_parents(40, 3);
        let t = FlatTree::from_parents(0, &parents);
        assert_eq!(t.len(), 40);
        assert_eq!(t.global_of(0), 0);
        assert_eq!(t.subtree[0], 40);
        for p in 0..t.len() {
            // Subtree contiguity: children ranges tile (p, p+size).
            let mut cursor = p + 1;
            for &c in t.children_pos(p) {
                assert_eq!(c as usize, cursor, "child ranges must be contiguous");
                assert_eq!(t.parent_pos(c as usize), Some(p));
                assert_eq!(t.depth_of(c as usize), t.depth_of(p) + 1);
                cursor += t.subtree[c as usize] as usize;
            }
            assert_eq!(cursor, p + t.subtree[p] as usize);
            // Round trip of the id maps.
            assert_eq!(t.pos_of(t.global_of(p)), p);
        }
        // Fixed child order: ascending global ids.
        for p in 0..t.len() {
            let gs: Vec<usize> = t
                .children_pos(p)
                .iter()
                .map(|&c| t.global_of(c as usize))
                .collect();
            assert!(gs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn flat_tree_path_and_singleton() {
        let path = FlatTree::from_parents(0, &[None, Some(0), Some(1), Some(2)]);
        assert_eq!(path.height(), 3);
        assert_eq!(path.subtree[1], 3);
        let single = FlatTree::from_parents(0, &[None]);
        assert_eq!(single.len(), 1);
        assert!(single.children_pos(0).is_empty());
        assert_eq!(single.parent_pos(0), None);
    }

    #[test]
    fn flat_tree_nonzero_root() {
        // Root 2, children 0 and 1.
        let t = FlatTree::from_parents(2, &[Some(2), Some(2), None]);
        assert_eq!(t.global_of(0), 2);
        assert_eq!(t.children_pos(0).len(), 2);
        // Ascending global order: 0 before 1.
        assert_eq!(t.global_of(t.children_pos(0)[0] as usize), 0);
        assert_eq!(t.global_of(t.children_pos(0)[1] as usize), 1);
    }

    #[test]
    #[should_panic(expected = "not a single rooted tree")]
    fn disconnected_parent_array_panics() {
        // Node 2 parents node 1 which parents node 2: a cycle off-root.
        let _ = FlatTree::from_parents(0, &[None, Some(2), Some(1)]);
    }

    #[test]
    fn plan_root_cut_and_nesting() {
        let t = FlatTree::from_parents(0, &balanced_parents(121, 3));
        // Fixed depth 0: one block per root child.
        let flat0 = ShardPlan::new(&t, 4, NestDepth::Fixed(0));
        assert_eq!(flat0.spine(), &[0]);
        assert_eq!(flat0.blocks().len(), 3);
        assert_eq!(flat0.depth(), 0);
        // Auto nesting with 4 workers must cut deeper: 3 blocks of 40
        // cannot balance over 4 workers.
        let auto = ShardPlan::new(&t, 4, NestDepth::Auto);
        assert!(auto.depth() >= 1);
        assert!(auto.blocks().len() > 3);
        let threshold = 121usize.div_ceil(16).max(1);
        for b in auto.blocks() {
            assert!(b.len as usize <= threshold, "block of {} too large", b.len);
        }
        // Every spine child is a spine node or block root.
        let spine: std::collections::HashSet<u32> = auto.spine().iter().copied().collect();
        let roots: std::collections::HashSet<u32> = auto.blocks().iter().map(|b| b.start).collect();
        for &p in auto.spine() {
            for &c in t.children_pos(p as usize) {
                assert!(spine.contains(&c) || roots.contains(&c));
            }
        }
    }

    #[test]
    fn plan_assignment_is_balanced_and_deterministic() {
        let t = FlatTree::from_parents(0, &balanced_parents(200, 4));
        let a = ShardPlan::new(&t, 3, NestDepth::Auto);
        let b = ShardPlan::new(&t, 3, NestDepth::Auto);
        assert_eq!(a, b, "plans must be pure functions of their inputs");
        assert_eq!(a.groups().len(), 3);
        let loads: Vec<usize> = a
            .groups()
            .iter()
            .map(|g| g.iter().map(|&i| a.blocks()[i].len as usize).sum())
            .collect();
        let (min, max) = (*loads.iter().min().unwrap(), *loads.iter().max().unwrap());
        assert!(max - min <= 200usize.div_ceil(12), "loads {loads:?}");
    }

    #[test]
    fn plan_degenerate_shapes() {
        // Singleton: everything is spine.
        let single = FlatTree::from_parents(0, &[None]);
        let p = ShardPlan::new(&single, 8, NestDepth::Auto);
        assert_eq!(p.spine(), &[0]);
        assert!(p.blocks().is_empty());
        assert!(p.groups().is_empty());
        // Path: auto nesting stops at the safety cap, never loops.
        let path = FlatTree::from_parents(0, &balanced_parents(64, 1));
        let p = ShardPlan::new(&path, 4, NestDepth::Auto);
        assert!(p.depth() <= MAX_AUTO_ROUNDS);
        // One worker: a single group holds every block.
        let t = FlatTree::from_parents(0, &balanced_parents(40, 3));
        let p = ShardPlan::new(&t, 1, NestDepth::Fixed(1));
        assert_eq!(p.groups().len(), 1);
        assert_eq!(p.groups()[0].len(), p.blocks().len());
    }
}
