//! Flattened computation trees for simulation.
//!
//! The simulator does not execute a [`Problem`]'s search semantics — only
//! its *shape* matters for scheduling: which nodes have which children, how
//! much work each node performs, and how large its taskprivate workspace
//! is. [`SimTree::from_problem`] traverses a problem once and records
//! exactly that, so one traversal serves every (policy × worker-count)
//! simulation of a workload.
//!
//! A tree is one array of 16-byte [`Node`] records. The children of a node
//! are a block of consecutive ids, so a node's record is all a step of the
//! interpreter reads about it, and a walk over its children reads the
//! array forward.

use adaptivetc_core::{Expansion, Problem};
use std::ops::Range;

/// `Node::kids` of a leaf. An interior node with no children — a dead
/// end, which the engines run as a task or fake task like any other — has
/// `kids == 0`.
const LEAF: u32 = u32::MAX;

/// One node: its children are the ids `first .. first + kids`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Node {
    first: u32,
    /// Number of children, or [`LEAF`].
    kids: u32,
    /// Work units (`Problem::node_work`).
    work: u32,
    /// Workspace bytes (`Problem::state_bytes`).
    bytes: u32,
}

/// A flattened tree: node 0 is the root, and every node's children are
/// consecutive ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTree {
    nodes: Vec<Node>,
    leaves: u64,
    total_work: u64,
    depth: u32,
}

fn saturate(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl SimTree {
    /// Flatten a problem in one depth-first pass. Expanding a node reserves
    /// its children's ids as one block at the end of the array; the pass
    /// then descends into them in order.
    ///
    /// # Panics
    ///
    /// Panics if the tree reaches `u32::MAX` nodes.
    pub fn from_problem<P: Problem>(problem: &P) -> SimTree {
        fn visit<P: Problem>(p: &P, st: &mut P::State, id: usize, depth: u32, t: &mut SimTree) {
            let work = p.node_work(st, depth);
            t.total_work += work;
            t.depth = t.depth.max(depth);
            let first = t.nodes.len();
            t.nodes[id] = Node {
                first: first as u32,
                kids: LEAF,
                work: saturate(work),
                bytes: saturate(p.state_bytes(st) as u64),
            };
            let Expansion::Children(cs) = p.expand(st, depth) else {
                t.leaves += 1;
                return;
            };
            let end = first + cs.len();
            assert!(end < LEAF as usize, "tree exceeds u32 nodes");
            t.nodes[id].kids = cs.len() as u32;
            t.nodes.resize(end, Node::default());
            for (kid, c) in (first..).zip(cs) {
                p.apply(st, c);
                visit(p, st, kid, depth + 1, t);
                p.undo(st, c);
            }
        }

        let mut tree = SimTree {
            nodes: vec![Node::default()],
            leaves: 0,
            total_work: 0,
            depth: 0,
        };
        visit(problem, &mut problem.root(), 0, 0, &mut tree);
        tree
    }

    /// A synthetic tree built from child lists (tests, examples): node 0 is
    /// the root and an empty list is a leaf. The nodes are renumbered
    /// breadth-first, so the result does not depend on the input's ids.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if a child id is out of range, the root is
    /// someone's child, a node has two parents, or a node is unreachable
    /// from the root.
    pub fn from_lists(children: Vec<Vec<u32>>, uniform_work: u32, uniform_bytes: u32) -> SimTree {
        let n = children.len();
        let mut seen = vec![false; n];
        seen[0] = true;
        // `order[i]` is the input id of node `i`.
        let mut order = vec![0u32];
        let mut nodes = Vec::with_capacity(n);
        let (mut leaves, mut depth, mut level_end) = (0, 0, 1);
        while let Some(&id) = order.get(nodes.len()) {
            if nodes.len() == level_end {
                (depth, level_end) = (depth + 1, order.len());
            }
            let list = &children[id as usize];
            for &k in list {
                assert!((k as usize) < n, "child id {k} out of range");
                assert!(k != 0, "the root, node 0, is a child of node {id}");
                assert!(!seen[k as usize], "node {k} has two parents");
                seen[k as usize] = true;
                order.push(k);
            }
            leaves += u64::from(list.is_empty());
            nodes.push(Node {
                first: (order.len() - list.len()) as u32,
                kids: if list.is_empty() {
                    LEAF
                } else {
                    list.len() as u32
                },
                work: uniform_work,
                bytes: uniform_bytes,
            });
        }
        if let Some(id) = seen.iter().position(|&s| !s) {
            panic!("node {id} is unreachable from the root");
        }
        SimTree {
            nodes,
            leaves,
            total_work: u64::from(uniform_work) * n as u64,
            depth,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (it never is — the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The ids of a node's children, in order.
    #[inline]
    pub fn children(&self, node: u32) -> Range<u32> {
        let n = self.nodes[node as usize];
        let kids = if n.kids == LEAF { 0 } else { n.kids };
        n.first..n.first + kids
    }

    /// A node's `k`-th child, if it has one.
    #[inline]
    pub fn child(&self, node: u32, k: u32) -> Option<u32> {
        let n = self.nodes[node as usize];
        (k < n.kids && n.kids != LEAF).then_some(n.first + k)
    }

    /// Whether a node is a leaf: no children, and not a dead end.
    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        self.nodes[node as usize].kids == LEAF
    }

    /// Work units at a node.
    #[inline]
    pub fn work(&self, node: u32) -> u64 {
        u64::from(self.nodes[node as usize].work)
    }

    /// Workspace bytes at a node.
    #[inline]
    pub fn bytes(&self, node: u32) -> u64 {
        u64::from(self.nodes[node as usize].bytes)
    }

    /// Leaf count (the simulator's correctness check value).
    pub fn leaf_count(&self) -> u64 {
        self.leaves
    }

    /// Total work units over all nodes.
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Maximum depth: the root is at depth 0.
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::serial;
    use adaptivetc_core::Expansion;

    struct Tern(u32);
    impl Problem for Tern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == self.0 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    #[test]
    fn flattening_matches_serial_metrics() {
        let p = Tern(6);
        let t = SimTree::from_problem(&p);
        let (_, r) = serial::run(&p);
        assert_eq!(t.len() as u64, r.nodes);
        assert_eq!(t.leaf_count(), r.leaves);
        assert_eq!(t.depth(), r.max_depth);
        assert_eq!(t.total_work(), r.work_units);
    }

    #[test]
    fn children_are_in_order() {
        let t = SimTree::from_problem(&Tern(2));
        assert_eq!(t.children(0).len(), 3);
        // The root's children are the first block: its first child is node 1.
        assert_eq!(t.child(0, 0), Some(1));
        assert!(t.is_leaf(t.child(1, 0).unwrap()));
        assert_eq!(t.child(0, 3), None);
        assert_eq!(t.children(t.child(1, 0).unwrap()), 7..7);
    }

    #[test]
    fn a_node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    /// A left spine of height `h` whose right children are all dead ends.
    struct DeadSpine(u32);
    impl Problem for DeadSpine {
        type State = Vec<u8>;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> Vec<u8> {
            Vec::new()
        }
        fn expand(&self, path: &Vec<u8>, d: u32) -> Expansion<u8, u64> {
            if path.last() == Some(&1) {
                Expansion::Children(vec![])
            } else if d == self.0 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1])
            }
        }
        fn apply(&self, path: &mut Vec<u8>, c: u8) {
            path.push(c);
        }
        fn undo(&self, path: &mut Vec<u8>, _: u8) {
            path.pop();
        }
    }

    #[test]
    fn a_dead_end_is_interior_as_in_serial() {
        let p = DeadSpine(70);
        let t = SimTree::from_problem(&p);
        let (_, r) = serial::run(&p);
        assert_eq!(t.len() as u64, r.nodes);
        assert_eq!((t.leaf_count(), r.leaves), (1, 1));
        let childless: Vec<u32> = (0..t.len() as u32)
            .filter(|&n| t.children(n).is_empty())
            .collect();
        assert_eq!(childless.len(), 71, "70 dead ends and the one leaf");
        assert_eq!(childless.iter().filter(|&&n| t.is_leaf(n)).count(), 1);
    }

    #[test]
    fn from_lists_counts_leaves() {
        let t = SimTree::from_lists(vec![vec![1, 2], vec![], vec![3], vec![]], 5, 64);
        assert_eq!(t.len(), 4);
        assert_eq!(t.leaf_count(), 2);
        assert_eq!(t.work(0), 5);
        assert_eq!(t.bytes(3), 64);
        assert_eq!(t.total_work(), 20);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_lists_validates_ids() {
        SimTree::from_lists(vec![vec![7]], 1, 0);
    }

    #[test]
    #[should_panic(expected = "node 2 has two parents")]
    fn from_lists_rejects_a_second_parent() {
        SimTree::from_lists(vec![vec![1, 2], vec![2], vec![]], 1, 0);
    }

    #[test]
    #[should_panic(expected = "the root, node 0, is a child of node 1")]
    fn from_lists_rejects_a_parent_of_the_root() {
        SimTree::from_lists(vec![vec![1], vec![0]], 1, 0);
    }

    #[test]
    #[should_panic(expected = "node 2 is unreachable from the root")]
    fn from_lists_rejects_an_unreachable_node() {
        SimTree::from_lists(vec![vec![1], vec![], vec![]], 1, 0);
    }

    /// An irregular tree: each node below the root has 0 to 3 children (0
    /// is a leaf), a hash of its path; every node has 3 work units.
    struct Ragged(u32);
    impl Problem for Ragged {
        type State = u64;
        type Choice = u64;
        type Out = u64;
        fn root(&self) -> u64 {
            1
        }
        fn expand(&self, path: &u64, d: u32) -> Expansion<u64, u64> {
            let kids = match d {
                0 => 3,
                d if d == self.0 => 0,
                _ => path.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62,
            };
            match kids {
                0 => Expansion::Leaf(1),
                k => Expansion::Children((0..k).collect()),
            }
        }
        fn apply(&self, path: &mut u64, c: u64) {
            *path = *path * 4 + c;
        }
        fn undo(&self, path: &mut u64, c: u64) {
            *path = (*path - c) / 4;
        }
        fn node_work(&self, _: &u64, _: u32) -> u64 {
            3
        }
    }

    /// `t`'s child lists with the nodes numbered in depth-first preorder.
    fn preorder_lists(t: &SimTree) -> Vec<Vec<u32>> {
        fn walk(t: &SimTree, node: u32, lists: &mut Vec<Vec<u32>>) -> u32 {
            let id = lists.len();
            lists.push(Vec::new());
            for c in t.children(node) {
                let kid = walk(t, c, lists);
                lists[id].push(kid);
            }
            id as u32
        }
        let mut lists = Vec::new();
        walk(t, 0, &mut lists);
        lists
    }

    #[test]
    fn from_lists_reports_the_depth_from_problem_does() {
        for p in [Ragged(12), Ragged(1)] {
            let t = SimTree::from_problem(&p);
            assert_eq!(t.depth(), serial::run(&p).1.max_depth);
            assert_eq!(
                SimTree::from_lists(preorder_lists(&t), 3, 8).depth(),
                t.depth()
            );
        }
        assert_eq!(SimTree::from_lists(vec![vec![]], 1, 0).depth(), 0);
    }

    /// No trace event or counter carries a node id, so how the nodes are
    /// numbered must not change a simulated run.
    #[test]
    fn node_numbering_is_invisible() {
        use crate::{simulate, CostModel, Policy};
        use adaptivetc_core::{Config, XorShift64};

        let by_problem = SimTree::from_problem(&Ragged(14));
        let lists = preorder_lists(&by_problem);
        let n = lists.len();
        assert!(n > 1000, "a tree big enough to steal from: {n} nodes");
        // A seeded permutation of the ids, the root kept at 0.
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = XorShift64::new(36);
        for i in (2..n).rev() {
            perm.swap(i, 1 + rng.below_usize(i));
        }
        let mut shuffled = vec![Vec::new(); n];
        for (id, list) in lists.iter().enumerate() {
            shuffled[perm[id] as usize] = list.iter().map(|&k| perm[k as usize]).collect();
        }
        let by_preorder = SimTree::from_lists(lists, 3, 8);
        let by_shuffle = SimTree::from_lists(shuffled, 3, 8);
        assert_eq!(by_preorder, by_shuffle, "breadth-first renumbering");
        for t in [&by_preorder, &by_shuffle] {
            assert_eq!(
                (t.len(), t.leaf_count(), t.total_work(), t.depth()),
                (
                    n,
                    by_problem.leaf_count(),
                    by_problem.total_work(),
                    by_problem.depth()
                )
            );
        }
        for policy in [
            Policy::Cilk,
            Policy::CilkSynched,
            Policy::CutoffProgrammer(3),
            Policy::CutoffLibrary,
            Policy::AdaptiveTc,
            Policy::Tascell,
        ] {
            for threads in [1, 2, 8] {
                let run = |t: &SimTree| {
                    simulate(t, policy, &Config::new(threads), CostModel::calibrated())
                };
                let expected = run(&by_problem);
                assert_eq!(expected.leaves, by_problem.leaf_count());
                for t in [&by_preorder, &by_shuffle] {
                    assert_eq!(run(t), expected, "{} at {threads}", policy.name());
                }
            }
        }
    }
}
