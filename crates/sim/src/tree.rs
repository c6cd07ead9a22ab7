//! Flattened computation trees for simulation.
//!
//! The simulator does not execute a [`Problem`]'s search semantics — only
//! its *shape* matters for scheduling: which nodes have which children, how
//! much work each node performs, and how large its taskprivate workspace
//! is. [`SimTree::from_problem`] traverses a problem once and records
//! exactly that, so one traversal serves every (policy × worker-count)
//! simulation of a workload.
//!
//! A tree is one array of `u32`s, one per node, numbered in depth-first
//! preorder: a node's entry is its subtree's node count, with one bit that
//! tells a leaf from a dead end. A node's first child is the next id, each
//! child's next sibling is one subtree further on, and its children end
//! where its own subtree does, so a walk over a subtree reads the array
//! forward. Work units and workspace bytes are each stored once when every
//! node has the same value, as on all eight Table-1 instances, and per node
//! only when they vary.

use adaptivetc_core::{Expansion, Problem};

/// The bit of a node's entry that marks a leaf. The rest is the subtree's
/// node count: 1 for a leaf, and for an interior node with no children — a
/// dead end, which the engines run as a task or fake task like any other.
const LEAF: u32 = 1 << 31;

/// One value per node: a single value while every node shares it, else an
/// array indexed by node id. A column is `PerNode` only when its values
/// differ, so equal trees store equal columns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Column {
    Uniform(u32),
    PerNode(Vec<u32>),
}

impl Column {
    #[inline]
    fn get(&self, node: u32) -> u32 {
        match self {
            Column::Uniform(v) => *v,
            Column::PerNode(vs) => vs[node as usize],
        }
    }

    /// Append node `id`'s value, `id` being the number of values so far.
    /// The root's value seeds the column; the first value that differs
    /// turns it per-node, every earlier node filled with the value they
    /// shared.
    fn push(&mut self, id: usize, v: u32) {
        match self {
            Column::Uniform(u) if id == 0 || *u == v => *u = v,
            Column::Uniform(u) => {
                let mut vs = vec![*u; id + 1];
                vs[id] = v;
                *self = Column::PerNode(vs);
            }
            Column::PerNode(vs) => vs.push(v),
        }
    }
}

/// A flattened tree: node 0 is the root, and the nodes are numbered in
/// depth-first preorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTree {
    /// Per node: its subtree's node count, or'ed with [`LEAF`] at a leaf.
    nodes: Vec<u32>,
    work: Column,
    bytes: Column,
    leaves: u64,
    total_work: u64,
    depth: u32,
}

fn saturate(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

impl SimTree {
    fn new(work: u32, bytes: u32) -> SimTree {
        SimTree {
            nodes: Vec::new(),
            work: Column::Uniform(work),
            bytes: Column::Uniform(bytes),
            leaves: 0,
            total_work: 0,
            depth: 0,
        }
    }

    /// Append a node at `depth`; returns its id. Its entry stays 0 until
    /// [`SimTree::close`].
    fn open(&mut self, depth: u32) -> usize {
        let id = self.nodes.len();
        assert!(id < LEAF as usize, "tree exceeds 2^31 nodes");
        self.nodes.push(0);
        self.depth = self.depth.max(depth);
        id
    }

    /// Close node `id`: its subtree is every node appended since it was
    /// opened.
    fn close(&mut self, id: usize, leaf: bool) {
        self.leaves += u64::from(leaf);
        self.nodes[id] = (self.nodes.len() - id) as u32 | if leaf { LEAF } else { 0 };
    }

    /// Flatten a problem in one depth-first pass, appending each node as
    /// it is visited.
    ///
    /// # Panics
    ///
    /// Panics if the tree reaches 2^31 nodes.
    pub fn from_problem<P: Problem>(problem: &P) -> SimTree {
        fn visit<P: Problem>(p: &P, st: &mut P::State, depth: u32, t: &mut SimTree) {
            let work = p.node_work(st, depth);
            t.total_work += work;
            let id = t.open(depth);
            let (work, bytes) = (saturate(work), saturate(p.state_bytes(st) as u64));
            t.work.push(id, work);
            t.bytes.push(id, bytes);
            let Expansion::Children(cs) = p.expand(st, depth) else {
                return t.close(id, true);
            };
            for c in cs {
                p.apply(st, c);
                visit(p, st, depth + 1, t);
                p.undo(st, c);
            }
            t.close(id, false);
        }

        let mut tree = SimTree::new(0, 0);
        visit(problem, &mut problem.root(), 0, &mut tree);
        tree
    }

    /// A synthetic tree built from child lists (tests, examples): node 0 is
    /// the root and an empty list is a leaf. The nodes are renumbered in
    /// depth-first preorder, as [`SimTree::from_problem`] numbers them, so
    /// the result does not depend on the input's ids.
    ///
    /// # Panics
    ///
    /// Panics, naming the id, if a child id is out of range, the root is
    /// someone's child, a node has two parents, or a node is unreachable
    /// from the root.
    pub fn from_lists(children: Vec<Vec<u32>>, uniform_work: u32, uniform_bytes: u32) -> SimTree {
        fn visit(lists: &[Vec<u32>], seen: &mut [bool], id: u32, depth: u32, t: &mut SimTree) {
            let at = t.open(depth);
            let list = &lists[id as usize];
            for &k in list {
                assert!((k as usize) < lists.len(), "child id {k} out of range");
                assert!(k != 0, "the root, node 0, is a child of node {id}");
                assert!(!seen[k as usize], "node {k} has two parents");
                seen[k as usize] = true;
                visit(lists, seen, k, depth + 1, t);
            }
            t.close(at, list.is_empty());
        }

        let n = children.len();
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut tree = SimTree::new(uniform_work, uniform_bytes);
        visit(&children, &mut seen, 0, 0, &mut tree);
        if let Some(id) = seen.iter().position(|&s| !s) {
            panic!("node {id} is unreachable from the root");
        }
        tree.total_work = u64::from(uniform_work) * n as u64;
        tree
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty (it never is — the root always exists).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node's first child, or [`SimTree::children_end`] when it has none.
    #[inline]
    pub fn first_child(&self, node: u32) -> u32 {
        node + 1
    }

    /// The child after `child` among its parent's children; the parent's
    /// [`SimTree::children_end`] after the last one.
    #[inline]
    pub fn next_sibling(&self, child: u32) -> u32 {
        child + (self.nodes[child as usize] & !LEAF)
    }

    /// One past a node's last child: a cursor over its children starts at
    /// [`SimTree::first_child`] and steps by [`SimTree::next_sibling`] until
    /// it reaches this.
    #[inline]
    pub fn children_end(&self, node: u32) -> u32 {
        self.next_sibling(node)
    }

    /// The children from cursor `from` up to cursor `end`, in order.
    pub(crate) fn siblings(&self, from: u32, end: u32) -> impl Iterator<Item = u32> + '_ {
        let within = move |c: u32| (c < end).then_some(c);
        std::iter::successors(within(from), move |&c| within(self.next_sibling(c)))
    }

    /// Whether a node is a leaf: no children, and not a dead end.
    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        self.nodes[node as usize] & LEAF != 0
    }

    /// Work units at a node.
    #[inline]
    pub fn work(&self, node: u32) -> u64 {
        u64::from(self.work.get(node))
    }

    /// Workspace bytes at a node.
    #[inline]
    pub fn bytes(&self, node: u32) -> u64 {
        u64::from(self.bytes.get(node))
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

    /// A node's children, walked with the interpreters' cursor.
    fn kids(t: &SimTree, node: u32) -> Vec<u32> {
        t.siblings(t.first_child(node), t.children_end(node))
            .collect()
    }

    #[test]
    fn children_are_in_order() {
        let t = SimTree::from_problem(&Tern(2));
        // Each child of the root is followed by its own three leaves.
        assert_eq!(kids(&t, 0), [1, 5, 9]);
        assert_eq!(kids(&t, 5), [6, 7, 8]);
        assert!(t.is_leaf(6) && !t.is_leaf(5));
        assert_eq!(kids(&t, 6), []);
        assert_eq!((t.children_end(0), t.children_end(5)), (13, 9));
    }

    #[test]
    fn a_node_is_four_bytes() {
        let t = SimTree::from_problem(&Tern(3));
        assert_eq!(std::mem::size_of_val(t.nodes.as_slice()), 4 * t.len());
    }

    /// `Tern` whose values vary: a node at depth `d` does `d + 1` work
    /// units, and its workspace is 8 bytes above the leaves and 16 at them,
    /// so the byte column turns per-node only at the first leaf.
    struct Graded(u32);
    impl Problem for Graded {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, d: &u32, _: u32) -> Expansion<u8, u64> {
            Tern(self.0).expand(d, *d)
        }
        fn apply(&self, d: &mut u32, _: u8) {
            *d += 1;
        }
        fn undo(&self, d: &mut u32, _: u8) {
            *d -= 1;
        }
        fn node_work(&self, _: &u32, d: u32) -> u64 {
            u64::from(d) + 1
        }
        fn state_bytes(&self, d: &u32) -> usize {
            if *d == self.0 {
                16
            } else {
                8
            }
        }
    }

    /// Walk `t` beside `p`'s own traversal: every node's work and bytes
    /// are what the problem reports at that node.
    fn assert_columns_match<P: Problem>(p: &P, t: &SimTree) {
        fn walk<P: Problem>(p: &P, st: &mut P::State, t: &SimTree, node: u32, depth: u32) {
            assert_eq!(t.work(node), p.node_work(st, depth), "work at node {node}");
            assert_eq!(
                t.bytes(node),
                p.state_bytes(st) as u64,
                "bytes at node {node}"
            );
            let cs = match p.expand(st, depth) {
                Expansion::Children(cs) => cs,
                Expansion::Leaf(_) => Vec::new(),
            };
            assert_eq!(kids(t, node).len(), cs.len(), "children of node {node}");
            for (kid, c) in kids(t, node).into_iter().zip(cs) {
                p.apply(st, c);
                walk(p, st, t, kid, depth + 1);
                p.undo(st, c);
            }
        }
        walk(p, &mut p.root(), t, 0, 0);
    }

    #[test]
    fn values_that_vary_per_node_are_kept_per_node() {
        for p in [Graded(0), Graded(1), Graded(5)] {
            let t = SimTree::from_problem(&p);
            let varies = p.0 > 0;
            assert_eq!(matches!(t.work, Column::PerNode(_)), varies);
            assert_eq!(matches!(t.bytes, Column::PerNode(_)), varies);
            assert_columns_match(&p, &t);
            let (_, r) = serial::run(&p);
            assert_eq!(t.total_work(), r.work_units);
            assert_eq!(t.len() as u64, r.nodes);
        }
        for p in [Tern(4), Tern(0)] {
            let t = SimTree::from_problem(&p);
            assert!(matches!(t.work, Column::Uniform(1)), "{:?}", t.work);
            assert!(matches!(t.bytes, Column::Uniform(4)), "{:?}", t.bytes);
            assert_columns_match(&p, &t);
        }
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
            .filter(|&n| kids(&t, n).is_empty())
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
            for c in kids(t, node) {
                let kid = walk(t, c, lists);
                lists[id].push(kid);
            }
            id as u32
        }
        let mut lists = Vec::new();
        walk(t, 0, &mut lists);
        lists
    }

    /// Both constructors number a tree in preorder, so a problem's tree
    /// and its child lists give equal trees.
    #[test]
    fn from_problem_numbers_nodes_as_from_lists_does() {
        for p in [Ragged(12), Ragged(1)] {
            let t = SimTree::from_problem(&p);
            assert_eq!(SimTree::from_lists(preorder_lists(&t), 3, 8), t);
        }
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
        assert_eq!(by_preorder, by_shuffle, "preorder renumbering");
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
