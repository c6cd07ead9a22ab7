//! Flattened computation trees for simulation.
//!
//! The simulator does not execute a [`Problem`]'s search semantics — only
//! its *shape* matters for scheduling: which nodes have which children, how
//! much work each node performs, and how large its taskprivate workspace
//! is. [`SimTree::from_problem`] traverses a problem once and records
//! exactly that, so one traversal serves every (policy × worker-count)
//! simulation of a workload.

use adaptivetc_core::{Expansion, Problem};

/// A flattened tree: node 0 is the root; children of node `i` are the ids
/// `kids[kid_start[i] .. kid_start[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimTree {
    kid_start: Vec<u32>,
    kids: Vec<u32>,
    /// Work units per node (`Problem::node_work`), or empty if uniform 1.
    work: Vec<u32>,
    /// Workspace bytes per node (`Problem::state_bytes`), or empty if
    /// uniform.
    bytes: Vec<u32>,
    uniform_bytes: u32,
    /// One bit per node, set on a dead end — an interior node with no
    /// children, which the engines run as a task or fake task like any
    /// other. Empty when the tree has none.
    dead_ends: Vec<u64>,
    leaves: u64,
    total_work: u64,
    depth: u32,
}

impl SimTree {
    /// Flatten a problem by depth-first traversal.
    ///
    /// # Panics
    ///
    /// Panics if the tree exceeds `u32::MAX` nodes.
    pub fn from_problem<P: Problem>(problem: &P) -> SimTree {
        struct Builder {
            kids: Vec<Vec<u32>>,
            work: Vec<u32>,
            bytes: Vec<u32>,
            dead_ends: Vec<u64>,
            leaves: u64,
            total_work: u64,
            depth: u32,
        }
        let mut b = Builder {
            kids: Vec::new(),
            work: Vec::new(),
            bytes: Vec::new(),
            dead_ends: Vec::new(),
            leaves: 0,
            total_work: 0,
            depth: 0,
        };

        fn visit<P: Problem>(p: &P, st: &mut P::State, depth: u32, b: &mut Builder) -> u32 {
            let id = u32::try_from(b.kids.len()).expect("tree exceeds u32 nodes");
            b.kids.push(Vec::new());
            let w = p.node_work(st, depth);
            b.work.push(u32::try_from(w).unwrap_or(u32::MAX));
            b.bytes
                .push(u32::try_from(p.state_bytes(st)).unwrap_or(u32::MAX));
            b.total_work += w;
            b.depth = b.depth.max(depth);
            match p.expand(st, depth) {
                Expansion::Leaf(_) => {
                    b.leaves += 1;
                }
                Expansion::Children(cs) => {
                    if cs.is_empty() {
                        let (word, bit) = (id as usize / 64, id % 64);
                        b.dead_ends.resize(b.dead_ends.len().max(word + 1), 0);
                        b.dead_ends[word] |= 1 << bit;
                    }
                    for c in cs {
                        p.apply(st, c);
                        let kid = visit(p, st, depth + 1, b);
                        p.undo(st, c);
                        b.kids[id as usize].push(kid);
                    }
                }
            }
            id
        }

        let mut state = problem.root();
        visit(problem, &mut state, 0, &mut b);

        // Flatten the child lists.
        let n = b.kids.len();
        let mut kid_start = Vec::with_capacity(n + 1);
        let mut kids = Vec::new();
        kid_start.push(0u32);
        for list in &b.kids {
            kids.extend_from_slice(list);
            kid_start.push(u32::try_from(kids.len()).expect("edge count fits u32"));
        }
        SimTree {
            kid_start,
            kids,
            work: b.work,
            bytes: b.bytes,
            uniform_bytes: 0,
            dead_ends: b.dead_ends,
            leaves: b.leaves,
            total_work: b.total_work,
            depth: b.depth,
        }
    }

    /// A synthetic tree built directly from child lists (tests, examples);
    /// an empty list is a leaf.
    ///
    /// # Panics
    ///
    /// Panics if a child id is out of range.
    pub fn from_lists(children: Vec<Vec<u32>>, uniform_work: u32, uniform_bytes: u32) -> SimTree {
        let n = children.len();
        let mut kid_start = Vec::with_capacity(n + 1);
        let mut kids = Vec::new();
        kid_start.push(0u32);
        let mut leaves = 0;
        for list in &children {
            for &k in list {
                assert!((k as usize) < n, "child id {k} out of range");
            }
            if list.is_empty() {
                leaves += 1;
            }
            kids.extend_from_slice(list);
            kid_start.push(kids.len() as u32);
        }
        SimTree {
            kid_start,
            kids,
            work: vec![uniform_work; n],
            bytes: Vec::new(),
            uniform_bytes,
            dead_ends: Vec::new(),
            leaves,
            total_work: u64::from(uniform_work) * n as u64,
            depth: 0, // unknown for hand-built lists; not used by the engine
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.kid_start.len() - 1
    }

    /// Whether the tree is empty (it never is — the root always exists).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Children of a node.
    #[inline]
    pub fn children(&self, node: u32) -> &[u32] {
        let i = node as usize;
        &self.kids[self.kid_start[i] as usize..self.kid_start[i + 1] as usize]
    }

    /// Whether a node is a leaf: no children, and not a dead end.
    #[inline]
    pub fn is_leaf(&self, node: u32) -> bool {
        self.children(node).is_empty()
            && self
                .dead_ends
                .get(node as usize / 64)
                .is_none_or(|word| word >> (node % 64) & 1 == 0)
    }

    /// Work units at a node.
    #[inline]
    pub fn work(&self, node: u32) -> u64 {
        u64::from(self.work[node as usize])
    }

    /// Workspace bytes at a node.
    #[inline]
    pub fn bytes(&self, node: u32) -> u64 {
        if self.bytes.is_empty() {
            u64::from(self.uniform_bytes)
        } else {
            u64::from(self.bytes[node as usize])
        }
    }

    /// Leaf count (the simulator's correctness check value).
    pub fn leaf_count(&self) -> u64 {
        self.leaves
    }

    /// Total work units over all nodes.
    pub fn total_work(&self) -> u64 {
        self.total_work
    }

    /// Maximum depth observed while flattening (0 for hand-built lists).
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
        // DFS numbering: first child of the root is node 1.
        assert_eq!(t.children(0)[0], 1);
        assert!(t.is_leaf(t.children(t.children(0)[0])[0]));
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
}
