//! The Figure 1 worked example: the paper's 49-node call tree, on which
//! AdaptiveTC generates ~20 tasks while Cilk generates one per node.
//!
//! The exact 49-node tree of Figure 1 is only partially recoverable from
//! the paper's prose (known edges: 0→{1,40}, 1→{2,7}, 40→{41,44}, with the
//! bulk of the mass under node 7); the reconstruction here respects those
//! edges and the 49-node total. It is shared by the `fig1_tasks` bench
//! binary and the scheduler/simulator differential tests, so the two
//! always agree on the tree they count tasks on.

use adaptivetc_core::{Expansion, Problem};

/// A 49-node reconstruction of the Figure 1 call tree. Leaves return 1,
/// so the answer is the leaf count: [`Fig1Tree::LEAVES`].
///
/// The tree is a constant, so the problem holds nothing: building,
/// sending or dropping one touches no memory.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fig1Tree;

impl Fig1Tree {
    /// Number of nodes in the reconstruction (as in the figure).
    pub const NODES: usize = 49;
    /// Number of leaves, i.e. the search's answer.
    pub const LEAVES: u64 = 25;

    /// The reconstruction.
    pub const fn new() -> Self {
        Fig1Tree
    }
}

/// Each node's children, in expansion order. 0→{1,40}, 1→{2,7},
/// 40→{41,44}; 2, 41, 44 root small subtrees; 7 roots the large one (the
/// figure's nodes 8–39): 3-wide, then a binary, bushy shape.
#[rustfmt::skip]
static CHILDREN: [&[u32]; Fig1Tree::NODES] = [
    /*  0.. 7 */ &[1, 40], &[2, 7], &[3, 4], &[5, 6], &[], &[], &[], &[8, 9, 10],
    /*  8..14 */ &[11, 12], &[13, 14], &[15, 16], &[17, 18], &[19, 20], &[21, 22], &[23, 24],
    /* 15..21 */ &[25, 26], &[27, 28], &[29, 30], &[31, 32], &[33, 34], &[35, 36], &[37, 38],
    /* 22..31 */ &[39], &[], &[], &[], &[], &[], &[], &[], &[], &[],
    /* 32..39 */ &[], &[], &[], &[], &[], &[], &[], &[],
    /* 40..48 */ &[41, 44], &[42, 43], &[], &[], &[45, 46], &[47, 48], &[], &[], &[],
];

impl Problem for Fig1Tree {
    type State = Vec<u32>; // path of node ids
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Vec<u32> {
        vec![0]
    }
    fn expand(&self, path: &Vec<u32>, _d: u32) -> Expansion<u32, u64> {
        let node = *path.last().expect("path never empty") as usize;
        let kids = CHILDREN[node];
        if kids.is_empty() {
            Expansion::Leaf(1)
        } else {
            Expansion::Children(kids.to_vec())
        }
    }
    fn apply(&self, path: &mut Vec<u32>, c: u32) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u32>, _c: u32) {
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::serial;

    #[test]
    fn shape_matches_the_figure() {
        assert_eq!(std::mem::size_of::<Fig1Tree>(), 0);
        let mut parents = [0usize; Fig1Tree::NODES];
        for &kid in CHILDREN.iter().flat_map(|kids| kids.iter()) {
            parents[kid as usize] += 1;
        }
        let edges: usize = parents.iter().sum();
        assert_eq!(edges, Fig1Tree::NODES - 1, "a tree has NODES - 1 edges");
        assert_eq!(parents[0], 0, "the root has no parent");
        assert!(parents[1..].iter().all(|&p| p == 1), "one parent each");
        let reachable: usize = {
            let mut seen = [false; Fig1Tree::NODES];
            let mut stack = vec![0u32];
            while let Some(n) = stack.pop() {
                if !std::mem::replace(&mut seen[n as usize], true) {
                    stack.extend(CHILDREN[n as usize]);
                }
            }
            seen.iter().filter(|s| **s).count()
        };
        assert_eq!(reachable, Fig1Tree::NODES, "every node is in the tree");
        let (leaves, report) = serial::run(&Fig1Tree::new());
        assert_eq!(leaves, Fig1Tree::LEAVES);
        assert_eq!(report.nodes, Fig1Tree::NODES as u64);
        assert_eq!(report.max_depth, 6, "0→1→7→8→11→17→29");
    }
}
