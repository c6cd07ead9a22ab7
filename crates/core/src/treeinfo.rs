//! Computation-tree metrics (Table 3 / Figure 8 of the paper).
//!
//! The paper characterises its unbalanced inputs by total size, leaf count,
//! depth and the percentage of the tree under each depth-1 subtree. This
//! module computes those metrics for any [`Problem`] by traversal.

use crate::problem::{Expansion, Problem};

/// Shape metrics of a computation tree.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::{Problem, Expansion};
/// use adaptivetc_core::treeinfo::TreeInfo;
///
/// struct Two;
/// impl Problem for Two {
///     type State = u32;
///     type Choice = u8;
///     type Out = u64;
///     fn root(&self) -> u32 { 0 }
///     fn expand(&self, d: &u32, _: u32) -> Expansion<u8, u64> {
///         if *d == 2 { Expansion::Leaf(1) } else { Expansion::Children(vec![0, 1]) }
///     }
///     fn apply(&self, d: &mut u32, _: u8) { *d += 1; }
///     fn undo(&self, d: &mut u32, _: u8) { *d -= 1; }
/// }
///
/// let info = TreeInfo::measure(&Two);
/// assert_eq!(info.size, 7);
/// assert_eq!(info.leaves, 4);
/// assert_eq!(info.depth, 2);
/// assert_eq!(info.depth1_shares, vec![3, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TreeInfo {
    /// Total node count.
    pub size: u64,
    /// Leaf node count (`Expansion::Leaf`; a dead end is interior).
    pub leaves: u64,
    /// Maximum depth (root = 0).
    pub depth: u32,
    /// Node count of each depth-1 subtree, in child order.
    pub depth1_shares: Vec<u64>,
}

impl TreeInfo {
    /// Traverse the problem's full tree and measure it.
    ///
    /// Cost is one serial traversal; intended for input characterisation,
    /// not for the timed experiments.
    pub fn measure<P: Problem>(problem: &P) -> TreeInfo {
        let mut state = problem.root();
        let mut info = TreeInfo::default();
        match problem.expand(&state, 0) {
            Expansion::Leaf(_) => {
                info.size = 1;
                info.leaves = 1;
            }
            Expansion::Children(choices) => {
                info.size = 1;
                for c in choices {
                    problem.apply(&mut state, c);
                    let (sz, lv, dp) = subtree(problem, &mut state, 1);
                    problem.undo(&mut state, c);
                    info.depth1_shares.push(sz);
                    info.size += sz;
                    info.leaves += lv;
                    info.depth = info.depth.max(dp);
                }
            }
        }
        info
    }

    /// Depth-1 subtree sizes as percentages of the whole tree, mirroring the
    /// "percent numbers" column of Table 3.
    pub fn depth1_percent(&self) -> Vec<f64> {
        self.depth1_shares
            .iter()
            .map(|&s| 100.0 * s as f64 / self.size as f64)
            .collect()
    }

    /// A skew measure in `[0, 1]`: largest depth-1 share minus the share an
    /// even split would give. 0 for a perfectly balanced first level.
    pub fn depth1_skew(&self) -> f64 {
        if self.depth1_shares.is_empty() || self.size <= 1 {
            return 0.0;
        }
        let max = *self.depth1_shares.iter().max().unwrap() as f64;
        let below = (self.size - 1) as f64;
        let even = below / self.depth1_shares.len() as f64;
        ((max - even) / below).max(0.0)
    }
}

fn subtree<P: Problem>(problem: &P, state: &mut P::State, depth: u32) -> (u64, u64, u32) {
    match problem.expand(state, depth) {
        Expansion::Leaf(_) => (1, 1, depth),
        Expansion::Children(choices) => {
            let mut size = 1;
            let mut leaves = 0;
            let mut max_depth = depth;
            for c in choices {
                problem.apply(state, c);
                let (sz, lv, dp) = subtree(problem, state, depth + 1);
                problem.undo(state, c);
                size += sz;
                leaves += lv;
                max_depth = max_depth.max(dp);
            }
            (size, leaves, max_depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Skewed;
    impl Problem for Skewed {
        // state: path of choices taken
        type State = Vec<u8>;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> Vec<u8> {
            Vec::new()
        }
        fn expand(&self, st: &Vec<u8>, _depth: u32) -> Expansion<u8, u64> {
            // Left spine of length 5; right children are leaves.
            if st.len() >= 5 || st.contains(&1) {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1])
            }
        }
        fn apply(&self, st: &mut Vec<u8>, c: u8) {
            st.push(c);
        }
        fn undo(&self, st: &mut Vec<u8>, _c: u8) {
            st.pop();
        }
    }

    #[test]
    fn measures_skewed_tree() {
        let info = TreeInfo::measure(&Skewed);
        // Root + 5 levels of (left, right-leaf): nodes = 1 + 2*5 = 11.
        assert_eq!(info.size, 11);
        assert_eq!(info.depth, 5);
        assert_eq!(info.depth1_shares.len(), 2);
        assert!(info.depth1_shares[0] > info.depth1_shares[1]);
        assert!(info.depth1_skew() > 0.0);
    }

    #[test]
    fn percentages_sum_to_children_share() {
        let info = TreeInfo::measure(&Skewed);
        let sum: f64 = info.depth1_percent().iter().sum();
        let expected = 100.0 * (info.size - 1) as f64 / info.size as f64;
        assert!((sum - expected).abs() < 1e-9);
    }

    struct SingleLeaf;
    impl Problem for SingleLeaf {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(1)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }

    #[test]
    fn single_leaf_tree() {
        let info = TreeInfo::measure(&SingleLeaf);
        assert_eq!(info.size, 1);
        assert_eq!(info.leaves, 1);
        assert_eq!(info.depth, 0);
        assert!(info.depth1_shares.is_empty());
        assert_eq!(info.depth1_skew(), 0.0);
    }
}
