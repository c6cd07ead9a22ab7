//! The [`Problem`] trait: the task body shared by every scheduler.

use crate::reduce::Reduce;

/// What a node of the computation tree expands to.
///
/// A node is either a *leaf* carrying a result contribution, or an interior
/// node with an ordered list of choices (one child per choice).
///
/// # Examples
///
/// ```
/// use adaptivetc_core::Expansion;
///
/// let leaf: Expansion<u8, u64> = Expansion::Leaf(1);
/// assert!(leaf.is_leaf());
/// let node: Expansion<u8, u64> = Expansion::Children(vec![0, 1, 2]);
/// assert_eq!(node.child_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expansion<C, O> {
    /// A terminal node contributing `O` to the result.
    Leaf(O),
    /// An interior node whose children are produced by applying each choice
    /// in order.
    Children(Vec<C>),
}

impl<C, O> Expansion<C, O> {
    /// Returns `true` if this expansion is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Expansion::Leaf(_))
    }

    /// Number of children (zero for a leaf).
    pub fn child_count(&self) -> usize {
        match self {
            Expansion::Leaf(_) => 0,
            Expansion::Children(cs) => cs.len(),
        }
    }
}

/// A backtracking-search or divide-and-conquer computation.
///
/// This is the library-level equivalent of the paper's extended-Cilk task
/// body. The associated `State` is the **taskprivate workspace**: schedulers
/// clone it exactly where the paper would `Cilk_alloca + memcpy` (task
/// creation), and mutate it in place via [`apply`](Problem::apply) /
/// [`undo`](Problem::undo) where the paper
/// runs a *fake task* (plain recursive call).
///
/// # Contract
///
/// * `expand(st, d)` must be a pure function of the workspace contents (and
///   depth), so that every scheduler — and any interleaving of steals —
///   observes the same tree.
/// * `undo(st, c)` must exactly invert `apply(st, c)`.
/// * `Out` is a commutative monoid ([`Reduce`]); children contributions may
///   be combined in any order. All of the paper's workloads reduce with `+`
///   over solution counts.
///
/// # Examples
///
/// Computing Fibonacci numbers recursively (the paper's `Fib(n)` benchmark,
/// which has *no* taskprivate variables — its state is an empty marker and
/// the "choices" select the `n-1` / `n-2` branch):
///
/// ```
/// use adaptivetc_core::{Problem, Expansion, serial};
///
/// struct Fib;
///
/// impl Problem for Fib {
///     type State = u32;          // the current argument n
///     type Choice = u32;         // subtract 1 or 2
///     type Out = u64;
///     fn root(&self) -> u32 { 20 }
///     fn expand(&self, n: &u32, _depth: u32) -> Expansion<u32, u64> {
///         if *n < 2 { Expansion::Leaf(u64::from(*n)) } else { Expansion::Children(vec![1, 2]) }
///     }
///     fn apply(&self, n: &mut u32, d: u32) { *n -= d; }
///     fn undo(&self, n: &mut u32, d: u32) { *n += d; }
/// }
///
/// let (fib20, _) = serial::run(&Fib);
/// assert_eq!(fib20, 6765);
/// ```
/// `Send + Sync` because workers share the problem by reference during a
/// run, and the job server additionally moves owned problem instances into
/// its long-lived pool threads.
pub trait Problem: Send + Sync {
    /// The taskprivate workspace. Cloning it is the paper's workspace copy.
    /// Make it a fixed-size value so that `Clone` is one `memcpy`; a
    /// heap-backed workspace also pays an allocation per clone.
    type State: Clone + Send;
    /// One branch out of an interior node.
    type Choice: Copy + Send + 'static;
    /// The result monoid (solution counts in all paper workloads).
    type Out: Reduce;

    /// The workspace of the root task.
    fn root(&self) -> Self::State;

    /// Expand the node reached by the current workspace at `depth`.
    fn expand(&self, st: &Self::State, depth: u32) -> Expansion<Self::Choice, Self::Out>;

    /// Apply a choice to the workspace in place (descend one level).
    fn apply(&self, st: &mut Self::State, c: Self::Choice);

    /// Exactly invert [`apply`](Problem::apply) (backtrack one level).
    fn undo(&self, st: &mut Self::State, c: Self::Choice);

    /// Heap bytes copied when `State` is cloned, for statistics.
    ///
    /// Workloads without taskprivate variables (`Fib`, `Comp`) report 0 so
    /// that workspace-copy accounting matches the paper.
    fn state_bytes(&self, st: &Self::State) -> usize {
        let _ = st;
        std::mem::size_of::<Self::State>()
    }

    /// Virtual work units performed at this node, used by the simulator's
    /// cost model. Real workloads default to 1 unit per node; the synthetic
    /// unbalanced trees report their configured per-node work.
    fn node_work(&self, st: &Self::State, depth: u32) -> u64 {
        let _ = (st, depth);
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_leaf_reports_no_children() {
        let e: Expansion<u8, u32> = Expansion::Leaf(7);
        assert!(e.is_leaf());
        assert_eq!(e.child_count(), 0);
    }

    #[test]
    fn expansion_children_counts() {
        let e: Expansion<u8, u32> = Expansion::Children(vec![1, 2, 3, 4]);
        assert!(!e.is_leaf());
        assert_eq!(e.child_count(), 4);
    }

    #[test]
    fn expansion_equality() {
        let a: Expansion<u8, u32> = Expansion::Children(vec![1]);
        let b = a.clone();
        assert_eq!(a, b);
    }
}
