//! The serial reference executor.
//!
//! This is the paper's "sequential C program" baseline: a plain recursive
//! traversal with in-place `apply`/`undo`, no task creation and no workspace
//! copying. Every parallel scheduler must produce the same result as
//! [`run`]; the speedup figures all use its execution time as denominator.

use crate::problem::{Expansion, Problem};
use crate::reduce::Reduce;
use std::time::Instant;

/// Statistics from a serial run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialReport {
    /// Tree nodes visited (leaves + interior).
    pub nodes: u64,
    /// Leaf nodes visited (`Expansion::Leaf`; a dead end is interior).
    pub leaves: u64,
    /// Maximum depth reached (root = 0).
    pub max_depth: u32,
    /// Total virtual work units (`Problem::node_work` summed over nodes).
    pub work_units: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
}

/// Execute a problem serially, returning the result and traversal metrics.
///
/// # Examples
///
/// ```
/// use adaptivetc_core::{Problem, Expansion, serial};
///
/// struct Countdown;
/// impl Problem for Countdown {
///     type State = u32;
///     type Choice = ();
///     type Out = u64;
///     fn root(&self) -> u32 { 5 }
///     fn expand(&self, n: &u32, _: u32) -> Expansion<(), u64> {
///         if *n == 0 { Expansion::Leaf(1) } else { Expansion::Children(vec![()]) }
///     }
///     fn apply(&self, n: &mut u32, _: ()) { *n -= 1; }
///     fn undo(&self, n: &mut u32, _: ()) { *n += 1; }
/// }
///
/// let (ones, report) = serial::run(&Countdown);
/// assert_eq!(ones, 1);
/// assert_eq!(report.nodes, 6);
/// assert_eq!(report.max_depth, 5);
/// ```
pub fn run<P: Problem>(problem: &P) -> (P::Out, SerialReport) {
    let start = Instant::now();
    let mut state = problem.root();
    let mut report = SerialReport::default();
    let out = visit(problem, &mut state, 0, &mut report);
    report.wall_ns = start.elapsed().as_nanos() as u64;
    (out, report)
}

fn visit<P: Problem>(
    problem: &P,
    state: &mut P::State,
    depth: u32,
    report: &mut SerialReport,
) -> P::Out {
    report.nodes += 1;
    report.max_depth = report.max_depth.max(depth);
    report.work_units += problem.node_work(state, depth);
    match problem.expand(state, depth) {
        Expansion::Leaf(out) => {
            report.leaves += 1;
            out
        }
        Expansion::Children(choices) => {
            // A dead end (no legal moves) is an interior node like any
            // other: it reduces to the identity and is not a leaf.
            let mut acc = P::Out::identity();
            for c in choices {
                problem.apply(state, c);
                acc.combine(visit(problem, state, depth + 1, report));
                problem.undo(state, c);
            }
            acc
        }
    }
}

/// Execute a problem serially from a caller-provided state and depth.
///
/// Used by schedulers to run fully-sequential subtrees (the paper's
/// *sequence version*) while accounting nodes themselves; returns only the
/// result.
pub fn run_subtree<P: Problem>(
    problem: &P,
    state: &mut P::State,
    depth: u32,
    nodes: &mut u64,
) -> P::Out {
    *nodes += 1;
    match problem.expand(state, depth) {
        Expansion::Leaf(out) => out,
        Expansion::Children(choices) => {
            let mut acc = P::Out::identity();
            for c in choices {
                problem.apply(state, c);
                acc.combine(run_subtree(problem, state, depth + 1, nodes));
                problem.undo(state, c);
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed ternary tree of the given height; each leaf contributes 1.
    struct Ternary(u32);

    impl Problem for Ternary {
        type State = u32; // current depth, redundantly tracked to exercise apply/undo
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, st: &u32, depth: u32) -> Expansion<u8, u64> {
            assert_eq!(*st, depth, "apply/undo bookkeeping must match depth");
            if depth == self.0 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, st: &mut u32, _: u8) {
            *st += 1;
        }
        fn undo(&self, st: &mut u32, _: u8) {
            *st -= 1;
        }
    }

    #[test]
    fn counts_ternary_leaves() {
        let (out, r) = run(&Ternary(4));
        assert_eq!(out, 81);
        assert_eq!(r.leaves, 81);
        assert_eq!(r.nodes, 1 + 3 + 9 + 27 + 81);
        assert_eq!(r.max_depth, 4);
    }

    #[test]
    fn work_units_default_to_node_count() {
        let (_, r) = run(&Ternary(3));
        assert_eq!(r.work_units, r.nodes);
    }

    /// Interior nodes with zero legal choices are dead ends, not errors.
    struct DeadEnd;
    impl Problem for DeadEnd {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), depth: u32) -> Expansion<u8, u64> {
            if depth == 0 {
                Expansion::Children(vec![])
            } else {
                Expansion::Leaf(1)
            }
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }

    #[test]
    fn empty_choice_list_is_identity() {
        let (out, r) = run(&DeadEnd);
        assert_eq!(out, 0);
        assert_eq!(r.nodes, 1);
        assert_eq!(r.leaves, 0, "a dead end is not a leaf");
    }

    #[test]
    fn run_subtree_matches_run() {
        let p = Ternary(4);
        let mut st = p.root();
        let mut nodes = 0;
        let out = run_subtree(&p, &mut st, 0, &mut nodes);
        let (expected, r) = run(&p);
        assert_eq!(out, expected);
        assert_eq!(nodes, r.nodes);
    }
}
