//! A taskprivate copy is the paper's `memcpy`: cloning any Table-1
//! workspace allocates nothing, and the largest instances the constructors
//! accept fit their fixed-size workspaces.
//!
//! The counting allocator counts per thread, so the tests of this binary
//! may run side by side.

use adaptivetc_suite::core::{serial, Expansion, Problem};
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute, MAX_N};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::{Strimko, MAX_SIDE};
use adaptivetc_suite::workloads::sudoku::Sudoku;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

thread_local! {
    /// `const`, so reading it inside the allocator neither allocates nor
    /// registers a destructor.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every call that obtains memory — `alloc`, `alloc_zeroed`,
/// `realloc` — on the calling thread.
struct Counting;

fn count() {
    CALLS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// Clone the root and a child workspace, and `clone_from` one onto the
/// other: neither may allocate. Returns `state_bytes` of the root.
fn copies_allocate_nothing<P>(label: &str, p: &P) -> usize
where
    P: Problem,
    P::State: PartialEq + Debug,
{
    let root = p.root();
    let mut child = p.root();
    let Expansion::Children(cs) = p.expand(&child, 0) else {
        panic!("{label}: the root is a leaf");
    };
    p.apply(&mut child, cs[0]);

    let (copy, n) = allocations(|| root.clone());
    assert_eq!(n, 0, "{label}: cloning the root allocated");
    assert_eq!(copy, root);
    let mut dst = copy;
    let ((), n) = allocations(|| dst.clone_from(&child));
    assert_eq!(n, 0, "{label}: clone_from allocated");
    assert_eq!(dst, child);
    p.state_bytes(&root)
}

#[test]
fn a_workspace_copy_allocates_nothing() {
    // The eight Table-1 instances at the repo benchmark's sizes. The four
    // byte counts are the paper's workspace sizes at these `n`, which the
    // copy-byte statistics add up; they must not follow `size_of`.
    assert_eq!(
        copies_allocate_nothing("nqueens-array", &NqueensArray::new(11)),
        54
    );
    assert_eq!(
        copies_allocate_nothing("nqueens-compute", &NqueensCompute::new(11)),
        11
    );
    assert_eq!(
        copies_allocate_nothing("strimko", &Strimko::paper_default()),
        91
    );
    assert_eq!(
        copies_allocate_nothing("sudoku", &Sudoku::balanced_tree()),
        324
    );
    copies_allocate_nothing("knights", &KnightsTour::new(5, 0, 0));
    copies_allocate_nothing("pentomino", &Pentomino::with_board(8, 5, 8));
    copies_allocate_nothing("fib", &Fib::new(26));
    copies_allocate_nothing("comp", &Comp::new(1024, 7).leaf_size(4));
}

/// Descend depth-first to the first leaf, recording the choices taken;
/// `st` is left at that leaf. `false` if the subtree has none.
fn first_leaf<P: Problem>(p: &P, st: &mut P::State, path: &mut Vec<P::Choice>) -> bool {
    let Expansion::Children(cs) = p.expand(st, path.len() as u32) else {
        return true;
    };
    for c in cs {
        p.apply(st, c);
        path.push(c);
        if first_leaf(p, st, path) {
            return true;
        }
        path.pop();
        p.undo(st, c);
    }
    false
}

/// Apply a whole root-to-leaf path, then undo it: the leaf must be one
/// `depth` choices down, and the workspace must come back to the root.
fn full_path_round_trips<P>(label: &str, p: &P, depth: usize)
where
    P: Problem,
    P::State: PartialEq + Debug,
{
    let root = p.root();
    let mut st = p.root();
    let mut path = Vec::new();
    assert!(first_leaf(p, &mut st, &mut path), "{label}: no leaf");
    assert_eq!(path.len(), depth, "{label}: leaf depth");
    assert!(p.expand(&st, depth as u32).is_leaf(), "{label}");
    for &c in path.iter().rev() {
        p.undo(&mut st, c);
    }
    assert_eq!(st, root, "{label}: undo did not restore the root");
}

/// A 9 × 9 Strimko on diagonal streams, given the first three rows of the
/// solution `(2r + c) mod 9 + 1`; the 54 cells after them are empty.
fn strimko_nine() -> Strimko {
    let side = usize::from(MAX_SIDE);
    let givens = (0..side * side)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            if r < 3 {
                ((2 * r + c) % side + 1) as u8
            } else {
                0
            }
        })
        .collect();
    Strimko::linear(MAX_SIDE, 1, 1, givens)
}

#[test]
fn the_largest_instances_fit_their_workspaces() {
    let n = usize::from(MAX_N);
    full_path_round_trips("nqueens-array(16)", &NqueensArray::new(MAX_N), n);
    full_path_round_trips("nqueens-compute(16)", &NqueensCompute::new(MAX_N), n);
    // The path fills every empty cell, the grid's last one included.
    full_path_round_trips("strimko(9x9)", &strimko_nine(), 54);

    // Pinned, so that a change of workspace layout cannot change the tree.
    let (solutions, report) = serial::run(&strimko_nine());
    assert_eq!((solutions, report.nodes), (3, 226_385));
}
