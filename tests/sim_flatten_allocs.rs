//! What flattening a problem costs the allocator, as a count.
//!
//! `SimTree::from_problem` keeps the whole tree in one array of node
//! records and reserves each node's children as a block of it, so the only
//! allocations beyond the problem's own — what one `serial::run` of the
//! same problem makes: its root state and every `expand`'s child list —
//! are that array's growth steps: about ⌈log₂ len⌉. Nothing is allocated
//! per node. This binary holds one test, and only the test's own thread is
//! counted.

use adaptivetc_suite::core::{serial, Problem};
use adaptivetc_suite::sim::SimTree;
use adaptivetc_suite::workloads::nqueens::NqueensArray;
use adaptivetc_suite::workloads::sudoku::Sudoku;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls that obtained memory on this thread. `const`, so reading it
    /// inside the allocator neither allocates nor registers a destructor.
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

/// Allocation calls `f` makes on this thread, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// `from_problem`'s calls beside `serial::run`'s, and the tree's size.
fn flatten_and_serial<P: Problem>(problem: &P) -> (u64, u64, usize) {
    let (serial, (_, report)) = counted(|| serial::run(problem));
    let (flatten, tree) = counted(|| SimTree::from_problem(problem));
    assert_eq!(tree.len() as u64, report.nodes);
    (flatten, serial, tree.len())
}

#[test]
fn flattening_allocates_nothing_per_node() {
    let cases = [
        ("NqueensArray(8)", flatten_and_serial(&NqueensArray::new(8))),
        ("Sudoku", flatten_and_serial(&Sudoku::balanced_tree())),
    ];
    for (name, (flatten, serial, len)) in cases {
        assert!(serial > 0, "the counter is not installed");
        let growth = u64::from(len.next_power_of_two().trailing_zeros());
        assert!(
            flatten <= serial + growth + 2,
            "{name}: flattening {len} nodes made {flatten} allocations, \
             serial::run made {serial}: more than {growth} + 2 beyond it"
        );
    }
}
