//! The benchmark's inputs. The eight Table-1 instances are listed here
//! rather than taken from `crates/bench`, whose registry later changes
//! may edit; the yardstick must not move with them.

use adaptivetc_core::serial::{self, SerialReport};
use adaptivetc_core::{Config, Problem, RunReport, SchedulerError};
use adaptivetc_runtime::Scheduler;
use adaptivetc_sim::SimTree;
use adaptivetc_trace::Trace;
use adaptivetc_workloads::comp::Comp;
use adaptivetc_workloads::fib::Fib;
use adaptivetc_workloads::knights::KnightsTour;
use adaptivetc_workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_workloads::pentomino::Pentomino;
use adaptivetc_workloads::strimko::Strimko;
use adaptivetc_workloads::sudoku::Sudoku;
use adaptivetc_workloads::tree::UnbalancedTree;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub type RunResult = Result<(u64, RunReport), SchedulerError>;
pub type TracedResult = Result<(u64, RunReport, Option<Trace>), SchedulerError>;
type RunFn = dyn Fn(Scheduler, &Config) -> RunResult;
type TracedFn = dyn Fn(Scheduler, &Config) -> TracedResult;

/// One problem instance with its concrete type erased, so workloads can
/// hold the eight differently-typed Table-1 problems in one list.
pub struct Instance {
    pub name: &'static str,
    /// Whether the problem carries a taskprivate workspace (Fib and Comp
    /// do not, so they have no clone cost to report).
    pub taskprivate: bool,
    serial: Box<dyn Fn() -> (u64, SerialReport)>,
    run: Box<RunFn>,
    run_traced: Box<TracedFn>,
    flatten: Box<dyn Fn() -> SimTree>,
    clone_probe: Box<dyn Fn(u32) -> (f64, usize)>,
}

impl Instance {
    pub fn new<P: Problem<Out = u64> + 'static>(
        name: &'static str,
        taskprivate: bool,
        problem: P,
    ) -> Instance {
        let p = Arc::new(problem);
        let (p1, p2, p3, p4, p5) = (p.clone(), p.clone(), p.clone(), p.clone(), p);
        Instance {
            name,
            taskprivate,
            serial: Box::new(move || serial::run(&*p1)),
            run: Box::new(move |s, cfg| s.run(&*p2, cfg)),
            run_traced: Box::new(move |s, cfg| s.run_traced(&*p3, cfg)),
            flatten: Box::new(move || SimTree::from_problem(&*p4)),
            clone_probe: Box::new(move |iters| {
                let root = p5.root();
                let bytes = p5.state_bytes(&root);
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(black_box(&root).clone());
                }
                (
                    t.elapsed().as_nanos() as f64 / f64::from(iters.max(1)),
                    bytes,
                )
            }),
        }
    }

    /// `core::serial::run`: the reference every other result is checked against.
    pub fn serial(&self) -> (u64, SerialReport) {
        (self.serial)()
    }

    pub fn run(&self, scheduler: Scheduler, cfg: &Config) -> RunResult {
        (self.run)(scheduler, cfg)
    }

    pub fn run_traced(&self, scheduler: Scheduler, cfg: &Config) -> TracedResult {
        (self.run_traced)(scheduler, cfg)
    }

    /// `SimTree::from_problem`.
    pub fn flatten(&self) -> SimTree {
        (self.flatten)()
    }

    /// `(ns per Problem::root state clone, Problem::state_bytes)`.
    pub fn clone_probe(&self, iters: u32) -> (f64, usize) {
        (self.clone_probe)(iters)
    }
}

/// Names of the Table-1 instances, in the paper's order. Metric names are
/// built from these, so they are declared once here.
pub const TABLE1: [&str; 8] = [
    "nqueens-array",
    "nqueens-compute",
    "strimko",
    "knights",
    "sudoku",
    "pentomino",
    "fib",
    "comp",
];

/// The two instances that hold three quarters of Table 1's nodes. Passes
/// that need fewer samples (warm-up, the traced pass) leave them out.
pub const LARGE: [&str; 2] = ["strimko", "knights"];

/// The eight Table-1 instances at the sizes ROADMAP's Table-2 numbers
/// use. Only `Comp`'s input arrays are generated; they come from `seed`.
pub fn table1(seed: u64) -> Vec<Instance> {
    vec![
        Instance::new(TABLE1[0], true, NqueensArray::new(11)),
        Instance::new(TABLE1[1], true, NqueensCompute::new(11)),
        Instance::new(TABLE1[2], true, Strimko::paper_default()),
        Instance::new(TABLE1[3], true, KnightsTour::new(5, 0, 0)),
        Instance::new(TABLE1[4], true, Sudoku::balanced_tree()),
        Instance::new(TABLE1[5], true, Pentomino::with_board(8, 5, 8)),
        Instance::new(TABLE1[6], false, Fib::new(26)),
        Instance::new(TABLE1[7], false, Comp::new(1024, seed).leaf_size(4)),
    ]
}

pub fn table1_small(seed: u64) -> Vec<Instance> {
    table1(seed)
        .into_iter()
        .filter(|i| !LARGE.contains(&i.name))
        .collect()
}

/// Nodes per unbalanced tree. The issue's probe used 2 000 000; a serial
/// plus a two-thread run of that size takes a second on this box, which
/// leaves a dozen pairs per run. At this size thirty or more fit.
pub const TREE_NODES: u64 = 500_000;

pub const TREE_SHAPES: [&str; 3] = ["tree1", "tree3", "fig8"];

/// The Table-3 / Figure-8 shapes with the tree's own seed taken from the
/// benchmark seed. The depth-1 splits are the ones `UnbalancedTree::tree1`,
/// `tree3` and `fig8` pin; those constructors fix the seed, so the shapes
/// are rebuilt here from the public builder.
pub fn unbalanced(tree_seed: u64) -> Vec<Instance> {
    let t = |seed_mix: u64| UnbalancedTree::new(TREE_NODES, tree_seed ^ seed_mix);
    vec![
        Instance::new(
            TREE_SHAPES[0],
            true,
            t(0x7111)
                .skew(2.0)
                .depth1(vec![42.512, 25.362, 13.019, 4.936, 0.416, 11.771, 1.984]),
        ),
        Instance::new(
            TREE_SHAPES[1],
            true,
            t(0x7333)
                .skew(6.0)
                .depth1(vec![89.675, 6.891, 1.836, 0.819, 0.645, 0.026, 0.108]),
        ),
        Instance::new(
            TREE_SHAPES[2],
            true,
            t(0x7888)
                .branching(3)
                .skew(3.0)
                .depth1(vec![61.04, 27.99, 10.97]),
        ),
    ]
}
