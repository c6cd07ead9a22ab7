//! Cross-crate integration: every scheduler (threaded and simulated)
//! produces the serial answer on every workload.

use adaptivetc_suite::core::{serial, Config};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::sim::{simulate, CostModel, Policy, SimTree};
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::Strimko;
use adaptivetc_suite::workloads::sudoku::Sudoku;
use adaptivetc_suite::workloads::tree::UnbalancedTree;

mod table1;

fn schedulers() -> Vec<Scheduler> {
    vec![
        Scheduler::Cilk,
        Scheduler::CilkSynched,
        Scheduler::Tascell,
        Scheduler::CutoffProgrammer(2),
        Scheduler::CutoffLibrary,
        Scheduler::AdaptiveTc,
    ]
}

fn check_all<P>(problem: &P, label: &str)
where
    P: adaptivetc_suite::core::Problem<Out = u64>,
{
    let (expected, serial_report) = serial::run(problem);
    for scheduler in schedulers() {
        for threads in [1, 2, 4] {
            let cfg = Config::new(threads).seed(42 + threads as u64);
            let (got, report) = scheduler
                .run(problem, &cfg)
                .unwrap_or_else(|e| panic!("{label}/{scheduler}/{threads}: {e}"));
            assert_eq!(got, expected, "{label}: {scheduler} with {threads} threads");
            assert_eq!(
                report.stats.nodes, serial_report.nodes,
                "{label}: {scheduler} with {threads} threads visited a different tree"
            );
        }
    }
    // Simulated policies visit every leaf too.
    let tree = SimTree::from_problem(problem);
    for policy in [
        Policy::Cilk,
        Policy::CilkSynched,
        Policy::CutoffProgrammer(2),
        Policy::CutoffLibrary,
        Policy::AdaptiveTc,
        Policy::Tascell,
    ] {
        for threads in [1, 3, 8] {
            let out = simulate(
                &tree,
                policy,
                &Config::new(threads),
                CostModel::calibrated(),
            );
            assert_eq!(
                out.leaves,
                tree.leaf_count(),
                "{label}: simulated {} with {threads} workers",
                policy.name()
            );
        }
    }
}

#[test]
fn nqueens_array() {
    check_all(&NqueensArray::new(8), "nqueens-array(8)");
}

#[test]
fn nqueens_compute() {
    check_all(&NqueensCompute::new(8), "nqueens-compute(8)");
}

#[test]
fn strimko_small() {
    // A 5×5 instance keeps the integration test quick.
    let mut givens = vec![0u8; 25];
    for (c, g) in givens.iter_mut().take(5).enumerate() {
        *g = c as u8 + 1;
    }
    check_all(&Strimko::linear(5, 1, 1, givens), "strimko(5x5)");
}

#[test]
fn knights_tour() {
    check_all(&KnightsTour::new(5, 1, 2), "knights(5x5)");
}

#[test]
fn sudoku_balanced() {
    check_all(&Sudoku::balanced(), "sudoku(balanced)");
}

#[test]
fn pentomino() {
    check_all(&Pentomino::with_board(5, 5, 5), "pentomino(5)");
}

#[test]
fn fib() {
    check_all(&Fib::new(18), "fib(18)");
}

#[test]
fn comp() {
    check_all(&Comp::new(256, 3), "comp(256)");
}

#[test]
fn unbalanced_tree_left_and_right() {
    check_all(&UnbalancedTree::tree3(30_000), "tree3L(30k)");
    check_all(&UnbalancedTree::tree3(30_000).reversed(), "tree3R(30k)");
}

/// Differential test on Figure 1 and every Table-1 problem: at one
/// thread the threaded engine is deterministic (no thieves), so its
/// task-accounting counters — real tasks, fake tasks, special tasks — must
/// agree *exactly* with the discrete-event simulator's. Any drift between
/// the two engines — in what they decide, or in what they take a node to be (a dead end is interior, not a leaf) —
/// shows up here first.
#[test]
fn fig1_engine_matches_simulator_exactly() {
    use adaptivetc_suite::core::{CutoffPolicy, Problem};

    struct Differential;
    impl table1::Visit for Differential {
        fn visit<P: Problem<Out = u64>>(&mut self, label: &str, problem: &P) {
            let (expected, serial_report) = serial::run(problem);
            let sim_tree = SimTree::from_problem(problem);
            assert_eq!(sim_tree.leaf_count(), serial_report.leaves, "{label}");
            for (scheduler, policy) in [
                (Scheduler::Cilk, Policy::Cilk),
                (Scheduler::CutoffLibrary, Policy::CutoffLibrary),
                (Scheduler::AdaptiveTc, Policy::AdaptiveTc),
                (Scheduler::Tascell, Policy::Tascell),
            ] {
                let cfg = Config::new(1).cutoff(CutoffPolicy::Fixed(2)).seed(42);
                let sim = simulate(&sim_tree, policy, &cfg, CostModel::calibrated());
                assert_eq!(sim.leaves, sim_tree.leaf_count(), "{label}: sim {policy:?}");
                let (out, report) = scheduler
                    .run(problem, &cfg)
                    .unwrap_or_else(|e| panic!("{label}/{scheduler}: {e}"));
                assert_eq!(out, expected, "{label}/{scheduler}");
                for (name, engine, simulated) in [
                    (
                        "tasks_created",
                        report.stats.tasks_created,
                        sim.report.stats.tasks_created,
                    ),
                    (
                        "fake_tasks",
                        report.stats.fake_tasks,
                        sim.report.stats.fake_tasks,
                    ),
                    (
                        "special_tasks",
                        report.stats.special_tasks,
                        sim.report.stats.special_tasks,
                    ),
                ] {
                    assert_eq!(
                        engine,
                        simulated,
                        "{label}: {scheduler} vs simulated {}: {name} diverged",
                        policy.name()
                    );
                }
            }
        }
    }
    table1::each(&mut Differential);
}

/// Which workspace discipline a scheduler runs is a function of the
/// scheduler alone, and at one thread (no thieves, so no steal-time
/// clones) the counters name it exactly. A change that routes a mode down
/// the other path fails here by name instead of as a timing drift.
#[test]
fn one_thread_counters_name_the_workspace_path() {
    use adaptivetc_suite::core::{CutoffPolicy, Problem};
    use adaptivetc_suite::workloads::fig1::Fig1Tree;

    fn check<P: Problem<Out = u64>>(problem: &P, label: &str) {
        let (expected, serial_report) = serial::run(problem);
        let cfg = Config::new(1).cutoff(CutoffPolicy::Fixed(2));
        for scheduler in [
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::CutoffProgrammer(2),
            Scheduler::CutoffLibrary,
            Scheduler::AdaptiveTc,
        ] {
            let (got, report) = scheduler
                .run(problem, &cfg)
                .unwrap_or_else(|e| panic!("{label}/{scheduler}: {e}"));
            assert_eq!(got, expected, "{label}/{scheduler}");
            let s = &report.stats;
            assert_eq!(s.nodes, serial_report.nodes, "{label}/{scheduler}: nodes");
            // `tasks_created` counts the root task, which owns the root
            // workspace outright: spawns are one fewer.
            let spawns = s.tasks_created - 1;
            let (copies, saved) = match scheduler {
                // Clone per spawn, elide nothing.
                Scheduler::Cilk | Scheduler::CilkSynched => (spawns, 0),
                // In place above the cut-off; below it one clone per
                // sequential node — every node that is not itself a task
                // — and nowhere else.
                Scheduler::CutoffLibrary => (s.nodes - s.tasks_created, spawns),
                // In place throughout; with no thief, no copy at all.
                _ => (0, spawns),
            };
            // Non-degenerate: a path that spawned nothing, or a library run
            // with nothing below its cut-off, would match any row above.
            assert!(spawns > 0, "{label}/{scheduler}: no spawns");
            if matches!(scheduler, Scheduler::CutoffLibrary) {
                assert!(s.copies > 0, "{label}/{scheduler}: no copies");
            }
            assert_eq!(
                (s.copies, s.workspace_copies_saved),
                (copies, saved),
                "{label}/{scheduler}: (copies, copies saved)"
            );
        }
    }

    check(&Fig1Tree::new(), "fig1");
    check(&NqueensArray::new(7), "nqueens-array(7)");
}
