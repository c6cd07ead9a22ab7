//! Cross-crate integration for the pluggable deque substrate: Cilk and
//! AdaptiveTC produce the serial answer on every paper workload for every
//! [`DequeBackend`], including the lock-free Chase-Lev deque running the
//! special-task protocol.

use adaptivetc_suite::core::{serial, Config, DequeBackend};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::Strimko;
use adaptivetc_suite::workloads::sudoku::Sudoku;

fn check_backends<P>(problem: &P, label: &str)
where
    P: adaptivetc_suite::core::Problem<Out = u64>,
{
    let (expected, serial_report) = serial::run(problem);
    for backend in DequeBackend::ALL {
        for scheduler in [Scheduler::Cilk, Scheduler::AdaptiveTc] {
            for threads in [1, 2, 4] {
                // A small max_stolen_num keeps the special-task path hot on
                // every workload, exercising pop_special vs steal races on
                // the lock-free backend too.
                let cfg = Config::new(threads)
                    .backend(backend)
                    .max_stolen_num(2)
                    .seed(13 + threads as u64);
                let (got, report) = scheduler.run(problem, &cfg).unwrap_or_else(|e| {
                    panic!("{label}/{scheduler}/{}/{threads}: {e}", backend.name())
                });
                assert_eq!(
                    got,
                    expected,
                    "{label}: {scheduler} on {} with {threads} threads",
                    backend.name()
                );
                assert_eq!(
                    report.stats.nodes,
                    serial_report.nodes,
                    "{label}: {scheduler} on {} with {threads} threads visited a different tree",
                    backend.name()
                );
                assert!(
                    report.stats.steals_ok <= report.stats.tasks_created,
                    "{label}: {scheduler} on {} with {threads} threads stole more tasks than it created",
                    backend.name()
                );
                // Duplicate offers are the fence-free backend's private
                // cost; an exact backend reporting any means the claim
                // layer rejected an extraction that should not exist.
                if backend != DequeBackend::FenceFree {
                    assert_eq!(
                        report.stats.dup_extractions,
                        0,
                        "{label}: exact backend {} offered duplicates",
                        backend.name()
                    );
                }
            }
        }
    }
}

#[test]
fn nqueens_array() {
    check_backends(&NqueensArray::new(8), "nqueens-array(8)");
}

#[test]
fn nqueens_compute() {
    check_backends(&NqueensCompute::new(8), "nqueens-compute(8)");
}

#[test]
fn strimko_small() {
    let mut givens = vec![0u8; 25];
    for (c, g) in givens.iter_mut().take(5).enumerate() {
        *g = c as u8 + 1;
    }
    check_backends(&Strimko::linear(5, 1, 1, givens), "strimko(5x5)");
}

#[test]
fn knights_tour() {
    check_backends(&KnightsTour::new(5, 1, 2), "knights(5x5)");
}

#[test]
fn sudoku_balanced() {
    check_backends(&Sudoku::balanced(), "sudoku(balanced)");
}

#[test]
fn pentomino() {
    check_backends(&Pentomino::with_board(5, 5, 5), "pentomino(5)");
}

#[test]
fn fib() {
    check_backends(&Fib::new(18), "fib(18)");
}

#[test]
fn comp() {
    check_backends(&Comp::new(256, 3), "comp(256)");
}
