//! Cross-crate integration for the special-task path under pressure on the
//! engine's deque (the THE protocol of Figure 3): Cilk and AdaptiveTC
//! produce the serial answer on every paper workload with a small
//! `max_stolen_num`, which keeps `need_task` raised so `pop_specialtask`
//! races the thieves.

use adaptivetc_suite::core::{serial, Config};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::Strimko;
use adaptivetc_suite::workloads::sudoku::Sudoku;

fn check_special_pressure<P>(problem: &P, label: &str)
where
    P: adaptivetc_suite::core::Problem<Out = u64>,
{
    let (expected, serial_report) = serial::run(problem);
    for scheduler in [Scheduler::Cilk, Scheduler::AdaptiveTc] {
        for threads in [1, 2, 4] {
            let cfg = Config::new(threads)
                .max_stolen_num(2)
                .seed(13 + threads as u64);
            let ctx = format!("{label}: {scheduler} with {threads} threads, max_stolen_num 2");
            let (got, report) = scheduler
                .run(problem, &cfg)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(got, expected, "{ctx}");
            assert_eq!(report.stats.nodes, serial_report.nodes, "{ctx}: nodes");
            assert!(
                report.stats.steals_ok <= report.stats.tasks_created,
                "{ctx}: stole more tasks than it created"
            );
        }
    }
}

#[test]
fn nqueens_array() {
    check_special_pressure(&NqueensArray::new(8), "nqueens-array(8)");
}

#[test]
fn nqueens_compute() {
    check_special_pressure(&NqueensCompute::new(8), "nqueens-compute(8)");
}

#[test]
fn strimko_small() {
    let mut givens = vec![0u8; 25];
    for (c, g) in givens.iter_mut().take(5).enumerate() {
        *g = c as u8 + 1;
    }
    check_special_pressure(&Strimko::linear(5, 1, 1, givens), "strimko(5x5)");
}

#[test]
fn knights_tour() {
    check_special_pressure(&KnightsTour::new(5, 1, 2), "knights(5x5)");
}

#[test]
fn sudoku_balanced() {
    check_special_pressure(&Sudoku::balanced(), "sudoku(balanced)");
}

#[test]
fn pentomino() {
    check_special_pressure(&Pentomino::with_board(5, 5, 5), "pentomino(5)");
}

#[test]
fn fib() {
    check_special_pressure(&Fib::new(18), "fib(18)");
}

#[test]
fn comp() {
    check_special_pressure(&Comp::new(256, 3), "comp(256)");
}
