//! The paper's Figure 1 tree and its eight Table-1 problems at test sizes,
//! handed one at a time to a visitor (each problem is its own type).

use adaptivetc_suite::core::Problem;
use adaptivetc_suite::workloads::comp::Comp;
use adaptivetc_suite::workloads::fib::Fib;
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use adaptivetc_suite::workloads::knights::KnightsTour;
use adaptivetc_suite::workloads::nqueens::{NqueensArray, NqueensCompute};
use adaptivetc_suite::workloads::pentomino::Pentomino;
use adaptivetc_suite::workloads::strimko::Strimko;
use adaptivetc_suite::workloads::sudoku::Sudoku;

/// Called once per instance.
pub trait Visit {
    fn visit<P: Problem<Out = u64>>(&mut self, label: &str, problem: &P);
}

/// Visit Figure 1, then the eight Table-1 problems. The six backtracking
/// searches all reach dead ends (interior nodes with no legal move).
pub fn each(v: &mut impl Visit) {
    v.visit("fig1", &Fig1Tree::new());
    v.visit("nqueens-array(7)", &NqueensArray::new(7));
    v.visit("nqueens-compute(7)", &NqueensCompute::new(7));
    v.visit("fib(14)", &Fib::new(14));
    v.visit("comp(64)", &Comp::new(64, 7));
    v.visit("knights(5, centre)", &KnightsTour::new(5, 2, 2));
    v.visit("sudoku(balanced)", &Sudoku::balanced());
    v.visit("pentomino(4, 5x4)", &Pentomino::with_board(4, 5, 4));
    let mut givens = vec![0u8; 25];
    for (c, g) in givens.iter_mut().take(5).enumerate() {
        *g = c as u8 + 1;
    }
    v.visit("strimko(5x5)", &Strimko::linear(5, 1, 1, givens));
}
