//! The benchmark workloads of the AdaptiveTC paper (Table 1), expressed as
//! [`Problem`](adaptivetc_core::Problem)s, plus the synthetic unbalanced
//! trees of Table 3 / Figure 8.
//!
//! | module | paper benchmark | taskprivate workspace |
//! |---|---|---|
//! | [`nqueens`] | Nqueen-array(n), Nqueen-compute(n) | conflict arrays / placed-queen list |
//! | [`strimko`] | Strimko | 7×7 grid + row/col/stream masks |
//! | [`knights`] | Knight's Tour (6×6) | visited mask + square |
//! | [`sudoku`] | Sudoku | 9×9 board + row/col/box masks |
//! | [`pentomino`] | Pentomino(n) | board occupancy + used pieces |
//! | [`fib`] | Fib(n) | none |
//! | [`comp`] | Comp(n) | none |
//! | [`tree`] | unbalanced search trees (Figs. 8–10, Table 3) | path stack |
//! | [`fig1`] | the Figure 1 worked-example call tree | path stack |
//!
//! # Examples
//!
//! ```
//! use adaptivetc_core::serial;
//! use adaptivetc_workloads::nqueens::NqueensArray;
//!
//! let (solutions, _) = serial::run(&NqueensArray::new(6));
//! assert_eq!(solutions, 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod comp;
pub mod fib;
pub mod fig1;
pub mod knights;
pub mod nqueens;
pub mod pentomino;
pub mod strimko;
pub mod sudoku;
pub mod tree;
