//! Core abstractions for the AdaptiveTC work-stealing reproduction.
//!
//! This crate defines the *problem model* shared by every scheduler in the
//! suite — the threaded runtime in `adaptivetc-runtime` and the deterministic
//! simulator in `adaptivetc-sim` — together with run statistics,
//! configuration, a seeded PRNG and a serial reference executor.
//!
//! # The problem model
//!
//! The paper (Wang et al., CGO 2010) targets backtracking search,
//! branch-and-bound and game-tree workloads written in an extended Cilk. Each
//! task body looks like:
//!
//! ```text
//! for each choice c at this node {
//!     apply c to the workspace;
//!     result += spawn child(workspace);   // taskprivate workspace
//!     undo c;
//! }
//! sync;
//! ```
//!
//! [`Problem`] captures exactly that shape: [`Problem::expand`] lists the
//! choices at a node (or yields a leaf value), [`Problem::apply`] /
//! [`Problem::undo`] mutate the *taskprivate* workspace in place, and cloning
//! the workspace is the paper's `alloc + memcpy` workspace copy. A scheduler
//! that executes a child as a **fake task** runs `apply → recurse → undo` on
//! the shared workspace with no copy; a scheduler that creates a **task**
//! clones the workspace for the child.
//!
//! # Quick start
//!
//! ```
//! use adaptivetc_core::{Problem, Expansion, serial};
//!
//! /// Count leaves of a complete binary tree of the given height.
//! struct Bintree { height: u32 }
//!
//! impl Problem for Bintree {
//!     type State = ();
//!     type Choice = u8;
//!     type Out = u64;
//!     fn root(&self) -> () {}
//!     fn expand(&self, _: &(), depth: u32) -> Expansion<u8, u64> {
//!         if depth == self.height { Expansion::Leaf(1) } else { Expansion::Children(vec![0, 1]) }
//!     }
//!     fn apply(&self, _: &mut (), _: u8) {}
//!     fn undo(&self, _: &mut (), _: u8) {}
//! }
//!
//! let (leaves, report) = serial::run(&Bintree { height: 10 });
//! assert_eq!(leaves, 1024);
//! assert_eq!(report.nodes, 2047);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod error;
pub mod problem;
pub mod reduce;
pub mod rng;
pub mod serial;
pub mod stats;
pub mod treeinfo;

pub use config::{Config, CutoffPolicy, DequeBackend};
pub use error::{ConfigError, SchedulerError};
pub use problem::{Expansion, Problem};
pub use reduce::Reduce;
pub use rng::XorShift64;
pub use stats::{RunReport, RunStats, TimeBreakdown};
