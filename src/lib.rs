//! AdaptiveTC — a reproduction of *"An Adaptive Task Creation Strategy for
//! Work-Stealing Scheduling"* (Wang, Cui, Duan, Lu, Feng, Yew — CGO 2010).
//!
//! This facade crate re-exports the whole suite:
//!
//! * [`core`] — the [`Problem`](core::Problem) model (backtracking-search
//!   task bodies with a cloneable *taskprivate* workspace), configuration,
//!   statistics and the serial baseline;
//! * [`deque`] — the THE-protocol work-stealing deque with special-task
//!   operations;
//! * [`runtime`] — seven threaded schedulers: Serial, Cilk, Cilk-SYNCHED,
//!   Tascell, two cut-off baselines, and AdaptiveTC itself;
//! * [`sim`] — a deterministic discrete-event simulator running the same
//!   policies over virtual workers (used for the multi-core figures on
//!   machines without eight cores);
//! * [`trace`] — lock-free per-worker event tracing shared by the runtime
//!   and the simulator, with Chrome-trace export, steal-provenance trees
//!   and a trace↔stats differential validator;
//! * [`workloads`] — the paper's Table 1 benchmarks and the synthetic
//!   unbalanced trees of Table 3.
//!
//! # Quick start
//!
//! ```
//! use adaptivetc_suite::core::Config;
//! use adaptivetc_suite::runtime::Scheduler;
//! use adaptivetc_suite::workloads::nqueens::NqueensArray;
//!
//! # fn main() -> Result<(), adaptivetc_suite::core::SchedulerError> {
//! let queens = NqueensArray::new(8);
//! let (solutions, report) = Scheduler::AdaptiveTc.run(&queens, &Config::new(2))?;
//! assert_eq!(solutions, 92);
//! println!(
//!     "tasks={} fake_tasks={} copies={}",
//!     report.stats.tasks_created, report.stats.fake_tasks, report.stats.copies
//! );
//! # Ok(())
//! # }
//! ```

pub use adaptivetc_core as core;
pub use adaptivetc_deque as deque;
pub use adaptivetc_runtime as runtime;
pub use adaptivetc_sim as sim;
pub use adaptivetc_trace as trace;
pub use adaptivetc_workloads as workloads;
