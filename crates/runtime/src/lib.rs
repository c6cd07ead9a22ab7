//! Threaded work-stealing schedulers reproducing the AdaptiveTC paper
//! (Wang et al., CGO 2010).
//!
//! Seven schedulers execute any [`Problem`]:
//!
//! | [`Scheduler`] | paper system | mechanism |
//! |---|---|---|
//! | `Serial` | sequential C baseline | plain recursion |
//! | `Cilk` | Cilk 5.4.6 | work-first, a task + workspace copy per spawn |
//! | `CilkSynched` | Cilk + `SYNCHED` | as Cilk, workspace buffers recycled |
//! | `Tascell` | Tascell | request-driven backtracking, no deque, no suspension |
//! | `CutoffProgrammer(d)` | Cutoff-programmer | tasks above depth `d`, copy-free recursion below |
//! | `CutoffLibrary` | Cutoff-library | tasks above `⌈log₂ N⌉`, but copies at every node |
//! | `AdaptiveTc` | **AdaptiveTC** | the five-version FSM with special tasks |
//!
//! # Examples
//!
//! ```
//! use adaptivetc_core::{Config, Expansion, Problem};
//! use adaptivetc_runtime::Scheduler;
//!
//! /// Count the leaves of a ternary tree of height 6.
//! struct Tern;
//! impl Problem for Tern {
//!     type State = u32;
//!     type Choice = u8;
//!     type Out = u64;
//!     fn root(&self) -> u32 { 0 }
//!     fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
//!         if d == 6 { Expansion::Leaf(1) } else { Expansion::Children(vec![0, 1, 2]) }
//!     }
//!     fn apply(&self, s: &mut u32, _: u8) { *s += 1; }
//!     fn undo(&self, s: &mut u32, _: u8) { *s -= 1; }
//! }
//!
//! # fn main() -> Result<(), adaptivetc_core::SchedulerError> {
//! let cfg = Config::new(2);
//! let (leaves, report) = Scheduler::AdaptiveTc.run(&Tern, &cfg)?;
//! assert_eq!(leaves, 3u64.pow(6));
//! assert_eq!(report.threads, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod engine;
mod frame;
mod join;
pub mod pool;
pub mod server;
pub mod submit;
pub(crate) mod sync;
pub mod tascell;
mod trace;

pub use adaptivetc_strategy::{fsm, Mode};
pub use engine::run_traced;
pub use server::{
    JobHandle, JobOutcome, JobServer, RejectReason, ServerConfig, ServerReport, ServerStats,
    SubmitError,
};
pub use submit::{CancelOutcome, JobStatus, Priority};

use adaptivetc_core::{serial, Config, Problem, RunReport, RunStats, SchedulerError};
use adaptivetc_strategy::Policy;

/// A scheduling policy from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheduler {
    /// The sequential baseline (speedup denominator).
    Serial,
    /// Work-first Cilk 5: every spawn creates a task and copies the
    /// workspace.
    Cilk,
    /// Cilk with `SYNCHED`-style workspace buffer reuse.
    CilkSynched,
    /// Tascell: backtracking-based, request-driven load balancing.
    Tascell,
    /// Fixed programmer-chosen cut-off depth; copy-free recursion below it.
    CutoffProgrammer(u32),
    /// Runtime-chosen cut-off (`⌈log₂ N⌉`); workspace copies at every node
    /// below it.
    CutoffLibrary,
    /// The paper's contribution: adaptive task creation.
    AdaptiveTc,
}

impl Scheduler {
    /// The parallel policy this scheduler runs; `None` for the serial
    /// baseline.
    fn policy(&self) -> Option<Policy> {
        Some(match self {
            Scheduler::Serial => return None,
            Scheduler::Cilk => Policy::Cilk,
            Scheduler::CilkSynched => Policy::CilkSynched,
            Scheduler::Tascell => Policy::Tascell,
            Scheduler::CutoffProgrammer(d) => Policy::CutoffProgrammer(*d),
            Scheduler::CutoffLibrary => Policy::CutoffLibrary,
            Scheduler::AdaptiveTc => Policy::AdaptiveTc,
        })
    }

    /// A short display name matching the paper's figure legends.
    pub fn name(&self) -> &'static str {
        self.policy().map_or("Serial", |p| p.name())
    }

    /// Execute `problem` under this policy.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulerError::Config`] for invalid configurations and
    /// [`SchedulerError::WorkerPanicked`] if a worker thread panics.
    pub fn run<P: Problem>(
        &self,
        problem: &P,
        cfg: &Config,
    ) -> Result<(P::Out, RunReport), SchedulerError> {
        self.run_traced(problem, cfg)
            .map(|(out, report, _trace)| (out, report))
    }

    /// As [`Scheduler::run`], but additionally returns the drained event
    /// trace when `cfg.trace` is set. `Serial` and `Tascell` do not run on
    /// the traced engine and always return `None` (their counters remain
    /// available through the report).
    ///
    /// # Errors
    ///
    /// As [`Scheduler::run`].
    pub fn run_traced<P: Problem>(
        &self,
        problem: &P,
        cfg: &Config,
    ) -> Result<(P::Out, RunReport, Option<adaptivetc_trace::Trace>), SchedulerError> {
        if let Some((mode, cfg)) = self.policy().and_then(|p| p.on_engine(cfg)) {
            return engine::run_traced(problem, &cfg, mode);
        }
        let (out, report) = match self {
            Scheduler::Tascell => tascell::run(problem, cfg)?,
            // Only `Serial` is left: every other policy is on the engine.
            _ => {
                cfg.validate()?;
                let (out, sr) = serial::run(problem);
                let stats = RunStats {
                    nodes: sr.nodes,
                    fake_tasks: sr.nodes,
                    ..RunStats::default()
                };
                (out, RunReport::from_workers(vec![stats], sr.wall_ns))
            }
        };
        Ok((out, report, None))
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheduler::CutoffProgrammer(d) => write!(f, "Cutoff-programmer({d})"),
            other => f.write_str(other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::Expansion;

    /// Ternary tree of height `h` with a tiny taskprivate payload so copies
    /// are observable.
    struct Tern {
        h: u32,
    }
    impl Problem for Tern {
        type State = Vec<u8>;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> Vec<u8> {
            vec![0; 32]
        }
        fn expand(&self, _: &Vec<u8>, d: u32) -> Expansion<u8, u64> {
            if d == self.h {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut Vec<u8>, c: u8) {
            s[0] = s[0].wrapping_add(c + 1);
        }
        fn undo(&self, s: &mut Vec<u8>, c: u8) {
            s[0] = s[0].wrapping_sub(c + 1);
        }
        fn state_bytes(&self, st: &Vec<u8>) -> usize {
            st.len()
        }
    }

    fn all_schedulers() -> Vec<Scheduler> {
        vec![
            Scheduler::Serial,
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::Tascell,
            Scheduler::CutoffProgrammer(3),
            Scheduler::CutoffLibrary,
            Scheduler::AdaptiveTc,
        ]
    }

    #[test]
    fn every_scheduler_matches_serial_single_thread() {
        let p = Tern { h: 7 };
        let expected = 3u64.pow(7);
        for s in all_schedulers() {
            let (out, _) = s.run(&p, &Config::new(1)).unwrap();
            assert_eq!(out, expected, "{s} returned a wrong result");
        }
    }

    #[test]
    fn every_scheduler_matches_serial_multi_thread() {
        let p = Tern { h: 8 };
        let expected = 3u64.pow(8);
        for s in all_schedulers() {
            for threads in [2, 4] {
                let (out, report) = s.run(&p, &Config::new(threads)).unwrap();
                assert_eq!(out, expected, "{s} with {threads} threads");
                if !matches!(s, Scheduler::Serial) {
                    assert_eq!(report.threads, threads);
                }
            }
        }
    }

    #[test]
    fn cilk_creates_a_task_per_node() {
        let p = Tern { h: 5 };
        let nodes = (3u64.pow(6) - 1) / 2; // sum of 3^0..3^5
        let (_, report) = Scheduler::Cilk.run(&p, &Config::new(1)).unwrap();
        assert_eq!(report.stats.nodes, nodes);
        assert_eq!(report.stats.tasks_created, nodes);
        // Every non-root task copies its workspace.
        assert_eq!(report.stats.copies, nodes - 1);
    }

    #[test]
    fn adaptive_creates_far_fewer_tasks_than_cilk() {
        let p = Tern { h: 8 };
        let (_, cilk) = Scheduler::Cilk.run(&p, &Config::new(4)).unwrap();
        let (_, adpt) = Scheduler::AdaptiveTc.run(&p, &Config::new(4)).unwrap();
        assert!(
            adpt.stats.tasks_created * 10 < cilk.stats.tasks_created,
            "adaptive={} cilk={}",
            adpt.stats.tasks_created,
            cilk.stats.tasks_created
        );
        assert!(adpt.stats.copies * 10 < cilk.stats.copies);
    }

    #[test]
    fn adaptive_single_thread_has_no_copies_beyond_cutoff_frontier() {
        let p = Tern { h: 8 };
        let (_, r) = Scheduler::AdaptiveTc.run(&p, &Config::new(1)).unwrap();
        // cutoff=1 for one thread: tasks only at depth 0 spawns; everything
        // else is fake tasks.
        assert!(r.stats.copies <= 3 + 1, "copies={}", r.stats.copies);
        assert_eq!(r.stats.special_tasks, 0);
        assert!(r.stats.fake_tasks > 1000);
    }

    #[test]
    fn synched_reuses_allocations() {
        let p = Tern { h: 7 };
        let (_, cilk) = Scheduler::Cilk.run(&p, &Config::new(1)).unwrap();
        let (_, syn) = Scheduler::CilkSynched.run(&p, &Config::new(1)).unwrap();
        assert_eq!(cilk.stats.copies, syn.stats.copies, "copies are not saved");
        assert!(
            syn.stats.allocations * 10 < cilk.stats.allocations,
            "synched={} cilk={}",
            syn.stats.allocations,
            cilk.stats.allocations
        );
    }

    #[test]
    fn cutoff_library_copies_more_than_programmer() {
        let p = Tern { h: 7 };
        let cfg = Config::new(2);
        let (_, prog) = Scheduler::CutoffProgrammer(2).run(&p, &cfg).unwrap();
        let (_, lib) = Scheduler::CutoffLibrary.run(&p, &cfg).unwrap();
        assert!(
            lib.stats.copies > prog.stats.copies * 10,
            "lib={} prog={}",
            lib.stats.copies,
            prog.stats.copies
        );
    }

    #[test]
    fn tascell_counts_requests_and_responses() {
        let p = Tern { h: 9 };
        let (out, r) = Scheduler::Tascell.run(&p, &Config::new(4)).unwrap();
        assert_eq!(out, 3u64.pow(9));
        // Every task beyond the root came from answering a steal request
        // (whether any flow at all is timing-dependent on a loaded machine).
        assert_eq!(r.stats.tasks_created, 1 + r.stats.steal_responses);
        assert!(r.stats.steals_ok <= r.stats.steal_responses);
    }

    #[test]
    fn config_errors_are_propagated() {
        let p = Tern { h: 3 };
        let err = Scheduler::Cilk.run(&p, &Config::new(0)).unwrap_err();
        assert!(matches!(err, SchedulerError::Config(_)));
    }

    #[test]
    fn display_names_match_legends() {
        assert_eq!(Scheduler::AdaptiveTc.to_string(), "AdaptiveTC");
        assert_eq!(
            Scheduler::CutoffProgrammer(5).to_string(),
            "Cutoff-programmer(5)"
        );
        assert_eq!(Scheduler::CilkSynched.to_string(), "Cilk-SYNCHED");
    }
}
