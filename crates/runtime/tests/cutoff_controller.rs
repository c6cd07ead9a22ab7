//! The online cut-off controller under the threaded engine: with
//! `max_stolen_num(1)` — the only setting that drives the controller hard
//! on every backend — AdaptiveTC must still run every node exactly once
//! with coherent statistics, and no other scheduler may ever move a
//! cut-off it does not read.

use adaptivetc_core::{Config, DequeBackend, Expansion, Problem, RunStats};
use adaptivetc_runtime::Scheduler;
use proptest::prelude::*;

/// A bushy tree whose leaf values derive from the path, so any lost,
/// duplicated or misrouted node changes the reduced sum.
struct Checked {
    height: u32,
    fanout: u8,
}

impl Problem for Checked {
    type State = Vec<u64>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u64> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u64>, depth: u32) -> Expansion<u8, u64> {
        assert_eq!(path.len() as u32, depth, "workspace desynchronised");
        if depth == self.height {
            Expansion::Leaf(
                path.iter()
                    .fold(1u64, |a, &h| a.wrapping_mul(31).wrapping_add(h))
                    % 97,
            )
        } else {
            Expansion::Children((0..self.fanout).collect())
        }
    }
    fn apply(&self, path: &mut Vec<u64>, c: u8) {
        path.push(u64::from(c) + 1);
    }
    fn undo(&self, path: &mut Vec<u64>, _c: u8) {
        path.pop();
    }
    fn state_bytes(&self, path: &Vec<u64>) -> usize {
        path.len() * 8
    }
}

/// The coherence contract every run must keep.
fn assert_coherent(stats: &RunStats, cfg: &Config, serial_nodes: u64) {
    assert_eq!(stats.nodes, serial_nodes, "a node ran zero or two times");
    assert!(
        stats.steals_ok <= stats.tasks_created,
        "stole more tasks than were ever created ({} > {})",
        stats.steals_ok,
        stats.tasks_created
    );
    if cfg.backend != DequeBackend::FenceFree {
        assert_eq!(
            stats.dup_extractions,
            0,
            "exact backend {} reported duplicate extractions",
            cfg.backend.name()
        );
    }
    assert_eq!(
        stats.threshold_adjustments, 0,
        "the need_task threshold is fixed: nothing retunes it"
    );
    if cfg.threads == 1 {
        assert_eq!(
            stats.cutoff_adjustments, 0,
            "no thieves, no pressure: 1-thread runs never retune the cutoff"
        );
        assert_eq!(
            stats.steals_ok, 0,
            "1-thread runs have nobody to steal from"
        );
    }
}

/// One AdaptiveTC run under aggressive signalling, checked against serial.
fn run_pressured(p: &Checked, backend: DequeBackend, threads: usize, seed: u64) {
    let (want, serial) = adaptivetc_core::serial::run(p);
    let cfg = Config::new(threads)
        .backend(backend)
        .max_stolen_num(1)
        .seed(seed);
    let (got, report) = Scheduler::AdaptiveTc.run(p, &cfg).expect("runs");
    assert_eq!(got, want, "{} with {threads} threads", backend.name());
    assert_coherent(&report.stats, &cfg, serial.nodes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pressured_runs_preserve_exactly_once(
        backend_ix in 0usize..DequeBackend::ALL.len(),
        threads_ix in 0usize..3,
        height in 6u32..9,
        seed in 0u64..1 << 20,
    ) {
        let p = Checked { height, fanout: 3 };
        run_pressured(&p, DequeBackend::ALL[backend_ix], [1usize, 2, 4][threads_ix], seed);
    }
}

/// Every backend × thread count once, deterministically, so a combination
/// that proptest happens to skip still runs on every CI pass.
#[test]
fn pressured_runs_exhaustive_single_seed() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    for backend in DequeBackend::ALL {
        for threads in [1, 2, 4] {
            run_pressured(&p, backend, threads, 17);
        }
    }
}

/// Only AdaptiveTC reads the controller's cut-off, so only it may feed
/// it: the baselines' thieves see long failed-steal streaks too, and must
/// not report them. (The simulator pins the same rule deterministically:
/// `only_adaptivetc_feeds_the_cutoff_controller` in `adaptivetc-sim`.)
#[test]
fn non_adaptive_schedulers_never_move_the_cutoff() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let want = adaptivetc_core::serial::run(&p).0;
    for scheduler in [
        Scheduler::Cilk,
        Scheduler::CilkSynched,
        Scheduler::CutoffProgrammer(3),
        Scheduler::CutoffLibrary,
        Scheduler::Tascell,
    ] {
        let (got, report) = scheduler.run(&p, &Config::new(4).seed(23)).expect("runs");
        assert_eq!(got, want, "{scheduler}");
        assert_eq!(
            report.stats.cutoff_adjustments, 0,
            "{scheduler} retuned a cutoff it does not read"
        );
        assert_eq!(report.stats.threshold_adjustments, 0, "{scheduler}");
    }
}
