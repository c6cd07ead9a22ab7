//! No workspace outlives its run. A workspace lives in the frame it was
//! cloned into, and a freed frame keeps its buffer for the next spawn's
//! `clone_from`: the frames — and so the workspaces — stay on the slot
//! board after the spawns that used them. This pins that the board lets
//! them go with the run: a workspace type that counts its live instances
//! reads 0 once `Scheduler::run` returns, for every scheduler at 1, 2 and 4
//! threads (steals and special tasks included), and once a job server has
//! run a batch of pooled and Cilk jobs and shut down, with no slot board
//! dropped dirty (`ServerStats::dirty_regions`).

use adaptivetc_suite::core::{Config, Expansion, Problem, RunStats};
use adaptivetc_suite::runtime::{
    JobHandle, JobOutcome, JobServer, Mode, Priority, Scheduler, ServerConfig,
};
use adaptivetc_suite::workloads::tree::UnbalancedTree;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// `P`, whose workspaces count themselves in `live`: one more for each
/// made by `root` or `clone`, one fewer for each dropped.
struct Live<P> {
    inner: P,
    live: Arc<AtomicI64>,
}

impl<P> Live<P> {
    fn new(inner: P) -> Self {
        Live {
            inner,
            live: Arc::new(AtomicI64::new(0)),
        }
    }

    fn live(&self) -> i64 {
        self.live.load(Ordering::SeqCst)
    }
}

struct Counted<S> {
    state: S,
    live: Arc<AtomicI64>,
}

impl<S> Counted<S> {
    fn new(state: S, live: &Arc<AtomicI64>) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Counted {
            state,
            live: Arc::clone(live),
        }
    }
}

impl<S: Clone> Clone for Counted<S> {
    fn clone(&self) -> Self {
        Counted::new(self.state.clone(), &self.live)
    }

    /// Overwrites a live instance: the count stays.
    fn clone_from(&mut self, src: &Self) {
        self.state.clone_from(&src.state);
    }
}

impl<S> Drop for Counted<S> {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<P: Problem> Problem for Live<P> {
    type State = Counted<P::State>;
    type Choice = P::Choice;
    type Out = P::Out;
    fn root(&self) -> Self::State {
        Counted::new(self.inner.root(), &self.live)
    }
    fn expand(&self, st: &Self::State, depth: u32) -> Expansion<P::Choice, P::Out> {
        self.inner.expand(&st.state, depth)
    }
    fn apply(&self, st: &mut Self::State, c: P::Choice) {
        self.inner.apply(&mut st.state, c);
    }
    fn undo(&self, st: &mut Self::State, c: P::Choice) {
        self.inner.undo(&mut st.state, c);
    }
}

const SCHEDULERS: [Scheduler; 6] = [
    Scheduler::Cilk,
    Scheduler::CilkSynched,
    Scheduler::Tascell,
    Scheduler::CutoffProgrammer(2),
    Scheduler::CutoffLibrary,
    Scheduler::AdaptiveTc,
];

/// Run `scheduler` on a fresh counted tree; the count must be 0 after.
fn run_counted(scheduler: Scheduler, threads: usize, seed: u64) -> RunStats {
    let tree = Live::new(UnbalancedTree::new(30_000, seed).skew(3.0));
    let (want, _) = adaptivetc_suite::core::serial::run(&tree.inner);
    let cfg = Config::new(threads).seed(seed);
    let (got, report) = scheduler.run(&tree, &cfg).expect("runs");
    assert_eq!(got, want, "{scheduler} at {threads} threads");
    assert_eq!(
        tree.live(),
        0,
        "{scheduler} at {threads} threads: workspaces outlived the run"
    );
    report.stats
}

#[test]
fn a_run_leaves_no_workspace_alive() {
    for threads in [1, 2, 4] {
        for scheduler in SCHEDULERS {
            run_counted(scheduler, threads, 1);
        }
    }
    // And runs that steal and open special tasks, whose frames free on
    // other workers than the ones that took them.
    for seed in 2..40 {
        let s = run_counted(Scheduler::AdaptiveTc, 2 + seed as usize % 3, seed);
        if s.steals_ok > 0 && s.special_tasks > 0 {
            return;
        }
    }
    panic!("no run both stole and opened a special task");
}

#[test]
fn a_job_server_leaves_no_workspace_alive() {
    let live = Arc::new(AtomicI64::new(0));
    let tree = |seed| Live {
        inner: UnbalancedTree::new(5_000, seed),
        live: Arc::clone(&live),
    };
    let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
    let submit = |seed, mode, threads| {
        let cfg = Config::new(threads).seed(seed);
        let h = server.submit(tree(seed), cfg, mode, Priority::Normal);
        h.unwrap_or_else(|_| panic!("submit rejected"))
    };
    let done = |h: JobHandle<u64>| assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
    // A single-slot job's workers drop what their frames kept as they
    // leave the run, before the lead publishes the outcome: by then its
    // workspaces are gone.
    for seed in 0..6 {
        for mode in [Mode::Cilk, Mode::CilkSynched, Mode::Adaptive] {
            done(submit(seed, mode, 1));
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "{mode:?}: a kept region held a workspace"
            );
        }
    }
    // Teams, whose board a joiner may still hold after the outcome, and
    // single-slot jobs between them: nothing is left after shutdown.
    let batch: Vec<_> = (0..4)
        .flat_map(|seed| {
            [
                submit(seed, Mode::Cilk, 1),
                submit(seed, Mode::CilkSynched, 1),
                submit(seed, Mode::Adaptive, 2),
                submit(seed, Mode::CilkSynched, 2),
            ]
        })
        .collect();
    batch.into_iter().for_each(done);
    let stats = server.shutdown().stats;
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "workspaces outlived the server's jobs"
    );
    // Every board that came back settled as a fresh one, and was kept.
    assert!(stats.slab_resets > 0, "no board came back");
    assert_eq!(stats.dirty_regions, 0, "a job left its board dirty");
}
