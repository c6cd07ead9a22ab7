//! Slot 0 of a one-shot run is the calling thread: the root task starts
//! on the caller's stack, and a panic there comes back as
//! `WorkerPanicked(0)` with the caller still running.

use adaptivetc_suite::core::{Config, Expansion, Problem, SchedulerError};
use adaptivetc_suite::runtime::Scheduler;
use std::sync::Mutex;
use std::thread::ThreadId;

/// A complete binary tree of `depth` levels, nodes numbered as in a heap
/// (root 1, children `2n` and `2n + 1`), counting its leaves. `root`
/// records the thread it runs on; expanding node `panic_at` panics.
struct Probe {
    depth: u32,
    panic_at: Option<u64>,
    root_on: Mutex<Option<ThreadId>>,
}

impl Probe {
    fn new(depth: u32, panic_at: Option<u64>) -> Self {
        Probe {
            depth,
            panic_at,
            root_on: Mutex::new(None),
        }
    }
}

impl Problem for Probe {
    type State = u64;
    type Choice = u64;
    type Out = u64;

    fn root(&self) -> u64 {
        *self.root_on.lock().unwrap() = Some(std::thread::current().id());
        1
    }

    fn expand(&self, st: &u64, depth: u32) -> Expansion<u64, u64> {
        if self.panic_at == Some(*st) {
            panic!("probe node {st} panics by design");
        }
        if depth == self.depth {
            Expansion::Leaf(1)
        } else {
            Expansion::Children(vec![0, 1])
        }
    }

    fn apply(&self, st: &mut u64, c: u64) {
        *st = 2 * *st + c;
    }

    fn undo(&self, st: &mut u64, _c: u64) {
        *st /= 2;
    }
}

const SCHEDULERS: [Scheduler; 3] = [Scheduler::AdaptiveTc, Scheduler::Cilk, Scheduler::Tascell];

#[test]
fn the_root_runs_on_the_callers_thread() {
    let me = std::thread::current().id();
    for scheduler in SCHEDULERS {
        for threads in [1, 2] {
            let probe = Probe::new(10, None);
            let (leaves, _) = scheduler
                .run(&probe, &Config::new(threads))
                .unwrap_or_else(|e| panic!("{scheduler} at {threads}: {e}"));
            assert_eq!(leaves, 1 << 10, "{scheduler} at {threads}");
            assert_eq!(
                *probe.root_on.lock().unwrap(),
                Some(me),
                "{scheduler} at {threads} thread(s) ran the root elsewhere"
            );
        }
    }
}

#[test]
fn a_panic_in_slot_zero_is_worker_panicked_zero() {
    for scheduler in SCHEDULERS {
        // Node 37 is five levels down: the run is well under way.
        let probe = Probe::new(10, Some(37));
        let got = scheduler.run(&probe, &Config::new(1));
        assert!(
            matches!(got, Err(SchedulerError::WorkerPanicked(0))),
            "{scheduler}: {got:?}"
        );
    }
    // The calling thread survived all three; it can still run a problem.
    let (leaves, _) = Scheduler::AdaptiveTc
        .run(&Probe::new(4, None), &Config::new(1))
        .unwrap();
    assert_eq!(leaves, 16);
}
