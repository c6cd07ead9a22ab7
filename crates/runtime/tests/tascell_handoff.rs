//! Tascell's untimed hand-off: a thief waits for its answer with no
//! timeout, so a request that is never answered hangs the run. These tests
//! run on trees smaller than the team — where every request races a victim
//! that is about to finish — and on the stress suite's seeded unbalanced
//! trees, each under a watchdog, so that a hang fails the test instead of
//! stalling the suite.

use adaptivetc_core::{Config, Expansion, Problem};
use adaptivetc_runtime::Scheduler;
use adaptivetc_workloads::tree::UnbalancedTree;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A complete ternary tree whose workspace is the path of choices taken:
/// a range handed over with the wrong workspace or depth fails `expand`'s
/// check, and a lost or doubled range changes the leaf count.
struct Path {
    height: u32,
}

/// Rounds each leaf spins, so that thieves arrive while the tree runs.
const LEAF_SPIN: u32 = 2_000;

impl Problem for Path {
    type State = Vec<u8>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u8> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u8>, depth: u32) -> Expansion<u8, u64> {
        assert_eq!(path.len() as u32, depth, "workspace desynchronised");
        if depth == self.height {
            (0..LEAF_SPIN).for_each(|i| {
                std::hint::black_box(i);
            });
            Expansion::Leaf(1)
        } else {
            Expansion::Children(vec![0, 1, 2])
        }
    }
    fn apply(&self, path: &mut Vec<u8>, c: u8) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u8>, _: u8) {
        path.pop();
    }
}

/// Run `body` on a thread of its own and fail if it has not returned
/// within `limit`. `done` counts the body's finished runs, for the report.
fn watchdog(limit: Duration, body: impl FnOnce(&AtomicUsize) + Send + 'static) {
    let done = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&done);
    let run = std::thread::spawn(move || body(&counter));
    let start = Instant::now();
    while !run.is_finished() {
        assert!(
            start.elapsed() < limit,
            "a Tascell run hung: no return within {limit:?} after {} runs",
            done.load(Ordering::Relaxed)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    if let Err(panic) = run.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn tascell_terminates_on_trees_smaller_than_the_team() {
    watchdog(Duration::from_secs(120), |done| {
        for height in 0..=2 {
            let p = Path { height };
            let leaves = 3u64.pow(height);
            for threads in 2..=4 {
                for seed in 0..60 {
                    let cfg = Config::new(threads).seed(seed);
                    let (got, r) = Scheduler::Tascell.run(&p, &cfg).expect("runs");
                    let at = format!("height {height}, {threads} threads, seed {seed}");
                    assert_eq!(got, leaves, "{at}");
                    assert_eq!(r.stats.tasks_created, 1 + r.stats.steal_responses, "{at}");
                    assert_eq!(r.stats.steals_ok, r.stats.steal_responses, "{at}");
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    });
}

#[test]
fn tascell_equals_serial_on_the_stress_trees() {
    // The seeded unbalanced trees of the stress suite, skewed so that
    // ranges handed out late carry most of the work.
    watchdog(Duration::from_secs(120), |done| {
        for seed in 0..40u64 {
            let tree = UnbalancedTree::new(3000, seed).skew(3.0).work(2);
            let want = adaptivetc_core::serial::run(&tree).0;
            for threads in [1, 2, 4] {
                let cfg = Config::new(threads).seed(seed);
                let (got, r) = Scheduler::Tascell.run(&tree, &cfg).expect("runs");
                let at = format!("{threads} threads, seed {seed}");
                assert_eq!(got, want, "{at}");
                // Every range answered reached its thief and is a task
                // with one workspace copy.
                assert_eq!(r.stats.steals_ok, r.stats.steal_responses, "{at}");
                assert_eq!(r.stats.tasks_created, 1 + r.stats.steal_responses, "{at}");
                assert_eq!(r.stats.copies, r.stats.steal_responses, "{at}");
                done.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}
