//! Multi-job isolation: jobs running concurrently on one `JobServer` must
//! be indistinguishable — in results *and* in per-slot statistics — from
//! the same problems run solo through `Scheduler`.
//!
//! The structural argument (each job runs in a private engine region: its
//! own signals, root frame and `RunStats`, around deques that are empty
//! when it gets them) predicts *bit-identical* counters for single-slot
//! jobs: the job's one worker consumes the same seeded RNG stream as a
//! solo one-thread run, so any divergence means state leaked between
//! jobs. Multi-slot (work-sharing) jobs have scheduling-dependent
//! counters, so they are checked against the serial reference for results
//! and node conservation instead.

use adaptivetc_suite::core::{serial, Config, CutoffPolicy, Expansion, Problem, RunReport};
use adaptivetc_suite::runtime::{JobServer, Mode, Priority, Scheduler, ServerConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::{assert_bit_identical, completed};

/// A tree defined by explicit child lists whose leaves reduce a hash of
/// the full root path — the same cross-job leak oracle the copy-on-steal
/// property tests use: any frame executed in the wrong job's workspace
/// (or twice, or not at all) shifts the reduced value.
#[derive(Debug, Clone)]
struct PathHashTree {
    children: Vec<Vec<u32>>,
}

impl Problem for PathHashTree {
    type State = Vec<u32>;
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Vec<u32> {
        vec![0]
    }
    fn expand(&self, path: &Vec<u32>, _d: u32) -> Expansion<u32, u64> {
        let node = *path.last().expect("never empty") as usize;
        if self.children[node].is_empty() {
            Expansion::Leaf(
                path.iter()
                    .fold(1u64, |a, &n| a.wrapping_mul(31).wrapping_add(u64::from(n)))
                    % 1_048_573,
            )
        } else {
            Expansion::Children(self.children[node].clone())
        }
    }
    fn apply(&self, path: &mut Vec<u32>, c: u32) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u32>, _c: u32) {
        path.pop();
    }
}

/// Deterministic pseudo-random tree (xorshift parent choice), so the
/// exhaustive pool-size matrix below needs no proptest driver.
fn fixed_tree(nodes: usize, mut seed: u64) -> PathHashTree {
    let mut children = vec![Vec::new(); nodes];
    for node in 1..nodes {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let parent = (seed as usize) % node;
        children[parent].push(node as u32);
    }
    PathHashTree { children }
}

/// Random tree as a parent-pointer forest rooted at 0 (proptest driver).
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = PathHashTree> {
    (2..max_nodes).prop_flat_map(|n| {
        proptest::collection::vec(0..u32::MAX, n - 1).prop_map(move |parents| {
            let mut children = vec![Vec::new(); n];
            for (i, p) in parents.into_iter().enumerate() {
                let node = (i + 1) as u32;
                let parent = (p as usize) % (i + 1);
                children[parent].push(node);
            }
            PathHashTree { children }
        })
    })
}

/// The acceptance matrix: pool sizes 1/2/4, three concurrent single-slot
/// jobs per cell, each bit-identical to its solo run.
#[test]
fn concurrent_jobs_match_solo_runs_on_every_backend() {
    let trees: Vec<PathHashTree> = (0..3)
        .map(|i| fixed_tree(120 + 40 * i, 11 + i as u64))
        .collect();
    let cfg = |i: usize| Config::new(1).cutoff(CutoffPolicy::Auto).seed(i as u64);
    for workers in [1usize, 2, 4] {
        // Solo references, one per job, run the same seeded config.
        let solo: Vec<(u64, RunReport)> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| Scheduler::AdaptiveTc.run(t, &cfg(i)).expect("solo run"))
            .collect();
        let server = JobServer::new(ServerConfig::new(workers));
        let handles: Vec<_> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| {
                server
                    .submit(t.clone(), cfg(i), Mode::Adaptive, Priority::Normal)
                    .expect("submission accepted")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let ctx = format!("workers={workers} job={i}");
            let (out, report) = completed(h.wait());
            assert_eq!(out, solo[i].0, "{ctx}: result diverged");
            assert_bit_identical(&ctx, &report, &solo[i].1);
        }
        let stats = server.shutdown().stats;
        assert_eq!(stats.completed, trees.len() as u64);
        assert_eq!(stats.cancelled, 0);
    }
}

/// Holds a pool worker: its root raises `reached` and spins until `open`.
struct Held {
    reached: Arc<AtomicBool>,
    open: Arc<AtomicBool>,
}

impl Problem for Held {
    type State = ();
    type Choice = u8;
    type Out = u64;
    fn root(&self) {}
    fn expand(&self, _: &(), _d: u32) -> Expansion<u8, u64> {
        self.reached.store(true, Ordering::Release);
        while !self.open.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        Expansion::Leaf(0)
    }
    fn apply(&self, _: &mut (), _: u8) {}
    fn undo(&self, _: &mut (), _: u8) {}
}

/// Raises its flag when dropped.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Jobs a waiting client leads on its own thread, in both modes, while
/// the pool's only worker is held: each is bit-identical to its solo run,
/// as a pool worker's would be.
#[test]
fn client_led_jobs_match_solo_runs() {
    let trees: Vec<PathHashTree> = (0..3)
        .map(|i| fixed_tree(120 + 40 * i, 23 + i as u64))
        .collect();
    let server = JobServer::new(ServerConfig::new(1));
    let (reached, open) = (Arc::default(), Arc::<AtomicBool>::default());
    // Dropped before the server, so a failed assertion below ends the test
    // instead of holding the worker through the server's shutdown.
    let _open_on_exit = OpenOnDrop(Arc::clone(&open));
    let held = server
        .submit(
            Held {
                reached: Arc::clone(&reached),
                open: Arc::clone(&open),
            },
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submission accepted");
    while !reached.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let mut led = 0;
    for (mode, scheduler) in [
        (Mode::Adaptive, Scheduler::AdaptiveTc),
        (Mode::Cilk, Scheduler::Cilk),
    ] {
        for (i, t) in trees.iter().enumerate() {
            let cfg = Config::new(1).seed(i as u64);
            let ctx = format!("{mode:?} job={i}");
            let (solo_out, solo) = scheduler.run(t, &cfg).expect("solo run");
            let h = server
                .submit(t.clone(), cfg, mode, Priority::Normal)
                .expect("submission accepted");
            let (out, report) = completed(h.wait());
            led += 1;
            assert_eq!(out, solo_out, "{ctx}: result diverged");
            assert_bit_identical(&ctx, &report, &solo);
            assert_eq!(server.stats().client_leads, led, "{ctx}: led here");
        }
    }
    open.store(true, Ordering::Release);
    completed(held.wait());
    server.shutdown();
}

/// Work-sharing jobs (multiple slots) have nondeterministic steal splits,
/// but results and node conservation must still hold.
#[test]
fn work_sharing_jobs_reduce_correctly_on_every_backend() {
    let tree = fixed_tree(400, 5);
    let (expected, sref) = serial::run(&tree);
    let server = JobServer::new(ServerConfig::new(4).work_sharing(true));
    let handles: Vec<_> = (0..3)
        .map(|i| {
            let cfg = Config::new(4).cutoff(CutoffPolicy::Auto).seed(i as u64);
            server
                .submit(tree.clone(), cfg, Mode::Adaptive, Priority::Normal)
                .expect("submission accepted")
        })
        .collect();
    for h in handles {
        let (out, report) = completed(h.wait());
        assert_eq!(out, expected, "result diverged");
        assert_eq!(report.stats.nodes, sref.nodes, "node conservation broken");
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random trees, random pool sizes: three concurrent copies of the
    // same job stay bit-identical to the solo run — and to each other.
    #[test]
    fn random_concurrent_jobs_stay_isolated(
        tree in tree_strategy(250),
        workers in 1usize..5,
        seed in 0u64..50,
    ) {
        let cfg = Config::new(1).cutoff(CutoffPolicy::Auto).seed(seed);
        let (expected, _) = serial::run(&tree);
        let (solo_out, solo_report) =
            Scheduler::AdaptiveTc.run(&tree, &cfg).expect("solo run");
        prop_assert_eq!(solo_out, expected);
        let server = JobServer::new(ServerConfig::new(workers));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                server
                    .submit(tree.clone(), cfg.clone(), Mode::Adaptive, Priority::Normal)
                    .expect("submission accepted")
            })
            .collect();
        for h in handles {
            let (out, report) = completed(h.wait());
            prop_assert_eq!(out, solo_out, "result diverged from the solo run");
            prop_assert_eq!(&report.per_worker, &solo_report.per_worker);
            prop_assert_eq!(&report.stats, &solo_report.stats);
        }
        server.shutdown();
    }
}
