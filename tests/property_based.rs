//! Property-based cross-crate tests: scheduler equivalence and simulator
//! work conservation over randomly generated trees.

use adaptivetc_suite::core::{serial, Config, CutoffPolicy, Expansion, Problem};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::sim::{simulate, CostModel, Policy, SimTree};
use adaptivetc_suite::workloads::tree::UnbalancedTree;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A tree defined by explicit child lists (generated by proptest).
#[derive(Debug, Clone)]
struct ListTree {
    children: Vec<Vec<u32>>,
}

impl Problem for ListTree {
    type State = Vec<u32>;
    type Choice = u32;
    type Out = u64;
    fn root(&self) -> Vec<u32> {
        vec![0]
    }
    fn expand(&self, path: &Vec<u32>, _d: u32) -> Expansion<u32, u64> {
        let node = *path.last().expect("never empty") as usize;
        if self.children[node].is_empty() {
            Expansion::Leaf(1)
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

/// As [`ListTree`], but every leaf reduces a hash of the full root path:
/// a stolen sibling whose "clone" aliased the owner's workspace (or
/// received it mid-mutation) lands on a wrong node or a wrong path and
/// changes the reduced value. This is the workspace isolation oracle.
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
            // Reduced by summation over up to a few hundred leaves: keep
            // each hash small enough that the sum stays far from overflow.
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

/// `P`, whose workspaces count their clones: `clone` and `clone_from` each
/// bump `clones`, so a run's count can be held against
/// `RunStats::copies` — a clone the engine makes without counting it, or
/// counts without making it, shows.
struct CountClones<P> {
    inner: P,
    clones: Arc<AtomicU64>,
}

impl<P> CountClones<P> {
    fn new(inner: P) -> Self {
        CountClones {
            inner,
            clones: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The clones since the last call.
    fn take(&self) -> u64 {
        self.clones.swap(0, Ordering::SeqCst)
    }
}

struct Tallied<S> {
    state: S,
    clones: Arc<AtomicU64>,
}

impl<S: Clone> Clone for Tallied<S> {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Tallied {
            state: self.state.clone(),
            clones: Arc::clone(&self.clones),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.clones.fetch_add(1, Ordering::SeqCst);
        self.state.clone_from(&src.state);
    }
}

impl<P: Problem> Problem for CountClones<P> {
    type State = Tallied<P::State>;
    type Choice = P::Choice;
    type Out = P::Out;
    fn root(&self) -> Self::State {
        Tallied {
            state: self.inner.root(),
            clones: Arc::clone(&self.clones),
        }
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

/// Generate a random tree as a parent-pointer forest rooted at 0.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = ListTree> {
    (2..max_nodes).prop_flat_map(|n| {
        proptest::collection::vec(0..u32::MAX, n - 1).prop_map(move |parents| {
            let mut children = vec![Vec::new(); n];
            for (i, p) in parents.into_iter().enumerate() {
                let node = (i + 1) as u32;
                let parent = (p as usize) % (i + 1); // parent precedes child
                children[parent].push(node);
            }
            ListTree { children }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_schedulers_agree_on_random_trees(tree in tree_strategy(400), threads in 1usize..4) {
        let (expected, _) = serial::run(&tree);
        let cfg = Config::new(threads).cutoff(CutoffPolicy::Auto).seed(7);
        for s in [
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::Tascell,
            Scheduler::CutoffProgrammer(2),
            Scheduler::CutoffLibrary,
            Scheduler::AdaptiveTc,
        ] {
            let (got, _) = s.run(&tree, &cfg).expect("scheduler runs");
            prop_assert_eq!(got, expected, "{} with {} threads", s, threads);
        }
    }

    #[test]
    fn simulator_conserves_work_on_random_trees(
        tree in tree_strategy(300),
        threads in 1usize..9,
        seed in 0u64..1000,
    ) {
        let flat = SimTree::from_problem(&tree);
        for policy in [Policy::Cilk, Policy::AdaptiveTc, Policy::Tascell, Policy::CutoffLibrary] {
            let out = simulate(&flat, policy, &Config::new(threads).seed(seed), CostModel::calibrated());
            prop_assert_eq!(out.leaves, flat.leaf_count(), "{}", policy.name());
            // Busy time equals total work regardless of interleaving.
            prop_assert_eq!(
                out.report.stats.time.busy_ns,
                CostModel::calibrated().work_ns(flat.total_work()),
                "{} busy-time conservation", policy.name()
            );
        }
    }

    #[test]
    fn copy_on_steal_isolates_stolen_workspaces(
        tree in tree_strategy(300),
        threads in 2usize..6,
        seed in 0u64..50,
    ) {
        // An owner mutating its workspace in place must never leak into
        // the workspace of a continuation a concurrent thief stole. Any
        // leak shifts a path hash and the reduced value diverges from the
        // serial reference.
        let tree = PathHashTree { children: tree.children };
        let (expected, sref) = serial::run(&tree);
        let cfg = Config::new(threads).cutoff(CutoffPolicy::Auto).seed(seed);
        let (got, report) = Scheduler::AdaptiveTc.run(&tree, &cfg).expect("scheduler runs");
        prop_assert_eq!(
            got, expected,
            "stolen workspace not isolated ({} threads)", threads
        );
        let s = &report.stats;
        prop_assert_eq!(s.nodes, sref.nodes);
        // Every clone routes through the pool ledger.
        prop_assert_eq!(s.state_reuse + s.allocations, s.copies);
    }

    #[test]
    fn real_tasks_copy_and_fake_tasks_do_not(
        tree in tree_strategy(300),
        threads in 1usize..5,
        seed in 0u64..50,
    ) {
        // The paper's workspace rule: one clone per real-task spawn, none
        // for a fake task, under every deque-based scheduler and whatever
        // the thieves do. Cutoff-library's copying sequence clones for
        // every node below the cut-off as well: one per node but the root.
        // The workspace counts its clones, and the engine must make
        // exactly the copies it reports: no hidden clone.
        let tree = CountClones::new(PathHashTree { children: tree.children });
        let (expected, sref) = serial::run(&tree.inner);
        let cfg = Config::new(threads).cutoff(CutoffPolicy::Auto).seed(seed);
        for scheduler in [
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::CutoffProgrammer(2),
            Scheduler::CutoffLibrary,
            Scheduler::AdaptiveTc,
        ] {
            let (got, report) = scheduler.run(&tree, &cfg).expect("scheduler runs");
            prop_assert_eq!(got, expected, "{} with {} threads", scheduler, threads);
            let s = &report.stats;
            prop_assert_eq!(tree.take(), s.copies, "{} with {} threads", scheduler, threads);
            prop_assert_eq!(s.nodes, sref.nodes, "{}", scheduler);
            // `tasks_created` counts the root task, which owns the root
            // workspace outright: spawns are one fewer.
            let copies = match scheduler {
                Scheduler::CutoffLibrary => s.nodes - 1,
                _ => s.tasks_created - 1,
            };
            prop_assert_eq!(s.copies, copies, "{} with {} threads", scheduler, threads);
            prop_assert_eq!(s.workspace_copies_saved, 0, "{}", scheduler);
        }
    }

    #[test]
    fn cilk_baseline_clones_per_spawn(tree in tree_strategy(200), seed in 0u64..50) {
        // `Mode::Cilk` is the faithful eager baseline: it must keep
        // allocating one workspace per spawn and elide nothing.
        let tree = PathHashTree { children: tree.children };
        let (expected, _) = serial::run(&tree);
        let cfg = Config::new(2).seed(seed);
        let (got, report) = Scheduler::Cilk.run(&tree, &cfg).expect("runs");
        prop_assert_eq!(got, expected);
        let s = &report.stats;
        prop_assert_eq!(s.workspace_copies_saved, 0);
        prop_assert_eq!(s.copies, s.tasks_created - 1, "one clone per non-root spawn");
        prop_assert_eq!(s.allocations, s.copies, "the Cilk baseline never recycles");
    }

    #[test]
    fn unbalanced_tree_reversal_is_involutive(total in 10u64..5_000, seed in 0u64..100) {
        use adaptivetc_suite::core::treeinfo::TreeInfo;
        let l = UnbalancedTree::new(total, seed).skew(3.0);
        let rr = l.clone().reversed().reversed();
        prop_assert_eq!(TreeInfo::measure(&l), TreeInfo::measure(&rr));
    }

    #[test]
    fn simulated_wall_never_beats_critical_work(total in 100u64..3_000, threads in 1usize..9) {
        // Wall time is at least total_work / threads (no free lunch).
        let tree = UnbalancedTree::new(total, 3);
        let flat = SimTree::from_problem(&tree);
        let cost = CostModel::calibrated();
        let out = simulate(&flat, Policy::AdaptiveTc, &Config::new(threads), cost);
        let lower_bound = cost.work_ns(flat.total_work()) / threads as u64;
        prop_assert!(out.wall_ns >= lower_bound);
    }

    #[test]
    fn reuse_and_backoff_counters_respect_accounting(
        tree in tree_strategy(300),
        threads in 1usize..4,
        seed in 0u64..100,
    ) {
        // The hot-path reuse and back-off counters obey exact accounting
        // on any tree, any scheduler, any thread count.
        for scheduler in [
            Scheduler::Cilk,
            Scheduler::CilkSynched,
            Scheduler::Tascell,
            Scheduler::AdaptiveTc,
        ] {
            let cfg = Config::new(threads).cutoff(CutoffPolicy::Auto).seed(seed);
            let (_, report) = scheduler.run(&tree, &cfg).expect("scheduler runs");
            let s = &report.stats;
            // Every taskprivate copy either overwrote the buffer its frame
            // still held or allocated a fresh one — reuse can never exceed the copies
            // (the "never more reuses than spawns" direction), and the
            // two sources partition them exactly.
            prop_assert_eq!(
                s.state_reuse + s.allocations, s.copies,
                "{}: state copies not partitioned into reuse + alloc", scheduler
            );
            prop_assert!(s.state_reuse <= s.copies, "{}", scheduler);
            // A frame is taken once per spawned node, the root included,
            // and once per special task; the first ones are carved.
            prop_assert!(
                s.frame_reuse <= s.tasks_created + s.special_tasks,
                "{}: more frame reuses than frames taken", scheduler
            );
            // A back-off step follows a failed steal, and on the deque
            // engines only one that finds the victim's `need_task` up: the
            // failures that raise the flag run back to back. So back-offs
            // never outnumber failures (the exact rule is pinned in the
            // simulator, where it is deterministic), and a lone worker
            // never steals, so both are 0 at one thread.
            prop_assert!(s.steal_backoffs <= s.steals_failed, "{}", scheduler);
            if threads == 1 {
                prop_assert_eq!(s.steals_failed, 0, "{}: thieves with one worker", scheduler);
                prop_assert_eq!(s.steal_backoffs, 0, "{}: back-off with one worker", scheduler);
            }
        }
    }
}
