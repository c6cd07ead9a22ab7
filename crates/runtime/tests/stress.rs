//! Stress and edge-case tests for the threaded runtime.

use adaptivetc_core::treeinfo::TreeInfo;
use adaptivetc_core::{Config, CutoffPolicy, Expansion, Problem};
use adaptivetc_runtime::Scheduler;
use adaptivetc_workloads::tree::UnbalancedTree;

/// A bushy tree with a payload that checks apply/undo pairing at every
/// node (any workspace corruption changes the result).
struct Checked {
    height: u32,
    fanout: u8,
}

impl Problem for Checked {
    type State = Vec<u64>; // path of choice hashes
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u64> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u64>, depth: u32) -> Expansion<u8, u64> {
        assert_eq!(path.len() as u32, depth, "workspace desynchronised");
        if depth == self.height {
            // Leaf value derives from the path so misrouted workspaces
            // change the sum.
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

fn expected(p: &Checked) -> u64 {
    adaptivetc_core::serial::run(p).0
}

/// The five modes that run on the frame engine.
const ENGINE_MODES: [Scheduler; 5] = [
    Scheduler::Cilk,
    Scheduler::CilkSynched,
    Scheduler::CutoffProgrammer(3),
    Scheduler::CutoffLibrary,
    Scheduler::AdaptiveTc,
];

#[test]
fn adaptive_stress_with_aggressive_signalling() {
    // A tiny max_stolen_num forces many special-task transitions.
    let p = Checked {
        height: 9,
        fanout: 3,
    };
    let want = expected(&p);
    for seed in 0..5 {
        let cfg = Config::new(4).max_stolen_num(1).seed(seed);
        let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "seed {seed}");
        assert_eq!(report.stats.nodes, adaptivetc_core::serial::run(&p).1.nodes);
    }
}

#[test]
fn cilk_stress_many_threads_small_deques() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    // Capacity 2 forces constant overflow fallback; correctness must hold.
    let cfg = Config::new(8).deque_capacity(2).seed(3);
    let (got, report) = Scheduler::Cilk.run(&p, &cfg).expect("runs");
    assert_eq!(got, want);
    assert!(
        report.stats.deque_overflows > 0,
        "tiny deques must overflow"
    );
}

#[test]
fn adaptive_with_deep_cutoff_degenerates_to_cilk_behaviour() {
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let want = expected(&p);
    let cfg = Config::new(2).cutoff(CutoffPolicy::Fixed(100));
    let (got, report) = Scheduler::AdaptiveTc.run(&p, &cfg).expect("runs");
    assert_eq!(got, want);
    // Cut-off deeper than the tree: every node is a task, like Cilk.
    assert_eq!(report.stats.tasks_created, report.stats.nodes);
    assert_eq!(report.stats.fake_tasks, 0);
}

#[test]
fn every_scheduler_matches_serial() {
    // Every scheduler × {2,4,8} threads must return the serial answer.
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    for scheduler in ENGINE_MODES {
        for threads in [2, 4, 8] {
            let cfg = Config::new(threads).seed(7);
            let (got, report) = scheduler.run(&p, &cfg).expect("runs");
            assert_eq!(got, want, "{scheduler} with {threads} threads");
            assert_eq!(report.threads, threads);
        }
    }
}

#[test]
fn pools_report_reuse() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    // Cilk-SYNCHED is the scheduler that clones at every spawn *and*
    // recycles: AdaptiveTC and the cut-off modes spawn few real tasks, so
    // their pools see few copies to recycle.
    let cfg = Config::new(2).seed(11);
    let (got, report) = Scheduler::CilkSynched.run(&p, &cfg).expect("runs");
    assert_eq!(got, want);
    assert!(
        report.stats.frame_reuse > 0,
        "frame-per-node schedulers recycle frames"
    );
    assert!(
        report.stats.state_reuse > 0,
        "Cilk-SYNCHED recycles workspace buffers"
    );
    // The faithful Cilk baseline must keep allocating.
    let (_, report) = Scheduler::Cilk.run(&p, &cfg).expect("runs");
    assert_eq!(report.stats.state_reuse, 0);
}

#[test]
fn one_thread_joins_every_child_on_the_stack() {
    // The work-first property: without a theft no result ever goes
    // through a frame's shared join cell, whatever the mode.
    let p = Checked {
        height: 7,
        fanout: 3,
    };
    let want = expected(&p);
    for scheduler in ENGINE_MODES {
        let (got, report) = scheduler.run(&p, &Config::new(1)).expect("runs");
        assert_eq!(got, want, "{scheduler}");
        assert_eq!(
            report.stats.async_joins, 0,
            "{scheduler}: a never-stolen frame touched its join cell"
        );
    }
}

#[test]
fn async_joins_are_bounded_by_steals_not_nodes() {
    // DESIGN.md §6: each steal sends at most one finished child through
    // the stolen frame's cell, and makes at most one frame per tree level
    // above it complete asynchronously (one arrival each at its parent).
    let mut steals = 0;
    for seed in 0..200u64 {
        let tree = UnbalancedTree::new(3000, seed).skew(3.0).work(2);
        let want = adaptivetc_core::serial::run(&tree).0;
        let levels = u64::from(TreeInfo::measure(&tree).depth) + 1;
        for threads in [2, 4] {
            for scheduler in ENGINE_MODES {
                // A tiny max_stolen_num keeps AdaptiveTC's special tasks hot.
                let cfg = Config::new(threads).max_stolen_num(1).seed(seed);
                let (got, report) = scheduler.run(&tree, &cfg).expect("runs");
                let ctx = format!("{scheduler}, {threads} threads, seed {seed}");
                assert_eq!(got, want, "{ctx}");
                let s = &report.stats;
                assert!(
                    s.async_joins <= levels * s.steals_ok,
                    "{ctx}: {} async joins from {} steals on {levels} levels",
                    s.async_joins,
                    s.steals_ok
                );
                steals += s.steals_ok;
            }
        }
    }
    assert!(
        steals > 0,
        "no run stole anything: the bound was never tested"
    );
}

#[test]
fn idle_thieves_back_off() {
    // A serial chain gives thieves nothing to steal; they must record
    // back-off escalations rather than spin flat out until the root
    // resolves.
    struct Chain;
    impl Problem for Chain {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), depth: u32) -> Expansion<u8, u64> {
            // Busy work per node keeps the owner occupied for several
            // milliseconds in total, so thieves get many failed rounds;
            // the depth stays shallow enough for the check version's
            // recursion in debug builds.
            let mut h = u64::from(depth);
            for i in 0..4_000u64 {
                h = std::hint::black_box(h.wrapping_mul(0x9e3779b97f4a7c15) ^ i);
            }
            std::hint::black_box(h);
            if depth == 1_000 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0])
            }
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }
    let cfg = Config::new(4).cutoff(CutoffPolicy::Fixed(1));
    let (got, report) = Scheduler::AdaptiveTc.run(&Chain, &cfg).expect("runs");
    assert_eq!(got, 1);
    assert!(
        report.stats.steal_backoffs > 0,
        "starved thieves must escalate back-off (failed={})",
        report.stats.steals_failed
    );
    assert!(report.stats.steal_backoffs <= report.stats.steals_failed);
}

#[test]
fn tascell_stress_repeated_splits() {
    let p = Checked {
        height: 9,
        fanout: 3,
    };
    let want = expected(&p);
    for seed in 0..5 {
        let cfg = Config::new(4).seed(seed);
        let (got, _) = Scheduler::Tascell.run(&p, &cfg).expect("runs");
        assert_eq!(got, want, "seed {seed}");
    }
}

#[test]
fn timing_instrumentation_does_not_change_results() {
    let p = Checked {
        height: 8,
        fanout: 3,
    };
    let want = expected(&p);
    for s in [Scheduler::Cilk, Scheduler::Tascell, Scheduler::AdaptiveTc] {
        let (got, report) = s.run(&p, &Config::new(2).timing(true)).expect("runs");
        assert_eq!(got, want, "{s}");
        // With timing on, the copy clock must tick for copying schedulers.
        if matches!(s, Scheduler::Cilk) {
            assert!(report.stats.time.copy_ns > 0);
        }
        // And conversely: with timing off no per-op clock is ever read,
        // so every category stays zero (the lint's hot-path rule, pinned
        // dynamically).
        let (got, report) = s.run(&p, &Config::new(2).timing(false)).expect("runs");
        assert_eq!(got, want, "{s}");
        assert_eq!(report.stats.time.total_ns(), 0, "{s}");
    }
}

#[test]
fn single_node_problem() {
    struct One;
    impl Problem for One {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(7)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }
    for s in [
        Scheduler::Serial,
        Scheduler::Cilk,
        Scheduler::Tascell,
        Scheduler::AdaptiveTc,
    ] {
        let (got, _) = s.run(&One, &Config::new(4)).expect("runs");
        assert_eq!(got, 7, "{s}");
    }
}

#[test]
fn dead_end_heavy_problem() {
    // Interior nodes whose candidate lists are empty (failed backtracking
    // branches) must reduce to the identity without hanging any scheduler.
    struct DeadEnds;
    impl Problem for DeadEnds {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, st: &u32, depth: u32) -> Expansion<u8, u64> {
            if depth == 6 {
                Expansion::Leaf(1)
            } else if st % 3 == 2 {
                Expansion::Children(vec![]) // dead end
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, st: &mut u32, c: u8) {
            *st = *st * 4 + u32::from(c) + 1;
        }
        fn undo(&self, st: &mut u32, c: u8) {
            *st = (*st - u32::from(c) - 1) / 4;
        }
    }
    let want = adaptivetc_core::serial::run(&DeadEnds).0;
    for s in [Scheduler::Cilk, Scheduler::Tascell, Scheduler::AdaptiveTc] {
        let (got, _) = s.run(&DeadEnds, &Config::new(3)).expect("runs");
        assert_eq!(got, want, "{s}");
    }
}
