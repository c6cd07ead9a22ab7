//! A deterministic discrete-event simulator for work-stealing scheduling
//! policies.
//!
//! The evaluation machine of the AdaptiveTC paper (a dual quad-core Xeon)
//! is replaced here by *virtual workers under a virtual clock*: the same
//! seven scheduling policies as `adaptivetc-runtime`, executed over a
//! flattened computation tree ([`SimTree`]) with an explicit [`CostModel`]
//! for node work, task creation, d-e-que operations, workspace copies,
//! polling and steal traffic. Given `(policy, tree, worker count, seed)`
//! the simulated trace — and therefore every reported time — is exactly
//! reproducible.
//!
//! The simulator powers the multi-worker experiments (Figures 4, 5, 7, 9
//! and 10); single-thread overhead experiments (Table 2, Figure 6) run on
//! the real threaded runtime instead.
//!
//! # Examples
//!
//! ```
//! use adaptivetc_core::Config;
//! use adaptivetc_sim::{simulate, CostModel, Policy, SimTree};
//!
//! // A complete binary tree of height 12, uniform work and 64-byte state.
//! let mut children = vec![Vec::new(); (1 << 13) - 1];
//! for i in 0..(1 << 12) - 1 {
//!     children[i] = vec![2 * i as u32 + 1, 2 * i as u32 + 2];
//! }
//! let tree = SimTree::from_lists(children, 1, 64);
//!
//! let one = simulate(&tree, Policy::AdaptiveTc, &Config::new(1), CostModel::calibrated());
//! let four = simulate(&tree, Policy::AdaptiveTc, &Config::new(4), CostModel::calibrated());
//! assert_eq!(one.leaves, tree.leaf_count()); // every policy visits every leaf
//! assert!(four.wall_ns < one.wall_ns);       // parallelism helps in virtual time
//! ```

#![warn(missing_docs)]

mod cost;
mod engine;
mod events;
mod tascell;
mod trace;
mod tree;

pub use adaptivetc_strategy::Policy;
pub use cost::CostModel;
pub use tree::SimTree;

use adaptivetc_core::{Config, RunReport};

/// The outcome of a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Leaves visited (must equal `tree.leaf_count()`; the simulator's
    /// correctness check).
    pub leaves: u64,
    /// Virtual wall-clock time at root completion.
    pub wall_ns: u64,
    /// Aggregated and per-worker statistics (times are exact virtual
    /// durations).
    pub report: RunReport,
}

/// Simulate a policy over a flattened tree.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero workers).
pub fn simulate(tree: &SimTree, policy: Policy, cfg: &Config, cost: CostModel) -> SimOutcome {
    simulate_traced(tree, policy, cfg, cost).0
}

/// Simulate a policy and also return the event trace, stamped with the
/// virtual clock, when `cfg.trace` is set.
///
/// The deque-based policies emit the same event schema as the threaded
/// runtime (see `adaptivetc-trace`), so the two streams can be diffed
/// over their shared subset with `TraceDiff`. Tascell runs in its own
/// interpreter and is not instrumented: it always yields `None`, as does
/// any run with `cfg.trace` off.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero workers, undersized
/// trace ring).
pub fn simulate_traced(
    tree: &SimTree,
    policy: Policy,
    cfg: &Config,
    cost: CostModel,
) -> (SimOutcome, Option<adaptivetc_trace::Trace>) {
    cfg.validate().expect("invalid simulation configuration");
    // The simulator never samples: its streams stay exhaustive so
    // real-vs-sim diffs remain exact.
    let collector = (cfg.trace && policy != Policy::Tascell)
        .then(|| adaptivetc_trace::TraceCollector::new(cfg.threads, cfg.trace_capacity));
    let (leaves, report) = match policy.on_engine(cfg) {
        Some((mode, cfg)) => engine::Sim::new(tree, &cfg, cost, mode, collector.as_ref()).run(),
        None => tascell::TascellSim::new(tree, cfg, cost).run(),
    };
    let out = SimOutcome {
        leaves,
        wall_ns: report.wall_ns,
        report,
    };
    (out, collector.map(|c| c.finish()))
}

/// The serial baseline in virtual time: pure node work, no scheduling
/// overhead (the paper's "sequential C program").
pub fn serial_wall_ns(tree: &SimTree, cost: &CostModel) -> u64 {
    cost.work_ns(tree.total_work())
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_trace::EventKind;

    fn binary_tree(height: u32) -> SimTree {
        let n = (1usize << (height + 1)) - 1;
        let interior = (1usize << height) - 1;
        let mut children = vec![Vec::new(); n];
        for (i, c) in children.iter_mut().enumerate().take(interior) {
            *c = vec![2 * i as u32 + 1, 2 * i as u32 + 2];
        }
        SimTree::from_lists(children, 1, 64)
    }

    /// A deep spine with a bushy binary subtree hanging off every spine
    /// node: plenty of parallelism, but none of it visible above a shallow
    /// cut-off.
    fn spine_tree(len: usize, bush_height: u32) -> SimTree {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); len + 1];
        for (i, kids) in children.iter_mut().enumerate().take(len) {
            kids.push(i as u32 + 1); // the spine
        }
        fn bush(children: &mut Vec<Vec<u32>>, levels: u32) -> u32 {
            let id = children.len() as u32;
            children.push(Vec::new());
            if levels > 0 {
                let a = bush(children, levels - 1);
                let b = bush(children, levels - 1);
                children[id as usize] = vec![a, b];
            }
            id
        }
        for i in 0..len {
            let b = bush(&mut children, bush_height);
            children[i].push(b);
        }
        SimTree::from_lists(children, 1, 64)
    }

    fn all_policies() -> Vec<Policy> {
        vec![
            Policy::Cilk,
            Policy::CilkSynched,
            Policy::CutoffProgrammer(3),
            Policy::CutoffLibrary,
            Policy::AdaptiveTc,
            Policy::Tascell,
        ]
    }

    #[test]
    fn every_policy_visits_every_leaf() {
        let tree = binary_tree(10);
        for policy in all_policies() {
            for threads in [1, 2, 4, 8] {
                let out = simulate(
                    &tree,
                    policy,
                    &Config::new(threads),
                    CostModel::calibrated(),
                );
                assert_eq!(
                    out.leaves,
                    tree.leaf_count(),
                    "{} with {threads} workers lost work",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let tree = binary_tree(9);
        for policy in all_policies() {
            let a = simulate(
                &tree,
                policy,
                &Config::new(4).seed(9),
                CostModel::calibrated(),
            );
            let b = simulate(
                &tree,
                policy,
                &Config::new(4).seed(9),
                CostModel::calibrated(),
            );
            assert_eq!(a.wall_ns, b.wall_ns, "{}", policy.name());
            assert_eq!(a.report, b.report, "{}", policy.name());
        }
    }

    #[test]
    fn parallelism_reduces_virtual_time() {
        let tree = binary_tree(12);
        for policy in [Policy::Cilk, Policy::AdaptiveTc, Policy::Tascell] {
            let t1 = simulate(&tree, policy, &Config::new(1), CostModel::calibrated()).wall_ns;
            let t8 = simulate(&tree, policy, &Config::new(8), CostModel::calibrated()).wall_ns;
            assert!(
                t8 * 2 < t1,
                "{}: t1={t1} t8={t8} — expected at least 2x speedup",
                policy.name()
            );
        }
    }

    #[test]
    fn adaptive_single_worker_beats_cilk_single_worker() {
        // With one worker, AdaptiveTC degenerates to fake tasks (no copies,
        // no deque traffic beyond the cut-off frontier) while Cilk pays a
        // task + copy per node.
        let tree = binary_tree(12);
        let cilk = simulate(
            &tree,
            Policy::Cilk,
            &Config::new(1),
            CostModel::calibrated(),
        );
        let adpt = simulate(
            &tree,
            Policy::AdaptiveTc,
            &Config::new(1),
            CostModel::calibrated(),
        );
        assert!(adpt.wall_ns < cilk.wall_ns);
        assert!(adpt.report.stats.copies * 100 < cilk.report.stats.copies);
        assert!(adpt.report.stats.tasks_created * 100 < cilk.report.stats.tasks_created);
    }

    #[test]
    fn adaptive_creates_specials_under_load() {
        let tree = binary_tree(13);
        let out = simulate(
            &tree,
            Policy::AdaptiveTc,
            &Config::new(8).max_stolen_num(4),
            CostModel::calibrated(),
        );
        assert!(
            out.report.stats.special_tasks > 0,
            "8 hungry workers must trigger need_task transitions"
        );
    }

    #[test]
    fn cutoff_starves_on_a_spine() {
        // A deep spine below the cut-off leaves a fixed-cut-off scheduler
        // as slow as one worker, while AdaptiveTC's need_task → special
        // task → fast_2 re-opens task creation in the bushes hanging off
        // it. Two workers are not claimed: there AdaptiveTC loses to the
        // cut-off on spines.
        let tree = spine_tree(100, 10);
        for workers in [4, 8] {
            let cfg = Config::new(workers).max_stolen_num(2);
            let cutoff = Policy::CutoffProgrammer(cfg.cutoff_depth());
            let wall = |policy, cfg: &Config| {
                simulate(&tree, policy, cfg, CostModel::calibrated()).wall_ns
            };
            let alone = wall(cutoff, &Config::new(1));
            let cut = wall(cutoff, &cfg);
            let adpt = wall(Policy::AdaptiveTc, &cfg);
            assert!(
                10 * cut > 9 * alone,
                "{workers} workers: the cut-off should starve: {cut} vs one worker's {alone}"
            );
            assert!(
                2 * adpt < cut,
                "{workers} workers: adaptive={adpt} cutoff={cut}"
            );
        }
    }

    /// The back-off rule, pinned in virtual time. Worker 0 runs a chain,
    /// so worker 1 never finds work: its first `max_stolen_num + 1`
    /// failures run back to back at `steal_ns` each, the last of them
    /// raises `need_task` — the flag is up `(max_stolen_num + 1) ×
    /// steal_ns` after the first probe — and only that flagged failure
    /// and later ones pay `steal_backoff_ns`.
    #[test]
    fn a_starving_thief_raises_need_task_at_signal_speed() {
        let len = 400;
        let children = (0..len)
            .map(|i| if i + 1 < len { vec![i + 1] } else { Vec::new() })
            .collect();
        let tree = SimTree::from_lists(children, 1, 64);
        let cost = CostModel::calibrated();
        let cfg = Config::new(2).trace(true).trace_capacity(1 << 12);
        let max = u64::from(cfg.max_stolen_num);
        let (out, trace) = simulate_traced(&tree, Policy::AdaptiveTc, &cfg, cost);
        assert_eq!(out.leaves, 1);
        let thief = &trace.expect("traced").workers[1];
        let at = |want: fn(&EventKind) -> bool| -> Vec<u64> {
            thief
                .events
                .iter()
                .filter(|e| want(&e.kind))
                .map(|e| e.ts)
                .collect()
        };
        let empties = at(|k| matches!(k, EventKind::StealEmpty { .. }));
        let signals = at(|k| matches!(k, EventKind::NeedTaskSignal { .. }));
        assert!(empties.len() as u64 > max + 2, "the thief starves");
        let back_to_back: Vec<u64> = (0..=max).map(|k| k * cost.steal_ns).collect();
        assert_eq!(&empties[..=max as usize], &back_to_back[..]);
        // The (max + 1)-th probe raises the flag; it ends, and the flag
        // is up, (max + 1) × steal_ns after the first.
        assert_eq!(signals.first(), Some(&(max * cost.steal_ns)));
        assert_eq!(
            empties[max as usize + 1],
            (max + 1) * cost.steal_ns + cost.steal_backoff_ns,
            "the flagged failure backs off"
        );
        let s = &out.report.per_worker[1];
        assert!(s.steal_backoffs > 0);
        assert!(s.steal_backoffs <= s.steals_failed - (max + 1));
    }

    #[test]
    fn tascell_records_wait_children() {
        let tree = binary_tree(12);
        let out = simulate(
            &tree,
            Policy::Tascell,
            &Config::new(8),
            CostModel::calibrated(),
        );
        assert!(out.report.stats.steal_responses > 0);
        assert!(
            out.report.stats.time.wait_children_ns > 0,
            "victims must wait for handed-out children"
        );
    }

    /// Every simulated event stream must satisfy the same trace↔stats
    /// count identities the threaded runtime's differential validator
    /// enforces — per worker and in aggregate.
    #[test]
    fn traced_counts_match_stats() {
        let tree = binary_tree(10);
        let cfg = Config::new(4).trace(true).max_stolen_num(2).seed(7);
        for policy in [
            Policy::Cilk,
            Policy::CilkSynched,
            Policy::CutoffProgrammer(3),
            Policy::CutoffLibrary,
            Policy::AdaptiveTc,
        ] {
            let (out, trace) = simulate_traced(&tree, policy, &cfg, CostModel::calibrated());
            let trace = trace.expect("tracing enabled for deque-based policies");
            assert!(!trace.is_empty(), "{}", policy.name());
            let mismatches = adaptivetc_trace::validate(&trace, &out.report);
            assert!(mismatches.is_empty(), "{}: {:?}", policy.name(), mismatches);
        }
    }

    /// Tracing is opt-in (`Config::trace`) and never instruments Tascell.
    #[test]
    fn tracing_is_opt_in() {
        let tree = binary_tree(6);
        let (_, off) = simulate_traced(
            &tree,
            Policy::AdaptiveTc,
            &Config::new(2),
            CostModel::calibrated(),
        );
        assert!(off.is_none());
        let (_, tascell) = simulate_traced(
            &tree,
            Policy::Tascell,
            &Config::new(2).trace(true),
            CostModel::calibrated(),
        );
        assert!(tascell.is_none());
    }

    #[test]
    fn serial_wall_is_total_work() {
        let tree = binary_tree(5);
        let cost = CostModel::calibrated();
        assert_eq!(
            serial_wall_ns(&tree, &cost),
            tree.total_work() * cost.node_ns
        );
    }

    #[test]
    fn single_node_tree() {
        let tree = SimTree::from_lists(vec![vec![]], 1, 0);
        for policy in all_policies() {
            let out = simulate(&tree, policy, &Config::new(2), CostModel::calibrated());
            assert_eq!(out.leaves, 1, "{}", policy.name());
        }
    }
}

#[cfg(test)]
mod time_identity_tests {
    use super::*;
    use adaptivetc_core::Config;

    /// Per-policy: the sum of all time categories over all workers must not
    /// exceed workers × wall (each worker's clock is exclusive), and busy
    /// time must equal total work exactly.
    #[test]
    fn breakdown_fits_inside_the_wall() {
        let mut children = vec![Vec::new(); (1 << 13) - 1];
        for (i, c) in children.iter_mut().enumerate().take((1 << 12) - 1) {
            *c = vec![2 * i as u32 + 1, 2 * i as u32 + 2];
        }
        let tree = SimTree::from_lists(children, 2, 128);
        let cost = CostModel::calibrated();
        for policy in [
            Policy::Cilk,
            Policy::CilkSynched,
            Policy::AdaptiveTc,
            Policy::Tascell,
            Policy::CutoffLibrary,
        ] {
            for threads in [1usize, 4, 8] {
                let out = simulate(&tree, policy, &Config::new(threads), cost);
                let t = &out.report.stats.time;
                assert_eq!(
                    t.busy_ns,
                    cost.work_ns(tree.total_work()),
                    "{}: busy != total work",
                    policy.name()
                );
                let accounted = t.total_ns();
                let budget = out.wall_ns * threads as u64 + out.wall_ns; // slack: final idle tails
                assert!(
                    accounted <= budget,
                    "{} at {threads}: accounted {accounted} exceeds {budget}",
                    policy.name()
                );
            }
        }
    }
}
