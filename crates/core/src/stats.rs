//! Run statistics: the quantities the paper's evaluation measures.
//!
//! Every scheduler (threaded or simulated) fills in a [`RunStats`] per
//! worker; [`RunReport`] aggregates them. These counters drive the
//! reproduction of Table 2 (relative one-thread overhead), Figure 6/7
//! (overhead breakdowns) and the task-count comparisons of Figure 1.

/// Wall-clock / virtual-clock time split by activity, in nanoseconds.
///
/// For the threaded runtime these are measured times (only when timing is
/// enabled in [`Config`](crate::Config)); for the simulator they are exact
/// virtual durations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Time spent executing user work (`expand`/`apply`/`undo`/leaf work).
    pub busy_ns: u64,
    /// Time spent allocating and copying taskprivate workspaces.
    pub copy_ns: u64,
    /// Time spent blocked waiting for child tasks to complete (Tascell's
    /// dominant overhead; AdaptiveTC pays it only inside special tasks).
    pub wait_children_ns: u64,
    /// Time spent idle attempting to steal (includes failed attempts and
    /// back-off).
    pub steal_wait_ns: u64,
    /// Time spent polling for steal requests / `need_task` flags.
    pub poll_ns: u64,
    /// Time spent on task creation and d-e-que management (Tascell: nested
    /// function bookkeeping).
    pub deque_ns: u64,
}

impl TimeBreakdown {
    /// Sum of all categories.
    pub fn total_ns(&self) -> u64 {
        self.busy_ns
            + self.copy_ns
            + self.wait_children_ns
            + self.steal_wait_ns
            + self.poll_ns
            + self.deque_ns
    }

    /// Accumulate another breakdown into this one.
    pub fn merge(&mut self, other: &TimeBreakdown) {
        self.busy_ns += other.busy_ns;
        self.copy_ns += other.copy_ns;
        self.wait_children_ns += other.wait_children_ns;
        self.steal_wait_ns += other.steal_wait_ns;
        self.poll_ns += other.poll_ns;
        self.deque_ns += other.deque_ns;
    }

    /// Fraction of total time spent in a category, `0.0` if nothing was
    /// recorded.
    pub fn fraction(&self, category_ns: u64) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            category_ns as f64 / total as f64
        }
    }
}

/// Event counters for one run (or one worker of a run).
///
/// # Examples
///
/// ```
/// use adaptivetc_core::RunStats;
///
/// let mut a = RunStats::default();
/// a.tasks_created = 3;
/// let mut b = RunStats::default();
/// b.tasks_created = 4;
/// a.merge(&b);
/// assert_eq!(a.tasks_created, 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Tree nodes executed (leaves + interior).
    pub nodes: u64,
    /// Real tasks created (pushed to a d-e-que or packaged for a requester).
    pub tasks_created: u64,
    /// Nodes executed as fake tasks (plain calls, no d-e-que traffic).
    pub fake_tasks: u64,
    /// Special tasks created (AdaptiveTC only).
    pub special_tasks: u64,
    /// d-e-que push operations.
    pub deque_pushes: u64,
    /// d-e-que pop operations that returned a task.
    pub deque_pops: u64,
    /// Owner-side theft discoveries. Counts two events: a pop that lost
    /// the THE race (the continuation had been stolen), and a special
    /// task's `pop_special` reporting `ChildStolen`. A thief that takes a
    /// special task's child is therefore seen twice by the victim — once
    /// for the child frame's continuation, once for the special — so this
    /// can exceed the thieves' `steals_ok` by the number of lost specials.
    pub pop_conflicts: u64,
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steal attempts.
    pub steals_failed: u64,
    /// Steal requests sent (Tascell-style request/respond protocols).
    pub steal_requests: u64,
    /// Steal requests answered with a task (Tascell victims).
    pub steal_responses: u64,
    /// Taskprivate workspace copies performed.
    pub copies: u64,
    /// Bytes copied for taskprivate workspaces.
    pub copy_bytes: u64,
    /// Workspace allocations (Cilk-SYNCHED reuses buffers: copies stay,
    /// allocations drop).
    pub allocations: u64,
    /// Always 0: every real task copies its workspace and nothing elides
    /// the copy. The field remains only because the repo benchmark
    /// (`benchmark/src/common.rs`) reads it (ROADMAP item 3(ii)).
    pub workspace_copies_saved: u64,
    /// Frames taken from a worker's free list instead of being carved fresh
    /// from its slot's frame slab. A frame is taken for every spawned child
    /// — leaves and fake tasks included — and for the root and each
    /// special task, so this can exceed `tasks_created`.
    pub frame_reuse: u64,
    /// Workspace copies made with `clone_from` over the buffer the child's
    /// frame still held from an earlier incarnation, instead of a fresh
    /// clone (`allocations`). Always 0 under `Mode::Cilk`, which drops a
    /// freed frame's workspace.
    pub state_reuse: u64,
    /// Times an idle thief escalated its back-off (finished a spin round or
    /// yielded) during the steal loop.
    pub steal_backoffs: u64,
    /// `need_task` / request-flag polls executed.
    pub polls: u64,
    /// Tasks suspended at a synchronization point.
    pub suspensions: u64,
    /// Child results that reached their parent frame through its shared
    /// join cell instead of on the spawning worker's stack. The runtime's
    /// frames are work-first: only a theft sends a result this way, so the
    /// count is zero on one thread and bounded by steals times tree height
    /// (DESIGN.md §6), never by nodes.
    pub async_joins: u64,
    /// Always 0: the task-creation cut-off is the paper's static one and
    /// nothing retunes it. The field remains only because the repo
    /// benchmark (`benchmark/src/common.rs`) reads it (ROADMAP item 3(e)).
    pub cutoff_adjustments: u64,
    /// Always 0: the `need_task` threshold is fixed at
    /// `Config::max_stolen_num` and nothing retunes it. The field remains
    /// only because the repo benchmark (`benchmark/src/common.rs`) reads it.
    pub threshold_adjustments: u64,
    /// Peak d-e-que occupancy observed.
    pub deque_peak: u64,
    /// d-e-que overflow events (fixed-capacity deques only).
    pub deque_overflows: u64,
    /// Time breakdown (zeroes when timing is disabled).
    pub time: TimeBreakdown,
}

impl RunStats {
    /// Accumulate another worker's statistics into this one.
    ///
    /// `deque_peak` merges with `max`, everything else with `+`.
    pub fn merge(&mut self, other: &RunStats) {
        self.nodes += other.nodes;
        self.tasks_created += other.tasks_created;
        self.fake_tasks += other.fake_tasks;
        self.special_tasks += other.special_tasks;
        self.deque_pushes += other.deque_pushes;
        self.deque_pops += other.deque_pops;
        self.pop_conflicts += other.pop_conflicts;
        self.steals_ok += other.steals_ok;
        self.steals_failed += other.steals_failed;
        self.steal_requests += other.steal_requests;
        self.steal_responses += other.steal_responses;
        self.copies += other.copies;
        self.copy_bytes += other.copy_bytes;
        self.allocations += other.allocations;
        self.workspace_copies_saved += other.workspace_copies_saved;
        self.frame_reuse += other.frame_reuse;
        self.state_reuse += other.state_reuse;
        self.steal_backoffs += other.steal_backoffs;
        self.polls += other.polls;
        self.suspensions += other.suspensions;
        self.async_joins += other.async_joins;
        self.cutoff_adjustments += other.cutoff_adjustments;
        self.threshold_adjustments += other.threshold_adjustments;
        self.deque_peak = self.deque_peak.max(other.deque_peak);
        self.deque_overflows += other.deque_overflows;
        self.time.merge(&other.time);
    }
}

/// The result of a parallel run: aggregated and per-worker statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Statistics summed over all workers.
    pub stats: RunStats,
    /// Per-worker statistics, indexed by worker id.
    pub per_worker: Vec<RunStats>,
    /// Wall-clock (threaded) or virtual (simulated) duration in ns. A
    /// threaded run's clock starts once its engine region exists — deques
    /// built, or leased by a `JobServer` worker — and stops when every
    /// worker has finished: building the region is set-up, not run time,
    /// for a solo run and a server job alike.
    pub wall_ns: u64,
    /// Number of workers used.
    pub threads: usize,
}

impl RunReport {
    /// Build a report by aggregating per-worker statistics.
    pub fn from_workers(per_worker: Vec<RunStats>, wall_ns: u64) -> Self {
        let mut stats = RunStats::default();
        for w in &per_worker {
            stats.merge(w);
        }
        let threads = per_worker.len();
        RunReport {
            stats,
            per_worker,
            wall_ns,
            threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_sums_categories() {
        let t = TimeBreakdown {
            busy_ns: 1,
            copy_ns: 2,
            wait_children_ns: 3,
            steal_wait_ns: 4,
            poll_ns: 5,
            deque_ns: 6,
        };
        assert_eq!(t.total_ns(), 21);
    }

    #[test]
    fn breakdown_fraction_handles_empty() {
        let t = TimeBreakdown::default();
        assert_eq!(t.fraction(0), 0.0);
    }

    #[test]
    fn breakdown_fraction() {
        let t = TimeBreakdown {
            busy_ns: 75,
            wait_children_ns: 25,
            ..Default::default()
        };
        assert!((t.fraction(t.wait_children_ns) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_takes_max_peak() {
        let mut a = RunStats {
            deque_peak: 4,
            ..Default::default()
        };
        let b = RunStats {
            deque_peak: 9,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.deque_peak, 9);
    }

    #[test]
    fn merge_sums_copy_on_steal_fields() {
        let mut a = RunStats {
            workspace_copies_saved: 10,
            steal_backoffs: 3,
            ..Default::default()
        };
        let b = RunStats {
            workspace_copies_saved: 7,
            steal_backoffs: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.workspace_copies_saved, 17);
        assert_eq!(a.steal_backoffs, 7);
    }

    #[test]
    fn merge_sums_pool_reuse_fields() {
        let mut a = RunStats {
            frame_reuse: 5,
            state_reuse: 2,
            allocations: 9,
            ..Default::default()
        };
        let b = RunStats {
            frame_reuse: 1,
            state_reuse: 8,
            allocations: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.frame_reuse, 6);
        assert_eq!(a.state_reuse, 10);
        assert_eq!(a.allocations, 10);
    }

    // Guard against `merge` silently lagging the struct again: set every
    // additive counter to 1 on both sides and demand 2 everywhere after a
    // merge (deque_peak, the lone max-merged field, stays 1).
    #[test]
    fn merge_covers_every_counter() {
        let ones = RunStats {
            nodes: 1,
            tasks_created: 1,
            fake_tasks: 1,
            special_tasks: 1,
            deque_pushes: 1,
            deque_pops: 1,
            pop_conflicts: 1,
            steals_ok: 1,
            steals_failed: 1,
            steal_requests: 1,
            steal_responses: 1,
            copies: 1,
            copy_bytes: 1,
            allocations: 1,
            workspace_copies_saved: 1,
            frame_reuse: 1,
            state_reuse: 1,
            steal_backoffs: 1,
            polls: 1,
            suspensions: 1,
            async_joins: 1,
            cutoff_adjustments: 1,
            threshold_adjustments: 1,
            deque_peak: 1,
            deque_overflows: 1,
            time: TimeBreakdown {
                busy_ns: 1,
                copy_ns: 1,
                wait_children_ns: 1,
                steal_wait_ns: 1,
                poll_ns: 1,
                deque_ns: 1,
            },
        };
        let mut merged = ones.clone();
        merged.merge(&ones);
        let expect = |v: u64, field: &str| assert_eq!(v, 2, "{field} not merged additively");
        expect(merged.nodes, "nodes");
        expect(merged.tasks_created, "tasks_created");
        expect(merged.fake_tasks, "fake_tasks");
        expect(merged.special_tasks, "special_tasks");
        expect(merged.deque_pushes, "deque_pushes");
        expect(merged.deque_pops, "deque_pops");
        expect(merged.pop_conflicts, "pop_conflicts");
        expect(merged.steals_ok, "steals_ok");
        expect(merged.steals_failed, "steals_failed");
        expect(merged.steal_requests, "steal_requests");
        expect(merged.steal_responses, "steal_responses");
        expect(merged.copies, "copies");
        expect(merged.copy_bytes, "copy_bytes");
        expect(merged.allocations, "allocations");
        expect(merged.workspace_copies_saved, "workspace_copies_saved");
        expect(merged.frame_reuse, "frame_reuse");
        expect(merged.state_reuse, "state_reuse");
        expect(merged.steal_backoffs, "steal_backoffs");
        expect(merged.polls, "polls");
        expect(merged.suspensions, "suspensions");
        expect(merged.async_joins, "async_joins");
        expect(merged.cutoff_adjustments, "cutoff_adjustments");
        expect(merged.threshold_adjustments, "threshold_adjustments");
        expect(merged.deque_overflows, "deque_overflows");
        assert_eq!(merged.time.total_ns(), 12, "time categories not merged");
        assert_eq!(merged.deque_peak, 1, "deque_peak must merge with max");
    }

    #[test]
    fn report_aggregates_pr3_fields_across_workers() {
        let w0 = RunStats {
            workspace_copies_saved: 4,
            frame_reuse: 2,
            steal_backoffs: 1,
            ..Default::default()
        };
        let w1 = RunStats {
            workspace_copies_saved: 6,
            state_reuse: 3,
            steal_backoffs: 2,
            ..Default::default()
        };
        let r = RunReport::from_workers(vec![w0, w1], 10);
        assert_eq!(r.stats.workspace_copies_saved, 10);
        assert_eq!(r.stats.frame_reuse, 2);
        assert_eq!(r.stats.state_reuse, 3);
        assert_eq!(r.stats.steal_backoffs, 3);
    }

    #[test]
    fn report_aggregates_workers() {
        let w0 = RunStats {
            steals_ok: 2,
            ..Default::default()
        };
        let w1 = RunStats {
            steals_ok: 3,
            ..Default::default()
        };
        let r = RunReport::from_workers(vec![w0, w1], 1000);
        assert_eq!(r.stats.steals_ok, 5);
        assert_eq!(r.threads, 2);
        assert_eq!(r.wall_ns, 1000);
    }
}
