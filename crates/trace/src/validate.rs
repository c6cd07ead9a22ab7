//! Differential validation: trace-derived counts must equal the engine's
//! `RunStats` counters exactly — per worker and in aggregate.
//!
//! This is the acceptance oracle for the instrumentation itself: every
//! counter the engine bumps has a twin event, so any missed or spurious
//! emission shows up as a mismatch here.
//!
//! The oracle is **sampling-aware**. Each checked counter derives from
//! events of exactly one [`Category`] (the partition in [`crate::filter`]
//! is designed around this), so:
//!
//! * a counter whose category was 1-in-N *sampled* is checked as a bound
//!   (`traced ≤ stats`): sampling drops events but never invents them,
//!   and `RunStats` keeps the exact count regardless;
//! * every other counter is checked exactly.

use crate::analysis::TraceCounts;
use crate::collector::Trace;
use crate::filter::Category;
use adaptivetc_core::stats::{RunReport, RunStats};

/// One discrepancy between the trace and the stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// `None` for the aggregate check, `Some(w)` for worker `w`.
    pub worker: Option<usize>,
    /// Which counter disagreed.
    pub counter: &'static str,
    /// Count derived from the trace.
    pub traced: u64,
    /// Counter reported by `RunStats`.
    pub stats: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.worker {
            Some(w) => write!(
                f,
                "worker {w}: {} traced={} stats={}",
                self.counter, self.traced, self.stats
            ),
            None => write!(
                f,
                "aggregate: {} traced={} stats={}",
                self.counter, self.traced, self.stats
            ),
        }
    }
}

struct Checker<'a> {
    trace: &'a Trace,
    out: Vec<Mismatch>,
}

impl Checker<'_> {
    /// Check one counter against its single source category: exact when
    /// the category was recorded unsampled, `traced ≤ stats` when
    /// sampled.
    fn check(
        &mut self,
        worker: Option<usize>,
        counter: &'static str,
        cat: Category,
        traced: u64,
        stats: u64,
    ) {
        let mismatch = if self.trace.sampled(cat) {
            traced > stats
        } else {
            traced != stats
        };
        if mismatch {
            self.out.push(Mismatch {
                worker,
                counter,
                traced,
                stats,
            });
        }
    }

    fn compare(&mut self, worker: Option<usize>, c: &TraceCounts, s: &RunStats) {
        use Category as Cat;
        self.check(
            worker,
            "tasks_created",
            Cat::Spawn,
            c.spawns,
            s.tasks_created,
        );
        self.check(
            worker,
            "deque_pushes",
            Cat::Deque,
            c.pushes + c.special_pushes,
            s.deque_pushes,
        );
        self.check(
            worker,
            "deque_pops",
            Cat::Deque,
            c.pops + c.special_reclaimed,
            s.deque_pops,
        );
        self.check(
            worker,
            "pop_conflicts",
            Cat::Deque,
            c.pop_conflicts + c.special_lost,
            s.pop_conflicts,
        );
        self.check(worker, "steals_ok", Cat::Steal, c.steals_ok, s.steals_ok);
        self.check(
            worker,
            "steals_failed",
            Cat::Steal,
            c.steals_empty,
            s.steals_failed,
        );
        self.check(worker, "fake_tasks", Cat::Fake, c.fake_tasks, s.fake_tasks);
        self.check(
            worker,
            "special_tasks",
            Cat::Special,
            c.special_begins,
            s.special_tasks,
        );
        self.check(
            worker,
            "workspace_copies_saved",
            Cat::Workspace,
            c.copies_saved,
            s.workspace_copies_saved,
        );
        self.check(worker, "suspensions", Cat::Sync, c.suspends, s.suspensions);
        self.check(
            worker,
            "cutoff_adjustments",
            Cat::Strategy,
            c.cutoff_tunes,
            s.cutoff_adjustments,
        );
    }
}

/// Validate `trace` against `report`. Returns every mismatch found (empty
/// means the trace and the stats agree exactly). A non-zero dropped-event
/// count invalidates the comparison and is reported as a mismatch on the
/// pseudo-counter `dropped_events`.
pub fn validate(trace: &Trace, report: &RunReport) -> Vec<Mismatch> {
    let mut ck = Checker {
        trace,
        out: Vec::new(),
    };
    for w in &trace.workers {
        if w.dropped > 0 {
            ck.out.push(Mismatch {
                worker: Some(w.worker),
                counter: "dropped_events",
                traced: w.dropped,
                stats: 0,
            });
        }
    }
    // Per-worker comparison when the report carries per-worker stats.
    if report.per_worker.len() == trace.workers.len() {
        for (w, stats) in trace.workers.iter().zip(report.per_worker.iter()) {
            let counts = TraceCounts::from_events(w.events.iter());
            ck.compare(Some(w.worker), &counts, stats);
        }
    }
    let total = TraceCounts::from_trace(trace);
    ck.compare(None, &total, &report.stats);
    ck.out
}

/// Panic with a readable report if `validate` finds any mismatch.
pub fn assert_valid(trace: &Trace, report: &RunReport) {
    let mismatches = validate(trace, report);
    if !mismatches.is_empty() {
        let lines: Vec<String> = mismatches.iter().map(|m| format!("  {m}")).collect();
        panic!(
            "trace/stats differential failed ({} mismatches):\n{}",
            mismatches.len(),
            lines.join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::event::EventKind;

    fn report_for(stats: Vec<RunStats>) -> RunReport {
        RunReport::from_workers(stats, 0)
    }

    #[test]
    fn matching_trace_validates_clean() {
        let c = TraceCollector::new(1, 256);
        c.emit_at(0, 1, EventKind::Spawn { depth: 0 });
        c.emit_at(0, 2, EventKind::Push);
        c.emit_at(0, 3, EventKind::Pop);
        c.emit_at(0, 4, EventKind::FakeTask { depth: 3 });
        let s = RunStats {
            tasks_created: 1,
            deque_pushes: 1,
            deque_pops: 1,
            fake_tasks: 1,
            ..Default::default()
        };
        let mismatches = validate(&c.finish(), &report_for(vec![s]));
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn special_events_fold_into_deque_counters() {
        let c = TraceCollector::new(1, 256);
        c.emit_at(0, 1, EventKind::Push);
        c.emit_at(0, 2, EventKind::SpecialPush);
        c.emit_at(0, 3, EventKind::Pop);
        c.emit_at(0, 4, EventKind::SpecialConsume { reclaimed: true });
        c.emit_at(0, 5, EventKind::SpecialConsume { reclaimed: false });
        let s = RunStats {
            deque_pushes: 2,
            deque_pops: 2,
            pop_conflicts: 1,
            ..Default::default()
        };
        let mismatches = validate(&c.finish(), &report_for(vec![s]));
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn mismatch_is_reported_per_worker_and_aggregate() {
        let c = TraceCollector::new(1, 256);
        c.emit_at(0, 1, EventKind::Spawn { depth: 0 });
        let s = RunStats::default(); // claims zero tasks
        let mismatches = validate(&c.finish(), &report_for(vec![s]));
        assert_eq!(mismatches.len(), 2); // worker 0 + aggregate
        assert_eq!(mismatches[0].counter, "tasks_created");
        assert_eq!(mismatches[0].worker, Some(0));
        assert_eq!(mismatches[1].worker, None);
        assert_eq!(
            format!("{}", mismatches[0]),
            "worker 0: tasks_created traced=1 stats=0"
        );
    }

    #[test]
    #[should_panic(expected = "trace/stats differential failed")]
    fn assert_valid_panics_on_mismatch() {
        let c = TraceCollector::new(1, 256);
        c.emit_at(0, 1, EventKind::Spawn { depth: 0 });
        assert_valid(&c.finish(), &report_for(vec![RunStats::default()]));
    }

    #[test]
    fn sampled_categories_are_bounded_not_exact() {
        let c = TraceCollector::with_sample(1, 256, 4);
        let h = c.handle(0);
        for _ in 0..16 {
            h.emit(EventKind::Push); // 4 survive the 1-in-4 sampling
        }
        h.emit(EventKind::SyncSuspend); // Sync is never sampled
        let s = RunStats {
            deque_pushes: 16,
            suspensions: 1,
            ..Default::default()
        };
        let trace = c.finish();
        assert!(validate(&trace, &report_for(vec![s])).is_empty());
        // But a traced count *exceeding* the stats is still a mismatch.
        let lying = RunStats {
            deque_pushes: 2,
            suspensions: 1,
            ..Default::default()
        };
        let mismatches = validate(&trace, &report_for(vec![lying]));
        assert!(
            mismatches.iter().any(|m| m.counter == "deque_pushes"),
            "{mismatches:?}"
        );
    }

    #[test]
    fn unsampled_categories_stay_exact_under_sampling() {
        // With sampling on, a missed suspension event must still fail.
        let c = TraceCollector::with_sample(1, 256, 8);
        let s = RunStats {
            suspensions: 1,
            ..Default::default()
        };
        let mismatches = validate(&c.finish(), &report_for(vec![s]));
        assert!(
            mismatches.iter().any(|m| m.counter == "suspensions"),
            "{mismatches:?}"
        );
    }
}
