//! Trace-vs-sim alignment: compare a real (threaded) trace with a
//! simulator trace of the same workload over the *shared schema subset* —
//! the event kinds both producers emit with identical meaning.
//!
//! Timestamps are incomparable between the two (wall ns vs virtual ns),
//! and thread interleaving makes per-event alignment meaningless beyond
//! one thread, so the diff compares per-kind occurrence counts. At one
//! thread the scheduling is deterministic on both sides and every shared
//! count must match exactly (this is the same identity the suite's
//! engine-vs-sim differential test asserts via `RunStats`); at higher
//! thread counts the diff is a report, not an oracle.

use crate::analysis::TraceCounts;
use crate::collector::Trace;

/// Per-kind counts restricted to the shared real/sim schema subset.
///
/// Excluded kinds and why:
/// * `StealAttempt` — the real steal loop probes empty deques at a rate
///   driven by wall time and back-off; the sim models steal *outcomes*.
/// * `Fsm`, `SpecialEnd`, `SyncResume` — worker-phase bracketing the sim
///   does not model as events.
/// * `NeedTask*`, `Ws*` — signalling details whose cadence is
///   timing-dependent even at matching outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCounts {
    /// Real tasks created.
    pub spawns: u64,
    /// Regular deque pushes.
    pub pushes: u64,
    /// Regular owner pops.
    pub pops: u64,
    /// Owner pops that lost to a thief.
    pub pop_conflicts: u64,
    /// Fake tasks executed.
    pub fake_tasks: u64,
    /// Special tasks created.
    pub special_begins: u64,
    /// Special deque pushes.
    pub special_pushes: u64,
    /// Special entries consumed (reclaimed + lost).
    pub special_consumes: u64,
    /// Successful steals.
    pub steals_ok: u64,
    /// Failed steals.
    pub steals_empty: u64,
    /// Sync suspensions.
    pub suspends: u64,
}

impl SharedCounts {
    /// Project the full counts onto the shared subset.
    pub fn from_trace(trace: &Trace) -> SharedCounts {
        let c = TraceCounts::from_trace(trace);
        SharedCounts {
            spawns: c.spawns,
            pushes: c.pushes,
            pops: c.pops,
            pop_conflicts: c.pop_conflicts,
            fake_tasks: c.fake_tasks,
            special_begins: c.special_begins,
            special_pushes: c.special_pushes,
            special_consumes: c.special_reclaimed + c.special_lost,
            steals_ok: c.steals_ok,
            steals_empty: c.steals_empty,
            suspends: c.suspends,
        }
    }

    fn rows(&self) -> [(&'static str, u64); 11] {
        [
            ("spawn", self.spawns),
            ("push", self.pushes),
            ("pop", self.pops),
            ("pop_conflict", self.pop_conflicts),
            ("fake_task", self.fake_tasks),
            ("special_begin", self.special_begins),
            ("special_push", self.special_pushes),
            ("special_consume", self.special_consumes),
            ("steal_ok", self.steals_ok),
            ("steal_empty", self.steals_empty),
            ("sync_suspend", self.suspends),
        ]
    }
}

/// One row of the diff report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffRow {
    /// Event kind name.
    pub kind: &'static str,
    /// Count in the real trace.
    pub real: u64,
    /// Count in the simulator trace.
    pub sim: u64,
}

impl DiffRow {
    /// True when real and sim agree on this kind.
    pub fn matches(&self) -> bool {
        self.real == self.sim
    }
}

/// The full trace-vs-sim comparison.
#[derive(Debug, Clone)]
pub struct TraceDiff {
    /// One row per shared event kind.
    pub rows: Vec<DiffRow>,
}

impl TraceDiff {
    /// Compare a real trace against a simulator trace.
    pub fn compare(real: &Trace, sim: &Trace) -> TraceDiff {
        let r = SharedCounts::from_trace(real);
        let s = SharedCounts::from_trace(sim);
        let rows = r
            .rows()
            .iter()
            .zip(s.rows().iter())
            .map(|(&(kind, real), &(_, sim))| DiffRow { kind, real, sim })
            .collect();
        TraceDiff { rows }
    }

    /// True when every shared kind matches.
    pub fn is_exact(&self) -> bool {
        self.rows.iter().all(DiffRow::matches)
    }

    /// Rows where real and sim disagree.
    pub fn mismatches(&self) -> Vec<DiffRow> {
        self.rows.iter().copied().filter(|r| !r.matches()).collect()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("kind              real        sim   match\n");
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16}{:>7}{:>11}   {}\n",
                r.kind,
                r.real,
                r.sim,
                if r.matches() { "yes" } else { "NO" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::event::{EventKind, FsmState};

    fn trace_with(kinds: &[EventKind]) -> Trace {
        let c = TraceCollector::new(1, 1024);
        for (i, k) in kinds.iter().enumerate() {
            c.emit_at(0, i as u64, *k);
        }
        c.finish()
    }

    #[test]
    fn identical_streams_diff_exact() {
        let kinds = [
            EventKind::Spawn { depth: 0 },
            EventKind::Push,
            EventKind::Pop,
            EventKind::FakeTask { depth: 2 },
            EventKind::SyncSuspend,
        ];
        let diff = TraceDiff::compare(&trace_with(&kinds), &trace_with(&kinds));
        assert!(diff.is_exact(), "{}", diff.render());
    }

    #[test]
    fn non_shared_kinds_are_ignored() {
        let real = trace_with(&[
            EventKind::Push,
            EventKind::StealAttempt { victim: 0 },
            EventKind::Fsm {
                from: FsmState::Fast,
                to: FsmState::Check,
                depth: 1,
            },
            EventKind::NeedTaskAck,
        ]);
        let sim = trace_with(&[EventKind::Push]);
        let diff = TraceDiff::compare(&real, &sim);
        assert!(diff.is_exact(), "{}", diff.render());
    }

    #[test]
    fn mismatch_is_reported() {
        let real = trace_with(&[EventKind::Push, EventKind::Push]);
        let sim = trace_with(&[EventKind::Push]);
        let diff = TraceDiff::compare(&real, &sim);
        assert!(!diff.is_exact());
        let bad = diff.mismatches();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].kind, "push");
        assert_eq!((bad[0].real, bad[0].sim), (2, 1));
        assert!(diff.render().contains("NO"));
    }

    #[test]
    fn consumes_merge_reclaimed_and_lost() {
        let real = trace_with(&[
            EventKind::SpecialConsume { reclaimed: true },
            EventKind::SpecialConsume { reclaimed: false },
        ]);
        let sim = trace_with(&[
            EventKind::SpecialConsume { reclaimed: false },
            EventKind::SpecialConsume { reclaimed: true },
        ]);
        assert!(TraceDiff::compare(&real, &sim).is_exact());
    }
}
