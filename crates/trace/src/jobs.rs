//! Interleaved run-epoch handling for job-server traces.
//!
//! A one-shot run drains one buffer per worker and timestamp zero is the
//! single run epoch, so [`validate`] can compare
//! the whole trace against one `RunReport`. A `JobServer` breaks that
//! assumption: one collector spans the server's lifetime, every pool worker
//! interleaves events from many jobs, and a job's "workers" are *job slots*
//! that different pool workers may fill at different times. The bridging
//! invariant is the [`EventKind::JobBegin`]/[`EventKind::JobEnd`] bracket
//! each participant emits around its engine entry: everything inside a
//! bracket belongs to exactly one `(job, slot)` pair.
//!
//! [`Trace::split_jobs`] re-keys a server trace by those brackets into one
//! sub-trace per job, indexed by job slot, which restores the one-epoch
//! world: each sub-trace can be fed to `validate`, `TraceCounts` or
//! [`TraceDiff`](crate::diff::TraceDiff) unchanged.
//! [`validate_concurrent`] packages the common case of checking every job's
//! sub-trace against its own `RunReport`.

use std::collections::BTreeMap;

use crate::collector::{Trace, WorkerTrace};
use crate::event::{Event, EventKind};
use crate::validate::{validate, Mismatch};
use adaptivetc_core::stats::RunReport;

/// Per-(job, slot) accumulator while scanning one pool worker's stream.
#[derive(Default)]
struct SlotAcc {
    events: Vec<Event>,
    dropped: u64,
}

impl Trace {
    /// Split a job-server trace into one sub-trace per job.
    ///
    /// Each pool worker's stream is scanned for `JobBegin { job, slot }` /
    /// `JobEnd { job }` brackets; the events inside are credited to job
    /// slot `slot` of job `job` (the markers themselves are consumed).
    /// Events outside any bracket — there are none in a healthy server
    /// trace — are discarded. A slot serviced by several pool workers in
    /// turn (lead, then a joiner, then another) has its segments merged
    /// and ordered by timestamp, matching how the server merges those
    /// participants' `RunStats` into the same per-slot entry.
    ///
    /// Ring overflow is poisoning, not per-event attributable: the rings
    /// drop *oldest*, so an overflow can swallow a `JobBegin` marker and
    /// orphan the events after it (they are discarded). A pool worker with
    /// `dropped > 0` therefore marks every job mentioned by any surviving
    /// marker in its stream as dropped, so downstream validation of those
    /// jobs fails loudly instead of comparing against silently incomplete
    /// streams.
    pub fn split_jobs(&self) -> BTreeMap<u32, Trace> {
        let mut jobs: BTreeMap<u32, BTreeMap<u16, SlotAcc>> = BTreeMap::new();
        let mut poisoned: Vec<(u32, u64)> = Vec::new();
        for w in &self.workers {
            let mut current: Option<(u32, u16)> = None;
            let mut touched: Vec<u32> = Vec::new();
            for ev in &w.events {
                match ev.kind {
                    EventKind::JobBegin { job, slot } => {
                        current = Some((job, slot));
                        if !touched.contains(&job) {
                            touched.push(job);
                        }
                    }
                    EventKind::JobEnd { job } => {
                        current = None;
                        if !touched.contains(&job) {
                            touched.push(job);
                        }
                    }
                    _ => {
                        if let Some((job, slot)) = current {
                            jobs.entry(job)
                                .or_default()
                                .entry(slot)
                                .or_default()
                                .events
                                .push(*ev);
                        }
                    }
                }
            }
            if w.dropped > 0 {
                poisoned.extend(touched.into_iter().map(|job| (job, w.dropped)));
            }
        }
        for (job, dropped) in poisoned {
            let slots = jobs.entry(job).or_default();
            if slots.is_empty() {
                slots.insert(0, SlotAcc::default());
            }
            for acc in slots.values_mut() {
                acc.dropped += dropped;
            }
        }
        jobs.into_iter()
            .map(|(job, slots)| {
                let max_slot = slots.keys().next_back().copied().unwrap_or(0);
                let mut workers: Vec<WorkerTrace> = (0..=max_slot)
                    .map(|slot| WorkerTrace {
                        worker: slot as usize,
                        events: Vec::new(),
                        dropped: 0,
                    })
                    .collect();
                for (slot, mut acc) in slots {
                    acc.events.sort_by_key(|e| e.ts);
                    workers[slot as usize].events = acc.events;
                    workers[slot as usize].dropped = acc.dropped;
                }
                (
                    job,
                    Trace {
                        workers,
                        sample: self.sample,
                        clock_backend: self.clock_backend,
                    },
                )
            })
            .collect()
    }
}

/// One discrepancy found by [`validate_concurrent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobMismatch {
    /// Which job disagreed.
    pub job: u32,
    /// The underlying trace/stats mismatch (its `worker` field is the
    /// job-local slot).
    pub mismatch: Mismatch,
}

impl std::fmt::Display for JobMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}: {}", self.job, self.mismatch)
    }
}

/// Validate a server trace carrying interleaved run-epochs against each
/// job's own report.
///
/// Splits `trace` by job and runs [`validate`] per job. A job whose
/// sub-trace has fewer slots than `report.per_worker` (a slot no joiner
/// ever filled emits no events) is padded with empty streams so the
/// per-slot comparison still applies — an unfilled slot must then report
/// all-zero stats. A job listed in `jobs` but absent from the trace is
/// compared against an empty trace: every non-zero counter mismatches.
pub fn validate_concurrent(trace: &Trace, jobs: &[(u32, &RunReport)]) -> Vec<JobMismatch> {
    let split = trace.split_jobs();
    let mut out = Vec::new();
    for (job, report) in jobs {
        let mut sub = split
            .get(job)
            .cloned()
            .unwrap_or_else(|| Trace::from_workers(Vec::new()));
        while sub.workers.len() < report.per_worker.len() {
            sub.workers.push(WorkerTrace {
                worker: sub.workers.len(),
                events: Vec::new(),
                dropped: 0,
            });
        }
        out.extend(validate(&sub, report).into_iter().map(|m| JobMismatch {
            job: *job,
            mismatch: m,
        }));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use adaptivetc_core::stats::RunStats;

    /// Two jobs interleaved on two pool workers: job 1 led by worker 0,
    /// job 2 led by worker 1, and worker 1 later joins job 1 at slot 1.
    fn interleaved() -> Trace {
        let c = TraceCollector::new(2, 256);
        c.emit_at(0, 1, EventKind::JobBegin { job: 1, slot: 0 });
        c.emit_at(1, 2, EventKind::JobBegin { job: 2, slot: 0 });
        c.emit_at(0, 3, EventKind::Spawn { depth: 0 });
        c.emit_at(1, 4, EventKind::Spawn { depth: 0 });
        c.emit_at(1, 5, EventKind::Push);
        c.emit_at(1, 6, EventKind::Pop);
        c.emit_at(1, 7, EventKind::JobEnd { job: 2 });
        c.emit_at(1, 8, EventKind::JobBegin { job: 1, slot: 1 });
        c.emit_at(1, 9, EventKind::StealOk { victim: 0 });
        c.emit_at(0, 10, EventKind::Push);
        c.emit_at(1, 11, EventKind::JobEnd { job: 1 });
        c.emit_at(0, 12, EventKind::JobEnd { job: 1 });
        c.finish()
    }

    #[test]
    fn split_rekeys_by_job_and_slot() {
        let split = interleaved().split_jobs();
        assert_eq!(split.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        let j1 = &split[&1];
        assert_eq!(j1.workers.len(), 2);
        assert_eq!(
            j1.workers[0]
                .events
                .iter()
                .map(|e| e.kind.name())
                .collect::<Vec<_>>(),
            vec!["spawn", "push"]
        );
        assert_eq!(
            j1.workers[1]
                .events
                .iter()
                .map(|e| e.kind.name())
                .collect::<Vec<_>>(),
            vec!["steal_ok"]
        );
        let j2 = &split[&2];
        assert_eq!(j2.workers.len(), 1);
        assert_eq!(j2.workers[0].events.len(), 3);
    }

    #[test]
    fn validate_concurrent_checks_each_job_against_its_own_report() {
        let trace = interleaved();
        let r1 = RunReport::from_workers(
            vec![
                RunStats {
                    tasks_created: 1,
                    deque_pushes: 1,
                    ..Default::default()
                },
                RunStats {
                    steals_ok: 1,
                    ..Default::default()
                },
            ],
            0,
        );
        let r2 = RunReport::from_workers(
            vec![RunStats {
                tasks_created: 1,
                deque_pushes: 1,
                deque_pops: 1,
                ..Default::default()
            }],
            0,
        );
        let mismatches = validate_concurrent(&trace, &[(1, &r1), (2, &r2)]);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn cross_job_leak_is_detected() {
        let trace = interleaved();
        // Claim job 2 performed job 1's steal: must mismatch.
        let r2 = RunReport::from_workers(
            vec![RunStats {
                tasks_created: 1,
                deque_pushes: 1,
                deque_pops: 1,
                steals_ok: 1,
                ..Default::default()
            }],
            0,
        );
        let mismatches = validate_concurrent(&trace, &[(2, &r2)]);
        assert!(
            mismatches
                .iter()
                .any(|m| m.job == 2 && m.mismatch.counter == "steals_ok"),
            "{mismatches:?}"
        );
        assert!(format!("{}", mismatches[0]).contains("job 2"));
    }

    #[test]
    fn unfilled_slot_is_padded_with_an_empty_stream() {
        let c = TraceCollector::new(1, 64);
        c.emit_at(0, 1, EventKind::JobBegin { job: 7, slot: 0 });
        c.emit_at(0, 2, EventKind::Spawn { depth: 0 });
        c.emit_at(0, 3, EventKind::JobEnd { job: 7 });
        let report = RunReport::from_workers(
            vec![
                RunStats {
                    tasks_created: 1,
                    ..Default::default()
                },
                RunStats::default(), // slot 1 never joined
            ],
            0,
        );
        let mismatches = validate_concurrent(&c.finish(), &[(7, &report)]);
        assert!(mismatches.is_empty(), "{mismatches:?}");
    }

    #[test]
    fn dropped_events_poison_contributing_slots() {
        // Drop-oldest overflow swallows the JobBegin marker; the surviving
        // JobEnd must still get job 3 poisoned.
        let c = TraceCollector::new(1, 16);
        c.emit_at(0, 1, EventKind::JobBegin { job: 3, slot: 0 });
        for i in 0..64 {
            c.emit_at(0, 2 + i, EventKind::Push);
        }
        c.emit_at(0, 99, EventKind::JobEnd { job: 3 });
        let trace = c.finish();
        assert!(trace.workers[0].dropped > 0);
        let split = trace.split_jobs();
        assert!(split[&3].workers.iter().any(|w| w.dropped > 0));
        // And validation of the poisoned job reports the pseudo-counter.
        let report = RunReport::from_workers(vec![RunStats::default()], 0);
        let mismatches = validate_concurrent(&trace, &[(3, &report)]);
        assert!(
            mismatches
                .iter()
                .any(|m| m.mismatch.counter == "dropped_events"),
            "{mismatches:?}"
        );
    }
}
