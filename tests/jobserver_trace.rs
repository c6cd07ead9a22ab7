//! End-to-end trace regression for interleaved run-epochs: two jobs
//! overlapping in time on one traced `JobServer`, split back per job and
//! validated against each job's own `RunReport`.
//!
//! The overlap is forced, not hoped for: job A parks its first leaf on a
//! gate, job B starts and finishes while A is parked, then A is released.
//! Both jobs' events therefore share the server's single collector and
//! the pool-wide trace carries genuinely interleaved epochs.

use adaptivetc_suite::core::{Config, CutoffPolicy, Expansion, Problem};
use adaptivetc_suite::runtime::{run_traced, JobOutcome, JobServer, Mode, Priority, ServerConfig};
use adaptivetc_suite::trace::{validate_concurrent, EventKind, TraceCounts, TraceDiff};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Ternary tree of the given height; leaves hash the root path.
#[derive(Debug, Clone)]
struct Tern {
    height: u32,
}

impl Problem for Tern {
    type State = Vec<u8>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u8> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u8>, depth: u32) -> Expansion<u8, u64> {
        if depth == self.height {
            Expansion::Leaf(
                path.iter()
                    .fold(1u64, |a, &c| a.wrapping_mul(31).wrapping_add(u64::from(c)))
                    % 97,
            )
        } else {
            Expansion::Children(vec![0, 1, 2])
        }
    }
    fn apply(&self, path: &mut Vec<u8>, c: u8) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u8>, _c: u8) {
        path.pop();
    }
}

/// As [`Tern`], but the first leaf reached flips `started` and then parks
/// until `gate` is raised — pinning the job mid-flight.
#[derive(Debug, Clone)]
struct GatedTern {
    height: u32,
    started: Arc<AtomicBool>,
    gate: Arc<AtomicBool>,
}

impl Problem for GatedTern {
    type State = Vec<u8>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u8> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u8>, depth: u32) -> Expansion<u8, u64> {
        if depth == self.height {
            if !self.started.swap(true, Ordering::AcqRel) {
                while !self.gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
            Expansion::Leaf(
                path.iter()
                    .fold(1u64, |a, &c| a.wrapping_mul(31).wrapping_add(u64::from(c)))
                    % 97,
            )
        } else {
            Expansion::Children(vec![0, 1, 2])
        }
    }
    fn apply(&self, path: &mut Vec<u8>, c: u8) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u8>, _c: u8) {
        path.pop();
    }
}

fn wait_started(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
}

#[test]
fn overlapping_jobs_split_and_validate_per_epoch() {
    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    // Exhaustive recording: the epoch-vs-solo comparison below is
    // event-for-event, which independent 1-in-N countdowns would break.
    let server = JobServer::new(ServerConfig::new(2).trace(true).trace_sample(1));

    // Job A: parks on the gate at its first leaf.
    let a = server
        .submit(
            GatedTern {
                height: 3,
                started: Arc::clone(&started),
                gate: Arc::clone(&gate),
            },
            Config::new(1).cutoff(CutoffPolicy::Auto).seed(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit job A");
    wait_started(&started);

    // Job B: runs to completion entirely inside job A's epoch.
    let cfg_b = Config::new(1).cutoff(CutoffPolicy::Auto).seed(2);
    let b = server
        .submit(
            Tern { height: 4 },
            cfg_b.clone(),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit job B");
    let (id_a, id_b) = (a.id() as u32, b.id() as u32);
    let outcome_b = b.wait();
    gate.store(true, Ordering::Release);
    let outcome_a = a.wait();

    let (out_a, report_a) = match outcome_a {
        JobOutcome::Completed { out, report } => (out, report),
        other => panic!("job A did not complete: {other:?}"),
    };
    let (out_b, report_b) = match outcome_b {
        JobOutcome::Completed { out, report } => (out, report),
        other => panic!("job B did not complete: {other:?}"),
    };

    let report = server.shutdown();
    let trace = report.trace.expect("tracing was enabled");

    // The pool-wide trace splits into exactly the two jobs ...
    let split = trace.split_jobs();
    assert_eq!(
        split.keys().copied().collect::<Vec<_>>(),
        {
            let mut ids = vec![id_a, id_b];
            ids.sort_unstable();
            ids
        },
        "trace does not decompose into the two submitted jobs"
    );

    // ... and each sub-trace validates against its own job's report.
    let mismatches = validate_concurrent(&trace, &[(id_a, &report_a), (id_b, &report_b)]);
    assert!(
        mismatches.is_empty(),
        "interleaved epochs failed per-job validation: {mismatches:?}"
    );

    // Job B is single-slot and seeded, so its sub-trace must be
    // event-for-event identical (counts, not timestamps) to a solo traced
    // run of the same problem and config.
    let (solo_out, solo_report, solo_trace) = run_traced(
        &Tern { height: 4 },
        &cfg_b.trace(true).trace_sample(1),
        Mode::Adaptive,
    )
    .expect("solo run");
    let solo_trace = solo_trace.expect("solo tracing enabled");
    assert_eq!(out_b, solo_out);
    assert_eq!(report_b.stats, solo_report.stats);
    assert_eq!(
        TraceCounts::from_trace(&split[&id_b]),
        TraceCounts::from_trace(&solo_trace),
        "job B's epoch diverged from its solo trace"
    );
    let diff = TraceDiff::compare(&split[&id_b], &solo_trace);
    assert!(
        diff.is_exact(),
        "single-slot job trace must align exactly with the solo run: {diff:?}"
    );

    // Sanity: job A really was mid-flight while B ran (its value checks
    // out and both completed).
    assert_eq!(
        out_a,
        adaptivetc_suite::core::serial::run(&Tern { height: 3 }).0
    );
}

/// A job a waiting client leads on its own thread records into the
/// clients' ring, after the pool workers' — never silently missing from
/// the trace: it splits out, validates against its report and matches its
/// solo traced run event for event.
#[test]
fn a_client_led_job_is_traced_in_the_clients_ring() {
    let started = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(AtomicBool::new(false));
    let server = JobServer::new(ServerConfig::new(1).trace(true).trace_sample(1));
    // The pool's only worker is held, so the client leads job B itself.
    let a = server
        .submit(
            GatedTern {
                height: 2,
                started: Arc::clone(&started),
                gate: Arc::clone(&gate),
            },
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit job A");
    wait_started(&started);
    let cfg_b = Config::new(1).cutoff(CutoffPolicy::Auto).seed(3);
    let b = server
        .submit(
            Tern { height: 4 },
            cfg_b.clone(),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit job B");
    let id_b = b.id() as u32;
    let report_b = match b.wait() {
        JobOutcome::Completed { report, .. } => report,
        other => panic!("job B did not complete: {other:?}"),
    };
    assert_eq!(server.stats().client_leads, 1, "the client led job B");
    gate.store(true, Ordering::Release);
    assert!(matches!(a.wait(), JobOutcome::Completed { .. }));

    let trace = server.shutdown().trace.expect("tracing was enabled");
    assert_eq!(trace.workers.len(), 2, "one pool ring and the clients'");
    let begins_b = |ring: usize| {
        trace.workers[ring]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::JobBegin { job: id_b, slot: 0 })
            .count()
    };
    assert_eq!((begins_b(0), begins_b(1)), (0, 1), "job B's ring");
    let mismatches = validate_concurrent(&trace, &[(id_b, &report_b)]);
    assert!(mismatches.is_empty(), "{mismatches:?}");
    let (_, solo_report, solo_trace) = run_traced(
        &Tern { height: 4 },
        &cfg_b.trace(true).trace_sample(1),
        Mode::Adaptive,
    )
    .expect("solo run");
    assert_eq!(report_b.stats, solo_report.stats);
    let diff = TraceDiff::compare(
        &trace.split_jobs()[&id_b],
        &solo_trace.expect("solo tracing enabled"),
    );
    assert!(diff.is_exact(), "client-led trace vs solo: {diff:?}");
}
