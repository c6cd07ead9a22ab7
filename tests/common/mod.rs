//! Helpers shared by the job-server integration tests.

use adaptivetc_suite::core::RunReport;
use adaptivetc_suite::runtime::JobOutcome;

/// Unwrap a completed outcome.
pub fn completed(outcome: JobOutcome<u64>) -> (u64, RunReport) {
    match outcome {
        JobOutcome::Completed { out, report } => (out, report),
        JobOutcome::Cancelled { .. } => panic!("job was never cancelled"),
    }
}

/// Assert a job's report matches a solo run's bit-for-bit, ignoring only
/// the wall clock.
pub fn assert_bit_identical(ctx: &str, job: &RunReport, solo: &RunReport) {
    assert_eq!(job.threads, solo.threads, "{ctx}: slot count diverged");
    assert_eq!(
        job.per_worker, solo.per_worker,
        "{ctx}: per-slot stats diverged from the solo run"
    );
    assert_eq!(
        job.stats, solo.stats,
        "{ctx}: aggregate stats diverged from the solo run"
    );
}
