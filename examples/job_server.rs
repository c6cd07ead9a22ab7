//! Job server: submit a stream of independent searches to one persistent
//! worker pool instead of spinning threads up per call.
//!
//! Shows the whole handle lifecycle — priorities overtaking each other in
//! the queue, a cooperative mid-flight cancellation, non-blocking polling
//! with `try_result`, and the server's own accounting at shutdown.
//!
//! ```text
//! cargo run --release --example job_server
//! ```

use adaptivetc_suite::core::Config;
use adaptivetc_suite::runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig};
use adaptivetc_suite::workloads::nqueens::NqueensArray;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = std::thread::available_parallelism()?.get().min(4);
    // One pool for the whole program: `workers` threads, a bounded
    // submission queue, and work sharing so multi-slot jobs may spread
    // across idle pool workers.
    let server = JobServer::new(
        ServerConfig::new(workers)
            .queue_capacity(16)
            .work_sharing(true),
    );

    println!("job server with {workers} pool workers\n");

    // A low-priority batch submitted first ...
    let batch: Vec<_> = (6..=8)
        .map(|n| {
            server
                .submit(
                    NqueensArray::new(n),
                    Config::new(1).seed(n as u64),
                    Mode::Adaptive,
                    Priority::Low,
                )
                .map_err(|e| format!("submit {n}-queens: {e}"))
        })
        .collect::<Result<_, _>>()?;

    // ... is overtaken in the queue by an urgent multi-slot job: priority
    // lanes are claimed strictly High before Normal before Low.
    let urgent = server
        .submit(
            NqueensArray::new(10),
            Config::new(workers).seed(42),
            Mode::Adaptive,
            Priority::High,
        )
        .map_err(|e| format!("submit urgent job: {e}"))?;

    // A job we change our mind about. Cancellation is cooperative: if it
    // already started, the engine notices at its next poll point and
    // returns the partial statistics gathered so far.
    let doomed = server
        .submit(
            NqueensArray::new(12),
            Config::new(1).seed(7),
            Mode::Adaptive,
            Priority::Normal,
        )
        .map_err(|e| format!("submit doomed job: {e}"))?;
    let cancel = doomed.cancel();
    println!("cancelled the 12-queens job: {cancel:?}");
    match doomed.wait() {
        JobOutcome::Cancelled { report: None } => {
            println!("  it never ran — cancelled while still queued")
        }
        JobOutcome::Cancelled { report: Some(r) } => {
            println!("  it was pruned mid-flight after {} nodes", r.stats.nodes)
        }
        JobOutcome::Completed { .. } => {
            println!("  too late — it finished before the request landed")
        }
    }

    // Poll the urgent handle without blocking, then wait for the rest.
    let urgent = match urgent.try_result() {
        Ok(outcome) => outcome,
        Err(handle) => {
            println!("urgent job still in flight, blocking on it ...");
            handle.wait()
        }
    };
    if let JobOutcome::Completed { out, report } = urgent {
        println!(
            "urgent 10-queens: {out} solutions on {} slots ({} tasks, {} steals, {:.1} ms)\n",
            report.threads,
            report.stats.tasks_created,
            report.stats.steals_ok,
            report.wall_ns as f64 / 1e6,
        );
    }
    for (n, h) in (6..=8).zip(batch) {
        // `latency()` is `None` until the job is terminal (and `wait`
        // consumes the handle), so poll it to completion first.
        let latency = loop {
            match h.latency() {
                Some(l) => break l,
                None => std::thread::yield_now(),
            }
        };
        if let JobOutcome::Completed { out, .. } = h.wait() {
            println!("{n}-queens: {out:>4} solutions  (submit-to-terminal {latency:?})");
        }
    }

    // Shutdown drains the queue to terminal states and joins the pool;
    // the counters must balance: submitted == completed + cancelled.
    let stats = server.shutdown().stats;
    println!(
        "\nserver: {} submitted = {} completed + {} cancelled ({} rejected)",
        stats.submitted, stats.completed, stats.cancelled, stats.rejected,
    );
    // A thread blocked in `wait` leads queued single-slot jobs itself.
    println!(
        "        {} of them led by this thread while it waited",
        stats.client_leads
    );
    Ok(())
}
