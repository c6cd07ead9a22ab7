//! The README's tracing quick-start: record a 4-thread n-queens run,
//! export it for chrome://tracing / Perfetto, and print the provenance
//! and dwell summaries derived from the same stream.
//!
//! Run with `cargo run --release --example trace_quickstart`.

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use adaptivetc_suite::core::Config;
    use adaptivetc_suite::runtime::Scheduler;
    use adaptivetc_suite::trace::{dwell_times, to_chrome_json, StealTree};
    use adaptivetc_suite::workloads::nqueens::NqueensArray;

    let queens = NqueensArray::new(10);
    let cfg = Config::new(4).trace(true); // tracing is opt-in per run
    let (solutions, report, trace) = Scheduler::AdaptiveTc.run_traced(&queens, &cfg)?;
    let trace = trace.expect("Config::trace was set");
    std::fs::write("trace_nqueens.json", to_chrome_json(&trace))?;

    let steals = StealTree::build(&trace); // who stole from whom, at what depth
    let dwell = dwell_times(&trace); // per-worker work/special/sync/slow ns
    println!(
        "{solutions} solutions, {} tasks, {} steal edges, w0 work {} ns",
        report.stats.tasks_created,
        steals.edges.len(),
        dwell[0].work_ns
    );
    println!("wrote trace_nqueens.json — open it in chrome://tracing");
    Ok(())
}
