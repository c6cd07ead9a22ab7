//! Where a `jobs_flood` job's time goes, by thread: the benchmark's closed
//! loop — one pool worker, one client keeping 32 `Fig1Tree` jobs in flight,
//! rounds of 10 000 — timed as jobs/s and as CPU time a job on the client
//! thread and on the pool, beside wake-ups, parks and the share of jobs the
//! client led itself while it waited. A jobs/s gain that is all extra CPU
//! shows here as that. CPU time is each thread's on-CPU nanoseconds from
//! `/proc/<pid>/task/<tid>/schedstat` (Linux).
//!
//! ```text
//! cargo run --release -p adaptivetc-bench --bin jobs_cpu -- [seconds]
//! ```

use adaptivetc_core::Config;
use adaptivetc_runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig, ServerStats};
use adaptivetc_workloads::fig1::Fig1Tree;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const WINDOW: usize = 32;
const JOBS_PER_ROUND: usize = 10_000;
const WARM_UP: usize = 5_000;

/// On-CPU nanoseconds of this process's threads: `(client, pool)`, the
/// client being the calling thread and the pool every `jobserver-*` one.
fn cpu_ns() -> (u64, u64) {
    let on_cpu = |dir: &std::path::Path| -> u64 {
        std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    };
    let client = on_cpu(std::path::Path::new("/proc/thread-self"));
    let pool = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .map(|task| task.path())
        .filter(|dir| {
            std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.starts_with("jobserver"))
        })
        .map(|dir| on_cpu(&dir))
        .sum();
    (client, pool)
}

/// Keep `WINDOW` jobs in flight until `jobs` have completed.
fn flood(server: &JobServer, jobs: usize) {
    let mut inflight = VecDeque::with_capacity(WINDOW);
    let (mut submitted, mut done) = (0, 0);
    while done < jobs {
        while inflight.len() < WINDOW && submitted < jobs {
            let h = server
                .submit(
                    Fig1Tree::new(),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("the lane has room for the window");
            inflight.push_back(h);
            submitted += 1;
        }
        let h = inflight.pop_front().expect("a job is in flight");
        match h.wait() {
            JobOutcome::Completed { out, .. } => assert_eq!(out, Fig1Tree::LEAVES),
            JobOutcome::Cancelled { .. } => panic!("nobody cancelled it"),
        }
        done += 1;
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let seconds: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let server = JobServer::new(ServerConfig::new(1));
    flood(&server, WARM_UP);

    let per_job = |before: &ServerStats, after: &ServerStats, f: fn(&ServerStats) -> u64| {
        (f(after) - f(before)) as f64 / JOBS_PER_ROUND as f64
    };
    let mut rows: [Vec<f64>; 6] = Default::default();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end || rows[0].len() < 3 {
        let (stats0, (client0, pool0), t) = (server.stats(), cpu_ns(), Instant::now());
        flood(&server, JOBS_PER_ROUND);
        let wall = t.elapsed().as_secs_f64();
        let ((client1, pool1), stats1) = (cpu_ns(), server.stats());
        let us = |ns: u64| ns as f64 / 1e3 / JOBS_PER_ROUND as f64;
        for (row, value) in rows.iter_mut().zip([
            JOBS_PER_ROUND as f64 / wall,
            us(client1 - client0),
            us(pool1 - pool0),
            per_job(&stats0, &stats1, |s| s.wakes),
            per_job(&stats0, &stats1, |s| s.parks),
            per_job(&stats0, &stats1, |s| s.client_leads),
        ]) {
            row.push(value);
        }
    }
    let rounds = rows[0].len();
    let [jobs_per_s, client_us, pool_us, wakes, parks, client_leads] = rows.map(median);
    println!("jobs_cpu: 1 pool worker, window {WINDOW}, {rounds} rounds of {JOBS_PER_ROUND} Fig1Tree jobs (medians)");
    println!("  jobs/s                 {jobs_per_s:>10.0}");
    println!(
        "  CPU us a job           {:>10.2}  (client {client_us:.2}, pool {pool_us:.2})",
        client_us + pool_us
    );
    println!("  wakes a job            {wakes:>10.4}");
    println!("  parks a job            {parks:>10.4}");
    println!("  led by the client      {client_leads:>10.4}");
    server.shutdown();
}
