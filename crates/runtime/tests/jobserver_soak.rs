//! Job-server soak: a randomized stream of jobs with mixed priorities,
//! thread counts and mid-flight cancellations, run against a
//! single long-lived pool.
//!
//! The default run is sized to stay inside the normal test budget (and
//! the heavily-instrumented miri/tsan CI lanes); set `JOBSERVER_SOAK_MS`
//! to a wall-clock budget in milliseconds to keep submitting until it
//! expires (e.g. `JOBSERVER_SOAK_MS=30000` for a real soak).
//!
//! Invariants checked on every configuration:
//!
//! * every handle reaches a terminal state (`wait` returns);
//! * every completed job reduced the exact serial value for its tree;
//! * a job cancelled before it ran carries no report, and one cancelled
//!   mid-flight reports fewer nodes than the full tree;
//! * the server's counters are coherent at shutdown:
//!   `submitted == completed + cancelled` with nothing left queued.

use adaptivetc_core::{serial, Config, CutoffPolicy, Expansion, Problem};
use adaptivetc_runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig};
use std::time::{Duration, Instant};

/// Bushy tree whose leaves hash the root path (misrouted or duplicated
/// frames change the sum).
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

fn nodes_of(height: u32) -> u64 {
    // Ternary tree: (3^(h+1) - 1) / 2 nodes.
    (3u64.pow(height + 1) - 1) / 2
}

struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// One submitted job plus everything needed to judge its outcome.
struct Flight {
    handle: adaptivetc_runtime::JobHandle<u64>,
    height: u32,
    /// Whether the client requested cancellation at any point.
    cancelled: bool,
}

#[test]
fn randomized_job_stream_with_cancellations() {
    let budget = std::env::var("JOBSERVER_SOAK_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_millis);
    // Without a wall-clock budget, run a fixed small number of rounds so
    // the test stays cheap under miri/tsan instrumentation.
    let min_rounds = if budget.is_some() { usize::MAX } else { 6 };
    let heights = [2u32, 4, 6, 8];
    let expected: Vec<u64> = heights
        .iter()
        .map(|&h| serial::run(&Tern { height: h }).0)
        .collect();

    let server = JobServer::new(ServerConfig::new(3).queue_capacity(32).work_sharing(true));
    let mut rng = XorShift64(0x5eed_0a5e);
    let start = Instant::now();
    let mut in_flight: Vec<Flight> = Vec::new();
    let mut judged = 0u64;
    let mut completed_seen = 0u64;
    let mut cancelled_seen = 0u64;

    let judge = |f: Flight, completed_seen: &mut u64, cancelled_seen: &mut u64| {
        let hi = heights.iter().position(|&h| h == f.height).unwrap();
        match f.handle.wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, expected[hi], "height {} reduced wrong", f.height);
                assert_eq!(report.stats.nodes, nodes_of(f.height));
                *completed_seen += 1;
            }
            JobOutcome::Cancelled { report } => {
                if let Some(report) = report {
                    // A mid-flight prune never visits the whole tree twice:
                    // partial counters stay within the tree's node count.
                    assert!(
                        report.stats.nodes <= nodes_of(f.height),
                        "pruned job expanded phantom nodes"
                    );
                } else {
                    assert!(f.cancelled, "job lost its report without a client cancel");
                }
                *cancelled_seen += 1;
            }
        }
    };

    let mut round = 0usize;
    loop {
        let done_by_rounds = round >= min_rounds;
        let done_by_budget = budget.is_some_and(|b| start.elapsed() >= b);
        if done_by_rounds || done_by_budget {
            break;
        }
        round += 1;
        // Submit a burst with randomized shape. Low-priority heavies are
        // submitted first so later high-priority jobs overtake them in the
        // queue (the priority-inversion pattern the lanes must absorb).
        for burst in 0..4 {
            let r = rng.next();
            let height = heights[(r % heights.len() as u64) as usize];
            let threads = 1 + (r >> 8) as usize % 3;
            let priority = match burst {
                0 => Priority::Low,
                1 | 2 => Priority::Normal,
                _ => Priority::High,
            };
            let cfg = Config::new(threads).cutoff(CutoffPolicy::Auto).seed(r);
            match server.submit(Tern { height }, cfg, Mode::Adaptive, priority) {
                Ok(handle) => {
                    // Cancel two thirds of the jobs: half of those
                    // immediately (often still queued), half after a beat
                    // (often mid-flight, sometimes already complete).
                    let cancelled = r % 3 != 2;
                    if r.is_multiple_of(3) {
                        handle.cancel();
                    } else if r % 3 == 1 {
                        std::thread::yield_now();
                        handle.cancel();
                    }
                    in_flight.push(Flight {
                        handle,
                        height,
                        cancelled,
                    });
                }
                Err(e) => {
                    // Admission control pushed back; drain some flights
                    // and keep going.
                    assert!(
                        !in_flight.is_empty(),
                        "empty server rejected a submission: {e}"
                    );
                }
            }
        }
        // Periodically judge the oldest half so the stream overlaps jobs
        // in every lifecycle stage.
        if in_flight.len() >= 8 {
            let rest = in_flight.split_off(4);
            for f in in_flight {
                judge(f, &mut completed_seen, &mut cancelled_seen);
                judged += 1;
            }
            in_flight = rest;
        }
    }
    for f in in_flight {
        judge(f, &mut completed_seen, &mut cancelled_seen);
        judged += 1;
    }
    let stats = server.shutdown().stats;
    assert_eq!(stats.queue_depth, 0, "shutdown left jobs queued");
    assert_eq!(stats.active_jobs, 0, "shutdown left jobs active");
    assert_eq!(
        stats.submitted,
        stats.completed + stats.cancelled,
        "server counters incoherent: {stats:?}"
    );
    assert_eq!(stats.submitted, judged, "a handle was never judged");
    assert_eq!(stats.completed, completed_seen);
    assert_eq!(stats.cancelled, cancelled_seen);
    assert!(completed_seen > 0, "soak never completed a job");
}
