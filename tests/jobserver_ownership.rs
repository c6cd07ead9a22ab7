//! Who owns what in the job server, observed rather than asserted in
//! prose:
//!
//! * the **problem** is freed by the thread that holds the handle, exactly
//!   once, whatever becomes of the submission;
//! * a pool worker's **leased deques** carry nothing from one job into the
//!   next — through a cancellation, an overflowing capacity and a change
//!   of backend, every completed job stays bit-identical to its solo run;
//! * **nobody is woken who is not asleep**: a flooded pool issues almost
//!   no wake-ups, a parked one gets a real wake-up and not the timeout.

use adaptivetc_suite::core::{Config, DequeBackend, Expansion, Problem};
use adaptivetc_suite::runtime::{
    CancelOutcome, JobOutcome, JobServer, Mode, Priority, RejectReason, Scheduler, ServerConfig,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

mod common;
use common::{assert_bit_identical, completed};

/// Opens when told to; the first leaf a gated job reaches says so and
/// waits here — a deterministic way to hold a pool worker mid-job.
#[derive(Default)]
struct Gate {
    reached: AtomicBool,
    open: AtomicBool,
}

impl Gate {
    fn wait_reached(&self) {
        while !self.reached.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    fn open(&self) {
        self.open.store(true, Ordering::Release);
    }
}

/// Where and how often a problem was dropped.
#[derive(Default)]
struct Drops {
    count: AtomicUsize,
    last_on: Mutex<Option<ThreadId>>,
}

/// An irregular tree — a node at depth `d` on a path whose hash is `k` has
/// `(k + d) % 3 + 1` children — whose leaves reduce a hash of their whole
/// root path, so a frame run in another job's workspace, twice, or not at
/// all shifts the result. Optionally gated, optionally drop-tracked.
struct Bush {
    height: u32,
    tag: u32,
    gate: Option<Arc<Gate>>,
    drops: Option<Arc<Drops>>,
}

impl Bush {
    fn new(height: u32, tag: u32) -> Bush {
        Bush {
            height,
            tag,
            gate: None,
            drops: None,
        }
    }

    fn gated(mut self, gate: &Arc<Gate>) -> Bush {
        self.gate = Some(Arc::clone(gate));
        self
    }

    fn tracked(mut self, drops: &Arc<Drops>) -> Bush {
        self.drops = Some(Arc::clone(drops));
        self
    }

    fn hash(&self, path: &[u8]) -> u64 {
        path.iter().fold(u64::from(self.tag) + 1, |a, &c| {
            a.wrapping_mul(31).wrapping_add(u64::from(c) + 1)
        })
    }
}

impl Drop for Bush {
    fn drop(&mut self) {
        if let Some(d) = &self.drops {
            *d.last_on.lock().unwrap() = Some(std::thread::current().id());
            d.count.fetch_add(1, Ordering::AcqRel);
        }
    }
}

impl Problem for Bush {
    type State = Vec<u8>;
    type Choice = u8;
    type Out = u64;
    fn root(&self) -> Vec<u8> {
        Vec::new()
    }
    fn expand(&self, path: &Vec<u8>, depth: u32) -> Expansion<u8, u64> {
        let k = self.hash(path);
        if depth == self.height {
            if let Some(g) = &self.gate {
                if !g.reached.swap(true, Ordering::AcqRel) {
                    while !g.open.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
            }
            Expansion::Leaf(k % 1_048_573)
        } else {
            Expansion::Children((0..=((k + u64::from(depth)) % 3) as u8).collect())
        }
    }
    fn apply(&self, path: &mut Vec<u8>, c: u8) {
        path.push(c);
    }
    fn undo(&self, path: &mut Vec<u8>, _c: u8) {
        path.pop();
    }
}

/// Hold the single worker of `server` inside a gated job.
fn occupy(server: &JobServer) -> (adaptivetc_suite::runtime::JobHandle<u64>, Arc<Gate>) {
    let gate = Arc::new(Gate::default());
    let h = server
        .submit(
            Bush::new(3, 0).gated(&gate),
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit the gate job");
    gate.wait_reached();
    (h, gate)
}

// ---------------------------------------------------------------------------
// The problem
// ---------------------------------------------------------------------------

/// After `wait` on a single-slot job the problem has been dropped exactly
/// once, and by the waiting thread: the lead let go of it before it
/// published.
#[test]
fn waited_problem_is_dropped_once_on_the_waiting_thread() {
    let server = JobServer::new(ServerConfig::new(1));
    for backend in DequeBackend::ALL {
        for _ in 0..50 {
            let drops = Arc::new(Drops::default());
            let h = server
                .submit(
                    Bush::new(4, 1).tracked(&drops),
                    Config::new(1).backend(backend),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            completed(h.wait());
            assert_eq!(drops.count.load(Ordering::Acquire), 1, "{}", backend.name());
            assert_eq!(
                *drops.last_on.lock().unwrap(),
                Some(std::thread::current().id()),
                "{}: the problem was freed on a pool worker",
                backend.name()
            );
        }
    }
    server.shutdown();
}

/// A handle dropped while its job runs detaches it: the job still ends,
/// and the problem is still dropped exactly once — by the pool.
#[test]
fn detached_problem_is_dropped_once_by_the_pool() {
    let server = JobServer::new(ServerConfig::new(1));
    let drops = Arc::new(Drops::default());
    let gate = Arc::new(Gate::default());
    let h = server
        .submit(
            Bush::new(4, 2).gated(&gate).tracked(&drops),
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit");
    gate.wait_reached();
    drop(h);
    assert_eq!(drops.count.load(Ordering::Acquire), 0, "the job still runs");
    gate.open();
    let stats = server.shutdown().stats;
    assert_eq!(stats.completed, 1);
    assert_eq!(drops.count.load(Ordering::Acquire), 1);
    assert_ne!(
        *drops.last_on.lock().unwrap(),
        Some(std::thread::current().id()),
        "nobody on this thread held the problem any more"
    );
}

/// A `QueueFull` rejection hands back the very problem it was given, not
/// dropped and not copied.
#[test]
fn rejected_problem_comes_back_undropped() {
    let server = JobServer::new(ServerConfig::new(1).queue_capacity(2));
    let (gate_job, gate) = occupy(&server);
    let drops = Arc::new(Drops::default());
    let mut queued = Vec::new();
    let back = (10..20)
        .find_map(|tag| {
            match server.submit(
                Bush::new(2, tag).tracked(&drops),
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            ) {
                Ok(h) => {
                    queued.push(h);
                    None
                }
                Err(e) => {
                    assert_eq!(e.reason, RejectReason::QueueFull);
                    Some((tag, e.problem))
                }
            }
        })
        .expect("a two-slot lane rejects before ten pushes");
    let (tag, problem) = back;
    assert_eq!(problem.tag, tag, "a different problem came back");
    assert_eq!(
        drops.count.load(Ordering::Acquire),
        0,
        "nothing dropped yet"
    );
    drop(problem);
    assert_eq!(drops.count.load(Ordering::Acquire), 1);
    gate.open();
    completed(gate_job.wait());
    let accepted = queued.len();
    for h in queued {
        completed(h.wait());
    }
    assert_eq!(drops.count.load(Ordering::Acquire), 1 + accepted);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The leased deques
// ---------------------------------------------------------------------------

/// One pool worker leads the whole sequence, so every job but the first
/// meets the lease: same-type jobs borrow the deques of the job before,
/// the job after a mid-flight cancellation borrows the cancelled job's,
/// a two-slot capacity, another backend and another slot count each miss
/// and rebuild. Whatever the lease did, every completed job's report is
/// bit-identical to its solo run.
#[test]
fn leased_deques_carry_nothing_from_job_to_job() {
    fn scheduler(mode: Mode) -> Scheduler {
        match mode {
            Mode::Cilk => Scheduler::Cilk,
            _ => Scheduler::AdaptiveTc,
        }
    }
    for backend in DequeBackend::ALL {
        let other = DequeBackend::ALL
            .into_iter()
            .find(|b| *b != backend)
            .expect("there are four backends");
        let server = JobServer::new(ServerConfig::new(1));
        let run = |step: &str, height: u32, tag: u32, cfg: Config, mode: Mode| {
            let ctx = format!("{} / {step}", backend.name());
            let (solo_out, solo) = scheduler(mode)
                .run(&Bush::new(height, tag), &cfg)
                .expect("solo run");
            let h = server
                .submit(Bush::new(height, tag), cfg, mode, Priority::Normal)
                .expect("submit");
            let (out, report) = completed(h.wait());
            assert_eq!(out, solo_out, "{ctx}: result diverged");
            assert_bit_identical(&ctx, &report, &solo);
            report
        };
        let base = || Config::new(1).backend(backend);

        run("first", 7, 1, base().seed(1), Mode::Adaptive);
        run("same type", 7, 2, base().seed(2), Mode::Adaptive);

        // Cancelled mid-flight: pruned, partial counters, and whatever it
        // had pushed is popped again before its terminal.
        let gate = Arc::new(Gate::default());
        let h = server
            .submit(
                Bush::new(9, 3).gated(&gate),
                base().seed(3),
                Mode::Cilk,
                Priority::Normal,
            )
            .expect("submit");
        gate.wait_reached();
        assert_eq!(h.cancel(), CancelOutcome::Requested);
        gate.open();
        match h.wait() {
            JobOutcome::Cancelled { report } => assert!(report.is_some(), "it had started"),
            JobOutcome::Completed { .. } => panic!("{}: cancel lost", backend.name()),
        }
        run("after a cancel", 7, 4, base().seed(4), Mode::Adaptive);

        // Two slots of capacity: Cilk pushes at every level, so the
        // fixed-size backend overflows and runs the children inline.
        let tiny = run("capacity 2", 7, 5, base().deque_capacity(2), Mode::Cilk);
        if backend == DequeBackend::The {
            assert!(
                tiny.stats.deque_overflows > 0,
                "capacity 2 never overflowed"
            );
        }
        run(
            "capacity 2 again",
            7,
            6,
            base().deque_capacity(2),
            Mode::Cilk,
        );

        run(
            "other backend",
            7,
            7,
            Config::new(1).backend(other),
            Mode::Adaptive,
        );
        run("same type again", 7, 8, base().seed(8), Mode::Adaptive);
        run("and again", 7, 9, base().seed(9), Mode::Adaptive);

        let stats = server.shutdown().stats;
        assert_eq!((stats.completed, stats.cancelled), (8, 1));
    }
}

/// The same with a team in the mix: on a two-worker work-sharing pool a
/// two-slot job (scheduling-dependent counters: result and node count
/// only) runs between single-slot jobs that must stay bit-identical.
#[test]
fn a_two_slot_job_between_leases_leaves_no_trace() {
    for backend in DequeBackend::ALL {
        let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
        let single = Config::new(1).backend(backend);
        let (solo_out, solo) = Scheduler::AdaptiveTc
            .run(&Bush::new(7, 1), &single)
            .expect("solo run");
        let (team_out, team_ref) = Scheduler::AdaptiveTc
            .run(&Bush::new(9, 2), &single)
            .expect("team reference");
        for round in 0..6 {
            let ctx = format!("{} round {round}", backend.name());
            let h = server
                .submit(
                    Bush::new(7, 1),
                    single.clone(),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            let (out, report) = completed(h.wait());
            assert_eq!(out, solo_out, "{ctx}: result diverged");
            assert_bit_identical(&ctx, &report, &solo);

            let h = server
                .submit(
                    Bush::new(9, 2),
                    Config::new(2).backend(backend),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            let (out, report) = completed(h.wait());
            assert_eq!(out, team_out, "{ctx}: team result diverged");
            assert_eq!(report.threads, 2, "{ctx}: two job slots");
            assert_eq!(report.stats.nodes, team_ref.stats.nodes, "{ctx}: nodes");
        }
        server.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Parks and wakes
// ---------------------------------------------------------------------------

/// A client that keeps 32 jobs in flight keeps the worker busy: the queue
/// is never empty when the worker looks, so it does not park, and a
/// submission that finds nobody parked wakes nobody.
#[test]
fn a_flooded_pool_is_hardly_ever_woken() {
    const JOBS: usize = 2_000;
    const WINDOW: usize = 32;
    let server = JobServer::new(ServerConfig::new(1));
    let expect = Scheduler::AdaptiveTc
        .run(&Bush::new(6, 1), &Config::new(1))
        .expect("solo run")
        .0;
    let mut inflight = std::collections::VecDeque::with_capacity(WINDOW);
    let (mut submitted, mut done) = (0, 0);
    while done < JOBS {
        while inflight.len() < WINDOW && submitted < JOBS {
            inflight.push_back(
                server
                    .submit(
                        Bush::new(6, 1),
                        Config::new(1),
                        Mode::Adaptive,
                        Priority::Normal,
                    )
                    .expect("submit"),
            );
            submitted += 1;
        }
        let h = inflight.pop_front().expect("a job is in flight");
        assert_eq!(completed(h.wait()).0, expect);
        done += 1;
    }
    let stats = server.shutdown().stats;
    assert_eq!(stats.submitted, JOBS as u64);
    assert!(
        stats.wakes * 8 <= stats.submitted,
        "{} wakes for {} submissions ({} parks)",
        stats.wakes,
        stats.submitted,
        stats.parks
    );
}

/// Once the pool has parked, the next submission notifies it — counted,
/// not timed: the 1 ms backstop would also get the job done, and would
/// leave `wakes` at zero.
#[test]
fn a_parked_pool_is_woken_by_the_next_submission() {
    let server = JobServer::new(ServerConfig::new(1));
    // A submission can land in the instant between a worker's timed-out
    // sleep and its next announcement, and then rightly wakes nobody; so
    // try until one does not.
    for attempt in 0..200 {
        let parks = server.stats().parks;
        while server.stats().parks == parks {
            std::thread::yield_now();
        }
        let h = server
            .submit(
                Bush::new(3, attempt),
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        completed(h.wait());
        if server.stats().wakes >= 1 {
            break;
        }
    }
    let stats = server.shutdown().stats;
    assert!(stats.parks >= 1);
    assert!(
        stats.wakes >= 1,
        "200 submissions to a parking pool woke nobody"
    );
}
