//! Who owns what in the job server, observed rather than asserted in
//! prose:
//!
//! * the **problem** is freed by the thread that holds the handle, exactly
//!   once, whatever becomes of the submission;
//! * a **leased engine region** — a pool worker's, or the one a client
//!   leads jobs on while it waits — carries nothing from one job into the
//!   next: through a cancellation, an overflowing capacity and a change of
//!   problem type, signal threshold or capacity, every completed job stays
//!   bit-identical to its solo run, and the region is kept exactly when
//!   its key says so;
//! * **nobody is woken who is not asleep**: a flooded pool issues almost
//!   no wake-ups, a parked one gets a real wake-up and not the timeout;
//! * a **waiting client** leads only the jobs its own thread submitted,
//!   and a job it leads that unwinds out of `wait` does not hold up
//!   shutdown.

use adaptivetc_suite::core::{serial, Config, Expansion, Problem};
use adaptivetc_suite::runtime::{
    CancelOutcome, JobHandle, JobOutcome, JobServer, Mode, Priority, RejectReason, Scheduler,
    ServerConfig,
};
use adaptivetc_suite::trace::EventKind;
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use adaptivetc_suite::workloads::nqueens::NqueensArray;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

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
/// all shifts the result. Optionally gated, optionally drop-tracked,
/// optionally panicking at its first leaf.
struct Bush {
    height: u32,
    tag: u32,
    gate: Option<Arc<Gate>>,
    drops: Option<Arc<Drops>>,
    panics: bool,
}

impl Bush {
    fn new(height: u32, tag: u32) -> Bush {
        Bush {
            height,
            tag,
            gate: None,
            drops: None,
            panics: false,
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

    fn panicking(mut self) -> Bush {
        self.panics = true;
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
            assert!(!self.panics, "a panicking problem reached a leaf");
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

/// Wait without leading anything: poll until a pool worker has published
/// the outcome.
fn wait_on_pool(mut h: JobHandle<u64>) -> JobOutcome<u64> {
    loop {
        match h.try_result() {
            Ok(outcome) => return outcome,
            Err(back) => h = back,
        }
        std::thread::yield_now();
    }
}

/// Hold the single worker of `server` inside a gated job.
fn occupy(server: &JobServer) -> (JobHandle<u64>, Arc<Gate>) {
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
    for _ in 0..50 {
        let drops = Arc::new(Drops::default());
        let h = server
            .submit(
                Bush::new(4, 1).tracked(&drops),
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        completed(h.wait());
        assert_eq!(drops.count.load(Ordering::Acquire), 1);
        assert_eq!(
            *drops.last_on.lock().unwrap(),
            Some(std::thread::current().id()),
            "the problem was freed on a pool worker"
        );
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
// The leased region
// ---------------------------------------------------------------------------

/// The lease walk: every job runs solo and on `server`,
/// the two must be bit-identical, and the job must have met the lease as
/// its step says. `client`: this thread leads every job, on its own lease,
/// while the pool's only worker is held; otherwise the pool worker leads
/// them and this thread waits without leading.
struct Walk<'a> {
    server: &'a JobServer,
    client: bool,
}

impl Walk<'_> {
    /// `kept`: whether the region of the job before serves this one.
    fn job<P: Problem<Out = u64> + 'static>(
        &self,
        step: &str,
        make: impl Fn() -> P,
        cfg: Config,
        mode: Mode,
        kept: bool,
    ) -> adaptivetc_suite::core::RunReport {
        let ctx = format!("client {} / {step}", self.client);
        let scheduler = match mode {
            Mode::Cilk => Scheduler::Cilk,
            _ => Scheduler::AdaptiveTc,
        };
        let (solo_out, solo) = scheduler.run(&make(), &cfg).expect("solo run");
        let hits = self.server.stats().lease_hits;
        let h = self
            .server
            .submit(make(), cfg, mode, Priority::Normal)
            .expect("submit");
        let (leads, (out, report)) = if self.client {
            let leads = self.server.stats().client_leads;
            (leads + 1, completed(h.wait()))
        } else {
            (0, completed(wait_on_pool(h)))
        };
        assert_eq!(out, solo_out, "{ctx}: result diverged");
        assert_bit_identical(&ctx, &report, &solo);
        let stats = self.server.stats();
        assert_eq!(stats.client_leads, leads, "{ctx}: who led the job");
        assert_eq!(
            stats.lease_hits - hits,
            u64::from(kept),
            "{ctx}: lease hits"
        );
        report
    }
}

/// One pool worker leads the whole sequence, so every job but the first
/// meets the lease. A job of the key of the job before it is served by the
/// kept region — also after a mid-flight cancellation and after
/// overflowing deques; another problem type, signal threshold or deque
/// capacity misses and builds afresh. Whatever the lease did, every
/// completed job's report is bit-identical to its solo run. Then the same
/// walk, but led by a waiting client on the region it keeps, with the
/// pool's only worker held in a gated job throughout — all but the
/// cancellation, which would hold the client itself.
#[test]
fn leased_deques_carry_nothing_from_job_to_job() {
    for client in [false, true] {
        lease_walk(client);
    }
}

fn lease_walk(client: bool) {
    let server = JobServer::new(ServerConfig::new(1));
    let held = client.then(|| occupy(&server));
    let w = Walk {
        server: &server,
        client,
    };
    let base = || Config::new(1);
    let bush = |tag| move || Bush::new(7, tag);
    let adaptive = Mode::Adaptive;

    // This thread's region outlives the server; start it on another type.
    if client {
        let reset = server
            .submit(Fig1Tree::new(), base(), adaptive, Priority::Normal)
            .expect("submit");
        completed(reset.wait());
    }
    w.job("first", bush(1), base().seed(1), adaptive, false);
    w.job("same type", bush(2), base().seed(2), adaptive, true);

    // Another problem type is another region.
    w.job("fig1", Fig1Tree::new, base(), adaptive, false);
    w.job("fig1 again", Fig1Tree::new, base(), adaptive, true);
    w.job("nqueens", || NqueensArray::new(6), base(), adaptive, false);
    w.job("fig1 after nqueens", Fig1Tree::new, base(), adaptive, false);
    w.job("back to bush", bush(3), base().seed(3), adaptive, false);

    // The signals are built at `max_stolen_num`.
    let eager = || base().max_stolen_num(3);
    w.job("max_stolen_num 3", bush(4), eager(), adaptive, false);
    w.job("max_stolen_num 3 again", bush(5), eager(), adaptive, true);
    w.job("max_stolen_num back", bush(6), base(), adaptive, false);

    // Cancelled mid-flight: pruned, partial counters, and whatever it had
    // pushed is popped again before its terminal — the region it ran on
    // serves the next job.
    if !client {
        let gate = Arc::new(Gate::default());
        let h = server
            .submit(
                Bush::new(9, 7).gated(&gate),
                base().seed(7),
                Mode::Cilk,
                Priority::Normal,
            )
            .expect("submit");
        gate.wait_reached();
        assert_eq!(h.cancel(), CancelOutcome::Requested);
        gate.open();
        match h.wait() {
            JobOutcome::Cancelled { report } => assert!(report.is_some(), "it had started"),
            JobOutcome::Completed { .. } => panic!("cancel lost"),
        }
    }
    w.job("after a cancel", bush(8), base().seed(8), adaptive, true);

    // Two slots of capacity: Cilk pushes at every level, so the fixed-size
    // deque overflows and runs the children inline.
    let tiny = || base().deque_capacity(2);
    let report = w.job("capacity 2", bush(9), tiny(), Mode::Cilk, false);
    assert!(
        report.stats.deque_overflows > 0,
        "capacity 2 never overflowed"
    );
    w.job("capacity 2 again", bush(10), tiny(), Mode::Cilk, true);

    let elsewhere = base().deque_capacity(64);
    w.job("capacity 64", bush(13), elsewhere, adaptive, false);
    w.job(
        "first type again",
        bush(14),
        base().seed(14),
        adaptive,
        false,
    );
    w.job("and again", bush(15), base().seed(15), adaptive, true);

    if let Some((h, gate)) = held {
        gate.open();
        completed(h.wait());
    }
    let stats = server.shutdown().stats;
    // The client walk adds the held job and the reset, and drops the cancel.
    let (ended, leads) = if client { ((18, 0), 18) } else { ((16, 1), 17) };
    assert_eq!((stats.completed, stats.cancelled), ended, "client {client}");
    assert_eq!(stats.lease_hits + stats.lease_misses, leads);
}

/// The same with teams in the mix: on a two-worker work-sharing pool two
/// two-slot jobs (scheduling-dependent counters: result and node count
/// only) run between single-slot jobs that must stay bit-identical. A
/// team is what leaves `need_task` signals raised at its terminal; the second one runs on the first one's board whenever the
/// same worker leads both and no joiner's snapshot kept the board.
#[test]
fn a_two_slot_job_between_leases_leaves_no_trace() {
    let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
    let single = Config::new(1);
    let (solo_out, solo) = Scheduler::AdaptiveTc
        .run(&Bush::new(7, 1), &single)
        .expect("solo run");
    let (team_out, team_ref) = Scheduler::AdaptiveTc
        .run(&Bush::new(9, 2), &single)
        .expect("team reference");
    for round in 0..6 {
        let ctx = format!("round {round}");
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

        for _ in 0..2 {
            let h = server
                .submit(
                    Bush::new(9, 2),
                    Config::new(2),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            let (out, report) = completed(h.wait());
            assert_eq!(out, team_out, "{ctx}: team result diverged");
            assert_eq!(report.threads, 2, "{ctx}: two job slots");
            assert_eq!(report.stats.nodes, team_ref.stats.nodes, "{ctx}: nodes");
        }
    }
    let stats = server.shutdown().stats;
    assert_eq!(stats.lease_hits + stats.lease_misses, 18);
}

/// Two-slot n-queens jobs on a two-worker sharing pool, while single-slot
/// jobs keep the queue from staying empty: the second worker joins a team
/// whenever the queue runs dry and abandons it at its next failed steal
/// once a submission lands — between tasks, with frames carved from its
/// slot's slab still running on the lead, which may have stolen them. Those
/// frames live on the job's slot board, not with the joiner, so every
/// result stays exact with the debug-build stale-handle check on. This
/// thread waits on the single-slot jobs without leading them, so only a
/// pool worker runs them, and while the team runs that is a joiner that
/// left it. The trace shows it did: a joiner's `JobEnd` for a team, then
/// its `JobBegin` of another job, both before the team's lead ends the
/// team. The probe of the board is `slab_resets`: a lead rewinds a board's
/// slabs only when it got the board back, which it does only after reading
/// `participants` at 0.
#[test]
fn a_joiner_abandons_while_the_lead_runs_its_frames() {
    const ROUNDS: u64 = 16;
    let mut cfg = ServerConfig::new(2).work_sharing(true).trace(true);
    cfg.trace_capacity = 1 << 18;
    let server = JobServer::new(cfg);
    let team_want = serial::run(&NqueensArray::new(10)).0;
    let single_want = serial::run(&NqueensArray::new(6)).0;
    let single = || {
        server
            .submit(
                NqueensArray::new(6),
                Config::new(1),
                Mode::Cilk,
                Priority::Normal,
            )
            .expect("submit a single-slot job")
    };
    let (mut helped, mut jobs) = (0, 0);
    for round in 0..ROUNDS {
        let mode = if round % 2 == 0 {
            Mode::Cilk
        } else {
            Mode::Adaptive
        };
        let team = server
            .submit(
                NqueensArray::new(10),
                Config::new(2).seed(round),
                mode,
                Priority::Normal,
            )
            .expect("submit a two-slot job");
        jobs += 1;
        while !team.status().is_terminal() {
            // One at a time: the queue runs dry while it runs, and the
            // next submission lands while the second worker has joined.
            jobs += 1;
            let (out, _) = completed(wait_on_pool(single()));
            assert_eq!(out, single_want, "round {round}");
        }
        let (out, report) = completed(team.wait());
        assert_eq!(out, team_want, "round {round}: {mode:?} team result");
        assert_eq!(report.threads, 2, "round {round}: two job slots");
        helped += u64::from(report.per_worker[1].nodes > 0);
    }
    let report = server.shutdown();
    let stats = report.stats;
    assert_eq!(stats.completed, jobs);
    assert_eq!(stats.client_leads, 0, "this thread led nothing");
    assert!(helped > 0, "no joiner ever ran a node of a two-slot job");
    // Every job whose lead got its board back rewound it — all of them but
    // a team some idle worker's snapshot still held at the terminal.
    assert!(
        stats.slab_resets > 0 && stats.slab_resets <= jobs,
        "{} slab resets for {jobs} jobs",
        stats.slab_resets
    );
    // Each worker's job markers: (time, job, slot of a begin or None).
    let trace = report.trace.expect("the pool traces");
    let marks: Vec<Vec<(u64, u32, Option<u16>)>> = trace
        .workers
        .iter()
        .map(|w| {
            w.events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::JobBegin { job, slot } => Some((e.ts, job, Some(slot))),
                    EventKind::JobEnd { job } => Some((e.ts, job, None)),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let lead_end: HashMap<u32, u64> = marks
        .iter()
        .flat_map(|m| m.windows(2))
        .filter_map(|w| match (w[0], w[1]) {
            ((_, a, Some(0)), (t, b, None)) if a == b => Some((a, t)),
            _ => None,
        })
        .collect();
    let abandons = marks
        .iter()
        .flat_map(|m| m.windows(3))
        .filter(|w| match (w[0], w[1], w[2]) {
            ((_, a, Some(slot)), (_, b, None), (next, _, Some(_))) => {
                slot > 0 && a == b && lead_end.get(&a).is_some_and(|&end| next < end)
            }
            _ => false,
        })
        .count();
    assert!(abandons > 0, "no joiner left a team before the team ended");
}

// ---------------------------------------------------------------------------
// The waiting client
// ---------------------------------------------------------------------------

/// Once a pool worker runs the job a client waits for, the client leaves
/// another thread's queued job to the pool: it sleeps rather than lead a
/// job that could hold it past its own terminal.
#[test]
fn a_waiting_client_leaves_foreign_jobs_once_its_own_runs() {
    let server = JobServer::new(ServerConfig::new(1));
    // Running on the pool's only worker, held at its first leaf.
    let (own, gate) = occupy(&server);
    let foreign = std::thread::scope(|s| {
        s.spawn(|| {
            server
                .submit(
                    Bush::new(3, 7),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit the foreign job")
        })
        .join()
        .expect("the submitting thread")
    });
    // Opens once this thread is inside `wait`, where the foreign job has
    // been at the head of the queue all along. The pause only lets a
    // client that would lead the foreign job do so before its own job
    // ends; no timing makes a correct client fail the check.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            gate.open();
        })
    };
    completed(own.wait());
    opener.join().expect("the opener");
    assert_eq!(
        server.stats().client_leads,
        0,
        "the client led another thread's job while its own ran"
    );
    completed(wait_on_pool(foreign));
    server.shutdown();
}

/// A client leads only the jobs its own thread submitted. Another thread's
/// job queued ahead of its own blocks it as a team does: it refuses the
/// head and sleeps, and the pool's worker leads both, once freed.
#[test]
fn a_waiting_client_never_leads_a_foreign_job() {
    let server = JobServer::new(ServerConfig::new(1));
    let (held, gate) = occupy(&server);
    let foreign = std::thread::scope(|s| {
        s.spawn(|| {
            server
                .submit(
                    Bush::new(3, 7),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit the foreign job")
        })
        .join()
        .expect("the submitting thread")
    });
    let own = server
        .submit(
            Bush::new(3, 8),
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit the client's job");
    // The pause lets a client that would lead the foreign job do so while
    // both are still queued.
    let opener = {
        let gate = Arc::clone(&gate);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            gate.open();
        })
    };
    completed(own.wait());
    opener.join().expect("the opener");
    assert_eq!(
        server.stats().client_leads,
        0,
        "the client led a job it did not submit"
    );
    completed(held.wait());
    completed(wait_on_pool(foreign));
    server.shutdown();
}

/// A job this thread leads panics, and the panic unwinds out of `wait`.
/// The client still leaves the count shutdown waits on, and hands the
/// clients' trace ring on: another client leads into it, and shutdown
/// returns.
#[test]
fn shutdown_survives_a_client_that_unwinds_out_of_wait() {
    let server = JobServer::new(ServerConfig::new(1).trace(true));
    let (held, gate) = occupy(&server);
    let boom = server
        .submit(
            Bush::new(3, 9).panicking(),
            Config::new(1),
            Mode::Adaptive,
            Priority::Normal,
        )
        .expect("submit the panicking job");
    let unwound = catch_unwind(AssertUnwindSafe(|| boom.wait()));
    assert!(unwound.is_err(), "the job's panic reached this thread");
    // Another client, while the pool's worker is still held, leads its
    // job into the clients' ring. (Should the ring still be taken, that
    // client sleeps instead, and the gate opens after a bound.)
    let want = serial::run(&Bush::new(3, 10)).0;
    let out = std::thread::scope(|s| {
        let second = s.spawn(|| {
            let h = server
                .submit(
                    Bush::new(3, 10),
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            completed(h.wait()).0
        });
        let t0 = Instant::now();
        while server.stats().client_leads == 0 && t0.elapsed() < Duration::from_secs(20) {
            std::thread::yield_now();
        }
        gate.open();
        second.join().expect("the second client")
    });
    // The server leaves this thread, so that a failed check below cannot
    // hang the test in the server's drop.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        completed(held.wait());
        tx.send(server.shutdown()).expect("the test waits");
    });
    let report = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("shutdown returns after a client unwound out of wait");
    assert_eq!(out, want);
    assert_eq!(report.stats.client_leads, 1, "the second client led");
    let client_ring = &report.trace.expect("the pool traces").workers[1];
    assert!(
        client_ring
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::JobEnd { .. })),
        "the second client's job is in the clients' ring"
    );
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
    let jobs = JOBS as u64;
    assert_eq!(stats.submitted, jobs);
    // The pool worker and this thread each lead on a region of their own.
    let sides = u64::from(stats.client_leads > 0) + u64::from(stats.client_leads < jobs);
    assert_eq!(
        (stats.lease_hits, stats.lease_misses),
        (jobs - sides, sides),
        "one region for each side serves a stream of jobs of one type"
    );
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
