//! A persistent job server: one long-lived worker pool serving a *stream*
//! of scheduler runs.
//!
//! [`Scheduler::run`](crate::Scheduler::run) spawns and joins a whole
//! thread pool per root task, which caps the reproduction at one benchmark
//! at a time. [`JobServer`] amortises that: the pool is spawned once,
//! workers park when idle, and submissions flow through a bounded MPMC
//! priority queue (see [`crate::submit`] for the model-checked protocol).
//!
//! # Job lifecycle
//!
//! ```text
//! submit() ──► Queued ──claim──► Running ──finish──► Completed
//!                │                  │                      │
//!              cancel()          cancel()             (exactly one
//!                ▼                  ▼                  terminal state)
//!            Cancelled      token raised; engine
//!         (never executed)  prunes at poll points ──► Cancelled
//! ```
//!
//! The state machine lives in [`crate::submit::JobLifecycle`]; its
//! no-lost-submission / no-double-claim / single-terminal-state properties
//! are verified exhaustively by the `adaptivetc-check` suite.
//!
//! # Isolation and work sharing
//!
//! Each job runs in an engine `Shared` of its own — its own problem
//! reference, cancel token and per-slot `RunStats` — built on an engine
//! *region* it leases from the pool worker that leads it: the slot board
//! (one deque, one `need_task` signal and one frame slab per slot), the
//! root cell, and the lead worker's scratch (the slot vectors of its
//! pools). The worker builds a region once and every job it leads after
//! that runs on it, as long as the key stays the same: problem type,
//! `deque_capacity`, `max_stolen_num` and slot count. Any other job drops
//! what is held and builds its own, as a solo run does.
//!
//! What is kept is storage, never content. At a job's terminal, with every
//! participant gone, the signals thieves may have left raised are
//! lowered, the pools are emptied — workspaces dropped, frames left in
//! their slabs — and the slabs rewound, so a frame carried over counts as
//! fresh and `frame_reuse`, `state_reuse` and `allocations` of the next job
//! are those of a cold solo run; the rest is checked, and asserted, to be
//! what the join implies: every deque empty, the pools empty, the root
//! cell empty and referenced by nobody else. Only then is the region
//! kept. The "job id tag" on deque entries and signals is therefore still
//! structural: an entry physically cannot migrate across jobs, because no
//! other job's workers ever probe these deques *while this job runs*, and
//! nothing is left in them for the job that leases them next.
//!
//! By default a job runs entirely on the pool worker that claimed it (lead
//! at job slot 0) and asks for no team — no slot board, no shared stats —
//! so N concurrent single-thread jobs behave bit-identically to N solo
//! runs. With [`ServerConfig::work_sharing`] enabled, idle pool workers
//! additionally *join* running multi-slot jobs: they claim a free job
//! slot, steal within that job only, and abandon it again between tasks
//! when new submissions are queued. Every participant brackets its engine
//! entry with `JobBegin`/`JobEnd` trace markers so a server trace can be
//! split back into per-job run-epochs (`adaptivetc_trace::jobs`).
//!
//! # Who frees what, and who is woken
//!
//! The problem is freed by the thread that built it: the [`JobHandle`]
//! keeps a reference to it, and the lead drops the job's `Shared` — and with
//! it the pool's reference — *before* it publishes the outcome, so the last
//! reference normally dies in [`JobHandle::wait`] on the submitting side
//! (a detached handle leaves the free to the worker). Nobody is notified
//! who is not asleep: a submission wakes a worker only when the
//! [`ParkGate`] counts one parked, and a terminal wakes a waiter only when
//! the job's result cell — the same `ResultCell` a run's root and a
//! special task's sync hand their values over through — says one
//! registered.
//!
//! # A waiting client is a worker
//!
//! A thread blocked in [`JobHandle::wait`] is an idle thread, and an idle
//! thread takes work (the paper's rule for its workers). Before it sleeps,
//! a waiter pops the queue in lane order, as a pool worker does, and leads
//! what it pops on its own thread — claimed through the same lifecycle CAS,
//! on an engine region the thread keeps for life, as a pool worker keeps
//! its own — rechecking its own job between jobs. It takes only a job that
//! its own thread submitted and that runs in one slot: a refused head
//! stays at the head. A multi-slot job is always led by a pool worker,
//! which can put up its team; another thread's job is led by a pool worker
//! too, since it could hold this one past its own terminal without bound.
//! It sleeps when its job is published, the queue is empty, or it refuses
//! the head. A job it leads that unwinds out of `wait` still takes the
//! client out of the count shutdown waits on, and frees the clients' ring.
//! So a client that keeps jobs in flight runs some of them from its own
//! cache, and a client that is running a job is not asleep: the lead of
//! the job it waits for publishes without a wake-up.
//! [`ServerStats::client_leads`] counts the jobs led that way. When the
//! pool traces, client-led jobs record into one more ring, after the pool
//! workers' (index [`ServerStats::workers`]), which one client at a time
//! holds; a client that finds it taken sleeps instead.

use crate::engine::{participate, ProblemRef, Scratch, Shared, Slots};
use crate::frame::ResultCell;
use crate::submit::{
    CancelOutcome, CancelToken, JobLifecycle, JobStatus, ParkGate, PrioQueue, Priority,
};
use crate::sync::{fence, AtomicBool, AtomicU32, AtomicU64, Condvar, Mutex, Ordering};
use crate::trace::{worker_tracer, TracerRef};
use crate::Mode;
use adaptivetc_core::{Config, ConfigError, Problem, RunReport, RunStats, XorShift64};
use adaptivetc_trace::{EventKind as Ev, TraceCollector};
use std::any::Any;
use std::cell::RefCell;
use std::sync::{Arc, Weak};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The pool-wide trace collector, shared by every worker thread; `None`
/// unless [`ServerConfig::trace`] is set.
type SharedCollector = Option<Arc<TraceCollector>>;

thread_local! {
    /// The engine region a client thread leads jobs on while it waits (see
    /// the [module docs](self)), kept for the thread's life.
    static CLIENT_LEASE: RefCell<RegionLease> = const { RefCell::new(RegionLease { held: None }) };
}

/// Emit a job-epoch marker from pool worker `worker`.
fn jmark(tracer: TracerRef<'_>, worker: usize, kind: Ev) {
    if let Some(c) = tracer {
        c.handle(worker).emit(kind);
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration for a [`JobServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool worker threads. Clamped to at least 1.
    pub workers: usize,
    /// Submission-queue capacity *per priority lane* (admission control:
    /// a full lane rejects with [`RejectReason::QueueFull`]). Clamped to
    /// at least 1.
    pub queue_capacity: usize,
    /// Allow idle pool workers to join running multi-slot jobs and steal
    /// within them. Off by default: strict job isolation.
    pub work_sharing: bool,
    /// Record a pool-wide event trace, drained by
    /// [`JobServer::shutdown`] (or mid-run by [`JobServer::drain_trace`]).
    pub trace: bool,
    /// Per-worker trace ring capacity when `trace` is set.
    pub trace_capacity: usize,
    /// Record 1 in `n` events for the highest-frequency categories
    /// (default 16, the production flight-recorder rate; `1` = record
    /// everything; see `Config::trace_sample`).
    pub trace_sample: u32,
}

impl ServerConfig {
    /// A server with `workers` pool threads and defaults for the rest
    /// (queue capacity 64 per lane, no work sharing, no tracing).
    pub fn new(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            queue_capacity: 64,
            work_sharing: false,
            trace: false,
            trace_capacity: 1 << 14,
            trace_sample: 16,
        }
    }

    /// Builder-style setter for [`ServerConfig::queue_capacity`].
    pub fn queue_capacity(mut self, cap: usize) -> ServerConfig {
        self.queue_capacity = cap;
        self
    }

    /// Builder-style setter for [`ServerConfig::work_sharing`].
    pub fn work_sharing(mut self, on: bool) -> ServerConfig {
        self.work_sharing = on;
        self
    }

    /// Builder-style setter for [`ServerConfig::trace`].
    pub fn trace(mut self, on: bool) -> ServerConfig {
        self.trace = on;
        self
    }

    /// Builder-style setter for [`ServerConfig::trace_sample`].
    pub fn trace_sample(mut self, n: u32) -> ServerConfig {
        self.trace_sample = n;
        self
    }
}

// ---------------------------------------------------------------------------
// Submission results
// ---------------------------------------------------------------------------

/// Why a submission was rejected (the problem is handed back in
/// [`SubmitError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The priority lane was full (admission control back-pressure).
    /// Retry later or shed load.
    QueueFull,
    /// The server is shutting down and no longer accepts jobs.
    ShuttingDown,
    /// The job's [`Config`] failed validation.
    Config(ConfigError),
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => f.write_str("submission queue full"),
            RejectReason::ShuttingDown => f.write_str("server shutting down"),
            RejectReason::Config(e) => write!(f, "invalid job config: {e}"),
        }
    }
}

/// A rejected submission: the reason plus the problem, returned so the
/// caller can retry without having cloned it.
pub struct SubmitError<P> {
    /// The problem instance, given back unchanged.
    pub problem: P,
    /// Why it was rejected.
    pub reason: RejectReason,
}

impl<P> std::fmt::Debug for SubmitError<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitError")
            .field("reason", &self.reason)
            .finish_non_exhaustive()
    }
}

impl<P> std::fmt::Display for SubmitError<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job rejected: {}", self.reason)
    }
}

impl<P> std::error::Error for SubmitError<P> {}

// ---------------------------------------------------------------------------
// Job handle
// ---------------------------------------------------------------------------

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<O> {
    /// The job ran to completion.
    Completed {
        /// The reduced result.
        out: O,
        /// Per-slot statistics, isolated to this job.
        report: RunReport,
    },
    /// The job was cancelled. `report` is `None` when the cancel landed
    /// before any worker claimed the job (it never executed), `Some` when
    /// the engine was pruned mid-flight (partial counters).
    Cancelled {
        /// Statistics up to the prune, if the job had started.
        report: Option<RunReport>,
    },
}

/// The client half of a submitted job.
struct JobShared<O> {
    id: u64,
    lifecycle: JobLifecycle,
    cancel: CancelToken,
    outcome: ResultCell<JobOutcome<O>>,
    submitted: Instant,
    /// Submission-to-terminal latency, stored at publication (so `wait`
    /// order does not skew bench percentiles).
    latency_ns: AtomicU64,
}

impl<O: Send> JobShared<O> {
    fn new(id: u64) -> JobShared<O> {
        JobShared {
            id,
            lifecycle: JobLifecycle::new(),
            cancel: CancelToken::new(),
            outcome: ResultCell::new(),
            submitted: Instant::now(),
            latency_ns: AtomicU64::new(0),
        }
    }

    fn publish(&self, outcome: JobOutcome<O>) {
        // Relaxed: the stamp is written before the cell's Release store in
        // `deliver`, which is the edge `latency` reads it across.
        self.latency_ns.store(
            self.submitted.elapsed().as_nanos() as u64,
            Ordering::Relaxed,
        );
        self.outcome.deliver(outcome);
    }
}

/// What a [`JobHandle`] sees of a [`Job`]: everything but the problem type.
trait JobView<O>: Send + Sync {
    fn shared(&self) -> &JobShared<O>;
}

/// A typed handle to a submitted job.
///
/// The handle keeps the submitted problem alive until it is consumed
/// ([`wait`](JobHandle::wait), [`try_result`](JobHandle::try_result)) or
/// dropped, so the problem is normally freed on the thread that holds the
/// handle — the one that built it — and not on a pool worker.
///
/// Dropping the handle detaches the job: it still runs (or is cancelled at
/// shutdown drain) but its outcome is discarded, and the pool frees the
/// problem when the job is over.
pub struct JobHandle<O> {
    job: Arc<dyn JobView<O>>,
    _problem: Arc<dyn Any + Send + Sync>,
    /// The server's queue, for [`wait`](JobHandle::wait) to lead from.
    ctx: Arc<ServerCtx>,
}

impl<O> std::fmt::Debug for JobHandle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shared = self.job.shared();
        f.debug_struct("JobHandle")
            .field("id", &shared.id)
            .field("status", &shared.lifecycle.status())
            .finish()
    }
}

impl<O: Send> JobHandle<O> {
    /// The server-assigned job id (also the trace epoch tag).
    pub fn id(&self) -> u64 {
        self.job.shared().id
    }

    /// The job's current lifecycle state.
    pub fn status(&self) -> JobStatus {
        self.job.shared().lifecycle.status()
    }

    /// Request cancellation. Queued jobs are cancelled before ever
    /// running; running jobs are pruned cooperatively at the engine's
    /// poll points (every node, and every spawn of a task).
    pub fn cancel(&self) -> CancelOutcome {
        let shared = self.job.shared();
        shared.lifecycle.cancel(&shared.cancel)
    }

    /// Block until the job reaches its terminal state.
    ///
    /// A job that is already terminal costs a flag and a lock. Otherwise
    /// the caller first leads, on its own thread, the queued single-slot
    /// jobs it submitted itself, until its job is published or the head of
    /// the queue is a job it may not lead — a team, or another thread's
    /// (see the [module docs](self)); then it registers as the job's waiter
    /// and sleeps (a bounded poll before the sleep was measured: spinning
    /// bought nothing, yielding bought throughput and cost run-to-run
    /// steadiness — DESIGN.md §13).
    pub fn wait(self) -> JobOutcome<O> {
        let outcome = &self.job.shared().outcome;
        if !outcome.is_done() {
            self.ctx.help(outcome);
        }
        outcome.wait()
    }

    /// Non-blocking poll: the outcome if terminal, otherwise the handle
    /// back.
    pub fn try_result(self) -> Result<JobOutcome<O>, JobHandle<O>> {
        let outcome = &self.job.shared().outcome;
        if !outcome.is_done() {
            return Err(self);
        }
        Ok(outcome.take())
    }

    /// Submission-to-terminal latency, `None` until the job is terminal.
    pub fn latency(&self) -> Option<Duration> {
        let shared = self.job.shared();
        // Relaxed: ordered by the cell's Acquire just before — `publish`
        // stamps before it delivers.
        shared
            .outcome
            .is_done()
            .then(|| Duration::from_nanos(shared.latency_ns.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------------------
// Queued / active job erasure
// ---------------------------------------------------------------------------

/// A type-erased queued job: `lead` claims and runs it to a terminal
/// state on the calling pool worker.
trait QueuedJob: Send + Sync + 'static {
    /// Job slots on a pool of `workers`: 1 for a job that asks for no team.
    fn slots(&self, workers: usize) -> usize;

    /// The thread that submitted the job.
    fn submitter(&self) -> ThreadId;

    fn lead(
        self: Arc<Self>,
        ctx: &Arc<ServerCtx>,
        worker: usize,
        tracer: TracerRef<'_>,
        lease: &mut RegionLease,
    );
}

/// A type-erased running job an idle worker can join (work sharing).
trait ActiveJob: Send + Sync {
    fn id(&self) -> u64;
    fn done(&self) -> bool;
    /// Claim a free slot and steal within the job until it completes or
    /// the abandon condition fires. Returns whether any participation
    /// happened.
    fn try_join(&self, ctx: &ServerCtx, worker: usize, tracer: TracerRef<'_>) -> bool;
}

/// One submission, in one allocation: the client half the [`JobHandle`]
/// sees, and what the lead needs to run it.
struct Job<P: Problem> {
    shared: JobShared<P::Out>,
    cfg: Config,
    mode: Mode,
    /// The queue's reference to the problem (the handle holds the other).
    /// The lead moves it into the engine region and drops it with the
    /// region, before it publishes; a rejected submission takes it back.
    problem: Mutex<Option<Arc<P>>>,
    submitter: ThreadId,
}

impl<P: Problem + 'static> JobView<P::Out> for Job<P> {
    fn shared(&self) -> &JobShared<P::Out> {
        &self.shared
    }
}

impl<P: Problem + 'static> QueuedJob for Job<P> {
    fn slots(&self, workers: usize) -> usize {
        // A job never gets more slots than the pool has workers; the
        // cut-off still derives from cfg.threads (see Shared::new), so
        // clamping only bounds parallelism, never changes the
        // task-creation frontier.
        self.cfg.threads.min(workers).max(1)
    }

    fn submitter(&self) -> ThreadId {
        self.submitter
    }

    fn lead(
        self: Arc<Self>,
        ctx: &Arc<ServerCtx>,
        worker: usize,
        tracer: TracerRef<'_>,
        lease: &mut RegionLease,
    ) {
        let problem = self.problem.lock().take().expect("a job is led once");
        if !self.shared.lifecycle.claim() {
            // Cancelled while queued: never executes. The pool lets go of
            // the problem before it publishes, as for a job that ran.
            drop(problem);
            // Relaxed: a `ServerStats` counter; the snapshot is advisory.
            ctx.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            self.shared.publish(JobOutcome::Cancelled { report: None });
            return;
        }
        run_job(&self, problem, ctx, worker, tracer, lease);
    }
}

/// What a pool worker keeps of the engine between the jobs it leads (see
/// the [module docs](self)): the slot board, the root cell and the lead
/// worker's scratch, built once and used by every job of the same key —
/// this type, `Config::deque_capacity`, `Config::max_stolen_num` and the
/// slot count.
struct Region<P: Problem> {
    capacity: usize,
    max_stolen_num: u32,
    /// Out while a job runs on it; a job that does not hand it back — a
    /// joiner still held it, or it was not clean — leaves the region
    /// without one, and the next job builds afresh.
    slots: Option<Slots<P>>,
    root: Arc<ResultCell<P::Out>>,
    scratch: Scratch<P>,
}

impl<P: Problem> Region<P> {
    fn new(cfg: &Config, slots: usize) -> Self {
        Region {
            capacity: cfg.deque_capacity,
            max_stolen_num: cfg.max_stolen_num,
            slots: Some(Slots::new(cfg, slots)),
            root: Arc::new(ResultCell::new()),
            scratch: Scratch::default(),
        }
    }

    fn fits(&self, cfg: &Config, slots: usize) -> bool {
        self.capacity == cfg.deque_capacity
            && self.max_stolen_num == cfg.max_stolen_num
            && self.slots.as_ref().is_some_and(|s| s.len() == slots)
    }

    /// Take the board of a finished job back — only ever after its lead read
    /// `participants` at 0, so nobody is on it — and rewind its frame
    /// slabs. Whether the region is as a fresh one again — which the join
    /// implies: every deque empty, the pools empty, the root cell empty
    /// and nobody else's — and only then is the board kept. No
    /// board (a joiner's snapshot still holds it) is nothing to check and
    /// nothing to keep.
    fn hand_back(&mut self, board: Option<Slots<P>>) -> bool {
        let Some(mut board) = board else {
            return true;
        };
        let clean = board.settle()
            && self.scratch.is_empty()
            && Arc::get_mut(&mut self.root).is_some_and(ResultCell::rearm);
        if clean {
            self.slots = Some(board);
        }
        clean
    }
}

/// The one region a pool worker holds, whatever its type.
#[derive(Default)]
struct RegionLease {
    held: Option<Box<dyn Any>>,
}

impl RegionLease {
    /// The held region if it fits `cfg` and `slots` — a hit, `true`;
    /// otherwise whatever is held is dropped and a fresh one built in its
    /// place.
    fn region<P: Problem + 'static>(
        &mut self,
        cfg: &Config,
        slots: usize,
    ) -> (&mut Region<P>, bool) {
        let hit = self
            .held
            .as_ref()
            .and_then(|held| held.downcast_ref::<Region<P>>())
            .is_some_and(|region| region.fits(cfg, slots));
        if !hit {
            // Dropped before its replacement is built, not after.
            self.held = None;
            self.held = Some(Box::new(Region::<P>::new(cfg, slots)));
        }
        let region = self.held.as_mut().and_then(|held| held.downcast_mut());
        (region.expect("just found or built"), hit)
    }
}

/// The slot board of a multi-slot job: its engine region plus the
/// bookkeeping joiners need.
struct Team<P: Problem + 'static> {
    id: u64,
    eng: Shared<'static, P>,
    /// Slot claim flags; slot 0 is pre-taken by the lead.
    taken: Vec<AtomicBool>,
    /// Live participants (lead + joiners). The lead drains this to zero
    /// before collecting per-slot stats.
    participants: AtomicU32,
    /// Per-slot stats, merged by whoever occupied the slot.
    stats: Vec<Mutex<RunStats>>,
    /// Per-slot deterministic RNG streams (identical to a solo run's).
    seeds: Vec<XorShift64>,
}

impl<P: Problem + 'static> ActiveJob for Team<P> {
    fn id(&self) -> u64 {
        self.id
    }

    fn done(&self) -> bool {
        self.eng.root.is_done()
    }

    fn try_join(&self, ctx: &ServerCtx, worker: usize, tracer: TracerRef<'_>) -> bool {
        if self.done() {
            return false;
        }
        // Claim a free joiner slot (slot 0 is the lead's).
        let Some(slot) = (1..self.taken.len()).find(|&i| {
            // AcqRel: the slot claim acquires the lead's engine
            // initialisation (and the slot's previous joiner's release)
            // before this joiner touches it.
            // Relaxed: a lost claim moves on to the next slot without
            // reading any job state.
            self.taken[i]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }) else {
            return false;
        };
        // AcqRel: the announcement may neither sink below the slot claim
        // nor hoist above the `done()` recheck.
        self.participants.fetch_add(1, Ordering::AcqRel);
        // Recheck after announcing ourselves: the lead may have observed
        // participants == 0 and started collecting stats. `done` is
        // monotone, so if it is still false here the lead is guaranteed
        // to wait for our decrement.
        if self.done() {
            // Release: the bail-out frees the slot and withdraws the
            // announcement; pairs with the lead's Acquire spin in `lead_team`.
            self.taken[slot].store(false, Ordering::Release);
            self.participants.fetch_sub(1, Ordering::Release);
            return false;
        }
        jmark(
            tracer,
            worker,
            Ev::JobBegin {
                job: self.id as u32,
                slot: slot as u16,
            },
        );
        let tr = worker_tracer(tracer, worker);
        // Acquire: pairs with `shutdown_inner`'s Release store, so an
        // abandoning joiner also sees the submissions that preceded it.
        let abandon = || ctx.shutdown.load(Ordering::Acquire) || !ctx.queue.is_empty();
        let stats = participate(
            &self.eng,
            slot,
            self.seeds[slot].clone(),
            tr,
            false,
            Some(&abandon),
            &mut Scratch::default(),
        );
        jmark(
            tracer,
            worker,
            Ev::JobEnd {
                job: self.id as u32,
            },
        );
        self.stats[slot].lock().merge(&stats);
        // Release: frees the slot and publishes the merged `RunStats` to
        // the lead's Acquire spin in `lead_team`.
        self.taken[slot].store(false, Ordering::Release);
        self.participants.fetch_sub(1, Ordering::Release);
        true
    }
}

/// Run slot 0 of a job on the calling worker: the root task, then steal
/// until the root completes.
fn lead_slot<P: Problem + 'static>(
    eng: &Shared<'static, P>,
    id: u64,
    rng: XorShift64,
    worker: usize,
    tracer: TracerRef<'_>,
    scratch: &mut Scratch<P>,
) -> RunStats {
    let job = id as u32;
    jmark(tracer, worker, Ev::JobBegin { job, slot: 0 });
    let tr = worker_tracer(tracer, worker);
    let stats = participate(eng, 0, rng, tr, true, None, scratch);
    jmark(tracer, worker, Ev::JobEnd { job });
    stats
}

/// Lead a multi-slot job: put up its slot board (registered for joiners
/// under work sharing), run slot 0, and collect every slot's stats. Returns
/// the result, the region's slot board unless a joiner's snapshot still
/// holds the team, and the per-slot stats.
fn lead_team<P: Problem + 'static>(
    eng: Shared<'static, P>,
    seeds: Vec<XorShift64>,
    id: u64,
    ctx: &Arc<ServerCtx>,
    worker: usize,
    tracer: TracerRef<'_>,
    scratch: &mut Scratch<P>,
) -> (P::Out, Option<Slots<P>>, Vec<RunStats>) {
    let slots = seeds.len();
    let team = Arc::new(Team {
        id,
        eng,
        taken: (0..slots).map(|i| AtomicBool::new(i == 0)).collect(),
        participants: AtomicU32::new(1),
        stats: (0..slots)
            .map(|_| Mutex::new(RunStats::default()))
            .collect(),
        seeds,
    });
    if ctx.work_sharing {
        ctx.active.lock().push(team.clone());
        ctx.wake(true);
    }
    let rng = team.seeds[0].clone();
    let lead_stats = lead_slot(&team.eng, id, rng, worker, tracer, scratch);
    team.stats[0].lock().merge(&lead_stats);
    if ctx.work_sharing {
        ctx.active.lock().retain(|j| j.id() != id);
    }
    // Wait for every joiner to finish merging its slot stats. They exit
    // promptly: the root is done, so their steal loops terminate.
    // Release: the lead's own decrement publishes its stats merge above.
    team.participants.fetch_sub(1, Ordering::Release);
    // Acquire: pairs with each joiner's Release decrement, so the lead
    // reads every merged per-slot `RunStats` below.
    while team.participants.load(Ordering::Acquire) != 0 {
        std::thread::yield_now();
    }
    let per_slot = team.stats.iter().map(|m| m.lock().clone()).collect();
    let out = team.eng.root.take();
    // A worker that snapshotted `active` may still hold the team; then the
    // region goes when it lets go, and its board is not leased.
    let board = Arc::try_unwrap(team).ok().map(|t| t.eng.into_slots());
    (out, board, per_slot)
}

/// Lead a claimed job to its terminal state on the calling worker.
fn run_job<P: Problem + 'static>(
    job: &Job<P>,
    problem: Arc<P>,
    ctx: &Arc<ServerCtx>,
    worker: usize,
    tracer: TracerRef<'_>,
    lease: &mut RegionLease,
) {
    let (shared, cfg) = (&job.shared, &job.cfg);
    let slots = job.slots(ctx.workers);
    let (region, hit) = lease.region::<P>(cfg, slots);
    let counter = if hit {
        &ctx.lease_hits
    } else {
        &ctx.lease_misses
    };
    // Relaxed: a `ServerStats` counter; the snapshot is advisory.
    counter.fetch_add(1, Ordering::Relaxed);
    let board = region.slots.take().expect("a fitting region has its board");
    let eng = Shared::new(
        ProblemRef::Owned(problem),
        cfg,
        job.mode,
        board,
        Arc::clone(&region.root),
        Some(shared.cancel.clone()),
    );
    let mut seeds = Shared::<P>::seeds(cfg);
    // The job's clock starts where a solo run's does: the region exists.
    let t0 = Instant::now();
    let scratch = &mut region.scratch;
    let (out, board, per_slot) = if slots == 1 {
        // A single-slot job asks for no team, so it gets none: no slot
        // board registered, the lead's stats are the job's.
        let rng = seeds.next().expect("the seed stream is endless");
        let stats = lead_slot(&eng, shared.id, rng, worker, tracer, scratch);
        (eng.root.take(), Some(eng.into_slots()), vec![stats])
    } else {
        let seeds = seeds.take(slots).collect();
        lead_team(eng, seeds, shared.id, ctx, worker, tracer, scratch)
    };
    let report = RunReport::from_workers(per_slot, t0.elapsed().as_nanos() as u64);
    // The engine's `Shared` — and with it the pool's reference to the
    // problem — is gone; what is left of the job on this worker is what the
    // region keeps. The join implies it is as a fresh one, and only then is
    // it leased on: anything else is dropped here and reported below, after
    // the client has its outcome.
    if board.is_some() {
        // Relaxed: a `ServerStats` counter; the snapshot is advisory.
        ctx.slab_resets.fetch_add(1, Ordering::Relaxed);
    }
    let clean = region.hand_back(board);
    let cancelled = shared.cancel.get();
    shared.lifecycle.finish(cancelled);
    // Count before publishing: `publish` releases the waiter, and callers
    // reasonably expect `stats()` to reflect a job whose `wait()` returned.
    if cancelled {
        drop(out);
        // Relaxed: a `ServerStats` counter; the snapshot is advisory.
        ctx.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        shared.publish(JobOutcome::Cancelled {
            report: Some(report),
        });
    } else {
        // Relaxed: a `ServerStats` counter; the snapshot is advisory.
        ctx.jobs_completed.fetch_add(1, Ordering::Relaxed);
        shared.publish(JobOutcome::Completed { out, report });
    }
    assert!(
        clean,
        "job {} reached its terminal with something left in its region: \
         a deque entry, a pooled object, or a root cell still in use",
        shared.id
    );
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

/// Shared server state, one `Arc` per worker thread plus the front end.
struct ServerCtx {
    queue: PrioQueue<Arc<dyn QueuedJob>>,
    /// Running multi-slot jobs joinable under work sharing.
    active: Mutex<Vec<Arc<dyn ActiveJob>>>,
    /// Counts the workers asleep on `wake` (or about to be) that nobody
    /// has notified yet.
    gate: ParkGate,
    park: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    accepting: AtomicBool,
    next_job: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_rejected: AtomicU64,
    parks: AtomicU64,
    wakes: AtomicU64,
    lease_hits: AtomicU64,
    lease_misses: AtomicU64,
    slab_resets: AtomicU64,
    client_leads: AtomicU64,
    /// Clients inside [`ServerCtx::help`]; shutdown waits for them.
    helping: AtomicU32,
    /// The pool's collector, when it traces. Weak: shutdown takes it back
    /// by value, after every helping client is gone.
    collector: Option<Weak<TraceCollector>>,
    /// A client holds the collector's last ring (index `workers`).
    client_ring: AtomicBool,
    workers: usize,
    work_sharing: bool,
}

impl ServerCtx {
    /// `JobHandle::wait` before it sleeps: lead queued single-slot jobs the
    /// calling thread submitted until `done` is delivered, the queue is
    /// empty, or its head is a team or another thread's job (see the
    /// [module docs](self)).
    fn help<O: Send>(self: &Arc<Self>, done: &ResultCell<O>) {
        // Relaxed: ordered by the fence below.
        self.helping.fetch_add(1, Ordering::Relaxed);
        // Leaves the count, and hands the ring on, also when a led job
        // unwinds out of `wait`.
        let mut guard = Helping {
            ctx: self,
            ring: false,
        };
        // SeqCst: the count may not pass the shutdown load below; pairs
        // with the fence in `shutdown_inner`, so either shutdown waits for
        // this client or this client sees shutdown and leads nothing.
        fence(Ordering::SeqCst);
        // Relaxed: ordered by the fence above.
        if self.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match &self.collector {
            None => self.lead_queued(done, None),
            // One client at a time records into the clients' ring; the
            // others sleep.
            Some(weak) => {
                // Acquire: the ring's producer state as the client before
                // left it. Relaxed: a taken ring is not touched.
                guard.ring = self
                    .client_ring
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok();
                if guard.ring {
                    if let Some(collector) = weak.upgrade() {
                        self.lead_queued(done, Some(&collector));
                    }
                }
            }
        }
    }

    fn lead_queued<O: Send>(self: &Arc<Self>, done: &ResultCell<O>, tracer: TracerRef<'_>) {
        // A job's own code that waits on another job is already inside
        // this thread's lease, and sleeps.
        CLIENT_LEASE.with(|lease| {
            let Ok(mut lease) = lease.try_borrow_mut() else {
                return;
            };
            let me = std::thread::current().id();
            // Only this thread's own jobs: another thread's could hold it
            // past its own terminal without bound, and run that thread's
            // problem code here.
            let take =
                |job: &Arc<dyn QueuedJob>| job.slots(self.workers) == 1 && job.submitter() == me;
            while !done.is_done() {
                let Some((_prio, job)) = self.queue.try_pop_if(take) else {
                    break;
                };
                job.lead(self, self.workers, tracer, &mut lease);
                // Relaxed: a `ServerStats` counter; the snapshot is advisory.
                self.client_leads.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Notify parked workers — one, or all of them — of an event already
    /// written (a push, a registration, the shutdown flag), if the gate
    /// counts any that nobody has notified yet; otherwise nobody sleeps
    /// and nothing is done.
    fn wake(&self, all: bool) {
        if self.gate.rouse(all) == 0 {
            return;
        }
        // A parking worker holds `park` from its announcement until its
        // wait releases it: once through, it is asleep (or awake again),
        // and the notification cannot fall before the sleep.
        drop(self.park.lock());
        // Relaxed: a `ServerStats` counter; the snapshot is advisory.
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            // Relaxed: an advisory snapshot; torn combinations across the
            // counters are acceptable by the `ServerStats` contract.
            submitted: self.jobs_submitted.load(Ordering::Relaxed),
            completed: self.jobs_completed.load(Ordering::Relaxed),
            cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            rejected: self.jobs_rejected.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            lease_hits: self.lease_hits.load(Ordering::Relaxed),
            lease_misses: self.lease_misses.load(Ordering::Relaxed),
            slab_resets: self.slab_resets.load(Ordering::Relaxed),
            client_leads: self.client_leads.load(Ordering::Relaxed),
            queue_depth: self.queue.len(),
            active_jobs: self.active.lock().len(),
            workers: self.workers,
        }
    }
}

/// A client inside [`ServerCtx::help`], and whether it holds the clients'
/// ring. Dropped on the way out of `help`, by return or by unwind.
struct Helping<'a> {
    ctx: &'a ServerCtx,
    ring: bool,
}

impl Drop for Helping<'_> {
    fn drop(&mut self) {
        if self.ring {
            // Release: hands the ring to the next client.
            self.ctx.client_ring.store(false, Ordering::Release);
        }
        // Release: the jobs this client led, and their counters, happen
        // before shutdown's Acquire read of the count.
        self.ctx.helping.fetch_sub(1, Ordering::Release);
    }
}

/// A point-in-time snapshot of server health (admission control state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted by `submit`.
    pub submitted: u64,
    /// Jobs that reached `Completed`.
    pub completed: u64,
    /// Jobs that reached `Cancelled` (before or during execution).
    pub cancelled: u64,
    /// Submissions rejected by admission control (`QueueFull` only;
    /// config and shutdown rejections are the caller's bug, not load).
    pub rejected: u64,
    /// Times a pool worker found nothing to do and went to sleep.
    pub parks: u64,
    /// Times a submission, a work-sharing registration or shutdown found
    /// workers parked and notified them — at most once per park. A pool
    /// that keeps up with its clients shows few of either.
    pub wakes: u64,
    /// Jobs led on the engine region their pool worker kept from the job
    /// before (see the [module docs](self)).
    pub lease_hits: u64,
    /// Jobs whose lead built their region: a worker's first job, a job of
    /// another problem type, deque capacity, `max_stolen_num` or slot count
    /// than the one before it, and the job after one that did not hand its
    /// region back.
    pub lease_misses: u64,
    /// Job terminals at which the lead got its slot board back and rewound
    /// the board's frame slabs, so the next job carves their frames afresh.
    /// A lead gets the board back only after it read every participant
    /// gone and nobody else holds the job (see the [module docs](self)).
    pub slab_resets: u64,
    /// Jobs a client led on its own thread while it waited in
    /// [`JobHandle::wait`], instead of a pool worker (see the
    /// [module docs](self)). Every other job was led by a pool worker, or
    /// by `shutdown` draining the queue.
    pub client_leads: u64,
    /// Submissions currently waiting in the queue (advisory, summed over
    /// priority lanes).
    pub queue_depth: usize,
    /// Multi-slot jobs currently registered for work sharing.
    pub active_jobs: usize,
    /// Pool worker threads.
    pub workers: usize,
}

/// The server's final report, returned by [`JobServer::shutdown`].
pub struct ServerReport {
    /// Counter snapshot at shutdown (queue necessarily drained to 0).
    pub stats: ServerStats,
    /// The pool-wide event trace, when [`ServerConfig::trace`] was set.
    /// Split it per job with `adaptivetc_trace::Trace::split_jobs`.
    pub trace: Option<adaptivetc_trace::Trace>,
}

/// A long-lived worker pool serving a stream of scheduler jobs. See the
/// [module docs](crate::server) for the lifecycle and isolation model.
pub struct JobServer {
    ctx: Arc<ServerCtx>,
    threads: Vec<std::thread::JoinHandle<()>>,
    collector: SharedCollector,
}

impl JobServer {
    /// Spawn the worker pool (once; workers park between jobs).
    pub fn new(cfg: ServerConfig) -> JobServer {
        let workers = cfg.workers.max(1);
        // One ring per pool worker, and one for the clients that lead jobs
        // while they wait.
        let collector: SharedCollector = cfg.trace.then(|| {
            Arc::new(TraceCollector::with_sample(
                workers + 1,
                cfg.trace_capacity,
                cfg.trace_sample,
            ))
        });
        let ctx = Arc::new(ServerCtx {
            queue: PrioQueue::with_capacity(cfg.queue_capacity.max(1)),
            active: Mutex::new(Vec::new()),
            gate: ParkGate::new(),
            park: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            accepting: AtomicBool::new(true),
            next_job: AtomicU64::new(1),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            lease_hits: AtomicU64::new(0),
            lease_misses: AtomicU64::new(0),
            slab_resets: AtomicU64::new(0),
            client_leads: AtomicU64::new(0),
            helping: AtomicU32::new(0),
            collector: collector.as_ref().map(Arc::downgrade),
            client_ring: AtomicBool::new(false),
            workers,
            work_sharing: cfg.work_sharing,
        });
        let threads = (0..workers)
            .map(|id| {
                let ctx = Arc::clone(&ctx);
                let collector = collector.clone();
                std::thread::Builder::new()
                    .name(format!("jobserver-{id}"))
                    .spawn(move || worker_loop(&ctx, id, &collector))
                    .expect("spawn job-server worker")
            })
            .collect();
        JobServer {
            ctx,
            threads,
            collector,
        }
    }

    /// Submit `problem` to run under `mode` with the per-job `cfg`
    /// (threads, seed, cut-off — everything a solo run accepts).
    ///
    /// `cfg.threads` asks for that many job slots, clamped to the pool
    /// size; slots beyond the lead are only filled when
    /// [`ServerConfig::work_sharing`] is on.
    ///
    /// # Errors
    ///
    /// Rejects (returning the problem) when the priority lane is full,
    /// the server is shutting down, or `cfg` is invalid.
    pub fn submit<P>(
        &self,
        problem: P,
        cfg: Config,
        mode: Mode,
        priority: Priority,
    ) -> Result<JobHandle<P::Out>, SubmitError<P>>
    where
        P: Problem + 'static,
    {
        if let Err(e) = cfg.validate() {
            return Err(SubmitError {
                problem,
                reason: RejectReason::Config(e),
            });
        }
        // Acquire: pairs with `shutdown_inner`'s Release store; a submission
        // that still slips past a racing shutdown is drained there, inline.
        if !self.ctx.accepting.load(Ordering::Acquire) {
            return Err(SubmitError {
                problem,
                reason: RejectReason::ShuttingDown,
            });
        }
        // Relaxed: job-id uniqueness needs only atomicity; the queue push
        // below publishes the job.
        let id = self.ctx.next_job.fetch_add(1, Ordering::Relaxed);
        // Three allocations, all on this thread: the problem, in the `Arc`
        // the engine wants; the job; the job's cancel token. The handle's
        // reference to the problem is what makes the submitting side the
        // one that frees it.
        let problem = Arc::new(problem);
        let keep: Arc<dyn Any + Send + Sync> = Arc::clone(&problem) as _;
        let job = Arc::new(Job {
            shared: JobShared::new(id),
            cfg,
            mode,
            problem: Mutex::new(Some(problem)),
            submitter: std::thread::current().id(),
        });
        match self
            .ctx
            .queue
            .try_push(priority, Arc::clone(&job) as Arc<dyn QueuedJob>)
        {
            Ok(()) => {
                // Relaxed: a `ServerStats` counter; the snapshot is advisory.
                self.ctx.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                // One job, one lead: wake one worker, if one is parked.
                self.ctx.wake(false);
                Ok(JobHandle {
                    job,
                    _problem: keep,
                    ctx: Arc::clone(&self.ctx),
                })
            }
            Err(rejected) => {
                // Relaxed: a `ServerStats` counter; the snapshot is advisory.
                self.ctx.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                // A lane rejects the value it was offered: nobody else has
                // seen the job, so these are the problem's only references.
                drop((rejected, keep));
                let problem = job.problem.lock().take().and_then(Arc::into_inner);
                Err(SubmitError {
                    problem: problem.expect("a rejected submission is unshared"),
                    reason: RejectReason::QueueFull,
                })
            }
        }
    }

    /// A point-in-time health snapshot.
    pub fn stats(&self) -> ServerStats {
        self.ctx.stats()
    }

    /// Drain every event the pool's workers have *published* so far into
    /// a point-in-time [`Trace`](adaptivetc_trace::Trace) snapshot,
    /// without stopping (or even pausing) the pool. Wait-free for the
    /// workers; concurrent drains are serialised inside the collector,
    /// and events handed out here never reappear in a later drain or in
    /// the final [`shutdown`](JobServer::shutdown) trace. Returns `None`
    /// when the server was built without [`ServerConfig::trace`].
    ///
    /// Use [`published_len`](JobServer::published_len) to size
    /// expectations: a drain returns at least the events a worker had
    /// published before the call began (minus at most one in-flight
    /// block near ring overflow).
    pub fn drain_trace(&self) -> Option<adaptivetc_trace::Trace> {
        self.collector.as_deref().map(|c| c.drain_published())
    }

    /// Events `worker` has published and not yet drained — a lower bound
    /// (up to one in-flight block) on what the next
    /// [`drain_trace`](JobServer::drain_trace) returns for that ring.
    /// Ring `workers` is the waiting clients' (see the
    /// [module docs](self)). `None` without tracing or for an out-of-range
    /// ring.
    pub fn published_len(&self, worker: usize) -> Option<usize> {
        let c = self.collector.as_deref()?;
        (worker < c.workers()).then(|| c.published_len(worker))
    }

    /// Stop accepting submissions, run every already-queued job to its
    /// terminal state, join the pool, and return the final report (with
    /// the drained trace when tracing was on).
    pub fn shutdown(mut self) -> ServerReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ServerReport {
        // Release: publishes the shutdown decision to `submit`'s gate and
        // to the workers' and joiners' Acquire loads before they exit.
        self.ctx.accepting.store(false, Ordering::Release);
        self.ctx.shutdown.store(true, Ordering::Release);
        // SeqCst: the flag may not pass the `helping` load below; pairs with
        // the fence in `ServerCtx::help`.
        fence(Ordering::SeqCst);
        self.ctx.wake(true);
        for t in std::mem::take(&mut self.threads) {
            let _ = t.join();
        }
        // Workers exit on (shutdown && queue empty); the Vyukov queue's
        // empty verdict is conservative, so a submission racing shutdown
        // can still be parked here. Every accepted job must reach a
        // terminal state, so drain inline on this thread (the pool is
        // joined — worker id 0's trace ring has a single producer again).
        let tracer: TracerRef<'_> = self.collector.as_deref();
        let mut lease = RegionLease::default();
        while let Some((_prio, job)) = self.ctx.queue.try_pop() {
            job.lead(&self.ctx, 0, tracer, &mut lease);
        }
        // A client that got in before the flag finishes what it is leading;
        // one that came later saw the flag and leads nothing.
        // Acquire: pairs with each client's Release decrement, so its jobs
        // are terminal and counted, and its hold on the collector is gone.
        while self.ctx.helping.load(Ordering::Acquire) != 0 {
            std::thread::yield_now();
        }
        ServerReport {
            // Every worker thread has been joined; the joins supply the
            // happens-before for the final snapshot.
            stats: self.ctx.stats(),
            trace: self
                .collector
                .take()
                .and_then(|c| Arc::try_unwrap(c).ok())
                .map(|c| c.finish()),
        }
    }
}

impl Drop for JobServer {
    /// A dropped server still drains and joins (outcomes of queued jobs
    /// are published to any waiting handles; the trace is discarded).
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            let _ = self.shutdown_inner();
        }
    }
}

/// One pool worker: lead queued jobs; otherwise join active jobs (work
/// sharing); otherwise park.
fn worker_loop(ctx: &Arc<ServerCtx>, id: usize, collector: &SharedCollector) {
    let mut lease = RegionLease::default();
    // Whether this idle spell has given the CPU away yet.
    let mut yielded = false;
    loop {
        let tracer = collector.as_deref();
        if let Some((_prio, job)) = ctx.queue.try_pop() {
            job.lead(ctx, id, tracer, &mut lease);
            yielded = false;
            continue;
        }
        if ctx.work_sharing {
            // Join outside the lock, from a snapshot taken under it — and
            // take none (no allocation, no `Arc` traffic) while nothing is
            // registered, which is every idle pass of a quiet pool.
            let snapshot: Vec<Arc<dyn ActiveJob>> = {
                let active = ctx.active.lock();
                if active.is_empty() {
                    Vec::new()
                } else {
                    active.clone()
                }
            };
            if snapshot.iter().any(|j| j.try_join(ctx, id, tracer)) {
                yielded = false;
                continue;
            }
        }
        // Acquire: pairs with `shutdown_inner`'s Release store, so an
        // exiting worker also sees every submission that preceded it.
        if ctx.shutdown.load(Ordering::Acquire) {
            break;
        }
        // An idle worker yields the CPU once before it announces itself
        // asleep. A client that shares its core, and was leading jobs while
        // it waited, then submits its next ones to a worker that is not
        // asleep, instead of waking it for every one of them (`jobs_cpu`
        // with both threads pinned to one vCPU of a 2-vCPU VM: 0.36
        // wake-ups a job without the yield, 0.002 with).
        if !yielded {
            yielded = true;
            std::thread::yield_now();
            continue;
        }
        // Announce, recheck, sleep — all under the park lock, which a
        // waker passes through before it notifies (see `ServerCtx::wake`).
        // The timeout is a backstop for the queue's conservative verdicts
        // and for a registration that lands between the scan above and
        // the announcement.
        let mut g = ctx.park.lock();
        // Acquire: the same shutdown edge, re-read under the park lock.
        if ctx
            .gate
            .announce(|| ctx.queue.is_empty() && !ctx.shutdown.load(Ordering::Acquire))
        {
            // Relaxed: a `ServerStats` counter; the snapshot is advisory.
            ctx.parks.fetch_add(1, Ordering::Relaxed);
            // A notified worker was taken off the count by its waker;
            // one that timed out withdraws itself.
            if ctx
                .wake
                .wait_for(&mut g, Duration::from_millis(1))
                .timed_out()
            {
                ctx.gate.retract();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::Expansion;

    /// Ternary tree of height `h`; counts leaves.
    struct Tern {
        h: u32,
    }
    impl Problem for Tern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == self.h {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    /// As `Tern`, but the first leaf reached raises `started` and blocks
    /// until `gate` opens — a deterministic way to keep a pool worker
    /// busy while the test arranges queue states around it.
    struct GatedTern {
        h: u32,
        started: Arc<AtomicBool>,
        gate: Arc<AtomicBool>,
    }
    impl Problem for GatedTern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == self.h {
                if !self.started.swap(true, Ordering::AcqRel) {
                    while !self.gate.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    fn wait_started(flag: &AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    /// Submit a gated job to occupy the (single) pool worker; returns the
    /// handle plus the gate to open when done.
    fn occupy_worker(server: &JobServer) -> (JobHandle<u64>, Arc<AtomicBool>) {
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let h = server
            .submit(
                GatedTern {
                    h: 2,
                    started: Arc::clone(&started),
                    gate: Arc::clone(&gate),
                },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit gate job");
        wait_started(&started);
        (h, gate)
    }

    #[test]
    fn region_lease_hands_back_only_what_matches_its_key() {
        fn hit<P: Problem + 'static>(lease: &mut RegionLease, cfg: &Config, slots: usize) -> bool {
            lease.region::<P>(cfg, slots).1
        }
        let cfg = Config::new(2).deque_capacity(8);
        let mut lease = RegionLease::default();
        assert!(!hit::<Tern>(&mut lease, &cfg, 2), "nothing held");
        assert!(hit::<Tern>(&mut lease, &cfg, 2));
        // Every part of the key misses on its own, and a miss keeps nothing
        // of what was held: going back to the first key misses again.
        for part in 0..4 {
            let missed = match part {
                0 => hit::<Tern>(&mut lease, &cfg.clone().deque_capacity(16), 2),
                1 => hit::<Tern>(&mut lease, &cfg.clone().max_stolen_num(3), 2),
                2 => hit::<Tern>(&mut lease, &cfg, 1),
                _ => hit::<LogTern>(&mut lease, &cfg, 2),
            };
            assert!(!missed, "key part {part} did not miss");
            assert!(!hit::<Tern>(&mut lease, &cfg, 2), "part {part}");
            assert!(hit::<Tern>(&mut lease, &cfg, 2), "part {part}");
        }

        // A board that is out, or came back with an entry in a deque, is
        // not leased on; one that came back clean is.
        let (region, _) = lease.region::<Tern>(&cfg, 2);
        let board = region.slots.take().expect("held with its board");
        assert!(!hit::<Tern>(&mut lease, &cfg, 2), "board is out");
        let (region, _) = lease.region::<Tern>(&cfg, 2);
        assert!(region.hand_back(Some(board)));
        assert!(hit::<Tern>(&mut lease, &cfg, 2), "clean board");

        let (region, _) = lease.region::<Tern>(&cfg, 2);
        let root = Arc::clone(&region.root);
        let board = region.slots.take().expect("held with its board");
        let eng = Shared::new(
            ProblemRef::Owned(Arc::new(Tern { h: 1 })),
            &cfg,
            Mode::Cilk,
            board,
            root,
            None,
        );
        let board = eng.into_slots();
        region.root.deliver(7);
        assert!(!region.hand_back(Some(board)), "result not taken");
        assert!(!hit::<Tern>(&mut lease, &cfg, 2), "dirty region");
    }

    #[test]
    fn single_job_completes_with_correct_result() {
        let server = JobServer::new(ServerConfig::new(2));
        let h = server
            .submit(
                Tern { h: 6 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        let id = h.id();
        match h.wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, 3u64.pow(6));
                assert_eq!(report.per_worker.len(), 1);
                assert!(report.stats.tasks_created >= 1);
            }
            JobOutcome::Cancelled { .. } => panic!("job {id} spuriously cancelled"),
        }
        let report = server.shutdown();
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.queue_depth, 0);
    }

    #[test]
    fn pool_survives_a_stream_of_jobs() {
        let server = JobServer::new(ServerConfig::new(2));
        let handles: Vec<_> = (0..10)
            .map(|i| {
                server
                    .submit(
                        Tern { h: 3 + (i % 3) },
                        Config::new(1),
                        Mode::Adaptive,
                        Priority::Normal,
                    )
                    .expect("submit")
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            match h.wait() {
                JobOutcome::Completed { out, .. } => {
                    assert_eq!(out, 3u64.pow(3 + (i as u32 % 3)));
                }
                JobOutcome::Cancelled { .. } => panic!("job {i} spuriously cancelled"),
            }
        }
        assert_eq!(server.stats().completed, 10);
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let victim = server
            .submit(
                Tern { h: 6 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit victim");
        assert_eq!(victim.status(), JobStatus::Queued);
        assert_eq!(victim.cancel(), CancelOutcome::CancelledBeforeRun);
        assert_eq!(victim.status(), JobStatus::Cancelled);
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        match victim.wait() {
            JobOutcome::Cancelled { report } => assert!(report.is_none(), "never executed"),
            JobOutcome::Completed { .. } => panic!("cancelled job ran"),
        }
        assert_eq!(server.shutdown().stats.cancelled, 1);
    }

    #[test]
    fn cancel_mid_flight_prunes_and_reports_partial_stats() {
        let server = JobServer::new(ServerConfig::new(1));
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let h = 9; // 9841 nodes if run to completion
        let job = server
            .submit(
                GatedTern {
                    h,
                    started: Arc::clone(&started),
                    gate: Arc::clone(&gate),
                },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        wait_started(&started);
        assert_eq!(job.status(), JobStatus::Running);
        assert_eq!(job.cancel(), CancelOutcome::Requested);
        gate.store(true, Ordering::Release);
        match job.wait() {
            JobOutcome::Cancelled { report } => {
                let report = report.expect("job had started");
                let total_nodes = (3u64.pow(h + 1) - 1) / 2;
                assert!(
                    report.stats.nodes < total_nodes,
                    "prune should skip most of the tree: {} vs {total_nodes}",
                    report.stats.nodes
                );
            }
            JobOutcome::Completed { .. } => panic!("cancel lost"),
        }
        assert_eq!(server.shutdown().stats.cancelled, 1);
    }

    #[test]
    fn cancel_after_completion_is_already_terminal() {
        let server = JobServer::new(ServerConfig::new(1));
        let h = server
            .submit(
                Tern { h: 4 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        // Wait for terminality through the handle's non-consuming probe.
        while h.latency().is_none() {
            std::thread::yield_now();
        }
        assert_eq!(h.cancel(), CancelOutcome::AlreadyTerminal);
        assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        server.shutdown();
    }

    /// Records its tag at root expansion, exposing execution order.
    struct LogTern {
        tag: u8,
        log: Arc<Mutex<Vec<u8>>>,
    }
    impl Problem for LogTern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == 0 {
                self.log.lock().push(self.tag);
            }
            if d == 2 {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    /// Wait without leading anything: poll until a pool worker has
    /// published the outcome.
    fn wait_on_pool<O: Send>(mut h: JobHandle<O>) -> JobOutcome<O> {
        loop {
            match h.try_result() {
                Ok(outcome) => return outcome,
                Err(back) => h = back,
            }
            std::thread::yield_now();
        }
    }

    /// Low, normal and high jobs queued behind a pinned worker.
    fn three_lanes(server: &JobServer, log: &Arc<Mutex<Vec<u8>>>) -> [JobHandle<u64>; 3] {
        let order = |tag| LogTern {
            tag,
            log: Arc::clone(log),
        };
        [
            (1, Priority::Low),
            (2, Priority::Normal),
            (3, Priority::High),
        ]
        .map(|(tag, prio)| {
            server
                .submit(order(tag), Config::new(1), Mode::Adaptive, prio)
                .expect("submit")
        })
    }

    #[test]
    fn high_priority_overtakes_queued_normal_and_low() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let log = Arc::new(Mutex::new(Vec::new()));
        let [low, normal, high] = three_lanes(&server, &log);
        gate.store(true, Ordering::Release);
        assert!(matches!(
            wait_on_pool(gate_job),
            JobOutcome::Completed { .. }
        ));
        for h in [high, normal, low] {
            assert!(matches!(wait_on_pool(h), JobOutcome::Completed { .. }));
        }
        // All three were queued while the single worker was pinned, so it
        // must drain lanes strictly by priority.
        assert_eq!(*log.lock(), vec![3, 2, 1]);
        assert_eq!(server.shutdown().stats.client_leads, 0);
    }

    /// With the pool's only worker pinned, a client waiting on the
    /// low-priority job leads all three on its own thread, in lane order,
    /// its own last.
    #[test]
    fn a_waiting_client_leads_queued_jobs_in_lane_order() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let log = Arc::new(Mutex::new(Vec::new()));
        let [low, normal, high] = three_lanes(&server, &log);
        assert!(matches!(low.wait(), JobOutcome::Completed { .. }));
        assert_eq!(*log.lock(), vec![3, 2, 1]);
        assert_eq!(server.stats().client_leads, 3);
        for h in [high, normal] {
            assert_eq!(h.status(), JobStatus::Completed);
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        let stats = server.shutdown().stats;
        assert_eq!((stats.completed, stats.client_leads), (4, 3));
    }

    /// Records the thread that expands its root.
    struct WhoTern {
        h: u32,
        led_on: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }
    impl Problem for WhoTern {
        type State = u32;
        type Choice = u8;
        type Out = u64;
        fn root(&self) -> u32 {
            0
        }
        fn expand(&self, _: &u32, d: u32) -> Expansion<u8, u64> {
            if d == 0 {
                self.led_on.lock().push(std::thread::current().id());
            }
            if d == self.h {
                Expansion::Leaf(1)
            } else {
                Expansion::Children(vec![0, 1, 2])
            }
        }
        fn apply(&self, s: &mut u32, _: u8) {
            *s += 1;
        }
        fn undo(&self, s: &mut u32, _: u8) {
            *s -= 1;
        }
    }

    /// A two-slot job at the head of the queue is refused by a waiting
    /// client, whichever job it waits on, and so is everything behind it:
    /// the client sleeps, and pool workers lead both.
    #[test]
    fn a_waiting_client_never_leads_a_team() {
        let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
        type Roots = Arc<Mutex<Vec<std::thread::ThreadId>>>;
        let (team_led_on, single_led_on) = (Roots::default(), Roots::default());
        let who = |h, led_on: &Roots| WhoTern {
            h,
            led_on: Arc::clone(led_on),
        };
        // Pin both workers.
        let pinned: Vec<_> = (0..2).map(|_| occupy_worker(&server)).collect();
        let team = server
            .submit(
                who(8, &team_led_on),
                Config::new(2),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit the team");
        let single = server
            .submit(
                who(3, &single_led_on),
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit the single");
        // The gates open from another thread while this one waits: how far
        // it gets first decides only how often it meets the team at the
        // head, never whether it may take it.
        std::thread::scope(|s| {
            s.spawn(|| {
                for (_, gate) in &pinned {
                    gate.store(true, Ordering::Release);
                }
            });
            match team.wait() {
                JobOutcome::Completed { out, report } => {
                    assert_eq!(out, 3u64.pow(8));
                    assert_eq!(report.threads, 2);
                }
                JobOutcome::Cancelled { .. } => panic!("spuriously cancelled"),
            }
        });
        assert!(matches!(single.wait(), JobOutcome::Completed { .. }));
        for (h, _) in pinned {
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        let me = std::thread::current().id();
        assert_eq!(single_led_on.lock().len(), 1);
        let team_roots = team_led_on.lock().clone();
        assert_eq!(team_roots.len(), 1);
        assert_ne!(team_roots[0], me, "the client led the team");
        server.shutdown();
    }

    #[test]
    fn full_lane_rejects_and_returns_the_problem() {
        let server = JobServer::new(ServerConfig::new(1).queue_capacity(2));
        let (gate_job, gate) = occupy_worker(&server);
        let mut queued = Vec::new();
        let mut rejected_problem = None;
        // The worker is pinned; pushes beyond the lane capacity must fail.
        for i in 0..4u32 {
            match server.submit(
                Tern { h: 2 + i },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            ) {
                Ok(h) => queued.push(h),
                Err(e) => {
                    assert!(matches!(e.reason, RejectReason::QueueFull));
                    rejected_problem = Some(e.problem);
                    break;
                }
            }
        }
        let rejected = rejected_problem.expect("a push beyond capacity was rejected");
        // The problem comes back intact for a retry.
        assert!(rejected.h >= 2);
        assert!(server.stats().rejected >= 1);
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        for h in queued {
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        server.shutdown();
    }

    #[test]
    fn invalid_job_config_is_rejected_up_front() {
        let server = JobServer::new(ServerConfig::new(1));
        let err = server
            .submit(
                Tern { h: 3 },
                Config::new(0),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect_err("zero threads is invalid");
        assert!(matches!(err.reason, RejectReason::Config(_)));
        assert_eq!(server.stats().submitted, 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_to_terminal_states() {
        let server = JobServer::new(ServerConfig::new(1));
        let (gate_job, gate) = occupy_worker(&server);
        let queued: Vec<_> = (0..3)
            .map(|_| {
                server
                    .submit(
                        Tern { h: 3 },
                        Config::new(1),
                        Mode::Adaptive,
                        Priority::Normal,
                    )
                    .expect("submit")
            })
            .collect();
        gate.store(true, Ordering::Release);
        assert!(matches!(gate_job.wait(), JobOutcome::Completed { .. }));
        let report = server.shutdown();
        assert_eq!(report.stats.queue_depth, 0);
        for h in queued {
            // Drained either by the worker before it joined or inline by
            // shutdown; both must produce a terminal outcome.
            match h.try_result() {
                Ok(JobOutcome::Completed { out, .. }) => assert_eq!(out, 3u64.pow(3)),
                other => panic!("queued job not completed at shutdown: {other:?}"),
            }
        }
    }

    #[test]
    fn work_sharing_job_uses_multiple_slots() {
        let server = JobServer::new(ServerConfig::new(2).work_sharing(true));
        let h = server
            .submit(
                Tern { h: 10 },
                Config::new(2),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        match h.wait() {
            JobOutcome::Completed { out, report } => {
                assert_eq!(out, 3u64.pow(10));
                assert_eq!(report.per_worker.len(), 2, "two job slots");
            }
            JobOutcome::Cancelled { .. } => panic!("spuriously cancelled"),
        }
        server.shutdown();
    }

    #[test]
    fn dropped_server_still_drains() {
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(true)); // gate open: plain run
        let handle = {
            let server = JobServer::new(ServerConfig::new(1));
            let h = server
                .submit(
                    GatedTern {
                        h: 3,
                        started: Arc::clone(&started),
                        gate,
                    },
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            drop(server); // Drop runs shutdown_inner
            h
        };
        match handle.try_result() {
            Ok(JobOutcome::Completed { out, .. }) => assert_eq!(out, 3u64.pow(3)),
            other => panic!("job not terminal after server drop: {other:?}"),
        }
    }

    #[test]
    fn job_ids_are_unique_and_reported() {
        let server = JobServer::new(ServerConfig::new(2));
        let a = server
            .submit(
                Tern { h: 2 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        let b = server
            .submit(
                Tern { h: 2 },
                Config::new(1),
                Mode::Adaptive,
                Priority::Normal,
            )
            .expect("submit");
        assert_ne!(a.id(), b.id());
        a.wait();
        b.wait();
        server.shutdown();
    }

    /// Drain the trace from a live server — pool running, its only worker
    /// blocked mid-job — and check the snapshot against `published_len`,
    /// then that the mid-run drain and the shutdown trace partition the
    /// job markers with no loss and no duplication.
    #[test]
    fn drain_trace_mid_run_without_stopping_the_pool() {
        use adaptivetc_trace::EventKind;

        let count_ends = |t: &adaptivetc_trace::Trace| {
            t.workers
                .iter()
                .flat_map(|w| &w.events)
                .filter(|e| matches!(e.kind, EventKind::JobEnd { .. }))
                .count()
        };

        let server = JobServer::new(ServerConfig::new(1).trace(true));
        // The pool worker's ring and the waiting clients'.
        let published = || -> usize {
            (0..=1)
                .map(|ring| server.published_len(ring).expect("tracing is on"))
                .sum()
        };
        assert_eq!(server.published_len(2), None, "two rings");
        // Three completed jobs, big enough that whole event blocks are
        // published (only full blocks are visible mid-run).
        for _ in 0..3 {
            let h = server
                .submit(
                    Tern { h: 8 },
                    Config::new(1),
                    Mode::Adaptive,
                    Priority::Normal,
                )
                .expect("submit");
            assert!(matches!(h.wait(), JobOutcome::Completed { .. }));
        }
        // A gated job pins the pool's only worker mid-run: the server is
        // demonstrably live (not quiesced) while we read.
        let (gated, gate) = occupy_worker(&server);

        let announced = published();
        assert!(
            announced > 0,
            "three completed jobs must have published whole blocks"
        );
        let snap = server.drain_trace().expect("tracing is on");
        assert!(
            snap.len() >= announced,
            "drain returned {} events, {announced} were announced published",
            snap.len()
        );
        let after = published();
        assert!(
            after < announced,
            "drain must consume the published events it returned"
        );
        let ends_mid = count_ends(&snap);
        assert!(ends_mid <= 3, "only three jobs have ended");

        gate.store(true, Ordering::Release);
        assert!(matches!(gated.wait(), JobOutcome::Completed { .. }));
        let report = server.shutdown();
        let final_trace = report.trace.expect("tracing is on");
        // Partition: every job's end marker lands in exactly one of the
        // two traces — the mid-run drain lost nothing and the shutdown
        // trace repeats nothing.
        assert_eq!(
            ends_mid + count_ends(&final_trace),
            4,
            "mid-run drain and shutdown trace must partition the 4 job-end markers"
        );
        assert!(
            !final_trace.workers.is_empty(),
            "shutdown trace still reports every worker ring"
        );
    }
}
