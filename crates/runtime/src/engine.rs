//! The shared deque-based execution engine.
//!
//! One engine implements four scheduling policies as [`Mode`]s, because they
//! are all points on the same design axis — *when does a spawn create a
//! task?*:
//!
//! * [`Mode::Cilk`] — always (the work-first Cilk 5 policy): every spawn
//!   pushes the parent continuation and copies the child's taskprivate
//!   workspace.
//! * [`Mode::CilkSynched`] — as Cilk, but workspace buffers are recycled
//!   through a per-worker free list (the `SYNCHED` idiom: allocations drop,
//!   copies remain).
//! * [`Mode::CutoffSequence`] / [`Mode::CutoffCopy`] — tasks only above a
//!   fixed cut-off depth; below it, plain recursion. The *programmer*
//!   variant knows the subtree is sequential and skips workspace copies; the
//!   *library* variant cannot and still copies per child (Figure 9).
//! * [`Mode::Adaptive`] — the paper's AdaptiveTC: tasks above `⌈log₂ N⌉`
//!   (the **fast** version), then fake tasks that poll `need_task` (the
//!   **check** version), transitioning through a **special task** into
//!   **fast_2** (doubled cut-off, task depth reset to 0) and finally the
//!   **sequence** version. Stolen tasks resume in the **slow** version
//!   (fast/check rules).
//!
//! The engine tracks two depths: the *logical* depth (distance from the root
//! node, passed to [`Problem::expand`]) and the *task* depth (the paper's
//! cut-off counter, reset to 0 under a special task).
//!
//! The engine uses continuation stealing over the paper's THE deque
//! ([`Deque`]): a spawn pushes the parent frame, the worker dives into the
//! child, and the matched pop detects theft (the THE race).
//!
//! # Work-first joins
//!
//! A child that finishes on the worker that spawned it hands its result
//! back on the stack ([`Outcome::Done`]); after a successful pop the
//! parent's loop folds it into the continuation-private accumulator. A
//! frame that is never stolen therefore takes no lock, performs no atomic
//! read-modify-write on its own fields and completes by returning. Only a
//! failed pop — the continuation was stolen under the child — or a frame
//! that already went asynchronous sends a result through the shared join
//! cell and the cascading delivery chain in [`crate::frame`]
//! (`RunStats::async_joins` counts those). The loops never hold a borrow
//! of the continuation's fields across a push: from its push to its
//! successful pop the owner does not own them.
//!
//! # Hot-path object pools
//!
//! Each worker privately recycles what the hot path would otherwise
//! allocate per task:
//!
//! * **workspace buffers** — every mode except [`Mode::Cilk`] draws from a
//!   [`Pool`] of dead buffers and overwrites them with `clone_from`;
//!   `RunStats::state_reuse` counts the hits. Cilk does not pool (the
//!   paper's `SYNCHED` is the mode that does), and a Table-1 workspace copy
//!   allocates nothing anyway.
//! * **frames** — come from the slot's [`FrameSlab`] on the slot board and
//!   are named by [`FrameRef`]s, so no spawn touches a reference count. A
//!   completed frame goes to the LIFO free list of whoever may reuse it —
//!   the holder of one that never went asynchronous, at its sync;
//!   otherwise whoever emptied its join cell — and the next spawn takes it
//!   from there (`RunStats::frame_reuse`). The list is unbounded: it holds
//!   handles into the slabs, which own the memory.
//!
//! # Taskprivate workspaces
//!
//! The paper's rule, in every mode: a workspace is cloned only when a
//! real task is created, never for a fake task. A real task keeps its
//! node's workspace in its frame (`Cont::state`) and gives every child
//! it spawns a clone with the child's choice applied, so a thief that
//! steals the continuation finds the workspace there and owes its victim
//! nothing. A node that is not a real task runs
//! its fake-task recursion (check, sequence, Cutoff-library's copying
//! sequence) in place on the workspace it was handed. Every node enters
//! through one [`Worker::exec_node`] and every task spawns through one
//! [`Worker::frame_loop`]: the root task, a stolen continuation and a
//! special task's children alike.
//!
//! Every scheduling decision is the worker's [`Kernel`]'s
//! (`adaptivetc-strategy`), the same code the simulator runs; this module
//! is the mechanism around it: deques, frames, atomics and the clock.

use crate::frame::{deliver, Frame, FrameRef, FrameSlab, Outcome, Parent, ResultCell};
use crate::pool::Pool;
use crate::submit::CancelToken;
use crate::trace::{tev, worker_tracer, WorkerTracer};
use adaptivetc_core::{Config, Expansion, Problem, Reduce, RunReport, RunStats, XorShift64};
use adaptivetc_deque::{NeedTask, PopSpecial, StealOutcome, TheDeque};
use adaptivetc_strategy::fsm::{self, Version};
use adaptivetc_strategy::{Fallthrough, Kernel, Mode, Regime, SpecialWait};
use adaptivetc_trace::{EventKind as Ev, FsmState as Fs};
use crossbeam_utils::CachePadded;
use std::sync::Arc;
use std::time::Instant;

/// Dead workspace buffers each worker's pool retains at most. Bounds the
/// steady-state footprint while covering the spawn working set of every
/// paper workload.
const POOL_CAP: usize = 128;

/// Failed steals after which a spinning thief starts yielding the CPU
/// (2^6 = 64 spin-hint rounds of exponential back-off first).
const BACKOFF_SPIN_LIMIT: u32 = 6;

/// The engine's one deque: the simplified THE protocol of the paper's
/// Fig. 3, carrying bare frame handles. The pop/steal race itself decides
/// who runs a frame, so an extraction needs no further claim.
pub(crate) type Deque<P> = TheDeque<FrameRef<P>>;

/// How the engine's shared state holds the problem: borrowed for the
/// one-shot [`run_traced`] entry point (the problem outlives the scoped
/// worker threads), owned for [`crate::server`] jobs (the job context must
/// be `'static` to be shared across long-lived pool workers).
pub(crate) enum ProblemRef<'p, P> {
    /// Borrowed from the caller (`Scheduler::run`).
    Borrowed(&'p P),
    /// Owned by the job context (`JobServer` submissions).
    Owned(Arc<P>),
}

impl<P> ProblemRef<'_, P> {
    #[inline]
    fn get(&self) -> &P {
        match self {
            ProblemRef::Borrowed(p) => p,
            ProblemRef::Owned(p) => p,
        }
    }
}

/// A region's slot board: per worker slot, its deque, its `need_task`
/// signal and the slab its frames come from.
pub(crate) struct Slots<P: Problem> {
    deques: Vec<Deque<P>>,
    /// Padded: a thief hammering one worker's signal must not invalidate
    /// its neighbours' lines.
    signals: Vec<CachePadded<NeedTask>>,
    /// Frame memory, on the board rather than with the worker: a joiner
    /// may abandon its slot while its frames still run elsewhere.
    slabs: Vec<FrameSlab<P>>,
}

impl<P: Problem> Slots<P> {
    /// A fresh board of `slots` slots: deques at `cfg.deque_capacity`,
    /// signals at `cfg.max_stolen_num`, slabs empty.
    pub(crate) fn new(cfg: &Config, slots: usize) -> Self {
        Slots {
            deques: (0..slots).map(|_| Deque::new(cfg.deque_capacity)).collect(),
            signals: (0..slots)
                .map(|_| CachePadded::new(NeedTask::new(cfg.max_stolen_num)))
                .collect(),
            slabs: (0..slots).map(|_| FrameSlab::new()).collect(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.deques.len()
    }

    /// After a run, with every participant gone: lower what thieves may
    /// rightly have left raised — a `need_task` request nobody answered —
    /// rewind the slabs so the next run carves their frames afresh, and
    /// report whether every deque is empty, as the join implies.
    pub(crate) fn settle(&mut self) -> bool {
        for signal in &self.signals {
            signal.acknowledge();
        }
        for slab in &mut self.slabs {
            slab.rewind();
        }
        self.deques.iter().all(Deque::is_empty)
    }
}

pub(crate) struct Shared<'p, P: Problem> {
    pub(crate) problem: ProblemRef<'p, P>,
    slots: Slots<P>,
    pub(crate) root: Arc<ResultCell<P::Out>>,
    mode: Mode,
    cutoff: u32,
    timing: bool,
    /// Cooperative cancellation for `JobServer` jobs: when raised, the
    /// poll points below prune remaining expansions to identity leaves so
    /// the delivery chain still completes the root cell. `None` (the
    /// one-shot entry points) compiles to a single branch per node.
    cancel: Option<CancelToken>,
}

impl<'p, P: Problem> Shared<'p, P> {
    /// Build the engine's shared state on a slot board and a root cell —
    /// fresh ones, or those a pool worker keeps from job to job (see
    /// `crate::server`), which must be as a fresh one is: deques empty,
    /// signals down, the cell armed.
    ///
    /// There may be fewer slots than `cfg.threads` (a server job clamped
    /// to the pool size); the cut-off still derives from `cfg.threads`, so
    /// a job's task-creation frontier is a function of its own
    /// configuration only, never of pool occupancy.
    pub(crate) fn new(
        problem: ProblemRef<'p, P>,
        cfg: &Config,
        mode: Mode,
        slots: Slots<P>,
        root: Arc<ResultCell<P::Out>>,
        cancel: Option<CancelToken>,
    ) -> Self {
        Shared {
            problem,
            slots,
            root,
            mode,
            cutoff: cfg.cutoff_depth(),
            timing: cfg.timing,
            cancel,
        }
    }

    /// Release the region — the problem reference, the root cell — and
    /// hand back its slot board (for a pool worker's lease).
    pub(crate) fn into_slots(self) -> Slots<P> {
        self.slots
    }

    /// The per-slot deterministic RNG streams `cfg.seed` expands to, slot
    /// 0 first — shared by [`run_traced`] and the job server so a job's slot
    /// `i` sees exactly the stream worker `i` of a solo run would.
    pub(crate) fn seeds(cfg: &Config) -> impl Iterator<Item = XorShift64> {
        let mut seeder = XorShift64::new(cfg.seed);
        std::iter::repeat_with(move || seeder.split())
    }
}

/// Per-op timing probe, shared with the Tascell engine: the one clock
/// read on the hot path, taken only under `Config::timing`.
#[inline]
pub(crate) fn now_if(enabled: bool) -> Option<Instant> {
    enabled.then(Instant::now)
}

/// Add the time since `start` (a [`now_if`] probe) to `field`.
#[inline]
pub(crate) fn lap(field: &mut u64, start: Option<Instant>) {
    if let Some(t0) = start {
        *field += t0.elapsed().as_nanos() as u64;
    }
}

/// What a worker allocates for itself and a later run can use again: the
/// vectors of its two free lists. Empty between runs — the vectors keep
/// their capacity, nothing else is kept — so a run on a used scratch counts
/// what a run on a fresh one counts. Frames are not kept here: they live on
/// the slot board (see [`Slots`]).
pub(crate) struct Scratch<P: Problem> {
    freelist: Pool<P::State>,
    frames: Vec<FrameRef<P>>,
}

impl<P: Problem> Default for Scratch<P> {
    fn default() -> Self {
        Scratch {
            freelist: Pool::new(POOL_CAP),
            frames: Vec::new(),
        }
    }
}

impl<P: Problem> Scratch<P> {
    pub(crate) fn is_empty(&self) -> bool {
        self.freelist.is_empty() && self.frames.is_empty()
    }
}

pub(crate) struct Worker<'s, 'p, P: Problem> {
    shared: &'s Shared<'p, P>,
    id: usize,
    stats: RunStats,
    /// This worker's scheduling decisions; private, so taking one never
    /// touches shared memory.
    kernel: Kernel,
    /// Recycled workspace buffers (every mode except `Cilk`).
    freelist: Pool<P::State>,
    /// Frames this worker retired — at a sync that never went
    /// asynchronous, or by emptying their join cell — from any slab of
    /// the board.
    frames: Vec<FrameRef<P>>,
    /// What is left to carve of the slab chunk this worker took last.
    fresh: std::slice::Iter<'s, Frame<P>>,
    /// Event-trace recording endpoint (`None` when `Config::trace` is
    /// off).
    tr: WorkerTracer<'s>,
}

impl<'s, 'p, P: Problem> Worker<'s, 'p, P> {
    /// A worker on `scratch`'s vectors; [`Worker::retire`] puts them back.
    fn new(
        shared: &'s Shared<'p, P>,
        id: usize,
        rng: XorShift64,
        tr: WorkerTracer<'s>,
        scratch: &mut Scratch<P>,
    ) -> Self {
        let Scratch { freelist, frames } = std::mem::take(scratch);
        Worker {
            kernel: Kernel::new(shared.mode, shared.cutoff, rng),
            shared,
            id,
            stats: RunStats::default(),
            freelist,
            frames,
            fresh: [].iter(),
            tr,
        }
    }

    /// The end of this worker's run: its counters, and its vectors back
    /// into `scratch`. The pools die with the run — workspaces are dropped
    /// here, frames stay in their slabs — so that `frame_reuse`,
    /// `state_reuse` and `allocations` of the next run on this scratch are
    /// a cold start's.
    fn retire(self, scratch: &mut Scratch<P>) -> RunStats {
        let Worker {
            stats,
            mut freelist,
            mut frames,
            ..
        } = self;
        freelist.clear();
        frames.clear();
        *scratch = Scratch { freelist, frames };
        stats
    }

    #[inline]
    fn problem(&self) -> &P {
        self.shared.problem.get()
    }

    /// Whether this worker's job has been cancelled. Pruning is purely
    /// cooperative: the node that observes the raised token yields an
    /// identity leaf instead of expanding, so every join (and with it
    /// every waiting sync and the root cell) still completes normally —
    /// cancellation never bypasses the join cells' token accounting.
    #[inline]
    fn cancelled(&self) -> bool {
        match &self.shared.cancel {
            Some(token) => token.get(),
            None => false,
        }
    }

    #[inline]
    fn my_deque(&self) -> &Deque<P> {
        &self.shared.slots.deques[self.id]
    }

    #[inline]
    fn my_signal(&self) -> &NeedTask {
        &self.shared.slots.signals[self.id]
    }

    /// Does this mode recycle workspace buffers? `Cilk` stays
    /// allocate-per-spawn (the paper's work-first baseline); every other
    /// mode draws from the pool.
    #[inline]
    fn pools_state(&self) -> bool {
        self.shared.mode != Mode::Cilk
    }

    /// The paper's taskprivate copy: allocate (or recycle) and memcpy.
    fn clone_state(&mut self, src: &P::State) -> P::State {
        let t0 = now_if(self.shared.timing);
        let state = if self.pools_state() {
            match self.freelist.take() {
                Some(mut buf) => {
                    buf.clone_from(src);
                    self.stats.state_reuse += 1;
                    buf
                }
                None => {
                    self.stats.allocations += 1;
                    src.clone()
                }
            }
        } else {
            self.stats.allocations += 1;
            src.clone()
        };
        self.stats.copies += 1;
        self.stats.copy_bytes += self.problem().state_bytes(src) as u64;
        lap(&mut self.stats.time.copy_ns, t0);
        state
    }

    /// Return a dead workspace buffer to the free list.
    fn recycle(&mut self, state: P::State) {
        if self.pools_state() {
            self.freelist.put(state);
        }
    }

    /// A frame for a node whose continuation is about to run: the last one
    /// this worker retired, else a fresh one carved from its slot's slab.
    fn make_frame(
        &mut self,
        parent: Parent<P>,
        state: Option<P::State>,
        choices: Vec<P::Choice>,
        logical: u32,
        depth: u32,
    ) -> FrameRef<P> {
        let frame = match self.frames.pop() {
            Some(frame) => {
                self.stats.frame_reuse += 1;
                frame
            }
            None => self.carve(),
        };
        // SAFETY: a free slot — this worker retired it or carved it — that
        // no other thread can reach before its first push.
        unsafe { frame.start(parent, state, choices, logical, depth) };
        frame
    }

    /// The next unused frame of this worker's slab chunk, taking a new
    /// chunk from its slot's slab when this one is used up.
    #[cold]
    fn carve(&mut self) -> FrameRef<P> {
        let frame = match self.fresh.next() {
            Some(frame) => frame,
            None => {
                self.fresh = self.shared.slots.slabs[self.id].chunk().iter();
                self.fresh.next().expect("a slab chunk holds frames")
            }
        };
        FrameRef::new(frame)
    }

    /// Scrub a completed frame this worker owns and put it on its free
    /// list: a frame whose sync never went asynchronous (its join cell is
    /// untouched), or one whose join cell this worker emptied (`rearm`).
    /// The workspace a real task's frame carries goes back to the
    /// workspace pool.
    fn retire_frame(&mut self, frame: FrameRef<P>, rearm: bool) {
        // SAFETY: the caller owns the completed frame (see above).
        let (f, cont) = unsafe { (frame.get(), frame.cont()) };
        if let Some(state) = cont.state.take() {
            self.recycle(state);
        }
        // Scrub every live reference so the idle slot keeps nothing
        // alive: the parent chain, the choices.
        cont.parent = Parent::None;
        cont.choices = Vec::new();
        if rearm {
            f.join.rearm();
        }
        // SAFETY: owned and scrubbed, as above.
        self.frames.push(unsafe { frame.recycle() });
    }

    /// The sync of a continuation this worker holds. A frame that never
    /// went asynchronous (`!shared`) completes by returning; otherwise the
    /// holder's tokens are released and the frame completes here only if
    /// every detached child has already arrived.
    #[inline]
    fn sync(&mut self, frame: FrameRef<P>, shared: bool) -> Outcome<P::Out> {
        // SAFETY: holder: the caller runs the continuation.
        let acc = std::mem::replace(&mut unsafe { frame.cont() }.acc, P::Out::identity());
        if !shared {
            self.retire_frame(frame, false);
            return Outcome::Done(acc);
        }
        // SAFETY: holder, up to the release below.
        match unsafe { frame.get() }.join.release(acc, P::Out::combine) {
            Some(total) => {
                // The cell handed the total — and with it the frame — back
                // to this thread.
                self.retire_frame(frame, true);
                Outcome::Done(total)
            }
            None => Outcome::Detached,
        }
    }

    /// Hand `out` to `parent` through the asynchronous delivery chain,
    /// retiring every frame whose cell it empties on the way.
    fn deliver(&mut self, parent: Parent<P>, out: P::Out) {
        let joins = deliver(parent, out, |frame| self.retire_frame(frame, true));
        self.stats.async_joins += joins;
    }

    /// Push a continuation entry, tolerating overflow by leaving the child
    /// unstealable (executed inline); returns whether the entry was pushed.
    fn push_entry(&mut self, frame: FrameRef<P>, special: bool) -> bool {
        let result = if special {
            self.my_deque().push_special(frame)
        } else {
            self.my_deque().push(frame)
        };
        match result {
            Ok(()) => {
                self.stats.deque_pushes += 1;
                self.stats.deque_peak = self.stats.deque_peak.max(self.my_deque().len() as u64);
                tev!(
                    self,
                    Deque,
                    if special { Ev::SpecialPush } else { Ev::Push }
                );
                true
            }
            Err(_) => {
                self.stats.deque_overflows += 1;
                false
            }
        }
    }

    /// Pop back the entry the owner pushed for the child it just ran.
    /// Returns whether the owner still owns the continuation: `false`
    /// means the pop lost the THE race, so a thief stole the frame.
    fn pop_back(&mut self) -> bool {
        let claimed = self.my_deque().pop().is_some();
        if claimed {
            self.stats.deque_pops += 1;
            tev!(self, Deque, Ev::Pop);
        } else {
            self.stats.pop_conflicts += 1;
            tev!(self, Deque, Ev::PopConflict);
        }
        claimed
    }

    /// Execute a node on the workspace it owns — the root's, or the clone
    /// its spawn made. A real task keeps the workspace in its frame and
    /// spawns through [`Worker::frame_loop`]; any other node runs its
    /// fake-task recursion in place on it. `parent` is called only if the
    /// node gets a frame.
    fn exec_node(
        &mut self,
        mut state: P::State,
        logical: u32,
        tdepth: u32,
        parent: impl FnOnce() -> Parent<P>,
        regime: Regime,
    ) -> Outcome<P::Out> {
        if self.cancelled() {
            // Prune to an identity leaf so every join still completes.
            self.recycle(state);
            return Outcome::Done(P::Out::identity());
        }
        self.stats.nodes += 1;
        let choices = match self.problem().expand(&state, logical) {
            Expansion::Leaf(out) => {
                self.recycle(state);
                return Outcome::Done(out);
            }
            Expansion::Children(choices) => choices,
        };
        if self.kernel.real_task(tdepth, regime) {
            let frame = self.make_frame(parent(), Some(state), choices, logical, tdepth);
            return self.frame_loop(frame, regime, false);
        }
        let out = match self.kernel.fallthrough(regime) {
            Fallthrough::SequenceCopy => self.sequence_copy(&state, logical, choices),
            Fallthrough::Check => {
                tev!(
                    self,
                    Fsm,
                    Ev::Fsm {
                        from: Fs::Fast,
                        to: Fs::Check,
                        depth: tdepth,
                    }
                );
                self.check(&mut state, logical, choices)
            }
            Fallthrough::Sequence => {
                // Cutoff-programmer's recursion is no FSM edge.
                if regime == Regime::Fast2 {
                    tev!(
                        self,
                        Fsm,
                        Ev::Fsm {
                            from: Fs::Fast2,
                            to: Fs::Sequence,
                            depth: tdepth,
                        }
                    );
                }
                self.sequence(&mut state, logical, choices)
            }
        };
        self.recycle(state);
        Outcome::Done(out)
    }

    /// Run a real task's continuation: spawn each remaining child as a task
    /// with its own workspace clone, under `regime`. Stolen frames re-enter
    /// here (the slow version "restores the program counter" — `cont.next`
    /// — and continues) with `shared` set: their join cell is live.
    fn frame_loop(
        &mut self,
        frame: FrameRef<P>,
        regime: Regime,
        mut shared: bool,
    ) -> Outcome<P::Out> {
        // Cancellation poll: stop spawning; already-spawned children
        // still join, completing the frame normally.
        while !self.cancelled() {
            // SAFETY: this worker holds the continuation — it made the
            // frame or claimed it from a deque, and every entry it pushed
            // since was popped back. The borrow ends before the next push.
            let cont = unsafe { frame.cont() };
            let Some(&choice) = cont.choices.get(cont.next) else {
                break;
            };
            cont.next += 1;
            // After the last spawn the continuation holds nothing
            // stealable (only the sync), so its entry is elided —
            // otherwise chain-shaped trees fill deques with dead
            // continuations that satisfy thieves without feeding them.
            let stealable = cont.next < cont.choices.len();
            let (logical, depth) = (cont.logical + 1, cont.depth + 1);
            // Workspace copy for the spawned child (taskprivate).
            let src = cont.state.as_ref().expect("a real task owns its workspace");
            let mut child_state = self.clone_state(src);
            self.problem().apply(&mut child_state, choice);
            self.stats.tasks_created += 1;
            tev!(self, Spawn, Ev::Spawn { depth });
            let pushed = stealable && self.push_entry(frame, false);
            let parent = || Parent::Frame(frame);
            let child = self.exec_node(child_state, logical, depth, parent, regime);
            if pushed && !self.pop_back() {
                // Continuation stolen: a thief now runs this frame's
                // remaining children. A child that finished here spends
                // the in-flight token it was spawned under; a detached
                // one will when it lands. Unwind to the steal loop.
                if let Outcome::Done(out) = child {
                    self.deliver(Parent::Frame(frame), out);
                }
                return Outcome::Detached;
            }
            match child {
                // SAFETY: the pop (or the elided push) left the
                // continuation with this worker.
                Outcome::Done(out) => unsafe { frame.cont() }.acc.combine(out),
                Outcome::Detached => {
                    // The child keeps the in-flight token it left under.
                    // SAFETY: holder, as above.
                    unsafe { frame.get() }.join.add_in_flight();
                    shared = true;
                }
            }
        }
        self.sync(frame, shared)
    }

    /// Run a stolen continuation (the slow version): a real task owns its
    /// workspace, so the thief simply resumes its spawn loop under the
    /// fast/check rules.
    fn run_stolen(&mut self, frame: FrameRef<P>) {
        // SAFETY: the claimed extraction made this worker the holder; the
        // borrows end before the frame loop below.
        let (f, cont) = unsafe { (frame.get(), frame.cont()) };
        // Nothing above a stolen continuation is on this stack: if the
        // frame completes at our sync, its total travels by `deliver`.
        let parent = match &cont.parent {
            Parent::Cell(c) => Parent::Cell(Arc::clone(c)),
            Parent::Frame(p) => Parent::Frame(*p),
            Parent::None => unreachable!("stole a scrubbed frame"),
        };
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Idle,
                to: Fs::Slow,
                depth: cont.depth,
            }
        );
        // The victim's child still owns the in-flight token the frame was
        // pushed under; the children spawned from here need their own.
        f.join.add_in_flight();
        let outcome = self.frame_loop(frame, Regime::Fast, true);
        if let Outcome::Done(out) = outcome {
            self.deliver(parent, out);
        }
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Slow,
                to: Fs::Idle,
                depth: 0,
            }
        );
    }

    /// The sequence version: plain recursion, no tasks, no copies, no polls
    /// beyond one cancellation poll per node.
    fn sequence(&mut self, state: &mut P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        if self.cancelled() {
            return P::Out::identity();
        }
        self.stats.fake_tasks += 1;
        tev!(self, Fake, Ev::FakeTask { depth: logical });
        let mut acc = P::Out::identity();
        for c in choices {
            self.problem().apply(state, c);
            self.stats.nodes += 1;
            match self.problem().expand(state, logical + 1) {
                Expansion::Leaf(out) => acc.combine(out),
                Expansion::Children(cs) => acc.combine(self.sequence(state, logical + 1, cs)),
            }
            self.problem().undo(state, c);
        }
        acc
    }

    /// The Cutoff-library sequential region: recursion that still pays a
    /// workspace copy per child (the library cannot know the subtree is
    /// sequential, so taskprivate semantics force the copy).
    fn sequence_copy(&mut self, state: &P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        if self.cancelled() {
            return P::Out::identity();
        }
        self.stats.fake_tasks += 1;
        tev!(self, Fake, Ev::FakeTask { depth: logical });
        let mut acc = P::Out::identity();
        for c in choices {
            let mut child = self.clone_state(state);
            self.problem().apply(&mut child, c);
            self.stats.nodes += 1;
            match self.problem().expand(&child, logical + 1) {
                Expansion::Leaf(out) => acc.combine(out),
                Expansion::Children(cs) => acc.combine(self.sequence_copy(&child, logical + 1, cs)),
            }
            self.recycle(child);
        }
        acc
    }

    /// The check version: fake tasks that poll `need_task` once per node and
    /// transition through a special task when another thread is starving
    /// (Appendix C: the `!need_task` branch recurses into the check version
    /// at every depth).
    fn check(&mut self, state: &mut P::State, logical: u32, choices: Vec<P::Choice>) -> P::Out {
        self.stats.polls += 1;
        if self.cancelled() {
            // The need_task poll doubles as the cancellation poll.
            return P::Out::identity();
        }
        if fsm::after_poll(self.my_signal().needs_task()) == Version::Check {
            self.stats.fake_tasks += 1;
            tev!(self, Fake, Ev::FakeTask { depth: logical });
            let mut acc = P::Out::identity();
            for c in choices {
                self.problem().apply(state, c);
                self.stats.nodes += 1;
                match self.problem().expand(state, logical + 1) {
                    Expansion::Leaf(out) => acc.combine(out),
                    Expansion::Children(cs) => acc.combine(self.check(state, logical + 1, cs)),
                }
                self.problem().undo(state, c);
            }
            acc
        } else {
            tev!(
                self,
                Fsm,
                Ev::Fsm {
                    from: Fs::Check,
                    to: Fs::Special,
                    depth: logical,
                }
            );
            self.special_section(state, logical, choices)
        }
    }

    /// Transition from fake tasks back to tasks: create a special task, run
    /// every child through the fast_2 version with its task depth reset to
    /// 0, and wait for stolen children at the end (`sync_specialtask`) —
    /// stealing meanwhile, as the kernel's [`SpecialWait`] says.
    fn special_section(
        &mut self,
        state: &P::State,
        logical: u32,
        choices: Vec<P::Choice>,
    ) -> P::Out {
        self.stats.special_tasks += 1;
        tev!(self, Special, Ev::SpecialBegin { depth: logical });
        self.my_signal().acknowledge();
        tev!(self, Signal, Ev::NeedTaskAck);
        // The paper's special-task re-entry: the fake task's children run
        // as tasks again in fast_2 with the cut-off doubled and depth 0.
        tev!(
            self,
            Fsm,
            Ev::Fsm {
                from: Fs::Special,
                to: Fs::Fast2,
                depth: logical,
            }
        );
        let waiter = Arc::new(ResultCell::new());
        let special = self.make_frame(
            Parent::Cell(Arc::clone(&waiter)),
            None,
            Vec::new(),
            logical,
            0,
        );
        // The special task's continuation never leaves this worker (thieves
        // take the entry above a special one), so it joins on the stack.
        let mut acc = P::Out::identity();
        let mut shared = false;
        for c in choices {
            if self.cancelled() {
                // Stop spawning special children; the ones already
                // detached arrive at `special` and the sync below still
                // resolves.
                break;
            }
            // A special task's child is a real task: it gets its own clone.
            let mut child = self.clone_state(state);
            self.problem().apply(&mut child, c);
            self.stats.tasks_created += 1;
            tev!(self, Spawn, Ev::Spawn { depth: 0 });
            let pushed = self.push_entry(special, true);
            let parent = || Parent::Frame(special);
            let outcome = self.exec_node(child, logical + 1, 0, parent, Regime::Fast2);
            if pushed {
                match self.my_deque().pop_special() {
                    PopSpecial::Reclaimed(_) => {
                        self.stats.deque_pops += 1;
                        tev!(self, Deque, Ev::SpecialConsume { reclaimed: true });
                    }
                    PopSpecial::ChildStolen => {
                        self.stats.pop_conflicts += 1;
                        tev!(self, Deque, Ev::SpecialConsume { reclaimed: false });
                    }
                }
            }
            match outcome {
                Outcome::Done(out) => acc.combine(out),
                Outcome::Detached => {
                    // SAFETY: holder: the special continuation never
                    // leaves this worker.
                    unsafe { special.get() }.join.add_in_flight();
                    shared = true;
                }
            }
        }
        // sync_specialtask: the special task cannot be suspended — its
        // section stays on this stack until every detached child has
        // arrived, and only then does the fake task resume.
        let joined = if shared {
            // SAFETY: holder, as above, up to this release.
            let total = unsafe { special.get() }.join.release(acc, P::Out::combine);
            if total.is_some() {
                self.retire_frame(special, true);
            }
            total
        } else {
            self.retire_frame(special, false);
            Some(acc)
        };
        if let Some(out) = joined {
            tev!(self, Special, Ev::SpecialEnd);
            return out;
        }
        // Meanwhile the worker steals above the section, unless it already
        // helps at an enclosing special's sync: then it sleeps.
        self.stats.suspensions += 1;
        tev!(self, Sync, Ev::SyncSuspend);
        if self.kernel.special_wait() == SpecialWait::Help {
            self.steal_loop(&waiter, None);
            self.kernel.help_done();
        }
        let t0 = now_if(self.shared.timing);
        let out = waiter.wait();
        lap(&mut self.stats.time.wait_children_ns, t0);
        tev!(self, Sync, Ev::SyncResume);
        tev!(self, Special, Ev::SpecialEnd);
        out
    }

    /// Steal, from the victims the kernel picks, until `until` — the
    /// run's root cell, or the cell of the special task this worker helps
    /// at — holds its result.
    ///
    /// A failed steal backs off only once the victim's `need_task` is up
    /// (the kernel's rule): the first `max_stolen_num + 1` failures against
    /// a victim run back to back, so the flag rises at signal speed. Each
    /// further flagged failure spins `2^k` pause hints after the k-th
    /// (capped at `2^BACKOFF_SPIN_LIMIT`), then yields the CPU. A steal
    /// resets the back-off. Idle time is steal wait, or — while helping —
    /// waiting for children; stolen work is timed as it is anywhere else.
    ///
    /// `abandon` is the job-server joiner hook: a worker that volunteered
    /// into another job's free slot consults it after every *failed* round
    /// and leaves the loop early when it returns `true` (e.g. new jobs are
    /// queued). Abandoning between tasks is safe — at the loop head the
    /// worker's own deque is empty and it holds no frames — and the job
    /// does not depend on the deserter: the lead worker alone always
    /// completes the job. One-shot runs and help loops pass `None` and exit
    /// only once `until` is done.
    fn steal_loop(&mut self, until: &ResultCell<P::Out>, abandon: Option<&dyn Fn() -> bool>) {
        let n = self.shared.slots.deques.len();
        if n == 1 {
            return;
        }
        // A help loop runs exactly while the kernel says the worker helps:
        // stolen work never opens a second one.
        let helps = !std::ptr::eq(until, &*self.shared.root);
        debug_assert_eq!(self.kernel.helping(), helps, "help loops nest");
        let mut idle_since = now_if(self.shared.timing);
        let mut backoff = 0u32;
        while !until.is_done() {
            let victim = self.kernel.victim(self.id, n);
            tev!(
                self,
                Steal,
                Ev::StealAttempt {
                    victim: victim as u32,
                }
            );
            match self.shared.slots.deques[victim].steal() {
                StealOutcome::Stolen(frame) => {
                    self.shared.slots.signals[victim].record_steal_success();
                    self.stats.steals_ok += 1;
                    tev!(
                        self,
                        Steal,
                        Ev::StealOk {
                            victim: victim as u32
                        }
                    );
                    self.kernel.on_steal();
                    backoff = 0;
                    self.lap_idle(idle_since.take());
                    // The slow version: resume the stolen continuation under
                    // fast/check rules.
                    self.run_stolen(frame);
                    debug_assert_eq!(self.kernel.helping(), helps, "help loops nest");
                    idle_since = now_if(self.shared.timing);
                }
                StealOutcome::Empty => {
                    let signal = &self.shared.slots.signals[victim];
                    let raised = signal.record_steal_failure();
                    if raised {
                        tev!(
                            self,
                            Signal,
                            Ev::NeedTaskSignal {
                                victim: victim as u32,
                            }
                        );
                    }
                    self.stats.steals_failed += 1;
                    tev!(
                        self,
                        Steal,
                        Ev::StealEmpty {
                            victim: victim as u32
                        }
                    );
                    let flagged = raised || signal.needs_task();
                    if self.kernel.on_steal_empty(victim, flagged) {
                        if backoff < BACKOFF_SPIN_LIMIT {
                            for _ in 0..(1u32 << backoff) {
                                std::hint::spin_loop();
                            }
                            backoff += 1;
                        } else {
                            std::thread::yield_now();
                        }
                        self.stats.steal_backoffs += 1;
                    }
                    if let Some(quit) = abandon {
                        if quit() {
                            break;
                        }
                    }
                }
            }
        }
        self.lap_idle(idle_since.take());
    }

    /// Add the idle time since `start` to steal wait, or to waiting for
    /// children while helping at a special task's sync.
    fn lap_idle(&mut self, start: Option<Instant>) {
        let time = &mut self.stats.time;
        let field = if self.kernel.helping() {
            &mut time.wait_children_ns
        } else {
            &mut time.steal_wait_ns
        };
        lap(field, start);
    }
}

/// One worker's whole participation in a run: execute the root task when
/// `lead` (slot 0), then steal until the root completes (or `abandon`
/// fires, see [`Worker::steal_loop`]). This is the body both [`run_traced`]
/// workers and `JobServer` participants execute — keeping them the same
/// code path is what makes a single-slot server job bit-identical in
/// counters to a solo single-thread run. `scratch` is the worker's to use
/// for the run and comes back empty (see [`Scratch`]).
pub(crate) fn participate<'s, 'p, P: Problem>(
    shared: &'s Shared<'p, P>,
    slot: usize,
    rng: XorShift64,
    tr: WorkerTracer<'s>,
    lead: bool,
    abandon: Option<&dyn Fn() -> bool>,
    scratch: &mut Scratch<P>,
) -> RunStats {
    let mut w = Worker::new(shared, slot, rng, tr, scratch);
    if lead {
        let root_state = shared.problem.get().root();
        w.stats.tasks_created += 1; // the root task
        tev!(w, Spawn, Ev::Spawn { depth: 0 });
        let parent = || Parent::Cell(Arc::clone(&shared.root));
        let root = w.exec_node(root_state, 0, 0, parent, Regime::Fast);
        if let Outcome::Done(out) = root {
            shared.root.deliver(out);
        }
    }
    w.steal_loop(&shared.root, abandon);
    w.retire(scratch)
}

/// Run `problem` under `mode` with the given configuration.
///
/// Returns the reduced result, a [`RunReport`] with per-worker statistics,
/// and the drained event trace when `cfg.trace` is set (`None` when it is
/// not).
///
/// # Errors
///
/// Returns [`adaptivetc_core::SchedulerError::Config`] for invalid
/// configurations and `WorkerPanicked` if a worker thread panics. Deque
/// overflow is tolerated (the child runs inline, unstealable) and surfaced
/// via `RunStats::deque_overflows`.
pub fn run_traced<P: Problem>(
    problem: &P,
    cfg: &Config,
    mode: Mode,
) -> Result<(P::Out, RunReport, Option<adaptivetc_trace::Trace>), adaptivetc_core::SchedulerError> {
    cfg.validate()?;
    let collector = cfg.trace.then(|| {
        adaptivetc_trace::TraceCollector::with_sample(
            cfg.threads,
            cfg.trace_capacity,
            cfg.trace_sample,
        )
    });
    let threads = cfg.threads;
    let shared = Shared::new(
        ProblemRef::Borrowed(problem),
        cfg,
        mode,
        Slots::new(cfg, threads),
        Arc::new(ResultCell::new()),
        None,
    );

    let start = Instant::now();
    let per_worker = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for (id, rng) in Shared::<P>::seeds(cfg).take(threads).enumerate() {
            let shared = &shared;
            let tr = worker_tracer(collector.as_ref(), id);
            handles.push(s.spawn(move || {
                let scratch = &mut Scratch::default();
                participate(shared, id, rng, tr, id == 0, None, scratch)
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(id, h)| {
                h.join()
                    .map_err(|_| adaptivetc_core::SchedulerError::WorkerPanicked(id))
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let out = shared.root.take();
    let report = RunReport::from_workers(per_worker, wall_ns);
    Ok((out, report, collector.map(|c| c.finish())))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-node problem: the board's frame type needs one.
    struct Leaf;
    impl Problem for Leaf {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(1)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }

    #[test]
    fn settling_a_board_lowers_what_thieves_left_raised() {
        let cfg = Config::new(2).max_stolen_num(1).deque_capacity(4);
        let mut board = Slots::<Leaf>::new(&cfg, 2);
        assert_eq!(board.len(), 2);
        board.signals[1].record_steal_failure();
        assert!(board.signals[1].record_steal_failure(), "raised");
        let carved = board.slabs[1].chunk().as_ptr();
        assert!(board.settle(), "both deques are empty");
        assert!(!board.signals[1].needs_task());
        assert_eq!(board.signals[1].stolen_num(), 0);
        assert_eq!(board.slabs[1].chunk().as_ptr(), carved, "slabs rewound");

        let frame = FrameRef::new(&board.slabs[0].chunk()[0]);
        board.deques[1].push(frame).expect("room for one");
        assert!(!board.settle(), "an entry is left in a deque");
    }
}
