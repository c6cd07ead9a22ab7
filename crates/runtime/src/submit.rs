//! The job-submission kernel: a bounded MPMC priority queue plus the job
//! lifecycle state machine.
//!
//! This file is the model-checked core of the [`crate::server`] frontend.
//! Like the deque protocol sources, it is `#[path]`-included by the
//! `adaptivetc-check` crate, where its `crate::sync` imports resolve to the
//! `shim-sync` model primitives instead of the real ones — so everything
//! here must restrict itself to the facade subset the shim provides
//! (`AtomicBool`/`AtomicU32`/`AtomicU64`, `Mutex`, `Ordering`, `fence`; no
//! `Condvar`, no `AtomicUsize`, no clocks, no OS threads). Sleeping,
//! notification and timing live in `server.rs`, outside the kernel; the
//! decision *whether* anyone has to be notified is made here, by
//! [`ParkGate`] and [`OutcomeGate`].
//!
//! # Submission queue
//!
//! [`SubmitQueue`] is a Vyukov-style bounded MPMC ring: each slot carries a
//! sequence counter that encodes whose turn the slot is on (`seq == pos`:
//! free for the producer of ticket `pos`; `seq == pos + 1`: holds that
//! ticket's payload; `seq == pos + capacity`: recycled for the next lap).
//! Producers and consumers claim tickets with a CAS on the `enq`/`deq`
//! cursor and then publish through the slot's sequence counter, so a
//! half-finished transfer is never observable: a submission is either not
//! yet in the queue or claimable by exactly one consumer. The payload
//! itself travels under a per-slot mutex rather than an `UnsafeCell` —
//! submissions are rare relative to task operations, and the uncontended
//! lock keeps the kernel free of `unsafe`.
//!
//! [`PrioQueue`] stacks three rings (one per [`Priority`]) and pops
//! high-before-normal-before-low.
//!
//! # Job lifecycle
//!
//! ```text
//!            claim (worker)            finish(cancelled=false)
//!   Queued ────────────────► Running ─────────────────────────► Completed
//!      │                        │
//!      │ cancel (client)        │ finish(cancelled=true)
//!      ▼                        ▼
//!   Cancelled               Cancelled
//! ```
//!
//! [`JobLifecycle`] owns the state word. The transitions are all CAS-based
//! and partition the writers: a *worker* claims `Queued → Running` — a pool
//! worker, or a client that popped the job while it waited on another
//! ([`PrioQueue::try_pop_if`]); a *client* cancels `Queued → Cancelled`
//! (the job never runs); only the job's *lead worker* — whoever claimed
//! it — performs the `Running → {Completed, Cancelled}`
//! terminal transition, folding in the [`CancelToken`] it observed at
//! finish time. A cancel that arrives while the job runs therefore only
//! raises the token — the poll points of the engine prune the remaining
//! subtree — and the race against completion is resolved by the single
//! terminal writer: exactly one terminal state, always.
//!
//! # Who has to be woken
//!
//! A wake-up is a system call, and a 49-node job cannot amortise one. Both
//! sleepers of the server therefore announce themselves before they sleep,
//! and both wakers look for an announcement before they notify — two
//! store → fence → load hand-shakes of the Dekker shape, one per pair:
//!
//! ```text
//!   pool worker (ParkGate::announce)      submitter (ParkGate::rouse)
//!     parked += 1                           push the job
//!     fence(SeqCst)                         fence(SeqCst)
//!     queue still empty? ── yes: sleep      parked != 0? ── yes: parked -= 1,
//!                                                            notify
//!
//!   waiter (OutcomeGate::register_waiter) lead (OutcomeGate::publish)
//!     waiter = true                         published = true
//!     fence(SeqCst)                         fence(SeqCst)
//!     published? ── no: sleep               waiter? ── yes: notify
//! ```
//!
//! The fences make it impossible for both sides to read the other's old
//! value, so a sleeper that misses the event is always seen by the waker.
//! The sleeper holds the mutex of its condition variable from before the
//! announcement until the wait releases it, and the waker passes through
//! that mutex before it notifies, so the notification cannot fall between
//! the recheck and the sleep. `adaptivetc-check` models the sleep as a flag
//! the waker must clear (`jobserver_submit.rs`).

use crate::sync::{fence, AtomicBool, AtomicU32, AtomicU64, Mutex, Ordering};
use std::sync::Arc;

/// Scheduling class of a submitted job. Workers drain submission lanes in
/// declared order, so a `High` job is always claimed before a `Normal` one
/// that is also ready (no aging: a flood of high-priority jobs starves
/// lower lanes by design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Claimed before every other lane.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Claimed only when the other lanes are empty.
    Low,
}

impl Priority {
    /// All lanes, in claim order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Lane index (claim order).
    #[inline]
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// Observable state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet claimed by a worker.
    Queued,
    /// A lead worker is executing the job.
    Running,
    /// Terminal: ran to completion; a result is available.
    Completed,
    /// Terminal: cancelled before or during execution; no result.
    Cancelled,
}

impl JobStatus {
    /// Whether the state is terminal (no further transitions).
    #[inline]
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Completed | JobStatus::Cancelled)
    }
}

const QUEUED: u32 = 0;
const RUNNING: u32 = 1;
const COMPLETED: u32 = 2;
const CANCELLED: u32 = 3;

fn decode(state: u32) -> JobStatus {
    match state {
        QUEUED => JobStatus::Queued,
        RUNNING => JobStatus::Running,
        COMPLETED => JobStatus::Completed,
        _ => JobStatus::Cancelled,
    }
}

/// What a cancellation request achieved (see [`JobLifecycle::cancel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and will never run.
    CancelledBeforeRun,
    /// The job is running; the cancel token was raised and the engine's
    /// poll points will prune the remaining work. Whether the terminal
    /// state becomes `Cancelled` or `Completed` is decided by the lead
    /// worker at finish time (the job may complete first).
    Requested,
    /// The job had already reached a terminal state; the request had no
    /// effect.
    AlreadyTerminal,
}

/// The cooperative cancellation flag a running job's workers poll.
///
/// Cheaply cloneable; one clone lives in the job handle, one inside the
/// engine's shared state. Raising the token never blocks and carries no
/// data — it only asks the engine's poll points to prune, so the relaxed
/// read on the hot path is enough (the flag is monotone and eventually
/// visible).
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

// Manual impl: the shim `AtomicBool` this file compiles against in
// `adaptivetc-check` does not implement `Default`.
impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A fresh, unraised token.
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Raise the token (idempotent).
    #[inline]
    pub fn set(&self) {
        // Release (KEPT): publishes everything the canceller wrote before
        // raising the flag; `get` polls Relaxed by design, so this is the
        // pair's only edge. The bounded worker checks the flag but never
        // reads canceller data behind it.
        self.flag.store(true, Ordering::Release);
    }

    /// Whether the token has been raised.
    #[inline]
    pub fn get(&self) -> bool {
        // Relaxed: a pruning hint polled on the engine's hot path — the
        // flag is monotone and eventual visibility suffices, it is not a
        // synchronisation edge (model-checked in `jobserver_submit.rs`).
        self.flag.load(Ordering::Relaxed)
    }
}

/// The job state word and its CAS transitions (see the module docs for the
/// full diagram and the writer partition argument).
#[derive(Debug)]
pub struct JobLifecycle {
    state: AtomicU32,
}

impl Default for JobLifecycle {
    fn default() -> Self {
        Self::new()
    }
}

impl JobLifecycle {
    /// A job in the `Queued` state.
    pub fn new() -> Self {
        JobLifecycle {
            state: AtomicU32::new(QUEUED),
        }
    }

    /// Current state.
    #[inline]
    pub fn status(&self) -> JobStatus {
        // Acquire (KEPT): pairs with `finish`'s release so an observer that
        // sees a terminal state also sees the result published before the
        // transition. The scenarios assert on the status value alone; any
        // real caller that reads job output after Completed needs the edge.
        decode(self.state.load(Ordering::Acquire))
    }

    /// Worker side: claim the job for execution (`Queued → Running`).
    /// `false` means a client cancelled the job first — it must not run.
    pub fn claim(&self) -> bool {
        // AcqRel (KEPT): acquires the submitter's job payload before the
        // worker executes it and releases the claim to racing cancellers.
        // The exploration's worker only asserts on the outcome enum, not
        // the payload, so the missing edge has no witness at this bound.
        // Acquire (KEPT): a failed claim means a client's cancel moved the
        // state; the failure ordering makes that cancel's writes visible
        // before the worker skips the job. Unobservable in the bounded
        // assertions, load-bearing for real callers.
        self.state
            .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Lead-worker side: enter the terminal state (`Running → Completed`
    /// or `Running → Cancelled`, per the cancel token observed at finish).
    /// Returns `false` if the job was not `Running` — which the writer
    /// partition rules out for the lead, so callers treat it as a logic
    /// error.
    pub fn finish(&self, cancelled: bool) -> bool {
        let terminal = if cancelled { CANCELLED } else { COMPLETED };
        // Release (KEPT): publishes the worker's result writes to
        // `status()` observers; the scenarios check state-machine shape,
        // not result payloads, so a Relaxed CAS survives the bound while
        // breaking the result handoff. There is no Acquire half: the last
        // writer of `state` is this worker's own claim, and a cancel of a
        // running job raises the token, not `state`.
        // Acquire (KEPT): failure is a logic error the writer partition
        // rules out; the ordering is kept so a caller that does hit it
        // sees the writes of whoever moved the state. No bounded assertion
        // reads across that edge.
        self.state
            .compare_exchange(RUNNING, terminal, Ordering::Release, Ordering::Acquire)
            .is_ok()
    }

    /// Client side: request cancellation. Queued jobs transition directly
    /// to `Cancelled` (they will never run); running jobs get `token`
    /// raised and keep their state until the lead worker's [`finish`]
    /// resolves the race — exactly one terminal state either way.
    ///
    /// [`finish`]: JobLifecycle::finish
    pub fn cancel(&self, token: &CancelToken) -> CancelOutcome {
        loop {
            // Acquire (KEPT): orders the client after whichever claim or
            // finish moved the state, before it reports Requested or
            // AlreadyTerminal. At the bound nothing dereferences job data
            // after this load; client code that reads the result after
            // AlreadyTerminal does.
            match self.state.load(Ordering::Acquire) {
                QUEUED => {
                    // AcqRel (KEPT): acquires the submitter's payload
                    // writes (the canceller may drop the job) and releases
                    // the cancel decision to a racing `claim`. The bound's
                    // single worker never re-reads payload after a lost
                    // race, so Relaxed survives it — barely.
                    // Acquire (KEPT): on failure the retry's load above
                    // re-reads anyway; kept with it for the same reason.
                    if self
                        .state
                        .compare_exchange(QUEUED, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        token.set();
                        return CancelOutcome::CancelledBeforeRun;
                    }
                    // Lost to a claim or a concurrent cancel; re-read.
                }
                RUNNING => {
                    token.set();
                    return CancelOutcome::Requested;
                }
                _ => return CancelOutcome::AlreadyTerminal,
            }
        }
    }
}

/// The atomics half of the pool's park hand-shake (see the module docs):
/// a count of workers that are asleep, or about to be, and that nobody has
/// notified yet — so that a submitter notifies (a system call) only when
/// the count says someone sleeps, and only once per sleeper.
///
/// The count may run high, never low: a sleeper whose wait ends at the
/// very moment a waker takes it off stays counted, and the next waker's
/// notification, finding nobody, takes the surplus away.
#[derive(Debug)]
pub struct ParkGate {
    parked: AtomicU32,
}

impl Default for ParkGate {
    fn default() -> Self {
        Self::new()
    }
}

impl ParkGate {
    /// A gate with nobody parked.
    pub fn new() -> Self {
        ParkGate {
            parked: AtomicU32::new(0),
        }
    }

    /// Worker side, before sleeping: announce, fence, recheck. `still_idle`
    /// is the recheck (is there really nothing to do?). `true` means sleep
    /// — the worker stays counted until a waker [`rouse`]s it or, its sleep
    /// having timed out, it [`retract`]s; `false` means the recheck found
    /// work and the announcement is already withdrawn. The caller holds
    /// its condition variable's mutex from before this call until the wait
    /// releases it.
    ///
    /// [`rouse`]: ParkGate::rouse
    /// [`retract`]: ParkGate::retract
    pub fn announce(&self, still_idle: impl FnOnce() -> bool) -> bool {
        // Relaxed: the fence below orders the announcement.
        self.parked.fetch_add(1, Ordering::Relaxed);
        // SeqCst (KEPT): the announcement may not pass the recheck's loads;
        // pairs with the fence in `rouse`. x86's locked increment just
        // above already drains the store buffer, which is all the bounded
        // TSO run can see; a weaker machine has only this fence.
        fence(Ordering::SeqCst);
        let idle = still_idle();
        if !idle {
            self.retract();
        }
        idle
    }

    /// Worker side: withdraw an announcement no waker took — the recheck
    /// found work, or the sleep timed out. If a waker did take it in the
    /// meantime the count is already gone, and stays where it is.
    pub fn retract(&self) {
        self.take(false);
    }

    /// Submitter side, *after* the event a parked worker has to see (a
    /// push, a registration, the shutdown flag) is written: take one
    /// counted worker, or all of them, off the count and return how many —
    /// the caller now owes them a notification. Zero means nobody sleeps
    /// and nobody is to be notified.
    pub fn rouse(&self, all: bool) -> u32 {
        // SeqCst (KEPT): the event's stores may not pass the load below;
        // pairs with the fence in `announce`. On x86 the recheck reads a
        // queue cursor the push advanced with a locked CAS, so the bounded
        // TSO run finds the fence idle; a weaker machine, or an event that
        // is a plain store (the shutdown flag), has only this fence.
        fence(Ordering::SeqCst);
        self.take(all)
    }

    /// Take one off the count, or everything, never going below zero.
    fn take(&self, all: bool) -> u32 {
        // Relaxed: the count is ordered against the events it guards by
        // the two fences; among its own writers it needs only atomicity.
        let mut parked = self.parked.load(Ordering::Relaxed);
        while parked != 0 {
            let taken = if all { parked } else { 1 };
            // Relaxed: as above, on success and on failure.
            match self.parked.compare_exchange_weak(
                parked,
                parked - taken,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return taken,
                Err(now) => parked = now,
            }
        }
        0
    }
}

/// The published / waiter pair of a job's outcome cell (see the module
/// docs): the lead notifies only when a waiter has registered, and a
/// waiter sleeps only when the outcome is not published.
#[derive(Debug)]
pub struct OutcomeGate {
    published: AtomicBool,
    waiter: AtomicBool,
}

impl Default for OutcomeGate {
    fn default() -> Self {
        Self::new()
    }
}

impl OutcomeGate {
    /// Nothing published, nobody waiting.
    pub fn new() -> Self {
        OutcomeGate {
            published: AtomicBool::new(false),
            waiter: AtomicBool::new(false),
        }
    }

    /// Lead side, after the outcome is stored: mark it published and
    /// return whether a waiter registered and has to be notified.
    pub fn publish(&self) -> bool {
        // Release (KEPT): publishes the latency stamp written before it to
        // `is_published`'s Acquire. The model's outcome travels under a
        // mutex and it has no stamp, so Relaxed survives the bound.
        self.published.store(true, Ordering::Release);
        // SeqCst: the flag may not pass the waiter load below; pairs with
        // the fence in `register_waiter`.
        fence(Ordering::SeqCst);
        // Relaxed: ordered by the fence.
        self.waiter.load(Ordering::Relaxed)
    }

    /// Whether the outcome has been published.
    #[inline]
    pub fn is_published(&self) -> bool {
        // Acquire (KEPT): pairs with `publish`'s Release, so a reader that
        // sees the flag also sees the latency stamp; see there.
        self.published.load(Ordering::Acquire)
    }

    /// Waiter side: register, then report whether the waiter has to sleep
    /// (`false`: the outcome is already there). The caller holds its
    /// condition variable's mutex from before this call until it sleeps.
    pub fn register_waiter(&self) -> bool {
        // Relaxed: the fence below orders the registration.
        self.waiter.store(true, Ordering::Relaxed);
        // SeqCst: the registration may not pass the recheck; pairs with
        // the fence in `publish`.
        fence(Ordering::SeqCst);
        !self.is_published()
    }
}

/// One slot of the Vyukov ring: the turn counter plus the payload cell.
struct Slot<T> {
    /// `pos` (free for producer `pos`), `pos + 1` (full, for consumer
    /// `pos`), or `pos + capacity` (recycled for the next lap).
    seq: AtomicU64,
    item: Mutex<Option<T>>,
}

/// A bounded multi-producer multi-consumer FIFO ring (Vyukov's algorithm,
/// with mutexed payload cells — see the module docs).
pub struct SubmitQueue<T> {
    slots: Box<[Slot<T>]>,
    enq: AtomicU64,
    deq: AtomicU64,
}

impl<T> SubmitQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// `capacity` is clamped to at least 2: with a single slot the "full
    /// for consumer of ticket 0" and "recycled for producer of ticket 1"
    /// sequence values coincide (`seq == 1` both ways), so a second push
    /// would overwrite the first payload instead of reporting full.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        SubmitQueue {
            slots: (0..capacity)
                .map(|i| Slot {
                    seq: AtomicU64::new(i as u64),
                    item: Mutex::new(None),
                })
                .collect(),
            enq: AtomicU64::new(0),
            deq: AtomicU64::new(0),
        }
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate occupancy (torn cursor pairs are acceptable: the value
    /// is advisory, for `ServerStats` and parking heuristics).
    pub fn len(&self) -> usize {
        // Relaxed: an advisory estimate from torn cursor reads.
        let enq = self.enq.load(Ordering::Relaxed);
        let deq = self.deq.load(Ordering::Relaxed);
        enq.saturating_sub(deq) as usize
    }

    /// Whether the queue currently appears empty (advisory, as [`len`]).
    ///
    /// [`len`]: SubmitQueue::len
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueue `value`, or give it back if the queue is full. A `Full`
    /// verdict is conservative: a consumer that has claimed a ticket but
    /// not yet recycled the slot makes the queue momentarily report full
    /// one lap early — acceptable for admission control.
    pub fn try_push(&self, value: T) -> Result<(), T> {
        let cap = self.slots.len() as u64;
        loop {
            // Relaxed: the slot's Acquire sequence load below is what orders
            // this producer against the slot's last user, not the cursor.
            let pos = self.enq.load(Ordering::Relaxed);
            let slot = &self.slots[(pos % cap) as usize];
            // Acquire (KEPT): pairs with the consumer's Release hand-back
            // before the slot is overwritten (Vyukov ring). With one
            // producer and one consumer inside the bound the enq CAS
            // supplies the order; multi-producer laps do not.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Our turn; claim the ticket. Relaxed: the ticket CAS only
                // arbitrates producers — the payload is published by the
                // Release sequence store below, not by the cursor.
                if self
                    .enq
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    *slot.item.lock() = Some(value);
                    // Release (KEPT): publishes the payload to the
                    // consumer's Acquire sequence load. The race detector
                    // misses it at the bound because the lone consumer
                    // also syncs on the deq CAS; a second consumer removes
                    // that crutch.
                    slot.seq.store(pos + 1, Ordering::Release);
                    return Ok(());
                }
            } else if seq < pos {
                // The slot still holds last lap's payload: full.
                return Err(value);
            }
            // seq > pos: another producer advanced the cursor; retry.
        }
    }

    /// Dequeue the oldest item, or `None` if the queue is empty (possibly
    /// transiently: a producer that has claimed a ticket but not yet
    /// published makes its item invisible until the publish lands).
    pub fn try_pop(&self) -> Option<T> {
        self.pop(None::<fn(&T) -> bool>)
    }

    /// As [`try_pop`](SubmitQueue::try_pop), but only if `take` accepts the
    /// oldest item; a refused item stays where it is, at the head. `take`
    /// reads the item under its cell's lock before the ticket is claimed,
    /// so the item it accepted is the one the claim takes. A refusal may be
    /// of an item another consumer is just taking — as conservative as an
    /// empty verdict.
    pub fn try_pop_if(&self, take: impl Fn(&T) -> bool) -> Option<T> {
        self.pop(Some(take))
    }

    fn pop(&self, take: Option<impl Fn(&T) -> bool>) -> Option<T> {
        let cap = self.slots.len() as u64;
        loop {
            // Relaxed: the cursor only arbitrates, as in `try_push`.
            let pos = self.deq.load(Ordering::Relaxed);
            let slot = &self.slots[(pos % cap) as usize];
            // Acquire (KEPT): pairs with the producer's Release publish,
            // making the payload write visible before the take below. The
            // 1p1c bounded run orders the pair through the deq-counter
            // CAS; multiple producers lapping the ring rely on the seq
            // edge alone.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                // An empty cell was taken under a claimed ticket: the CAS
                // below fails and the loop looks again.
                if let Some(take) = &take {
                    if !slot.item.lock().as_ref().is_none_or(take) {
                        return None;
                    }
                }
                // Relaxed: the ticket CAS only arbitrates consumers, as in
                // `try_push`.
                if self
                    .deq
                    .compare_exchange_weak(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    let value = slot.item.lock().take();
                    debug_assert!(value.is_some(), "claimed ticket found an empty slot");
                    // Release (KEPT): hands the emptied slot to the producer
                    // one lap ahead, ordering our take before its store;
                    // Relaxed lets it overwrite an element still being
                    // moved out. Needs a wrap-around (cap + 1 operations
                    // per slot) under contention — outside the bounded
                    // window.
                    slot.seq.store(pos + cap, Ordering::Release);
                    return value;
                }
            } else if seq <= pos {
                return None;
            }
            // seq > pos + 1: another consumer advanced the cursor; retry.
        }
    }
}

/// Three [`SubmitQueue`] lanes popped in [`Priority`] order.
pub struct PrioQueue<T> {
    lanes: [SubmitQueue<T>; 3],
}

impl<T> PrioQueue<T> {
    /// Build with `capacity` slots **per lane**.
    pub fn with_capacity(capacity: usize) -> Self {
        PrioQueue {
            lanes: [
                SubmitQueue::with_capacity(capacity),
                SubmitQueue::with_capacity(capacity),
                SubmitQueue::with_capacity(capacity),
            ],
        }
    }

    /// Enqueue into the lane for `priority`; gives the value back when
    /// that lane is full.
    pub fn try_push(&self, priority: Priority, value: T) -> Result<(), T> {
        self.lanes[priority.lane()].try_push(value)
    }

    /// Dequeue from the highest-priority non-empty lane.
    pub fn try_pop(&self) -> Option<(Priority, T)> {
        for p in Priority::ALL {
            if let Some(v) = self.lanes[p.lane()].try_pop() {
                return Some((p, v));
            }
        }
        None
    }

    /// Dequeue from the highest-priority lane that looks non-empty, if
    /// `take` accepts its oldest item. A refused item blocks the lanes
    /// below it, so nothing is claimed out of priority order.
    pub fn try_pop_if(&self, take: impl Fn(&T) -> bool) -> Option<(Priority, T)> {
        let p = Priority::ALL
            .into_iter()
            .find(|p| !self.lanes[p.lane()].is_empty())?;
        self.lanes[p.lane()].try_pop_if(take).map(|v| (p, v))
    }

    /// Approximate total occupancy across lanes (advisory).
    pub fn len(&self) -> usize {
        self.lanes.iter().map(SubmitQueue::len).sum()
    }

    /// Whether every lane currently appears empty (advisory).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo_within_a_lane() {
        let q = SubmitQueue::with_capacity(4);
        for i in 0..4 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.try_push(99), Err(99), "full queue must reject");
        for i in 0..4 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
        // Wrap around a second lap.
        q.try_push(10).unwrap();
        assert_eq!(q.try_pop(), Some(10));
    }

    #[test]
    fn one_slot_request_is_clamped_to_two() {
        // A true one-slot ring would let a second push overwrite the
        // first payload (see `with_capacity`); the clamp keeps FIFO.
        let q = SubmitQueue::with_capacity(1);
        assert_eq!(q.capacity(), 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(3), "clamped ring still bounds");
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn priority_lanes_pop_high_first() {
        let q = PrioQueue::with_capacity(2);
        q.try_push(Priority::Low, 3).unwrap();
        q.try_push(Priority::Normal, 2).unwrap();
        q.try_push(Priority::High, 1).unwrap();
        assert_eq!(q.try_pop(), Some((Priority::High, 1)));
        assert_eq!(q.try_pop(), Some((Priority::Normal, 2)));
        assert_eq!(q.try_pop(), Some((Priority::Low, 3)));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn a_refused_head_stays_and_blocks_lower_lanes() {
        let q = PrioQueue::with_capacity(2);
        q.try_push(Priority::Normal, 2).unwrap();
        q.try_push(Priority::Normal, 3).unwrap();
        q.try_push(Priority::Low, 1).unwrap();
        let odd = |v: &u32| v % 2 == 1;
        assert_eq!(q.try_pop_if(odd), None, "the head 2 is refused");
        assert_eq!(q.try_pop(), Some((Priority::Normal, 2)));
        assert_eq!(q.try_pop_if(odd), Some((Priority::Normal, 3)));
        assert_eq!(q.try_pop_if(odd), Some((Priority::Low, 1)));
        assert_eq!(q.try_pop_if(odd), None);
    }

    #[test]
    fn lifecycle_claim_then_finish() {
        let l = JobLifecycle::new();
        assert_eq!(l.status(), JobStatus::Queued);
        assert!(l.claim());
        assert!(!l.claim(), "double claim must fail");
        assert_eq!(l.status(), JobStatus::Running);
        assert!(l.finish(false));
        assert_eq!(l.status(), JobStatus::Completed);
        assert!(!l.finish(true), "terminal states are final");
    }

    #[test]
    fn cancel_before_claim_wins() {
        let l = JobLifecycle::new();
        let t = CancelToken::new();
        assert_eq!(l.cancel(&t), CancelOutcome::CancelledBeforeRun);
        assert!(t.get());
        assert!(!l.claim(), "a cancelled job must not run");
        assert_eq!(l.status(), JobStatus::Cancelled);
        assert_eq!(l.cancel(&t), CancelOutcome::AlreadyTerminal);
    }

    #[test]
    fn cancel_while_running_raises_the_token() {
        let l = JobLifecycle::new();
        let t = CancelToken::new();
        assert!(l.claim());
        assert_eq!(l.cancel(&t), CancelOutcome::Requested);
        assert!(t.get());
        assert_eq!(
            l.status(),
            JobStatus::Running,
            "state unchanged until finish"
        );
        assert!(l.finish(t.get()));
        assert_eq!(l.status(), JobStatus::Cancelled);
    }

    #[test]
    fn queue_many_producers_consumers_native() {
        // Native smoke over the MPMC ring; the exhaustive interleaving
        // coverage lives in adaptivetc-check's jobserver_submit suite.
        let q = std::sync::Arc::new(SubmitQueue::with_capacity(8));
        let mut produced = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..4u32 {
                let q = std::sync::Arc::clone(&q);
                handles.push(s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..100u32 {
                        let v = t * 1000 + i;
                        let mut item = v;
                        loop {
                            match q.try_push(item) {
                                Ok(()) => break,
                                Err(back) => item = back,
                            }
                            if let Some(x) = q.try_pop() {
                                got.push(x);
                            }
                        }
                    }
                    got
                }));
            }
            for h in handles {
                produced.extend(h.join().unwrap());
            }
        });
        while let Some(x) = q.try_pop() {
            produced.push(x);
        }
        produced.sort_unstable();
        let mut expected: Vec<u32> = (0..4u32)
            .flat_map(|t| (0..100u32).map(move |i| t * 1000 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(produced, expected, "every push popped exactly once");
    }
}
