//! The sleeping half of the job server's two wake hand-shakes.
//!
//! `runtime/src/submit.rs` is `#[path]`-included into this crate, so the
//! [`ParkGate`] and [`OutcomeGate`] below are the product sources compiled
//! against the model primitives. Around them this module rebuilds,
//! statement for statement, what the runtime does with a mutex and a
//! condition variable — `server.rs`'s `worker_loop` park and
//! `ServerCtx::wake`, and `frame.rs`'s `ResultCell::deliver` and
//! `ResultCell::wait`, the one hand-off a job's outcome, a run's root and
//! a special task's sync all go through.
//!
//! shim-sync has no `Condvar`, so a sleep is a flag. A sleeper raises its
//! `asleep` flag as the last thing it does under the mutex it would hand
//! to `Condvar::wait_for`, and its model thread ends there. A notification
//! lowers the flag of a sleeper — the waker having passed through that
//! mutex first, as in the product — and spawns the sleeper's continuation
//! as a new model thread, so what a woken worker does next races whatever
//! the rest of the system is doing. A sleep times out only where a
//! scenario says so: the product's 1 ms backstop is not part of the
//! protocol, and the model proves the protocol does not need it. A flag
//! still raised when every thread has finished belongs to a sleeper nobody
//! woke.

use crate::submit::{OutcomeGate, ParkGate, SubmitQueue};
use crate::sync::{AtomicBool, Mutex, Ordering};
use std::sync::Arc;

/// A pool of model workers around one submission lane.
pub struct Pool {
    queue: SubmitQueue<u32>,
    gate: ParkGate,
    park: Mutex<()>,
    /// Held by the submitter across its push. A worker whose pop failed
    /// although the lane is not empty — a ticket claimed, the payload not
    /// yet published — would spin until the push lands; the explorer has
    /// no notion of a spin that ends, so the model worker blocks here
    /// instead, which ends at exactly the same moment.
    pushing: Mutex<()>,
    asleep: Vec<AtomicBool>,
    /// With the recheck between announcement and sleep (the product), or
    /// without it (the seeded bug).
    recheck: bool,
    /// Jobs led, by anyone. A host mutex: never held across a yield point.
    led: std::sync::Mutex<Vec<u32>>,
    /// Continuations of woken workers, joined by [`Pool::quiesce`].
    woken: std::sync::Mutex<Vec<shim_sync::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A pool of `workers` workers, none started.
    pub fn new(workers: usize, recheck: bool) -> Arc<Pool> {
        Arc::new(Pool {
            queue: SubmitQueue::with_capacity(2),
            gate: ParkGate::new(),
            park: Mutex::new(()),
            pushing: Mutex::new(()),
            asleep: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            recheck,
            led: std::sync::Mutex::new(Vec::new()),
            woken: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// `worker_loop`: lead what is queued, then park. Returns when the
    /// worker sleeps.
    pub fn work(self: &Arc<Self>, me: usize) {
        loop {
            if let Some(job) = self.queue.try_pop() {
                self.led.lock().unwrap().push(job);
                continue;
            }
            let g = self.park.lock();
            if self
                .gate
                .announce(|| !self.recheck || self.queue.is_empty())
            {
                // `Condvar::wait_for`: asleep, and the mutex released.
                self.asleep[me].store(true, Ordering::Relaxed);
                return;
            }
            drop(g);
            drop(self.pushing.lock());
        }
    }

    /// `JobServer::submit`: push, then `ServerCtx::wake(false)`.
    pub fn submit(self: &Arc<Self>, job: u32) {
        {
            let _g = self.pushing.lock();
            assert!(self.queue.try_push(job).is_ok(), "the model lane is full");
        }
        if self.gate.rouse(false) == 0 {
            return;
        }
        drop(self.park.lock());
        // `notify_one` wakes one thread that sleeps on the condition
        // variable, if one does.
        let _ = (0..self.asleep.len()).any(|me| self.end_sleep(me, false));
    }

    /// `wait_for` ran out for worker `me`, if it sleeps.
    pub fn time_out(self: &Arc<Self>, me: usize) {
        self.end_sleep(me, true);
    }

    /// End the sleep of worker `me`, if it sleeps — a sleep ends once, by
    /// a notification or by its timeout — and let the worker go on, as a
    /// model thread of its own. Returns whether it slept.
    fn end_sleep(self: &Arc<Self>, me: usize, timed_out: bool) -> bool {
        let slept = self.asleep[me].swap(false, Ordering::Relaxed);
        if slept {
            let pool = Arc::clone(self);
            let woken = shim_sync::thread::spawn(move || {
                // Back from `wait_for` with the mutex re-acquired; a
                // notified worker was taken off the count by its waker,
                // one that timed out withdraws itself. Then round the
                // loop again.
                let g = pool.park.lock();
                if timed_out {
                    pool.gate.retract();
                }
                drop(g);
                pool.work(me);
            });
            self.woken.lock().unwrap().push(woken);
        }
        slept
    }

    /// Join every continuation (they may wake further ones), then return
    /// the jobs led, sorted, and the jobs still queued.
    pub fn quiesce(&self) -> (Vec<u32>, usize) {
        loop {
            let Some(woken) = self.woken.lock().unwrap().pop() else {
                break;
            };
            woken.join().unwrap();
        }
        let mut led = self.led.lock().unwrap().clone();
        led.sort_unstable();
        (led, self.queue.len())
    }
}

/// `submissions` jobs from the calling thread into a pool of `workers`
/// concurrently running workers — with `timeouts`, beside a timer that
/// ends each worker's sleep once, whenever — and every job must have been
/// led once everything is quiet: none stays queued while every worker
/// sleeps with no wake pending.
pub fn pool_never_strands_a_job(workers: usize, submissions: u32, recheck: bool, timeouts: bool) {
    let pool = Pool::new(workers, recheck);
    let mut running: Vec<_> = (0..workers)
        .map(|me| {
            let pool = Arc::clone(&pool);
            shim_sync::thread::spawn(move || pool.work(me))
        })
        .collect();
    if timeouts {
        let pool = Arc::clone(&pool);
        running.push(shim_sync::thread::spawn(move || {
            for me in 0..workers {
                pool.time_out(me);
            }
        }));
    }
    for job in 1..=submissions {
        pool.submit(job);
    }
    for w in running {
        w.join().unwrap();
    }
    let (led, queued) = pool.quiesce();
    assert_eq!(
        queued, 0,
        "a job stayed queued while every worker slept with no wake pending (led {led:?})"
    );
    assert_eq!(
        led,
        (1..=submissions).collect::<Vec<_>>(),
        "a job was led twice or never"
    );
}

/// One result cell: the lead delivers while the client waits.
/// A waiter that registered must have been notified, and the outcome must
/// be there for it, by the time both are done.
pub fn registered_waiter_is_notified() {
    struct Cell {
        outcome: Mutex<Option<u32>>,
        gate: OutcomeGate,
        asleep: AtomicBool,
    }
    let cell = Arc::new(Cell {
        outcome: Mutex::new(None),
        gate: OutcomeGate::new(),
        asleep: AtomicBool::new(false),
    });
    // `ResultCell::wait`.
    let waiter = {
        let cell = Arc::clone(&cell);
        shim_sync::thread::spawn(move || {
            let mut g = cell.outcome.lock();
            if !cell.gate.is_published() && cell.gate.register_waiter() {
                // `Condvar::wait`: asleep, and the mutex released.
                cell.asleep.store(true, Ordering::Relaxed);
                None
            } else {
                g.take()
            }
        })
    };
    // `ResultCell::deliver`, on the thread that goes on running afterwards
    // (the lead returns to its loop): nothing drains its store buffer for
    // it the moment it has published.
    *cell.outcome.lock() = Some(7);
    if cell.gate.publish() {
        drop(cell.outcome.lock());
        // `notify_all`.
        cell.asleep.store(false, Ordering::Relaxed);
    }
    match waiter.join().unwrap() {
        Some(v) => assert_eq!(v, 7, "the waiter took something never published"),
        None => {
            assert!(
                !cell.asleep.load(Ordering::Relaxed),
                "a waiter registered, slept, and was never notified"
            );
            assert_eq!(
                cell.outcome.lock().take(),
                Some(7),
                "the woken waiter found no outcome"
            );
        }
    }
}
