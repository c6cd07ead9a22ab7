//! The sleeping half of the job server's two wake hand-shakes.
//!
//! `runtime/src/submit.rs` is `#[path]`-included into this crate, so the
//! [`ParkGate`] and [`OutcomeGate`] below are the product sources compiled
//! against the model primitives. Around them this module rebuilds,
//! statement for statement, what the runtime does with a mutex and a
//! condition variable — `server.rs`'s `worker_loop` park, `ServerCtx::wake`
//! and a team's registration and drain, and `frame.rs`'s
//! `ResultCell::deliver` and `ResultCell::wait`, the one hand-off a job's
//! outcome, a run's root, a special task's sync and a team's drain all go
//! through.
//!
//! shim-sync has no `Condvar`, so a sleep is a flag. A sleeper raises its
//! `asleep` flag as the last thing it does under the mutex it would hand
//! to `Condvar::wait`, and its model thread ends there. A notification
//! lowers the flag of a sleeper — the waker having passed through that
//! mutex first, as in the product — and spawns the sleeper's continuation
//! as a new model thread, so what a woken worker does next races whatever
//! the rest of the system is doing. The product's sleeps have no timeout;
//! a sleep ends without a notification only where a scenario says so — a
//! spurious wake-up, which a condition variable may deliver: the worker
//! goes round its loop again, still counted, and withdraws nothing. A flag
//! still raised when every thread has finished belongs to a sleeper nobody
//! woke.

use crate::submit::{OutcomeGate, ParkGate, SubmitQueue};
use crate::sync::{AtomicBool, AtomicU32, Mutex, Ordering};
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
    /// `ServerCtx::registrations`, and the teams in `active`.
    registrations: AtomicU32,
    teams: Mutex<u32>,
    /// Whether the recheck also asks if `registrations` moved since the
    /// scan (the product), or only reads the queue (the seeded bug).
    count_recheck: bool,
    /// The teams each worker has seen in its scan. A host mutex.
    scanned: std::sync::Mutex<Vec<u32>>,
    /// Jobs led, by anyone. A host mutex: never held across a yield point.
    led: std::sync::Mutex<Vec<u32>>,
    /// Continuations of woken workers, joined by [`Pool::quiesce`].
    woken: std::sync::Mutex<Vec<shim_sync::thread::JoinHandle<()>>>,
}

impl Pool {
    /// A pool of `workers` workers, none started.
    pub fn new(workers: usize, recheck: bool, count_recheck: bool) -> Arc<Pool> {
        Arc::new(Pool {
            queue: SubmitQueue::with_capacity(2),
            gate: ParkGate::new(),
            park: Mutex::new(()),
            pushing: Mutex::new(()),
            asleep: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            recheck,
            registrations: AtomicU32::new(0),
            teams: Mutex::new(0),
            count_recheck,
            scanned: std::sync::Mutex::new(vec![0; workers]),
            led: std::sync::Mutex::new(Vec::new()),
            woken: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// `worker_loop`: lead what is queued, join a team registered since the
    /// last scan, then park. Returns when the worker sleeps.
    pub fn work(self: &Arc<Self>, me: usize) {
        loop {
            if let Some(job) = self.queue.try_pop() {
                self.led.lock().unwrap().push(job);
                continue;
            }
            let seen = self.registrations.load(Ordering::Relaxed);
            let teams = *self.teams.lock();
            if teams > self.scanned.lock().unwrap()[me] {
                self.scanned.lock().unwrap()[me] = teams;
                continue;
            }
            let g = self.park.lock();
            if self.gate.announce(|| {
                (!self.recheck || self.queue.is_empty())
                    && (!self.count_recheck || self.registrations.load(Ordering::Relaxed) == seen)
            }) {
                // `Condvar::wait`: asleep, and the mutex released.
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
        let _ = (0..self.asleep.len()).any(|me| self.end_sleep(me));
    }

    /// `lead_team` under work sharing: register a team in `active`, bump
    /// the count, then `ServerCtx::wake(true)`.
    pub fn register(self: &Arc<Self>) {
        *self.teams.lock() += 1;
        self.registrations.fetch_add(1, Ordering::Relaxed);
        if self.gate.rouse(true) == 0 {
            return;
        }
        drop(self.park.lock());
        // `notify_all`.
        for me in 0..self.asleep.len() {
            self.end_sleep(me);
        }
    }

    /// Worker `me`'s condition variable wakes it spuriously, if it sleeps.
    pub fn wake_spuriously(self: &Arc<Self>, me: usize) {
        self.end_sleep(me);
    }

    /// End the sleep of worker `me`, if it sleeps — a sleep ends once, by
    /// a notification or spuriously — and let the worker go on, as a model
    /// thread of its own. Returns whether it slept.
    fn end_sleep(self: &Arc<Self>, me: usize) -> bool {
        let slept = self.asleep[me].swap(false, Ordering::Relaxed);
        if slept {
            let pool = Arc::clone(self);
            let woken = shim_sync::thread::spawn(move || {
                // Back from `wait` with the mutex re-acquired, counted or
                // not, then round the loop again.
                drop(pool.park.lock());
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
/// concurrently running workers — with `spurious`, beside a thread that
/// wakes each worker's sleep once, whenever, with no notification — and
/// every job must have been led once everything is quiet: none stays
/// queued while every worker sleeps with no wake pending.
pub fn pool_never_strands_a_job(workers: usize, submissions: u32, recheck: bool, spurious: bool) {
    let pool = Pool::new(workers, recheck, true);
    let mut running: Vec<_> = (0..workers)
        .map(|me| {
            let pool = Arc::clone(&pool);
            shim_sync::thread::spawn(move || pool.work(me))
        })
        .collect();
    if spurious {
        let pool = Arc::clone(&pool);
        running.push(shim_sync::thread::spawn(move || {
            for me in 0..workers {
                pool.wake_spuriously(me);
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

/// A team registered while a worker scans, announces and parks: once
/// everything is quiet the worker has seen the team in a scan, so it never
/// sleeps through a registration. `count_recheck` off is the seeded bug: a
/// recheck that reads only the queue sleeps through a team registered
/// between the scan and the announcement.
pub fn pool_never_sleeps_through_a_registration(count_recheck: bool) {
    let pool = Pool::new(1, true, count_recheck);
    let worker = {
        let pool = Arc::clone(&pool);
        shim_sync::thread::spawn(move || pool.work(0))
    };
    pool.register();
    worker.join().unwrap();
    pool.quiesce();
    assert_eq!(
        pool.scanned.lock().unwrap()[0],
        1,
        "a worker slept through a team registration"
    );
}

/// A team's participant count and `drained` cell: `server.rs`'s
/// `Team::try_join` entry and exit, and `lead_team`'s drain.
struct Team {
    participants: AtomicU32,
    /// `ResultCell<()>`: the slot, the gate, and the lead's sleep.
    slot: Mutex<Option<()>>,
    gate: OutcomeGate,
    asleep: AtomicBool,
    /// The participants' merged stats (`Team::stats`): one per merge.
    merged: Mutex<u32>,
    /// Enter only while the count is not zero (the product), or with a
    /// plain increment (the seeded bug).
    cas_entry: bool,
    /// Joiners that entered, and what the lead collected. Host mutexes.
    entered: std::sync::Mutex<u32>,
    collected: std::sync::Mutex<Option<u32>>,
    woken: std::sync::Mutex<Vec<shim_sync::thread::JoinHandle<()>>>,
}

impl Team {
    /// `try_join` after its slot claim: enter, merge, leave; the last one
    /// out delivers `drained`.
    fn join(self: &Arc<Self>) {
        if self.cas_entry {
            // `fetch_update`, unrolled: increment only while not zero.
            let mut n = self.participants.load(Ordering::Relaxed);
            loop {
                if n == 0 {
                    return;
                }
                match self.participants.compare_exchange(
                    n,
                    n + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => n = now,
                }
            }
        } else {
            self.participants.fetch_add(1, Ordering::Relaxed);
        }
        *self.entered.lock().unwrap() += 1;
        *self.merged.lock() += 1;
        if self.participants.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.deliver();
        }
    }

    /// `ResultCell::deliver`.
    fn deliver(self: &Arc<Self>) {
        assert!(!self.gate.is_published(), "the team drained twice");
        *self.slot.lock() = Some(());
        if self.gate.publish() {
            drop(self.slot.lock());
            // `notify_all`: the lead's wait goes on, as a thread of its own.
            if self.asleep.swap(false, Ordering::Relaxed) {
                let team = Arc::clone(self);
                let woken = shim_sync::thread::spawn(move || {
                    let taken = team.slot.lock().take();
                    assert!(taken.is_some(), "the lead woke to an empty cell");
                    team.collect();
                });
                self.woken.lock().unwrap().push(woken);
            }
        }
    }

    /// `lead_team` after slot 0: leave, wait for `drained` unless this
    /// took the count to zero, then collect.
    fn lead(self: &Arc<Self>) {
        if self.participants.fetch_sub(1, Ordering::AcqRel) != 1 {
            // `ResultCell::wait`.
            let mut g = self.slot.lock();
            if !self.gate.is_published() && self.gate.register_waiter() {
                self.asleep.store(true, Ordering::Relaxed);
                return;
            }
            assert!(g.take().is_some(), "the lead found an empty cell");
        }
        self.collect();
    }

    fn collect(&self) {
        *self.collected.lock().unwrap() = Some(*self.merged.lock());
    }
}

/// A lead leaves its team while `joiners` joiners try to enter it: the
/// lead collects exactly once, after every joiner that entered merged, and
/// does not sleep through the drain. `cas_entry` off is the seeded bug: a
/// plain increment lets a joiner enter after the count reached zero, and
/// merge after the lead collected.
pub fn team_drains_once(joiners: usize, cas_entry: bool) {
    let team = Arc::new(Team {
        participants: AtomicU32::new(1),
        slot: Mutex::new(None),
        gate: OutcomeGate::new(),
        asleep: AtomicBool::new(false),
        merged: Mutex::new(0),
        cas_entry,
        entered: std::sync::Mutex::new(0),
        collected: std::sync::Mutex::new(None),
        woken: std::sync::Mutex::new(Vec::new()),
    });
    let running: Vec<_> = (0..joiners)
        .map(|_| {
            let team = Arc::clone(&team);
            shim_sync::thread::spawn(move || team.join())
        })
        .collect();
    team.lead();
    for j in running {
        j.join().unwrap();
    }
    loop {
        let Some(woken) = team.woken.lock().unwrap().pop() else {
            break;
        };
        woken.join().unwrap();
    }
    assert!(
        !team.asleep.load(Ordering::Relaxed),
        "the lead slept through its team's drain"
    );
    let entered = *team.entered.lock().unwrap();
    assert_eq!(
        *team.collected.lock().unwrap(),
        Some(entered),
        "the lead collected before every joiner that entered had merged"
    );
}
