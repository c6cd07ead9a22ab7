//! Bounded model checking of the job-server submission kernel
//! (`runtime/src/submit.rs`, `#[path]`-included by `adaptivetc_check`).
//!
//! The suite covers the three protocol obligations of the kernel,
//! exhaustively at 2 workers × 2 jobs under a preemption bound:
//!
//! * **no lost submission** — concurrent producers into the Vyukov ring
//!   never drop or duplicate a payload;
//! * **no double claim** — concurrent consumers deliver every queued job
//!   to exactly one worker, and `JobLifecycle::claim` admits exactly one
//!   claimer;
//! * **cancel vs. complete** — a client cancel racing a worker resolves
//!   to exactly one terminal state, never runs a cancelled-before-claim
//!   job, and the race window (cancel landing between `claim` and the
//!   token read at finish) is pinned with a replayable schedule — also
//!   when the second claimant is the cancelling client itself, leading
//!   queued jobs while it waits (`JobHandle::wait`), which never takes a
//!   multi-slot job from the head of the queue;
//! * **nobody sleeps through an event** — under the miniature server of
//!   `park_model` (sleeps are flags a waker must clear, and nothing times
//!   out; a sleep may end spuriously): no job stays queued while every
//!   worker sleeps with no wake pending, no worker sleeps through a team
//!   registration, a team's lead collects once, after every joiner that
//!   entered, and a waiter that registered is always notified. A seeded
//!   worker that sleeps without rechecking the queue is caught, with a
//!   trail that replays to the same stranded job; so are a recheck that
//!   ignores the registration count and a team entry that can rise from
//!   zero.

use adaptivetc_check::submit::{
    CancelOutcome, CancelToken, JobLifecycle, JobStatus, PrioQueue, Priority, SubmitQueue,
};
use adaptivetc_check::sync::{AtomicBool, Ordering};
use adaptivetc_check::{current_trail, explore, park_model, replay, Config};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// One job as the model sees it: the lifecycle word, the cancel token,
/// and a flag recording whether the "job body" ever executed.
struct ModelJob {
    life: JobLifecycle,
    token: CancelToken,
    ran: AtomicBool,
}

impl ModelJob {
    fn new() -> Self {
        ModelJob {
            life: JobLifecycle::new(),
            token: CancelToken::new(),
            ran: AtomicBool::new(false),
        }
    }
}

/// Lead a delivered job: claim it, run it (observing the cancel token
/// exactly like the engine's poll points + lead finish), and enter the
/// terminal state.
fn lead(j: &ModelJob) {
    if j.life.claim() {
        j.ran.store(true, Ordering::Relaxed);
        let cancelled = j.token.get();
        assert!(j.life.finish(cancelled), "lead finish must succeed");
    } else {
        // A claim can only lose to a client cancel, and the loser job must
        // never have run.
        assert_eq!(j.life.status(), JobStatus::Cancelled);
        assert!(!j.ran.load(Ordering::Relaxed), "cancelled job ran");
    }
}

/// A worker: drain the queue and lead each delivered job. Returns the
/// indices it popped.
fn drain(q: &SubmitQueue<usize>, jobs: &[ModelJob; 2]) -> Vec<usize> {
    let mut popped = Vec::new();
    while let Some(i) = q.try_pop() {
        popped.push(i);
        lead(&jobs[i]);
    }
    popped
}

/// A client waiting on job `mine` (`JobHandle::wait`, before it sleeps):
/// lead what `take` accepts from the head of the queue until its own job is
/// terminal, the queue is empty or the head is refused. Returns the indices
/// it popped.
fn help(
    q: &SubmitQueue<usize>,
    jobs: &[ModelJob; 2],
    mine: usize,
    take: impl Fn(&usize) -> bool,
) -> Vec<usize> {
    let mut popped = Vec::new();
    while !jobs[mine].life.status().is_terminal() {
        let Some(i) = q.try_pop_if(&take) else {
            break;
        };
        popped.push(i);
        lead(&jobs[i]);
    }
    popped
}

/// No lost submission: two concurrent producers into a two-slot ring both
/// land, and a drain recovers exactly their payloads.
#[test]
fn concurrent_submitters_never_lose_a_submission() {
    let report = explore(Config::with_preemption_bound(2), || {
        let q = Arc::new(SubmitQueue::<u32>::with_capacity(2));
        let t = {
            let q = Arc::clone(&q);
            shim_sync::thread::spawn(move || q.try_push(1).is_ok())
        };
        let main_ok = q.try_push(2).is_ok();
        let thief_ok = t.join().unwrap();
        assert!(
            main_ok && thief_ok,
            "a two-slot ring must accept two concurrent submissions"
        );
        let mut drained = Vec::new();
        while let Some(v) = q.try_pop() {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![1, 2], "submission lost or duplicated");
    });
    assert!(
        report.complete,
        "submission space not exhausted: {report:?}"
    );
}

/// Admission control: three pushes into a two-slot ring admit exactly two
/// payloads; the rejected push gets its payload handed back and the drain
/// sees no duplicate.
#[test]
fn full_ring_rejects_exactly_the_overflow() {
    let report = explore(Config::with_preemption_bound(2), || {
        let q = Arc::new(SubmitQueue::<u32>::with_capacity(2));
        let t = {
            let q = Arc::clone(&q);
            shim_sync::thread::spawn(move || {
                let mut rejected = Vec::new();
                for v in [1, 2] {
                    if let Err(back) = q.try_push(v) {
                        rejected.push(back);
                    }
                }
                rejected
            })
        };
        let mut rejected = match q.try_push(3) {
            Ok(()) => Vec::new(),
            Err(back) => vec![back],
        };
        rejected.extend(t.join().unwrap());
        let mut drained = Vec::new();
        while let Some(v) = q.try_pop() {
            drained.push(v);
        }
        assert_eq!(drained.len(), 2, "exactly two of three pushes admitted");
        assert_eq!(rejected.len(), 1, "exactly one push rejected");
        let mut all = drained;
        all.extend(rejected);
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 3], "payload lost or duplicated");
    });
    assert!(report.complete, "admission space not exhausted: {report:?}");
}

/// No double claim: two workers racing over two queued jobs deliver each
/// job to exactly one of them, and both jobs complete.
#[test]
fn two_workers_claim_two_jobs_disjointly() {
    let report = explore(Config::with_preemption_bound(2), || {
        let q = Arc::new(SubmitQueue::<usize>::with_capacity(2));
        let jobs = Arc::new([ModelJob::new(), ModelJob::new()]);
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();
        let w = {
            let q = Arc::clone(&q);
            let jobs = Arc::clone(&jobs);
            shim_sync::thread::spawn(move || drain(&q, &jobs))
        };
        let mut popped = drain(&q, &jobs);
        popped.extend(w.join().unwrap());
        popped.sort_unstable();
        assert_eq!(popped, vec![0, 1], "each job delivered exactly once");
        for j in jobs.iter() {
            assert_eq!(j.life.status(), JobStatus::Completed);
            assert!(j.ran.load(Ordering::Relaxed));
        }
    });
    assert!(report.complete, "claim space not exhausted: {report:?}");
}

/// Outcome of one cancel-race interleaving, as pinned by the exhaustive
/// test: (cancel outcome, job 0 terminal state, whether job 0 ran).
type Outcome = (&'static str, &'static str, bool);

/// Outcomes paired with the decision trail that produced them.
type TraceSet = BTreeSet<(Outcome, Vec<usize>)>;

fn outcome_name(o: CancelOutcome) -> &'static str {
    match o {
        CancelOutcome::CancelledBeforeRun => "before_run",
        CancelOutcome::Requested => "requested",
        CancelOutcome::AlreadyTerminal => "already_terminal",
    }
}

fn status_name(s: JobStatus) -> &'static str {
    match s {
        JobStatus::Queued => "queued",
        JobStatus::Running => "running",
        JobStatus::Completed => "completed",
        JobStatus::Cancelled => "cancelled",
    }
}

/// Who races the pool worker for the queue in [`cancel_scenario`].
#[derive(Clone, Copy)]
enum Rival {
    /// A second pool worker.
    Worker,
    /// The cancelling client, which then waits on job 1 and leads queued
    /// jobs while it does.
    WaitingClient,
}

/// The full 2 claimants × 2 jobs cancel race: two queued jobs, a worker
/// draining, a rival claimant, and the client cancelling job 0
/// concurrently. Every interleaving must deliver each job exactly once,
/// complete job 1, and leave job 0 in exactly one terminal state
/// consistent with the cancel outcome the client observed.
fn cancel_scenario(rival: Rival, sink: Option<&Mutex<TraceSet>>) {
    let q = Arc::new(SubmitQueue::<usize>::with_capacity(2));
    let jobs = Arc::new([ModelJob::new(), ModelJob::new()]);
    q.try_push(0).unwrap();
    q.try_push(1).unwrap();
    let workers = match rival {
        Rival::Worker => 2,
        Rival::WaitingClient => 1,
    };
    let workers: Vec<_> = (0..workers)
        .map(|_| {
            let q = Arc::clone(&q);
            let jobs = Arc::clone(&jobs);
            shim_sync::thread::spawn(move || drain(&q, &jobs))
        })
        .collect();
    // The client: cancel job 0 while the workers drain.
    let outcome = jobs[0].life.cancel(&jobs[0].token);
    let mut popped = match rival {
        Rival::Worker => Vec::new(),
        Rival::WaitingClient => help(&q, &jobs, 1, |_| true),
    };
    for w in workers {
        popped.extend(w.join().unwrap());
    }
    popped.sort_unstable();
    assert_eq!(popped, vec![0, 1], "each job delivered exactly once");

    // Job 1 is never cancelled: it must complete.
    assert_eq!(jobs[1].life.status(), JobStatus::Completed);
    assert!(jobs[1].ran.load(Ordering::Relaxed));

    // Job 0: exactly one terminal state, consistent with what the client
    // was told.
    let status = jobs[0].life.status();
    let ran = jobs[0].ran.load(Ordering::Relaxed);
    assert!(status.is_terminal(), "job 0 left non-terminal: {status:?}");
    match outcome {
        CancelOutcome::CancelledBeforeRun => {
            assert_eq!(status, JobStatus::Cancelled);
            assert!(!ran, "cancelled-before-claim job must never run");
        }
        CancelOutcome::Requested => {
            // The worker had claimed; the terminal state depends on
            // whether its finish-time token read saw the raise.
            assert!(ran, "Requested implies the job was claimed and ran");
        }
        CancelOutcome::AlreadyTerminal => {
            // The only terminal writer before the cancel was the worker's
            // finish, and the token cannot have been raised yet.
            assert_eq!(status, JobStatus::Completed);
            assert!(ran);
        }
    }
    // Double-check the cancel was idempotent from here on.
    assert_eq!(
        jobs[0].life.cancel(&jobs[0].token),
        CancelOutcome::AlreadyTerminal
    );
    if let Some(sink) = sink {
        let trail = current_trail().expect("inside exploration");
        sink.lock()
            .unwrap()
            .insert(((outcome_name(outcome), status_name(status), ran), trail));
    }
}

/// The cancel race's reachable resolutions, explored exhaustively.
fn cancel_outcomes(rival: Rival) -> BTreeSet<Outcome> {
    let seen: Arc<Mutex<TraceSet>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&seen);
    let report = explore(Config::with_preemption_bound(2), move || {
        cancel_scenario(rival, Some(&sink));
    });
    assert!(report.complete, "cancel space not exhausted: {report:?}");
    println!("jobserver_submit::cancel_vs_complete: {report:?}");
    let outcomes = seen.lock().unwrap().iter().map(|(o, _)| *o).collect();
    outcomes
}

/// Exhaustively explore the cancel race at 2 workers × 2 jobs and pin the
/// exact set of reachable resolutions.
#[test]
fn cancel_vs_complete_has_exactly_one_terminal_state() {
    assert_eq!(
        cancel_outcomes(Rival::Worker),
        expected_outcomes(),
        "reachable cancel-race resolutions changed"
    );
}

/// The same race with a waiting client as the second claimant: it cancels
/// job 0, then leads queued jobs while it waits on job 1. It claims through
/// the same lifecycle CAS as a worker, so the same four resolutions, and no
/// other, are reachable.
#[test]
fn a_waiting_client_claims_like_a_worker() {
    assert_eq!(
        cancel_outcomes(Rival::WaitingClient),
        expected_outcomes(),
        "a waiting client changed the reachable resolutions"
    );
}

/// A multi-slot job at the head of the queue is refused by a waiting client,
/// and blocks what is behind it: the client never takes job 0 (the team),
/// and takes job 1 only once a worker has taken job 0. Each job is still
/// delivered exactly once and completes.
#[test]
fn a_waiting_client_never_takes_a_team() {
    let report = explore(Config::with_preemption_bound(2), || {
        let q = Arc::new(SubmitQueue::<usize>::with_capacity(2));
        let jobs = Arc::new([ModelJob::new(), ModelJob::new()]);
        q.try_push(0).unwrap();
        q.try_push(1).unwrap();
        let worker = {
            let q = Arc::clone(&q);
            let jobs = Arc::clone(&jobs);
            shim_sync::thread::spawn(move || drain(&q, &jobs))
        };
        let helped = help(&q, &jobs, 1, |&i| i != 0);
        assert!(!helped.contains(&0), "the client took the team");
        let mut popped = helped;
        popped.extend(worker.join().unwrap());
        popped.sort_unstable();
        assert_eq!(popped, vec![0, 1], "each job delivered exactly once");
        for j in jobs.iter() {
            assert_eq!(j.life.status(), JobStatus::Completed);
        }
    });
    assert!(report.complete, "team space not exhausted: {report:?}");
}

fn expected_outcomes() -> BTreeSet<Outcome> {
    [
        // Cancel lands before any worker claims: the job never runs.
        ("before_run", "cancelled", false),
        // Cancel lands while the job runs and the finish-time token read
        // sees the raise: terminal Cancelled.
        ("requested", "cancelled", true),
        // The race window: cancel observes Running (so the client is told
        // Requested) but the worker's token read happened first — the job
        // completes. Exactly one terminal state either way.
        ("requested", "completed", true),
        // Cancel arrives after the terminal transition: a no-op.
        ("already_terminal", "completed", true),
    ]
    .into_iter()
    .collect()
}

/// Regression pin: replay a schedule that drives the cancel into the
/// window between the worker's claim and its finish-time token read (the
/// client is told `Requested`, the terminal state is `Cancelled`) and
/// require the same resolution again. The schedule is re-captured by
/// exploration first, so the pin tracks the protocol, not incidental
/// yield-point numbering.
#[test]
fn cancel_race_window_schedule_replays() {
    let seen: Arc<Mutex<TraceSet>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&seen);
    let report = explore(Config::with_preemption_bound(2), move || {
        cancel_scenario(Rival::Worker, Some(&sink));
    });
    assert!(report.complete, "exploration incomplete: {report:?}");
    let window: Vec<usize> = seen
        .lock()
        .unwrap()
        .iter()
        .find(|((outcome, status, _), _)| *outcome == "requested" && *status == "cancelled")
        .map(|(_, trail)| trail.clone())
        .expect("the mid-run cancel window must be reachable at bound 2");
    // Deterministic replay of the pinned interleaving, asserting the same
    // resolution (cancel_scenario panics on any inconsistent state).
    let replayed: Arc<Mutex<TraceSet>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&replayed);
    replay(&window, move || cancel_scenario(Rival::Worker, Some(&sink)));
    let got: Vec<Outcome> = replayed.lock().unwrap().iter().map(|(o, _)| *o).collect();
    assert_eq!(
        got,
        vec![("requested", "cancelled", true)],
        "pinned schedule no longer reproduces the mid-run cancel"
    );
}

/// Priority lanes: once concurrent pushes into different lanes have both
/// landed, the high-priority payload is always claimed first.
#[test]
fn high_lane_is_claimed_before_low_after_publication() {
    let report = explore(Config::with_preemption_bound(2), || {
        let q = Arc::new(PrioQueue::<u32>::with_capacity(2));
        let t = {
            let q = Arc::clone(&q);
            shim_sync::thread::spawn(move || q.try_push(Priority::High, 1).unwrap())
        };
        q.try_push(Priority::Low, 3).unwrap();
        t.join().unwrap();
        assert_eq!(q.try_pop(), Some((Priority::High, 1)));
        assert_eq!(q.try_pop(), Some((Priority::Low, 3)));
        assert_eq!(q.try_pop(), None);
    });
    assert!(report.complete, "priority space not exhausted: {report:?}");
}

/// The park hand-shake at 2 workers × 2 submissions: the submitter's
/// pushes race both workers' announce → fence → recheck → sleep, and every
/// woken worker's continuation races the rest. Whatever the interleaving,
/// both jobs have been led once everything is quiet.
#[test]
fn no_job_stays_queued_while_every_worker_sleeps() {
    let report = explore(Config::with_preemption_bound(2), || {
        park_model::pool_never_strands_a_job(2, 2, true, false);
    });
    assert!(report.complete, "park space not exhausted: {report:?}");
    println!("jobserver_submit::park_handshake: {report:?}");
}

/// A sleep that ends spuriously — no notification, nothing withdrawn —
/// while a submitter takes the sleeper off the count: the count of parked
/// workers may end high, never low, so the job is led whichever of the two
/// ends the sleep (one worker, two submissions, and a spurious wake-up).
#[test]
fn a_spurious_wake_racing_a_wake_strands_nothing() {
    let report = explore(Config::with_preemption_bound(2), || {
        park_model::pool_never_strands_a_job(1, 2, true, true);
    });
    assert!(
        report.complete,
        "spurious-wake space not exhausted: {report:?}"
    );
}

/// A team registered while the worker scans, announces and parks, under
/// sequential consistency and under store buffering: the worker sees it.
#[test]
fn no_worker_sleeps_through_a_team_registration() {
    for tso in [false, true] {
        let report = explore(
            Config {
                tso,
                ..Config::with_preemption_bound(2)
            },
            || park_model::pool_never_sleeps_through_a_registration(true),
        );
        assert!(
            report.complete,
            "registration space not exhausted (tso {tso}): {report:?}"
        );
    }
}

/// A lead leaving its team while two joiners try to enter: it collects
/// once, after every joiner that entered merged, and is woken if it sleeps.
#[test]
fn a_team_drains_once_after_every_joiner() {
    for tso in [false, true] {
        let report = explore(
            Config {
                tso,
                ..Config::with_preemption_bound(2)
            },
            || park_model::team_drains_once(2, true),
        );
        assert!(
            report.complete,
            "drain space not exhausted (tso {tso}): {report:?}"
        );
    }
}

/// The panic message of a seeded bug the explorer must find.
fn refuted(seeded: fn()) -> String {
    let e = catch_unwind(AssertUnwindSafe(|| {
        explore(Config::with_preemption_bound(2), seeded);
    }))
    .expect_err("the explorer missed a seeded bug");
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("violation panics carry a message")
}

/// Meta-test: a recheck that reads the queue but not the registration
/// count sleeps through a team registered between the worker's scan and
/// its announcement — the lead saw nobody parked.
#[test]
fn seeded_recheck_without_the_registration_count_is_caught() {
    let found = refuted(|| park_model::pool_never_sleeps_through_a_registration(false));
    assert!(
        found.contains("slept through a team registration"),
        "wrong violation: {found}"
    );
}

/// Meta-test: a joiner that enters with a plain increment can raise the
/// count from zero after the lead read it there, and merge after the lead
/// collected.
#[test]
fn seeded_plain_team_entry_is_caught() {
    let found = refuted(|| park_model::team_drains_once(1, false));
    assert!(
        found.contains("before every joiner that entered had merged"),
        "wrong violation: {found}"
    );
}

/// One worker, one submission and a spurious wake-up under the x86-TSO store-buffer
/// model, where only fences and locked operations keep both sides of a
/// hand-shake from reading the other's old value.
#[test]
fn park_handshake_holds_under_store_buffering() {
    let report = explore(
        Config {
            tso: true,
            ..Config::with_preemption_bound(2)
        },
        || park_model::pool_never_strands_a_job(1, 1, true, true),
    );
    assert!(report.complete, "TSO park space not exhausted: {report:?}");
}

/// The outcome cell: the lead's publish against the client's wait, under
/// sequential consistency and under store buffering.
#[test]
fn a_registered_waiter_is_always_notified() {
    for tso in [false, true] {
        let report = explore(
            Config {
                tso,
                ..Config::with_preemption_bound(2)
            },
            park_model::registered_waiter_is_notified,
        );
        assert!(
            report.complete,
            "outcome space not exhausted (tso {tso}): {report:?}"
        );
    }
}

/// Meta-test: a worker that announces and sleeps *without* rechecking the
/// queue strands a job pushed just before its announcement — the
/// submitter saw nobody parked. The explorer must find that schedule and
/// hand back a trail that replays to the same stranded job.
#[test]
fn seeded_missing_recheck_is_caught_with_a_replayable_trail() {
    fn seeded() {
        park_model::pool_never_strands_a_job(1, 1, false, false);
    }
    let message = |e: Box<dyn std::any::Any + Send>| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("violation panics carry a message")
    };
    let found = message(
        catch_unwind(AssertUnwindSafe(|| {
            explore(Config::with_preemption_bound(2), seeded);
        }))
        .expect_err("the explorer missed a sleep with no recheck"),
    );
    assert!(
        found.contains("stayed queued while every worker slept"),
        "wrong violation: {found}"
    );
    let trail: Vec<usize> = found
        .split("shim_sync::replay): [")
        .nth(1)
        .and_then(|tail| tail.split(']').next())
        .expect("violation message carries a trail")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("trail entries are numeric"))
        .collect();
    let replayed = message(
        catch_unwind(AssertUnwindSafe(|| replay(&trail, seeded)))
            .expect_err("replaying the trail did not strand the job again"),
    );
    assert!(
        replayed.contains("stayed queued while every worker slept"),
        "replay failed for a different reason: {replayed}"
    );
}
