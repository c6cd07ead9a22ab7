//! The shared scenario registry: every bounded protocol workload the
//! race-detection lane and the ordering-minimization audit re-run.
//!
//! Each [`Scenario`] is a self-contained closure body for [`explore`]:
//! it builds its structures inside the exploration (a TSO-mode
//! requirement), drives a two-thread protocol race, and asserts the
//! protocol's safety properties — the same assertions double as the
//! refutation oracle when the audit re-runs a scenario with a weakened
//! memory ordering. The `covers` list ties a scenario to the
//! `#[path]`-included product sources whose `Ordering::` sites it
//! exercises; `adaptivetc-lint`'s `verdicts::COVERED_FILES` is the
//! union of these lists, and `tests/race_detector.rs` re-explores every
//! scenario with `check_races` in both SC and TSO modes.
//!
//! Bodies are deliberately smaller than the dedicated suites in
//! `tests/` (race checking folds the happens-before state into the
//! state hash, so pruning is weaker): the suites prove depth, this
//! registry proves breadth per covered file.

use crate::chase_lev::{ChaseLevDeque, ClSteal};
use crate::fence_free::FenceFreeDeque;
use crate::join_model;
use crate::park_model;
use crate::pool::PoolDeque;
use crate::signal::NeedTask;
use crate::submit::{
    CancelOutcome, CancelToken, JobLifecycle, JobStatus, PrioQueue, Priority, SubmitQueue,
};
use crate::sync::{AtomicBool, Ordering};
use crate::the::{PopSpecial, StealOutcome, TheDeque};
use crate::{linearizable, OwnerOp};
use std::sync::Arc;

/// One registered workload: a name for reports, the covered product
/// sources, and the exploration body.
pub struct Scenario {
    /// Stable name used in verdict reports and test output.
    pub name: &'static str,
    /// Workspace-relative product sources whose ordering sites this
    /// scenario exercises.
    pub covers: &'static [&'static str],
    /// The body to hand to [`explore`](crate::explore).
    pub run: fn(),
}

const THE: &str = "crates/deque/src/the.rs";
const CHASE_LEV: &str = "crates/deque/src/chase_lev.rs";
const FENCE_FREE: &str = "crates/deque/src/fence_free.rs";
const POOL: &str = "crates/deque/src/pool.rs";
const SIGNAL: &str = "crates/deque/src/signal.rs";
const SUBMIT: &str = "crates/runtime/src/submit.rs";
const JOIN: &str = "crates/runtime/src/join.rs";

/// Every registered scenario. `tests/race_detector.rs` explores each
/// with race checking on; the `ordering_audit` binary re-runs the ones
/// covering a site's file under weakened-ordering overrides.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "the_linearizable",
        covers: &[THE],
        run: the_linearizable,
    },
    Scenario {
        name: "the_special",
        covers: &[THE],
        run: the_special,
    },
    Scenario {
        name: "the_wraparound",
        covers: &[THE],
        run: the_wraparound,
    },
    Scenario {
        name: "chase_lev_steal",
        covers: &[CHASE_LEV, THE],
        run: chase_lev_steal,
    },
    Scenario {
        name: "chase_lev_grow",
        covers: &[CHASE_LEV],
        run: chase_lev_grow,
    },
    Scenario {
        name: "chase_lev_special",
        covers: &[CHASE_LEV, THE],
        run: chase_lev_special,
    },
    Scenario {
        name: "fence_free_claims",
        covers: &[FENCE_FREE, THE],
        run: fence_free_claims,
    },
    Scenario {
        name: "fence_free_special",
        covers: &[FENCE_FREE, THE],
        run: fence_free_special,
    },
    Scenario {
        name: "pool_locked",
        covers: &[POOL, THE],
        run: pool_locked,
    },
    Scenario {
        name: "signal_delivery",
        covers: &[SIGNAL],
        run: signal_delivery,
    },
    Scenario {
        name: "submit_claim",
        covers: &[SUBMIT],
        run: submit_claim,
    },
    Scenario {
        name: "submit_cancel",
        covers: &[SUBMIT],
        run: submit_cancel,
    },
    Scenario {
        name: "submit_prio",
        covers: &[SUBMIT],
        run: submit_prio,
    },
    Scenario {
        name: "submit_park",
        covers: &[SUBMIT],
        run: submit_park,
    },
    Scenario {
        name: "submit_outcome",
        covers: &[SUBMIT],
        run: submit_outcome,
    },
    Scenario {
        name: "join_restolen",
        covers: &[JOIN, THE],
        run: join_restolen,
    },
    Scenario {
        name: "join_detached",
        covers: &[JOIN, THE],
        run: join_detached,
    },
];

/// The scenarios exercising `file` (a workspace-relative source path).
pub fn covering(file: &str) -> impl Iterator<Item = &'static Scenario> {
    let file = file.to_string();
    SCENARIOS
        .iter()
        .filter(move |s| s.covers.contains(&file.as_str()))
}

// ---------------------------------------------------------------------------
// THE deque
// ---------------------------------------------------------------------------

fn the_linearizable() {
    let d = Arc::new(TheDeque::<u32>::new(8));
    d.push(1).unwrap();
    d.push(2).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..2 {
                got.push(match d.steal() {
                    StealOutcome::Stolen(v) => Some(v),
                    StealOutcome::Empty => None,
                });
            }
            got
        })
    };
    let mut owner = vec![OwnerOp::Push(1), OwnerOp::Push(2)];
    for _ in 0..2 {
        owner.push(OwnerOp::Pop(d.pop()));
    }
    let steals = thief.join().unwrap();
    assert!(
        linearizable(&owner, &steals),
        "history not linearizable: owner {owner:?}, steals {steals:?}"
    );
}

fn the_special() {
    let d = Arc::new(TheDeque::<u32>::new(8));
    d.push_special(10).unwrap();
    d.push(20).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    let popped = d.pop();
    let spec = d.pop_special();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let owner_got = popped == Some(20);
    let thief_got = stolen == Some(20);
    assert!(owner_got ^ thief_got, "child consumed zero or two times");
    let child_stolen = matches!(spec, PopSpecial::ChildStolen);
    assert_eq!(child_stolen, thief_got, "pop_special misreported the race");
}

/// Slot recycling at capacity 2: the owner's overflow check reads the
/// completion cursor `cleaned` concurrently with the thief's Release
/// store of it — the exact edge the cursor exists to provide.
fn the_wraparound() {
    let d = Arc::new(TheDeque::<u32>::new(2));
    d.push(1).unwrap();
    d.push(2).unwrap();
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    // Racing the steal: admitted exactly when a recycled slot is proven
    // clean, rejected otherwise — both are legal, and the HB engine
    // verifies the admitted case reuses the slot race-free.
    let third_ok = d.push(3).is_ok();
    let mut popped = Vec::new();
    while let Some(v) = d.pop() {
        popped.push(v);
    }
    let stolen = thief.join().unwrap();
    let mut all: Vec<u32> = popped;
    all.extend(stolen);
    all.sort_unstable();
    let mut expect = vec![1, 2];
    if third_ok {
        expect.push(3);
    }
    assert_eq!(all, expect, "value lost or duplicated across the wrap");
    // Quiescent accessor sweep: exercises the observer-side orderings
    // (len / Debug) so the audit has an exercise signal for them.
    assert_eq!(d.len(), 0);
    assert!(d.is_empty());
    let _ = format!("{d:?}");
}

// ---------------------------------------------------------------------------
// Chase-Lev deque
// ---------------------------------------------------------------------------

fn cl_steal_to_completion(d: &ChaseLevDeque<u32>) -> Option<u32> {
    loop {
        match d.steal() {
            ClSteal::Stolen(v) => return Some(v),
            ClSteal::Empty => return None,
            ClSteal::Retry => continue,
        }
    }
}

/// Three pushes race one thief, then the owner drains; exercises push,
/// pop and steal (growth is `chase_lev_grow`'s job — `with_capacity`
/// rounds up to the minimum 16, so these pushes never grow).
fn chase_lev_steal() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(2));
    d.push(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    d.push(3);
    let mut owner = vec![OwnerOp::Push(1), OwnerOp::Push(2), OwnerOp::Push(3)];
    for _ in 0..3 {
        owner.push(OwnerOp::Pop(d.pop()));
    }
    let steals = vec![thief.join().unwrap()];
    assert!(
        linearizable(&owner, &steals),
        "history not linearizable: owner {owner:?}, steals {steals:?}"
    );
    // Quiescent accessor sweep for the audit's exercise signal.
    assert!(d.is_empty());
    assert_eq!(d.capacity(), 16, "rounded-up minimum capacity");
    let _ = format!("{d:?}");
}

/// Force a buffer grow while a steal may be in flight. The minimum
/// capacity (16) is pre-filled before the thief spawns; the thief
/// claims at most one entry, so the second racing push always sees
/// `bottom - top >= 16` and must grow. The conservation check over all
/// 18 entries — plus the race detector watching the thief's plain slot
/// reads against the owner's copy into the new buffer — is the
/// refutation oracle for `grow`'s Release publish.
fn chase_lev_grow() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(2));
    for i in 0..16 {
        d.push(i);
    }
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    d.push(16);
    d.push(17);
    assert!(d.capacity() >= 32, "a grow must have happened");
    let mut seen = Vec::new();
    seen.extend(thief.join().unwrap());
    while let Some(v) = d.pop() {
        seen.push(v);
    }
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..18).collect::<Vec<u32>>(),
        "grow lost or duplicated an entry"
    );
}

fn chase_lev_special() {
    let d = Arc::new(ChaseLevDeque::<u32>::with_capacity(16));
    d.push_special(10);
    d.push(20);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || cl_steal_to_completion(&d))
    };
    let popped = d.pop();
    let spec = d.pop_special();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let owner_got = popped == Some(20);
    let thief_got = stolen == Some(20);
    assert!(owner_got ^ thief_got, "child consumed zero or two times");
    // Chase-Lev's resolution is conservative: ChildStolen whenever the
    // thief MAY have the child, so only the converse direction holds.
    if thief_got {
        assert!(
            matches!(spec, PopSpecial::ChildStolen),
            "thief took the child but pop_special said Reclaimed"
        );
    }
}

// ---------------------------------------------------------------------------
// Fence-free multiplicity deque
// ---------------------------------------------------------------------------

fn ff_claim(claims: &[AtomicBool], v: u32) -> bool {
    !claims[v as usize].swap(true, Ordering::AcqRel)
}

fn fence_free_claims() {
    let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
    let claims: Arc<[AtomicBool; 3]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    d.push(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        let claims = Arc::clone(&claims);
        shim_sync::thread::spawn(move || {
            let mut claimed = 0u32;
            for _ in 0..2 {
                if let StealOutcome::Stolen(v) = d.steal() {
                    if ff_claim(&*claims, v) {
                        claimed += 1;
                    }
                }
            }
            claimed
        })
    };
    let mut claimed = 0u32;
    while let Some(v) = d.pop() {
        if ff_claim(&*claims, v) {
            claimed += 1;
        }
    }
    claimed += thief.join().unwrap();
    assert!(
        claims[1].load(Ordering::Relaxed) && claims[2].load(Ordering::Relaxed),
        "a pushed value was never extracted (lost work)"
    );
    assert_eq!(claimed, 2, "a value was claimed twice (claim layer broken)");
    // Quiescent accessor sweep for the audit's exercise signal.
    let _ = d.len();
    let _ = d.is_empty();
    let _ = format!("{d:?}");
}

fn fence_free_special() {
    let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
    let claims: Arc<[AtomicBool; 3]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    d.push_special(1);
    d.push(2);
    let thief = {
        let d = Arc::clone(&d);
        let claims = Arc::clone(&claims);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => {
                assert_ne!(v, 1, "thief stole the special task itself");
                ff_claim(&*claims, v)
            }
            StealOutcome::Empty => false,
        })
    };
    // Engine order (LIFO discipline): pop and claim the special's child
    // first, then pop_special.
    let owner_got = match d.pop() {
        Some(v) => {
            assert_eq!(v, 2, "owner popped something it never pushed");
            ff_claim(&*claims, v)
        }
        None => false,
    };
    let spec = d.pop_special();
    let thief_got = thief.join().unwrap();
    assert!(
        owner_got ^ thief_got,
        "child claimed {} times",
        u8::from(owner_got) + u8::from(thief_got)
    );
    if thief_got {
        assert!(
            matches!(spec, PopSpecial::ChildStolen),
            "thief claimed the child but pop_special said Reclaimed"
        );
    } else if let PopSpecial::Reclaimed(v) = spec {
        assert_eq!(v, 1, "reclaimed a different special");
    }
}

// ---------------------------------------------------------------------------
// Locked pool deque (mutex-only backend)
// ---------------------------------------------------------------------------

fn pool_locked() {
    let d = Arc::new(PoolDeque::<u32>::new());
    d.push(1);
    d.push_special(10);
    let thief = {
        let d = Arc::clone(&d);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => Some(v),
            StealOutcome::Empty => None,
        })
    };
    let spec = d.pop_special();
    let popped = d.pop();
    let stolen = thief.join().unwrap();
    assert_ne!(stolen, Some(10), "thief stole the special task itself");
    let mut got: Vec<u32> = [popped, stolen].into_iter().flatten().collect();
    if let PopSpecial::Reclaimed(v) = spec {
        got.push(v);
    }
    got.sort_unstable();
    assert!(
        got == vec![1, 10] || got == vec![1],
        "pool lost or duplicated a value: {got:?}"
    );
    // Deliberately cross-checks the two accessors against each other.
    #[allow(clippy::len_zero)]
    let consistent = d.is_empty() == (d.len() == 0);
    assert!(consistent, "len/is_empty disagree");
}

// ---------------------------------------------------------------------------
// need_task signal
// ---------------------------------------------------------------------------

fn signal_delivery() {
    let sig = Arc::new(NeedTask::new(1));
    let thief = {
        let sig = Arc::clone(&sig);
        shim_sync::thread::spawn(move || {
            sig.record_steal_failure();
            sig.record_steal_failure();
        })
    };
    let mut acknowledged = false;
    for _ in 0..3 {
        if sig.needs_task() {
            sig.acknowledge();
            assert!(!sig.needs_task(), "acknowledge did not clear need_task");
            assert_eq!(sig.stolen_num(), 0, "acknowledge did not reset stolen_num");
            acknowledged = true;
            break;
        }
    }
    thief.join().unwrap();
    if !acknowledged {
        assert!(
            sig.needs_task(),
            "two failures past the threshold never raised need_task"
        );
    }
    assert!(sig.stolen_num() <= 2, "stolen_num overshot the failures");
    // A successful steal withdraws the signal (quiescent here; the
    // concurrent variant lives in the dedicated suite).
    sig.record_steal_success();
    assert!(!sig.needs_task(), "success must clear need_task");
    assert_eq!(sig.stolen_num(), 0, "success must reset stolen_num");
}

// ---------------------------------------------------------------------------
// Job-server submission kernel
// ---------------------------------------------------------------------------

fn submit_claim() {
    let q = Arc::new(SubmitQueue::<u32>::with_capacity(2));
    let life = Arc::new(JobLifecycle::new());
    let t = {
        let (q, life) = (Arc::clone(&q), Arc::clone(&life));
        shim_sync::thread::spawn(move || {
            let pushed = q.try_push(1).is_ok();
            (pushed, life.claim())
        })
    };
    let main_ok = q.try_push(2).is_ok();
    let main_claimed = life.claim();
    let (thief_ok, thief_claimed) = t.join().unwrap();
    assert!(main_ok && thief_ok, "a two-slot ring dropped a submission");
    assert!(
        main_claimed ^ thief_claimed,
        "JobLifecycle::claim admitted {} claimers",
        u8::from(main_claimed) + u8::from(thief_claimed)
    );
    let mut drained = Vec::new();
    while let Some(v) = q.try_pop() {
        drained.push(v);
    }
    drained.sort_unstable();
    assert_eq!(drained, vec![1, 2], "submission lost or duplicated");
    assert_eq!(q.len(), 0, "drained ring reports occupancy");
}

fn submit_cancel() {
    let life = Arc::new(JobLifecycle::new());
    let token = Arc::new(CancelToken::new());
    let ran = Arc::new(AtomicBool::new(false));
    let worker = {
        let (life, token, ran) = (Arc::clone(&life), Arc::clone(&token), Arc::clone(&ran));
        shim_sync::thread::spawn(move || {
            if life.claim() {
                ran.store(true, Ordering::Relaxed);
                let cancelled = token.get();
                assert!(life.finish(cancelled), "lead finish must succeed");
            } else {
                assert_eq!(life.status(), JobStatus::Cancelled);
                assert!(!ran.load(Ordering::Relaxed), "cancelled job ran");
            }
        })
    };
    let outcome = life.cancel(&token);
    worker.join().unwrap();
    let status = life.status();
    assert!(status.is_terminal(), "job left non-terminal: {status:?}");
    match outcome {
        CancelOutcome::CancelledBeforeRun => {
            assert_eq!(status, JobStatus::Cancelled);
            assert!(!ran.load(Ordering::Relaxed));
        }
        CancelOutcome::Requested => assert!(ran.load(Ordering::Relaxed)),
        CancelOutcome::AlreadyTerminal => {
            assert_eq!(status, JobStatus::Completed);
            assert!(ran.load(Ordering::Relaxed));
        }
    }
    assert_eq!(life.cancel(&token), CancelOutcome::AlreadyTerminal);
}

fn submit_prio() {
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
}

/// One submission racing one worker on its way to sleep, and a timeout
/// racing the submitter's wake of that sleeper.
fn submit_park() {
    park_model::pool_never_strands_a_job(1, 1, true, true);
}

/// The lead's publish racing the client's wait over one outcome cell.
fn submit_outcome() {
    park_model::registered_waiter_is_notified();
}

// ---------------------------------------------------------------------------
// Work-first join cell (runtime/src/join.rs under the miniature engine)
// ---------------------------------------------------------------------------

/// A stolen continuation stolen again: three workers, one frame. Unlike
/// the deque scenarios above, every push here happens *after* the thieves
/// were spawned, so no spawn edge hides a missing release.
fn join_restolen() {
    join_model::owner_vs_two_thieves(&join_model::FLAT);
}

/// Root then inner frame stolen from one victim: a child detached under
/// a stolen parent, and a thief reading `tail` from the owner's pop.
fn join_detached() {
    join_model::owner_vs_thief(&join_model::NESTED_STOLEN, 2, join_model::Mutant::None);
}
