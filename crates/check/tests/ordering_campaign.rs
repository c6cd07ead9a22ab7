//! The memory-ordering relaxation campaign for the THE deque.
//!
//! PR 6 relaxed every SeqCst access on THE's hot paths that is ordered by
//! something stronger — a SeqCst fence or the THE lock — down to
//! `Relaxed`. This suite is the proof obligation: **part A** re-explores
//! the real, relaxed `the.rs` under the x86-TSO store-buffer model (the
//! weakest model the explorer supports, and the one that distinguishes a
//! fence from a SeqCst access), and **part B** shows the suite has teeth
//! by refuting every *further* weakening on a Dekker skeleton of the same
//! shape: each profile below maps to a concrete site in `the.rs`, and
//! removing the ordering that site still relies on makes the exploration
//! panic with a double extraction.
//!
//! Site → profile map (orderings as landed; each site's comment in `the.rs`
//! gives its reason):
//!
//! | `the.rs` site                      | landed      | guarded by        | refutation            |
//! |------------------------------------|-------------|-------------------|-----------------------|
//! | `pop`: `tail` store, `head` load   | Relaxed     | owner SeqCst fence| `pop_fence: false`    |
//! | `steal`: `head` store, restores    | Relaxed     | thief SeqCst fence| `steal_fence: false`  |
//! | `steal`: `tail` re-validation load | SeqCst      | (is the anchor)   | part A would fail     |
//! | `steal`: unlocked `head`/`tail` peek | Relaxed   | locked re-check   | (none: only a spurious `Empty`) |
//! | `pop` slow / `pop_special` / locked `head` reads | Relaxed | THE lock | `locked: false` |
//!
//! The Chase-Lev backend keeps its seed orderings: its pop fence and the
//! SeqCst last-element CAS are exactly the two anchors this campaign
//! proves irreducible for THE, and no site beyond them is SeqCst there.

use adaptivetc_check::sync::{fence, AtomicBool, AtomicU64, Mutex, Ordering};
use adaptivetc_check::the::{PopSpecial, StealOutcome, TheDeque};
use adaptivetc_check::{explore, linearizable, Config, OwnerOp};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn tso(pb: u32) -> Config {
    Config {
        tso: true,
        ..Config::with_preemption_bound(pb)
    }
}

// ---------------------------------------------------------------------------
// Part A: the real THE deque, as landed, survives TSO store buffering.
// ---------------------------------------------------------------------------

/// Push/pop/steal linearizability of the *relaxed* THE deque under the
/// store-buffer model. A wrong relaxation of the pop-side Dekker pair
/// shows up here as a double extraction (history not linearizable).
#[test]
fn relaxed_the_linearizable_under_tso() {
    let report = explore(tso(2), || {
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
            "history not linearizable under TSO: owner {owner:?}, steals {steals:?}"
        );
    });
    assert!(
        report.complete,
        "relaxed THE TSO space not exhausted: {report:?}"
    );
    println!("ordering_campaign::relaxed_the_linearizable_under_tso: {report:?}");
}

/// The special-task resolution — whose accesses are now all Relaxed under
/// the THE lock — stays *exact* under TSO: `ChildStolen` iff the thief
/// took the child, and the child is consumed exactly once.
#[test]
fn relaxed_the_special_resolution_exact_under_tso() {
    let report = explore(tso(2), || {
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
        assert!(
            owner_got ^ thief_got,
            "child consumed {} times under TSO",
            u8::from(owner_got) + u8::from(thief_got)
        );
        let child_stolen = matches!(spec, PopSpecial::ChildStolen);
        assert_eq!(
            child_stolen, thief_got,
            "locked resolution lost exactness under TSO"
        );
    });
    assert!(
        report.complete,
        "relaxed THE special TSO space not exhausted: {report:?}"
    );
    println!("ordering_campaign::relaxed_the_special_resolution_exact_under_tso: {report:?}");
}

// ---------------------------------------------------------------------------
// Part B: every *further* weakening is refuted on the Dekker skeleton.
// ---------------------------------------------------------------------------

/// The shape of THE's last-element arbitration, stripped to its Dekker
/// core. One entry lives at index 0: `tail = 1`, `head = 0`. The owner
/// decrements `tail`, fences (or not), reads `head`; the thief raises
/// `head`, fences (or not), re-reads `tail`. Each side claims the entry
/// when its read proves the other side had not moved. Exactly the landed
/// orderings: Relaxed stores and loads, SeqCst re-validation load, with
/// the fences as the only global anchors.
fn dekker_round(pop_fence: bool, steal_fence: bool) {
    let head = Arc::new(AtomicU64::new(0));
    let tail = Arc::new(AtomicU64::new(1));
    // The thief publishes its verdict through a model atomic instead of
    // its return value. This is load-bearing: the real `steal` keeps
    // executing after the re-validation load (slot read, head restore),
    // so the model must have a scheduling point there too. A bare return
    // would glue the thief's store-buffer drain (thread exit) to the
    // load, and the owner could never observe the stale `head` this
    // refutation exists to expose.
    let thief_won = Arc::new(AtomicBool::new(false));
    let thief = {
        let head = Arc::clone(&head);
        let tail = Arc::clone(&tail);
        let thief_won = Arc::clone(&thief_won);
        shim_sync::thread::spawn(move || {
            let h = head.load(Ordering::Relaxed);
            head.store(h + 1, Ordering::Relaxed);
            if steal_fence {
                fence(Ordering::SeqCst);
            }
            // The re-validation anchor (kept SeqCst in the.rs).
            let t = tail.load(Ordering::SeqCst);
            thief_won.store(h < t, Ordering::Relaxed);
        })
    };
    let t = tail.load(Ordering::Relaxed) - 1;
    tail.store(t, Ordering::Relaxed);
    if pop_fence {
        fence(Ordering::SeqCst);
    }
    let h = head.load(Ordering::Relaxed);
    let owner_wins = h <= t;
    thief.join().unwrap();
    let thief_wins = thief_won.load(Ordering::Relaxed);
    assert!(
        !(owner_wins && thief_wins),
        "double extraction of the last entry"
    );
}

fn refuted(pop_fence: bool, steal_fence: bool) -> bool {
    // For a refutation only reachability matters, not exhaustion.
    catch_unwind(AssertUnwindSafe(|| {
        explore(tso(2), move || dekker_round(pop_fence, steal_fence));
    }))
    .is_err()
}

/// The landed profile — both fences present, everything else Relaxed —
/// explores clean under TSO: the campaign could not have gone further on
/// the Dekker pair itself.
#[test]
fn landed_fence_profile_is_safe_under_tso() {
    let report = explore(tso(2), || dekker_round(true, true));
    assert!(report.complete, "Dekker space not exhausted: {report:?}");
}

/// Weakening the owner's pop fence (the.rs `pop`) admits store buffering:
/// the owner's tail decrement hides in its write buffer while the thief
/// revalidates, and both sides claim the last entry.
#[test]
fn dropping_the_pop_fence_is_refuted() {
    assert!(
        refuted(false, true),
        "suite failed to refute a pop without its SeqCst fence"
    );
}

/// Weakening the thief's fence (the.rs `steal`) is the symmetric bug.
#[test]
fn dropping_the_steal_fence_is_refuted() {
    assert!(
        refuted(true, false),
        "suite failed to refute a steal without its SeqCst fence"
    );
}

/// Dropping both is, a fortiori, refuted too (the classic SB outcome).
#[test]
fn dropping_both_fences_is_refuted() {
    assert!(
        refuted(false, false),
        "suite failed to refute fence-free THE"
    );
}

/// The `head` accesses relaxed in `steal`/`pop_special` are sound *only
/// because* they sit under the THE lock: the same read-increment shape
/// without the lock lets two thieves claim one index. This is the proof
/// that `Relaxed` there leans on mutual exclusion, not luck.
fn locked_steal_round(locked: bool) {
    let head = Arc::new(AtomicU64::new(0));
    let lock = Arc::new(Mutex::new(()));
    let taken: Arc<[AtomicBool; 2]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    let mut thieves = Vec::new();
    for _ in 0..2 {
        let head = Arc::clone(&head);
        let lock = Arc::clone(&lock);
        let taken = Arc::clone(&taken);
        thieves.push(shim_sync::thread::spawn(move || {
            let _guard = locked.then(|| lock.lock());
            let h = head.load(Ordering::Relaxed);
            if h < 2 {
                head.store(h + 1, Ordering::Relaxed);
                assert!(
                    !taken[h as usize].swap(true, Ordering::Relaxed),
                    "index {h} stolen twice"
                );
            }
        }));
    }
    for t in thieves {
        t.join().unwrap();
    }
}

#[test]
fn locked_head_accesses_are_safe() {
    let report = explore(tso(2), || locked_steal_round(true));
    assert!(
        report.complete,
        "locked-steal space not exhausted: {report:?}"
    );
}

#[test]
fn dropping_the_lock_is_refuted() {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        explore(tso(2), || locked_steal_round(false));
    }))
    .is_err();
    assert!(
        caught,
        "suite failed to refute relaxed head accesses without the lock"
    );
}
