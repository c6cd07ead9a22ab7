//! Bounded model checking of the fence-free multiplicity deque.
//!
//! The deque alone guarantees only *at-least-once* extraction; the
//! properties checked here are therefore stated through an emulated claim
//! layer (one `swap(true)` per value, standing in for the epoch CAS a
//! scheduler on this deque would run per task): across every interleaving of
//! an owner and a thief, each pushed value is *claimed exactly once*, the
//! special entry is never handed to a thief, and `ChildStolen` is reported
//! whenever the thief's claim of the child won. Two threads, preemption
//! bound 2, every schedule explored; plus a pinned replayable schedule
//! exhibiting the benign duplicate extraction the claim layer exists for.

use adaptivetc_check::fence_free::FenceFreeDeque;
use adaptivetc_check::sync::{AtomicBool, Ordering};
use adaptivetc_check::the::{PopSpecial, StealOutcome};
use adaptivetc_check::{current_trail, explore, replay, Config};
use std::sync::{Arc, Mutex};

/// Claim table: slot `v` is taken by the first extractor to swap it true.
/// `AcqRel`, as a claim CAS would order it.
fn claim(claims: &[AtomicBool], v: u32) -> bool {
    !claims[v as usize].swap(true, Ordering::AcqRel)
}

/// Owner pushes, pops and drains; a concurrent thief steals. Multiplicity
/// means raw extractions may overlap, but the claim layer must see every
/// value claimed exactly once — by someone — in every interleaving.
#[test]
fn every_value_claimed_exactly_once_under_the_claim_layer() {
    let report = explore(Config::with_preemption_bound(2), || {
        let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
        let claims: Arc<[AtomicBool; 3]> =
            Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
        d.push(1);
        d.push(2);
        let thief = {
            let d = Arc::clone(&d);
            let claims = Arc::clone(&claims);
            shim_sync::thread::spawn(move || {
                let mut claimed = 0u32;
                for _ in 0..2 {
                    if let StealOutcome::Stolen(v) = d.steal() {
                        if claim(&*claims, v) {
                            claimed += 1;
                        }
                    }
                }
                claimed
            })
        };
        let mut claimed = 0u32;
        // The owner drains: multiplicity may re-offer entries the thief's
        // cursor passed, so pop-until-None visits every pushed value.
        while let Some(v) = d.pop() {
            if claim(&*claims, v) {
                claimed += 1;
            }
        }
        claimed += thief.join().unwrap();
        assert!(
            claims[1].load(Ordering::Relaxed) && claims[2].load(Ordering::Relaxed),
            "a pushed value was never extracted (lost work)"
        );
        assert_eq!(claimed, 2, "a value was claimed twice (claim layer broken)");
    });
    assert!(
        report.complete,
        "fence-free conservation space not exhausted: {report:?}"
    );
    println!("fence_free_model::every_value_claimed_exactly_once: {report:?}");
}

/// The special-task extension under a concurrent thief: the special entry
/// never reaches the thief, the child is claimed exactly once, and when
/// the thief's claim wins the owner's `pop_special` must say
/// `ChildStolen` (the thief's cursor CAS precedes its claim, so a lost
/// owner claim implies the cursor already passed the pair).
#[test]
fn special_pair_race_resolves_safely() {
    let report = explore(Config::with_preemption_bound(2), || {
        let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
        let claims: Arc<[AtomicBool; 8]> =
            Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
        d.push_special(6);
        d.push(7);
        let thief = {
            let d = Arc::clone(&d);
            let claims = Arc::clone(&claims);
            shim_sync::thread::spawn(move || match d.steal() {
                StealOutcome::Stolen(v) => {
                    assert_ne!(v, 6, "thief stole the special task itself");
                    claim(&*claims, v)
                }
                StealOutcome::Empty => false,
            })
        };
        // Engine order: pop (and claim) the child, then pop_special.
        let owner_got = match d.pop() {
            Some(v) => {
                assert_eq!(v, 7, "owner popped something it never pushed");
                claim(&*claims, v)
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
            // The thief's cursor CAS (h -> h+2) happens before its claim;
            // the owner's failed claim therefore observes the advanced
            // cursor and pop_special must not hand the special back as if
            // nothing happened.
            assert!(
                matches!(spec, PopSpecial::ChildStolen),
                "thief claimed the child but pop_special said Reclaimed"
            );
        } else {
            // The owner claimed first. The deque may still conservatively
            // report ChildStolen (the thief's cursor can pass the pair
            // without winning the claim); what it must never do is
            // reclaim a *different* special.
            if let PopSpecial::Reclaimed(v) = spec {
                assert_eq!(v, 6, "reclaimed a different special");
            }
        }
    });
    assert!(
        report.complete,
        "fence-free special space not exhausted: {report:?}"
    );
    println!("fence_free_model::special_pair_race_resolves_safely: {report:?}");
}

/// One round of the owner/thief claim race over a single entry.
/// Returns true when the *owner's* claim lost — the benign duplicate
/// extraction multiplicity permits.
fn duplicate_round() -> bool {
    let d = Arc::new(FenceFreeDeque::<u32>::with_capacity(8));
    let claims: Arc<[AtomicBool; 2]> = Arc::new(std::array::from_fn(|_| AtomicBool::new(false)));
    d.push(1);
    let thief = {
        let d = Arc::clone(&d);
        let claims = Arc::clone(&claims);
        shim_sync::thread::spawn(move || match d.steal() {
            StealOutcome::Stolen(v) => claim(&*claims, v),
            StealOutcome::Empty => false,
        })
    };
    // Multiplicity: the owner's pop still offers the entry the thief's
    // cursor passed; the claim decides who actually runs it.
    let owner_got = match d.pop() {
        Some(v) => claim(&*claims, v),
        None => false,
    };
    let thief_got = thief.join().unwrap();
    assert!(owner_got ^ thief_got, "claim layer failed to arbitrate");
    !owner_got
}

/// A duplicate extraction is reachable, benign, and *replayable*: the
/// first schedule that exhibits it is pinned and re-run deterministically.
#[test]
fn benign_duplicate_extraction_pinned_and_replayed() {
    let pinned: Arc<Mutex<Option<Vec<usize>>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&pinned);
    let report = explore(Config::with_preemption_bound(2), move || {
        if duplicate_round() {
            let mut g = sink.lock().unwrap();
            if g.is_none() {
                *g = current_trail();
            }
        }
    });
    assert!(report.complete, "duplicate space not exhausted: {report:?}");
    let trail = pinned
        .lock()
        .unwrap()
        .clone()
        .expect("a schedule where the owner's claim loses must be reachable");
    replay(&trail, move || {
        assert!(
            duplicate_round(),
            "pinned schedule no longer exhibits the duplicate extraction"
        );
    });
    println!(
        "fence_free_model::benign_duplicate pinned trail of {} decisions",
        trail.len()
    );
}
