//! Bounded model checking of Tascell's steal-request word.
//!
//! The real `Request` (`runtime/src/request.rs`) is driven by the
//! miniature victim and thieves of [`adaptivetc_check::request_model`]:
//! one victim runs two tasks, polling the word at every node and closing
//! it at each task's end, while two thieves ask until their attempts run
//! out. Properties, checked in every schedule: each installed request is
//! **answered exactly once**, the victim's close **strands none**, and the
//! word ends `IDLE`. Exhaustive at preemption bounds 2 and 3 (a few
//! thousand schedules, about a second), and the store-instead-of-swap
//! mutant is refuted with a replayable trail.

use adaptivetc_check::request_model::{victim_vs_two_thieves, Mutant};
use adaptivetc_check::{explore, replay, Config};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Two tasks of two nodes; each thief asks up to twice in all.
fn scenario(mutant: Mutant) -> [u32; 2] {
    victim_vs_two_thieves(2, 2, 2, mutant)
}

#[test]
fn every_request_is_answered_exactly_once() {
    for pb in [2, 3] {
        let seen = Arc::new(Mutex::new(BTreeSet::new()));
        let sink = Arc::clone(&seen);
        let report = explore(Config::with_preemption_bound(pb), move || {
            let asked = scenario(Mutant::None);
            sink.lock().unwrap().insert(asked);
        });
        println!("request_protocol bound {pb}: {report:?}");
        assert!(report.complete, "space not exhausted at bound {pb}");
        // The interleavings the protocol exists for were reached: no
        // request at all, one thief answered twice (at a poll and at a
        // close, or across the two tasks), and both thieves served.
        let seen = seen.lock().unwrap();
        assert!(seen.contains(&[0, 0]), "no schedule left both thieves out");
        assert!(
            seen.iter().any(|a| a.contains(&2)),
            "no thief was answered twice: {seen:?}"
        );
        assert!(
            seen.iter().any(|a| a[0] > 0 && a[1] > 0),
            "never both thieves: {seen:?}"
        );
    }
}

/// The payload of a violation, as text.
fn text(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("violation payload is not a string")
}

/// The seeded bug: the victim goes idle by reading the word and storing
/// `IDLE` over it. A thief whose CAS lands between the two is never
/// answered, and waits for ever; the explorer must report it with a trail
/// that replays to the same violation.
#[test]
fn storing_idle_instead_of_swapping_is_caught_with_replayable_trail() {
    let buggy = || {
        scenario(Mutant::StoreIdle);
    };
    let msg = text(
        catch_unwind(AssertUnwindSafe(|| {
            explore(Config::with_preemption_bound(2), buggy);
        }))
        .expect_err("the explorer missed the stranded request at bound 2"),
    );
    assert!(msg.contains("stranded"), "not the seeded bug: {msg}");
    let trail: Vec<usize> = msg
        .split("shim_sync::replay): [")
        .nth(1)
        .expect("violation report carries no trail")
        .split(']')
        .next()
        .unwrap()
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("trail entries are numeric"))
        .collect();
    let replayed = text(
        catch_unwind(AssertUnwindSafe(|| replay(&trail, buggy)))
            .expect_err("replaying the violating schedule did not reproduce it"),
    );
    assert!(
        replayed.contains("stranded"),
        "replay failed for a different reason: {replayed}"
    );
}
