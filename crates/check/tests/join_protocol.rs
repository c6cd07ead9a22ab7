//! Bounded model checking of the work-first join protocol.
//!
//! The real `JoinCell` (`runtime/src/join.rs`) is driven by the miniature
//! engine of [`adaptivetc_check::join_model`] over the real THE deque: an
//! owner runs a small tree while one or two thieves steal whatever
//! continuation they can reach. Properties, checked in every schedule:
//! the root completes **exactly once**, the completion carries **every
//! child's result**, **nothing is delivered after completion** (the
//! cell's own assertion), and every frame is **retired exactly once and
//! never touched after** — the reuse rule that lets the engine hand a
//! frame to a free list without counting references. Each suite is
//! exhaustive at preemption bound 2 and additionally asserts that the
//! interleaving it exists for was actually reached; [`bound_three_sweep`]
//! pushes the same bodies to bound 3 as far as the budgets
//! (`SHIM_SYNC_MAX_WALL_SECS` in CI) allow.

use adaptivetc_check::join_model::{
    owner_vs_thief, owner_vs_thief_retiring, owner_vs_two_thieves, Mutant, Node, FLAT, NESTED_KEPT,
    NESTED_STOLEN,
};
use adaptivetc_check::{explore, replay_with, Config};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Happens-before race checking on: the model's continuation-private
/// fields are `RaceCell`s, so every schedule also proves that only the
/// holder touches them — and, because the happens-before state (lock
/// order included) then enters the explorer's state hash, that no two
/// schedules differing in who emptied a cell are merged by pruning.
fn checked(pb: u32) -> Config {
    Config {
        check_races: true,
        ..Config::with_preemption_bound(pb)
    }
}

/// Explore `body` exhaustively at bound 2 and return every outcome (a
/// steal pattern, say) some schedule produced.
fn exhaust<T: Ord + Clone + std::fmt::Debug + Send + 'static>(
    name: &str,
    body: impl Fn() -> T + Send + Sync + 'static,
) -> BTreeSet<T> {
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&seen);
    let report = explore(checked(2), move || {
        let outcome = body();
        sink.lock().unwrap().insert(outcome);
    });
    assert!(report.complete, "{name}: space not exhausted: {report:?}");
    let seen = seen.lock().unwrap().clone();
    println!("join_protocol::{name}: {report:?}, outcomes {seen:?}");
    seen
}

/// The payload of a violation, as text.
fn text(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("violation payload is not a string")
}

/// A seeded bug must be caught at bound 2, with a trail whose replay
/// fails the same way (`is_it` tells the expected violation apart).
fn caught_with_replayable_trail(buggy: fn(), is_it: fn(&str) -> bool) {
    let msg = text(
        catch_unwind(AssertUnwindSafe(|| {
            explore(checked(2), buggy);
        }))
        .expect_err("the explorer missed the seeded bug at bound 2"),
    );
    assert!(is_it(&msg), "violation is not the seeded bug's: {msg}");
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
        catch_unwind(AssertUnwindSafe(|| replay_with(checked(2), &trail, buggy)))
            .expect_err("replaying the violating schedule did not reproduce it"),
    );
    assert!(
        is_it(&replayed),
        "replay failed for a different reason: {replayed}"
    );
}

#[test]
fn steal_before_and_after_the_child_returns() {
    // One thief, one attempt: it lands before the owner's first push
    // (nothing stolen), while a child runs (the victim's pop fails and
    // its finished child arrives through the cell), or after the last
    // pop (nothing left to steal).
    let seen = exhaust("flat_one_thief", || owner_vs_thief(&FLAT, 1, Mutant::None));
    assert!(seen.contains(&vec![None]), "never-stolen path unexplored");
    assert!(seen.contains(&vec![Some(0)]), "stolen path unexplored");
}

#[test]
fn stolen_continuation_stolen_again() {
    let seen = exhaust("flat_two_thieves", || owner_vs_two_thieves(&FLAT));
    assert!(
        seen.contains(&vec![Some(0), Some(0)]),
        "the second thief never re-stole the continuation: {seen:?}"
    );
}

#[test]
fn child_detached_under_a_kept_parent() {
    // The root's last spawn is unpushed, so a thief can only take the
    // inner frame: its owner returns `Detached` into a root that stays
    // put and must add a token before its sync.
    let seen = exhaust("nested_kept", || {
        owner_vs_thief(&NESTED_KEPT, 1, Mutant::None)
    });
    assert!(
        seen.contains(&vec![Some(1)]),
        "inner frame never stolen: {seen:?}"
    );
    assert!(seen.contains(&vec![Some(0)]), "root never stolen: {seen:?}");
}

#[test]
fn child_detached_under_a_stolen_parent() {
    // Two attempts against [root, inner]: oldest first, so taking both
    // leaves the victim unwinding through two failed pops.
    let seen = exhaust("nested_stolen", || {
        owner_vs_thief(&NESTED_STOLEN, 2, Mutant::None)
    });
    assert!(
        seen.contains(&vec![Some(0), Some(1)]),
        "root and inner frame never both stolen: {seen:?}"
    );
}

#[test]
fn bound_three_sweep() {
    // Deeper than the exhaustive floor; cut short by the budget, never
    // by a violation.
    let cfg = || Config {
        max_wall: Duration::from_secs(20),
        ..checked(3)
    };
    for (name, report) in [
        (
            "flat_two_thieves",
            explore(cfg(), || drop(owner_vs_two_thieves(&FLAT))),
        ),
        (
            "nested_kept",
            explore(cfg(), || {
                drop(owner_vs_thief(&NESTED_KEPT, 1, Mutant::None))
            }),
        ),
        (
            "nested_stolen",
            explore(cfg(), || {
                drop(owner_vs_thief(&NESTED_STOLEN, 2, Mutant::None))
            }),
        ),
    ] {
        println!("join_protocol::bound_three_sweep {name}: {report:?}");
    }
}

/// Both routes by which a frame goes back for reuse are reached — by its
/// holder, at a sync that never went asynchronous or whose release emptied
/// the cell, and by an arriving child that emptied it — and in no schedule
/// of the three trees does anybody touch a frame after either (the model's
/// `retired` assertion and race check), or leave one unretired (`verify`).
#[test]
fn no_frame_is_touched_after_its_retirement() {
    let trees: [(&str, &'static Node, usize); 3] = [
        ("flat", &FLAT, 1),
        ("nested_kept", &NESTED_KEPT, 1),
        ("nested_stolen", &NESTED_STOLEN, 2),
    ];
    for (name, tree, attempts) in trees {
        let seen = exhaust(&format!("retirement_{name}"), move || {
            owner_vs_thief_retiring(tree, attempts, Mutant::None)
        });
        assert!(
            seen.iter().any(|(_, by_arrival)| by_arrival.is_empty()),
            "{name}: no schedule left every retirement to a holder"
        );
        assert!(
            seen.iter().any(|(_, by_arrival)| !by_arrival.is_empty()),
            "{name}: no schedule retired a frame by an arriving child"
        );
    }
}

/// The seeded bug: a holder that keeps its frame after a child came back
/// detached forgets to add the in-flight token. Its sync then releases
/// the token the detached child still needs — an early completion the
/// explorer must report with a trail that replays to the same violation.
#[test]
fn missing_readded_token_is_caught_with_replayable_trail() {
    caught_with_replayable_trail(
        || drop(owner_vs_thief(&NESTED_KEPT, 1, Mutant::DropReaddedToken)),
        |msg| {
            msg.contains("root completions")
                || msg.contains("settled after completion")
                || msg.contains("touched after its retirement")
        },
    );
}

/// The seeded reuse bug: a victim whose continuation was stolen re-reads
/// the frame's `acc` after delivering its finished child into a cell it
/// did not empty. Its right to the frame went with that token: the thief
/// may be writing `acc`, or may already have retired the frame for reuse.
#[test]
fn victim_rereading_acc_is_caught_with_replayable_trail() {
    caught_with_replayable_trail(
        || drop(owner_vs_thief(&FLAT, 1, Mutant::VictimRereadsAcc)),
        |msg| msg.contains("touched after its retirement") || msg.contains("data race on"),
    );
}
