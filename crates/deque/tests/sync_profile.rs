//! The synchronization profile of the owner path, counted by the
//! `count-sync` shims: the fence-free backend's reason to exist is that
//! push and pop perform no fence and no `SeqCst` operation at all, where
//! THE and Chase-Lev pay a Dekker fence per pop (Table 2's per-spawn
//! cost).
//!
//! One `#[test]` only: the counters are process-global, so nothing else
//! may touch a deque while a profile is being taken.
#![cfg(feature = "count-sync")]

use adaptivetc_deque::sync_counts::{self, Counts};
use adaptivetc_deque::{ChaseLevDeque, FenceFreeDeque, TheDeque, WsDeque};

/// Ops per phase; the deque is pre-sized so no growth or overflow path
/// pollutes the counts.
const N: u64 = 1024;

/// Counts of `N` owner pushes, then of `N` owner pops.
fn owner_profile<D: WsDeque<u64>>() -> (Counts, Counts) {
    let d = D::with_capacity(2 * N as usize);
    let start = sync_counts::snapshot();
    for i in 0..N {
        d.push(i).expect("capacity pre-sized");
    }
    let pushed = sync_counts::snapshot();
    for _ in 0..N {
        assert!(d.pop().is_some());
    }
    let popped = sync_counts::snapshot();
    (pushed.since(start), popped.since(pushed))
}

#[test]
fn fence_free_owner_path_is_fence_and_seqcst_free() {
    let (ff_push, ff_pop) = owner_profile::<FenceFreeDeque<u64>>();
    for (op, c) in [("push", ff_push), ("pop", ff_pop)] {
        assert_eq!(c.fences, 0, "fence-free {op} fenced: {c:?}");
        assert_eq!(c.seqcst_ops, 0, "fence-free {op} used SeqCst: {c:?}");
    }
    let ff_rmw = ff_push.rmw_ops + ff_pop.rmw_ops;
    for (name, (push, pop)) in [
        (TheDeque::<u64>::NAME, owner_profile::<TheDeque<u64>>()),
        (
            ChaseLevDeque::<u64>::NAME,
            owner_profile::<ChaseLevDeque<u64>>(),
        ),
    ] {
        // An exact backend without its Dekker fence would make the
        // comparison vacuous.
        assert!(pop.fences > 0, "{name} pop lost its fence: {pop:?}");
        assert!(
            push.seqcst_ops + pop.seqcst_ops > 0,
            "{name} performs no SeqCst op: {push:?} {pop:?}"
        );
        assert!(
            ff_rmw <= push.rmw_ops + pop.rmw_ops,
            "fence-free RMWs {ff_rmw} exceed {name}: {push:?} {pop:?}"
        );
    }
}
