//! Exhaustive bounded model checking of the THE deque: push/pop/steal
//! linearizability against the reference model, and the special-task
//! extension (`pop_specialtask` / `steal_specialtask`) under an owner vs
//! thief race. Two threads, preemption bound 2, every schedule explored.

use adaptivetc_check::sync::{AtomicBool, Ordering};
use adaptivetc_check::the::{PopSpecial, StealOutcome, TheDeque};
use adaptivetc_check::{explore, linearizable, Config, OwnerOp};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Outcome of one interleaving: (owner pop, pop_special says ChildStolen,
/// thief steal result).
type Outcome = (Option<u32>, bool, Option<u32>);

/// Owner interleaves pushes and pops with a concurrent thief stealing
/// twice; every interleaving's observations must linearize against the
/// sequential reference deque.
#[test]
fn push_pop_steal_linearizable() {
    let report = explore(Config::with_preemption_bound(2), || {
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
        d.push(3).unwrap();
        owner.push(OwnerOp::Push(3));
        for _ in 0..3 {
            owner.push(OwnerOp::Pop(d.pop()));
        }
        let steals = thief.join().unwrap();
        assert!(
            linearizable(&owner, &steals),
            "history not linearizable: owner {owner:?}, steals {steals:?}"
        );
    });
    assert!(
        report.complete,
        "THE push/pop/steal space not exhausted: {report:?}"
    );
    println!("the_protocol::push_pop_steal_linearizable: {report:?}");
}

/// The special-task extension: a thief never steals the special entry
/// itself, the child is consumed exactly once, and `pop_special` reports
/// `ChildStolen` exactly when the thief took the child (THE resolves the
/// race precisely, under the lock).
#[test]
fn special_task_steal_resolution() {
    let outcomes: Arc<Mutex<BTreeSet<Outcome>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = explore(Config::with_preemption_bound(2), move || {
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
        // The special entry is never handed to a thief.
        assert_ne!(stolen, Some(10), "thief stole the special task itself");
        // The child is consumed exactly once, by someone.
        let owner_got = popped == Some(20);
        let thief_got = stolen == Some(20);
        assert!(
            owner_got ^ thief_got,
            "child consumed {} times (popped {popped:?}, stolen {stolen:?})",
            u8::from(owner_got) + u8::from(thief_got)
        );
        // THE's owner-side resolution is exact: ChildStolen iff the thief
        // actually took the child.
        let child_stolen = match spec {
            PopSpecial::Reclaimed(v) => {
                assert_eq!(v, 10, "reclaimed a different special");
                false
            }
            PopSpecial::ChildStolen => true,
        };
        assert_eq!(
            child_stolen, thief_got,
            "pop_special said ChildStolen={child_stolen} but thief_got={thief_got}"
        );
        sink.lock().unwrap().insert((popped, child_stolen, stolen));
    });
    assert!(
        report.complete,
        "THE special-task space not exhausted: {report:?}"
    );
    let seen = outcomes.lock().unwrap().clone();
    // Both resolutions of the race must actually be reachable.
    assert!(
        seen.contains(&(Some(20), false, None)),
        "never saw the owner keep the child: {seen:?}"
    );
    assert!(
        seen.contains(&(None, true, Some(20))),
        "never saw the thief win the child: {seen:?}"
    );
    println!("the_protocol::special_task_steal_resolution: {report:?}, outcomes {seen:?}");
}

/// Who consumed the last entry: (owner pop, thief steal).
type Consumed = (Option<u32>, Option<u32>);

/// The thief's unlocked peek of `head` and `tail` races the owner's pop
/// of the last entry. Each of the peek's two loads is a yield point, so
/// the explorer interleaves them with the pop's tail store, fence and
/// head load. In every schedule the entry is consumed exactly once, and
/// a steal that runs wholly inside the pop is seen to lose (owner keeps
/// the entry, `Empty`) and to win (owner's pop sees `None`).
#[test]
fn a_peek_races_the_pop_of_the_last_entry() {
    let outcomes: Arc<Mutex<BTreeSet<Consumed>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&outcomes);
    let report = explore(Config::with_preemption_bound(2), move || {
        let d = Arc::new(TheDeque::<u32>::new(8));
        d.push(1).unwrap();
        let popping = Arc::new(AtomicBool::new(false));
        let thief = {
            let (d, popping) = (Arc::clone(&d), Arc::clone(&popping));
            shim_sync::thread::spawn(move || {
                // SeqCst: test bookkeeping, outside the deque under test.
                let before = popping.load(Ordering::SeqCst);
                let stolen = match d.steal() {
                    StealOutcome::Stolen(v) => Some(v),
                    StealOutcome::Empty => None,
                };
                // SeqCst: as above.
                (stolen, before && popping.load(Ordering::SeqCst))
            })
        };
        // SeqCst: as above.
        popping.store(true, Ordering::SeqCst);
        let popped = d.pop();
        // SeqCst: as above.
        popping.store(false, Ordering::SeqCst);
        let (stolen, inside) = thief.join().unwrap();
        assert!(
            (popped == Some(1)) ^ (stolen == Some(1)),
            "entry consumed zero or two times: popped {popped:?}, stolen {stolen:?}"
        );
        if inside {
            sink.lock().unwrap().insert((popped, stolen));
        }
    });
    assert!(
        report.complete,
        "THE last-pop space not exhausted: {report:?}"
    );
    let seen = outcomes.lock().unwrap().clone();
    assert!(
        seen.contains(&(Some(1), None)),
        "never saw a steal inside the pop lose: {seen:?}"
    );
    assert!(
        seen.contains(&(None, Some(1))),
        "never saw a steal inside the pop win: {seen:?}"
    );
    println!("the_protocol::a_peek_races_the_pop_of_the_last_entry: {report:?}, outcomes {seen:?}");
}
