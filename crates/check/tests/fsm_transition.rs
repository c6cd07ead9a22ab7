//! Bounded model checking of the fast→check→fast_2 transition: a
//! miniature adaptive worker — driven by the FSM kernel the threaded
//! engine uses (`adaptivetc_strategy::fsm`) and the task rule both engines
//! execute (`Kernel::real_task`) — walks fake tasks, reacts to a
//! concurrent starving thief via the real `NeedTask` signal, and hands a
//! child over through the real THE deque's special-task protocol. Every
//! interleaving at preemption bound 3 is explored.

use adaptivetc_check::signal::NeedTask;
use adaptivetc_check::the::{PopSpecial, StealOutcome, TheDeque};
use adaptivetc_check::{explore, Config};
use adaptivetc_core::XorShift64;
use adaptivetc_strategy::fsm::{self, Version};
use adaptivetc_strategy::{Kernel, Mode, Regime};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const BASE_CUTOFF: u32 = 1;
const CHILD: u32 = 7;
const SPECIAL: u32 = 100;

/// What one schedule did: (owner entered the special section, thief's
/// steal result). The thief-wins path needs three preemptions (owner ->
/// thief for the failures, back to the owner for the special section,
/// back to the thief before the owner's pop), so this suite explores at
/// preemption bound 3 — strictly more than the 2-bound floor the other
/// suites guarantee.
type Outcome = (bool, Option<u32>);

#[test]
fn fast_check_fast2_walk_under_thief() {
    let seen: Arc<Mutex<BTreeSet<Outcome>>> = Arc::new(Mutex::new(BTreeSet::new()));
    let sink = Arc::clone(&seen);
    let report = explore(Config::with_preemption_bound(3), move || {
        let deque = Arc::new(TheDeque::<u32>::new(8));
        let signal = Arc::new(NeedTask::new(1));
        // A starving thief: two failed steal attempts raise need_task on
        // its victim (strict threshold 1), then one real attempt.
        let thief = {
            let (deque, signal) = (Arc::clone(&deque), Arc::clone(&signal));
            shim_sync::thread::spawn(move || {
                let mut stolen = None;
                for _ in 0..3 {
                    match deque.steal() {
                        StealOutcome::Stolen(v) => {
                            signal.record_steal_success();
                            stolen = Some(v);
                            break;
                        }
                        StealOutcome::Empty => {
                            signal.record_steal_failure();
                        }
                    }
                }
                stolen
            })
        };

        // The owner starts past the cut-off: fast has fallen through to
        // the check version (fake tasks polling need_task per node).
        let kernel = Kernel::new(Mode::Adaptive, BASE_CUTOFF, XorShift64::new(1));
        assert!(!kernel.real_task(BASE_CUTOFF, Regime::Fast));
        assert_eq!(fsm::fallthrough(false), Version::Check);
        let mut version = Version::Check;
        let mut fake_tasks = 0u32;
        let mut special_entered = false;
        for _node in 0..4 {
            assert_eq!(version, Version::Check);
            version = fsm::after_poll(signal.needs_task());
            if version == Version::Special {
                // The special section: acknowledge, publish the special
                // task, run its child through fast_2 with depth reset.
                special_entered = true;
                signal.acknowledge();
                let (reentry, depth) = fsm::special_reentry();
                assert_eq!(reentry, Version::Fast2);
                assert!(
                    kernel.real_task(depth, Regime::Fast2),
                    "fast_2 must create tasks again at the reset depth"
                );
                // The rule is `depth < cutoff`, doubled in fast_2.
                assert!(kernel.real_task(2 * BASE_CUTOFF - 1, Regime::Fast2));
                assert!(!kernel.real_task(2 * BASE_CUTOFF, Regime::Fast2));
                deque.push_special(SPECIAL).unwrap();
                deque.push(CHILD).unwrap();
                // The child's subtree runs; its continuation entry may be
                // stolen meanwhile. Then the owner pops what is left.
                let popped = deque.pop();
                match deque.pop_special() {
                    PopSpecial::Reclaimed(v) => {
                        assert_eq!(v, SPECIAL);
                        assert_eq!(
                            popped,
                            Some(CHILD),
                            "special reclaimed but the child is gone"
                        );
                    }
                    PopSpecial::ChildStolen => {
                        assert_eq!(
                            popped, None,
                            "THE reported ChildStolen but the owner also popped the child"
                        );
                    }
                }
                break;
            }
            fake_tasks += 1;
        }
        let stolen = thief.join().unwrap();
        // Exactly-once: the child exists iff the special section ran, and
        // then exactly one party consumed it (checked above for the owner
        // side; here the cross-thread half).
        if stolen.is_some() {
            assert!(special_entered, "thief stole from an empty worker");
            assert_eq!(stolen, Some(CHILD), "thief took something but the child");
        }
        if !special_entered {
            assert!(
                fake_tasks > 0,
                "owner neither ran fake tasks nor the special section"
            );
        }
        sink.lock().unwrap().insert((special_entered, stolen));
    });
    assert!(
        report.complete,
        "FSM transition space not exhausted: {report:?}"
    );
    let seen = seen.lock().unwrap().clone();
    // Both FSM paths must be reachable: staying in check (thief never
    // starves in time) and the full check→special→fast_2 walk; and within
    // the latter, both the owner keeping and the thief winning the child.
    assert!(
        seen.contains(&(false, None)),
        "never explored the pure fake-task path: {seen:?}"
    );
    assert!(
        seen.contains(&(true, None)),
        "never explored special section with the owner keeping the child: {seen:?}"
    );
    assert!(
        seen.contains(&(true, Some(CHILD))),
        "never explored the thief winning the special task's child: {seen:?}"
    );
    println!("fsm_transition::fast_check_fast2_walk_under_thief: {report:?}, outcomes {seen:?}");
}
