//! Bounded model checking of the copy-on-steal workspace handshake.
//!
//! The runtime's copy-on-steal protocol (see `adaptivetc-runtime`'s
//! `engine` module) defers the taskprivate workspace clone of a spawned
//! continuation until a thief actually steals it. The thief then obtains a
//! *frame-pristine* workspace through a deposit cell guarded by two flags:
//!
//! * the owner deposits a pristine clone — at a service poll when the
//!   thief's `ws_requested` flag is up, or unconditionally at the pop
//!   conflict that reveals the theft — into a mutex-guarded slot, and
//!   raises `ws_ready` if the slot was empty;
//! * the thief consumes the deposit with a `ws_ready` swap and empties the
//!   slot, so a later handshake on the same (re-pushed) frame starts from
//!   a lowered flag and an empty slot.
//!
//! [`WsCell`] follows `Frame::deposit_ws` and `Frame::try_take_ws` step
//! for step. These suites re-run that handshake against the real THE
//! source under every bounded interleaving. The thief never spins in the
//! model: outcomes are verified *post hoc* after both threads join, which
//! keeps the schedule space finite while still checking the protocol's
//! safety net — whenever an entry is stolen, a pristine deposit is (or
//! becomes) available, and it is never the dirty mid-child value.

use adaptivetc_check::sync::{AtomicBool, Mutex, Ordering};
use adaptivetc_check::the::{StealOutcome, TheDeque};
use adaptivetc_check::{explore, Config};
use std::sync::Arc;

/// The frame-pristine workspace value the owner must hand to a thief.
const PRISTINE: u32 = 7;
/// The live workspace value while a child executes (never stealable).
const DIRTY: u32 = 99;

/// Model of the `Frame` workspace handshake fields: `ws_requested`,
/// `ws_ready` and the `deposit` slot with its mutex.
struct WsCell {
    requested: AtomicBool,
    ready: AtomicBool,
    slot: Mutex<Option<u32>>,
}

impl WsCell {
    fn new() -> Self {
        WsCell {
            requested: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            slot: Mutex::new(None),
        }
    }

    /// Owner side, as `Frame::deposit_ws`: lower the request, then store
    /// the clone and publish it only if the slot is empty — a second
    /// deposit keeps the first clone.
    fn deposit(&self, ws: u32) {
        self.requested.store(false, Ordering::Release);
        let mut g = self.slot.lock();
        if g.is_none() {
            *g = Some(ws);
            drop(g);
            self.ready.store(true, Ordering::Release);
        }
    }

    /// Thief side, as `Frame::try_take_ws`: consume `ws_ready` with a
    /// swap, lower the request, and empty the slot.
    fn try_take(&self) -> Option<u32> {
        if !self.ready.swap(false, Ordering::AcqRel) {
            return None;
        }
        self.requested.store(false, Ordering::Release);
        self.slot.lock().take()
    }
}

/// One owner spawn round against a THE deque: push the frame entry, run
/// the child on the (dirty) live workspace, undo, pop. A pop conflict is
/// the theft signal: back-stop deposit, exactly as `frame_loop_inplace`.
/// Returns whether the owner retained the entry.
fn owner_round_the(d: &TheDeque<u32>, ws: &WsCell, service: bool) -> bool {
    d.push(1).unwrap();
    // apply: the live workspace is dirty while the child runs. A service
    // poll in this window must deposit the *pristine* value (the engine
    // reconstructs it by unwinding the trail, never the live bytes).
    let live = DIRTY;
    if service && ws.requested.load(Ordering::Acquire) {
        ws.deposit(PRISTINE);
    }
    // undo: back to frame-pristine.
    let live = if live == DIRTY { PRISTINE } else { live };
    match d.pop() {
        Some(_) => true,
        None => {
            ws.deposit(live);
            false
        }
    }
}

/// Thief side: one steal attempt, then at most one non-blocking take.
/// Returns (stole the entry, workspace taken during the run).
fn thief_round_the(d: &TheDeque<u32>, ws: &WsCell, request: bool) -> (bool, Option<u32>) {
    match d.steal() {
        StealOutcome::Stolen(_) => {
            if request {
                ws.requested.store(true, Ordering::Release);
            }
            (true, ws.try_take())
        }
        StealOutcome::Empty => (false, None),
    }
}

/// Post-hoc oracle, run after both threads joined: exactly one side owns
/// the entry, and a theft always ends with a pristine workspace for the
/// thief — taken live, or still deposited now that the owner is done.
fn verify(stolen: bool, taken: Option<u32>, popped: bool, ws: &WsCell) {
    assert!(
        stolen != popped,
        "entry must be consumed exactly once (stolen={stolen}, popped={popped})"
    );
    if stolen {
        let got = match taken {
            Some(v) => v,
            None => ws
                .try_take()
                .expect("owner finished without publishing a deposit for the thief"),
        };
        assert_eq!(got, PRISTINE, "thief received a non-pristine workspace");
    } else {
        assert_eq!(taken, None, "no deposit may exist for an unstolen entry");
        assert!(
            ws.try_take().is_none(),
            "owner deposited despite retaining the entry"
        );
    }
}

/// The pop-conflict race window on THE: the steal and the owner's pop
/// contend for the single entry; whoever loses must leave the thief with a
/// pristine deposit.
#[test]
fn the_conflict_backstop_feeds_thief() {
    let report = explore(Config::with_preemption_bound(2), || {
        let d = Arc::new(TheDeque::<u32>::new(8));
        let ws = Arc::new(WsCell::new());
        let thief = {
            let (d, ws) = (Arc::clone(&d), Arc::clone(&ws));
            shim_sync::thread::spawn(move || thief_round_the(&d, &ws, false))
        };
        let popped = owner_round_the(&d, &ws, false);
        let (stolen, taken) = thief.join().unwrap();
        verify(stolen, taken, popped, &ws);
    });
    assert!(
        report.complete,
        "THE conflict space not exhausted: {report:?}"
    );
    println!("copy_on_steal::the_conflict_backstop_feeds_thief: {report:?}");
}

/// The request/service path on THE: the thief raises `ws_requested`, the
/// owner services it mid-child (while the live workspace is dirty), and
/// the deposit must still be the pristine reconstruction.
#[test]
fn the_service_deposit_is_pristine() {
    let report = explore(Config::with_preemption_bound(2), || {
        let d = Arc::new(TheDeque::<u32>::new(8));
        let ws = Arc::new(WsCell::new());
        let thief = {
            let (d, ws) = (Arc::clone(&d), Arc::clone(&ws));
            shim_sync::thread::spawn(move || thief_round_the(&d, &ws, true))
        };
        let popped = owner_round_the(&d, &ws, true);
        let (stolen, taken) = thief.join().unwrap();
        verify(stolen, taken, popped, &ws);
    });
    assert!(
        report.complete,
        "THE service space not exhausted: {report:?}"
    );
}

/// Two successive handshakes on the same frame shell (the thief that
/// materialised a frame re-pushes it and is robbed in turn). Round one's
/// take empties the slot under its mutex, and the deposit tests the slot,
/// not `ws_ready`: so the round-two conflict backstop publishes afresh
/// instead of keeping a clone that was already taken, and the second thief
/// is fed. The take's `ws_ready` swap keeps the flag meaning "an untaken
/// deposit is present", so no thief reads round one's flag as round two's
/// deposit. Bound 3: a take that left the slot full starves round two only
/// when the thief's first steal beats the owner's pop, the owner's deposit
/// beats the thief's take, and the second steal beats the second pop.
#[test]
fn the_second_handshake_not_starved_by_stale_ready() {
    let report = explore(Config::with_preemption_bound(3), || {
        let d = Arc::new(TheDeque::<u32>::new(8));
        let ws = Arc::new(WsCell::new());
        let thief = {
            let (d, ws) = (Arc::clone(&d), Arc::clone(&ws));
            shim_sync::thread::spawn(move || {
                let r1 = thief_round_the(&d, &ws, false);
                let r2 = thief_round_the(&d, &ws, false);
                (r1, r2)
            })
        };
        let popped1 = owner_round_the(&d, &ws, false);
        // Round two re-pushes the same frame; its pristine value is the
        // same (the workspace invariant is path-based, not round-based).
        let popped2 = owner_round_the(&d, &ws, false);
        let ((stolen1, taken1), (stolen2, taken2)) = thief.join().unwrap();
        // The thief's two steal attempts race both rounds; order in the
        // deque is FIFO for thieves, so attempt i can only take entry i.
        let (mut stolen, mut taken_ok) = (0, true);
        for (s, t) in [(stolen1, taken1), (stolen2, taken2)] {
            if s {
                stolen += 1;
            }
            if let Some(v) = t {
                taken_ok &= v == PRISTINE;
            }
        }
        let popped = [popped1, popped2].iter().filter(|&&p| p).count();
        assert_eq!(stolen + popped, 2, "each entry consumed exactly once");
        assert!(taken_ok, "a thief received a non-pristine workspace");
        // Every theft that did not take its deposit live must find one now.
        let mut owed = stolen;
        if taken1.is_some() {
            owed -= 1;
        }
        if taken2.is_some() {
            owed -= 1;
        }
        for _ in 0..owed {
            assert_eq!(
                ws.try_take(),
                Some(PRISTINE),
                "a stolen round ended with no deposit published"
            );
        }
    });
    assert!(
        report.complete,
        "THE two-round space not exhausted: {report:?}"
    );
    println!("copy_on_steal::the_second_handshake_not_starved_by_stale_ready: {report:?}");
}
