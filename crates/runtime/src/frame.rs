//! Task frames and the asynchronous result-delivery chain.
//!
//! A [`Frame`] is the runtime representation of a *task*: the continuation of
//! a node whose children are being spawned. It corresponds to the
//! `task_info` structure the AdaptiveTC compiler allocates at the entry of a
//! fast version (saved program counter = `next`, saved live variables =
//! `state` + `acc`).
//!
//! Frames are work-first, as in Cilk-5: joining costs nothing until a theft.
//! A child that finishes on the worker that spawned it returns its result
//! on the stack ([`Outcome::Done`]) and the parent's continuation folds it
//! into [`Cont::acc`], a field only the continuation's current *holder*
//! touches. A frame that is never stolen therefore takes no lock, performs
//! no atomic read-modify-write and completes by returning.
//!
//! Only when a continuation is stolen do results flow asynchronously: the
//! victim's finished child, and later every frame that completes off its
//! parent's stack, [`deliver`] into the parent's shared [`JoinCell`] (token
//! rule in [`crate::join`]). The frame completes when its holder has
//! reached the sync *and* every such child has arrived; whoever brings the
//! cell to zero carries the total one level up, cascading until a frame
//! still waiting, the [`RootCell`] or a special task's [`OutCell`] is
//! reached. Suspension at a `sync` is implicit: the holder releases its
//! tokens with children outstanding and walks away
//! ([`Outcome::Detached`]), and the last arriving child performs the
//! completion (the paper's Terminate rule (3)).

use crate::join::JoinCell;
use crate::sync::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex};
use adaptivetc_core::{Problem, Reduce};
use std::cell::UnsafeCell;
use std::sync::Arc;
use std::time::Duration;

/// The special task's result mailbox: `sync_specialtask` sleeps on it in
/// bounded naps, so a delivery notifies.
#[derive(Debug)]
pub(crate) struct OutCell<O> {
    slot: Mutex<Option<O>>,
    cv: Condvar,
}

impl<O: Send> OutCell<O> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(OutCell {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn deliver(&self, out: O) {
        let mut g = self.slot.lock();
        debug_assert!(g.is_none(), "OutCell delivered twice");
        *g = Some(out);
        self.cv.notify_all();
    }

    /// Block for at most `timeout`; `Some` if the value arrived. The
    /// waiter must keep servicing copy-on-steal workspace requests while
    /// blocked (see `engine::special_section`).
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<O> {
        let mut g = self.slot.lock();
        if g.is_none() {
            let _ = self.cv.wait_for(&mut g, timeout);
        }
        g.take()
    }
}

/// The root task's result cell. Nobody sleeps on it — workers poll
/// [`is_done`](RootCell::is_done) between steals, and whoever collects the
/// result does so after it saw `done` or joined the workers — so a
/// delivery makes no futex call. Reusable: a job-server region keeps one
/// cell for all the jobs its pool worker leads.
#[derive(Debug)]
pub(crate) struct RootCell<O> {
    slot: Mutex<Option<O>>,
    done: AtomicBool,
}

impl<O: Send> RootCell<O> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RootCell {
            slot: Mutex::new(None),
            done: AtomicBool::new(false),
        })
    }

    pub(crate) fn deliver(&self, out: O) {
        let mut g = self.slot.lock();
        debug_assert!(g.is_none(), "root cell delivered twice");
        *g = Some(out);
        drop(g);
        // Release: publishes the output written under the mutex before
        // `done` flips; pairs with `is_done`'s Acquire.
        self.done.store(true, Ordering::Release);
    }

    /// Non-blocking readiness check (workers poll this to terminate).
    pub(crate) fn is_done(&self) -> bool {
        // Acquire: pairs with `deliver`'s Release, so a worker that sees
        // `done` also sees the delivered value.
        self.done.load(Ordering::Acquire)
    }

    /// The delivered result. `done` stays up: a late joiner of a finished
    /// job must keep seeing it finished.
    pub(crate) fn take(&self) -> O {
        self.slot
            .lock()
            .take()
            .expect("the root result is collected once, after the run")
    }

    /// Make the cell ready for another run. `false` — and nothing reset —
    /// if a result is still in it.
    pub(crate) fn rearm(&mut self) -> bool {
        let empty = self.slot.get_mut().is_none();
        if empty {
            *self.done.get_mut() = false;
        }
        empty
    }
}

/// Where a frame delivers its completed result.
pub(crate) enum Parent<P: Problem> {
    /// The run's root cell.
    Root(Arc<RootCell<P::Out>>),
    /// A special task's waiter mailbox.
    Cell(Arc<OutCell<P::Out>>),
    /// An enclosing frame.
    Frame(Arc<Frame<P>>),
    /// Scrubbed: a pooled shell, or a completed frame whose link was
    /// consumed by the cascade.
    None,
}

/// What running a subtree produced on this worker's stack.
pub(crate) enum Outcome<O> {
    /// The subtree finished here; the caller joins the result itself.
    Done(O),
    /// A continuation below was stolen: the result reaches the parent
    /// through its join cell (or has already), not through this return.
    Detached,
}

/// The continuation of a frame: everything only its *holder* — the
/// worker currently running the continuation — may touch.
pub(crate) struct Cont<P: Problem> {
    pub parent: Parent<P>,
    /// The node's taskprivate workspace under the Cilk modes (the
    /// *parent's* copy; children get clones). `None` for in-place frames,
    /// which borrow the owner's live workspace, and for special tasks.
    pub state: Option<P::State>,
    /// Choices at this node, in order.
    pub choices: Vec<P::Choice>,
    /// Index of the next choice to spawn (the saved program counter).
    pub next: usize,
    /// Fold of the child results joined on the holder's stack.
    pub acc: P::Out,
    /// Task depth (the paper's cut-off counter; reset to 0 under a special
    /// task).
    pub depth: u32,
    /// Logical depth of the node in the problem tree (always root-relative;
    /// passed to `Problem::expand`).
    pub logical: u32,
}

/// A heap-allocated task continuation.
pub(crate) struct Frame<P: Problem> {
    /// Holder-private; see [`Frame::cont`] for who the holder is.
    cont: UnsafeCell<Cont<P>>,
    /// The shared half of the join: untouched until a theft.
    pub join: JoinCell<P::Out>,
    /// Copy-on-steal deposit slot, guarded by `ws_ready`: it is only ever
    /// locked after a steal or a seal, so its lock stays.
    deposit: Mutex<Option<P::State>>,
    /// Copy-on-steal handshake. `owner` is the worker whose in-place
    /// workspace this frame borrows; a thief that steals the frame before a
    /// workspace was materialised sets `ws_requested` and waits for the
    /// owner to deposit a clone and publish it through `ws_ready`. The
    /// owner also deposits unconditionally when a pop conflict reveals the
    /// frame was stolen, so a waiting thief always makes progress.
    pub owner: AtomicUsize,
    pub ws_requested: AtomicBool,
    pub ws_ready: AtomicBool,
    /// Generation stamp, bumped every time a pooled frame shell is reused.
    /// A thief snapshots it when it begins the workspace handshake; the
    /// stamp changing under the handshake would mean the frame was recycled
    /// while a steal was in flight (checked in debug builds).
    pub generation: AtomicU32,
    /// Claim epoch for multiplicity deque backends (`fence-free`): each
    /// deque entry snapshots this counter at push time, and every
    /// extraction must CAS it from its snapshot to snapshot+1 before the
    /// frame may run — duplicates of the same entry lose the CAS and are
    /// discarded (`RunStats::dup_extractions`). Strictly monotone over
    /// the *shell's* whole lifetime, pooled reuse included: never reset,
    /// so a stale entry from a previous incarnation can never claim a
    /// recycled shell (ABA guard). Exactly-once backends never touch it.
    pub claim_seq: AtomicU64,
}

// SAFETY: every field but `cont` is an atomic or a lock. `cont` is only
// reached through `Frame::cont`, whose contract makes the accessing
// thread the single holder; holdership moves between threads only through
// a Release/Acquire edge (deque extraction or the join cell's lock), so
// the values inside merely move between threads and need `Send`, which
// `Problem` demands of `State`, `Choice` and `Out`.
unsafe impl<P: Problem> Sync for Frame<P> {}

impl<P: Problem> Frame<P> {
    /// Create a frame for a node whose continuation is about to run.
    pub(crate) fn new(
        parent: Parent<P>,
        state: Option<P::State>,
        choices: Vec<P::Choice>,
        logical: u32,
        depth: u32,
        owner: usize,
    ) -> Arc<Self> {
        Arc::new(Frame {
            cont: UnsafeCell::new(Cont {
                parent,
                state,
                choices,
                next: 0,
                acc: P::Out::identity(),
                depth,
                logical,
            }),
            join: JoinCell::new(),
            deposit: Mutex::new(None),
            owner: AtomicUsize::new(owner),
            ws_requested: AtomicBool::new(false),
            ws_ready: AtomicBool::new(false),
            generation: AtomicU32::new(0),
            claim_seq: AtomicU64::new(0),
        })
    }

    /// The continuation's fields.
    ///
    /// # Safety
    ///
    /// The caller must be the frame's *holder* and must not keep the
    /// borrow across a point where holdership can move. The holder is the
    /// worker that made the frame, until a deque extraction hands the
    /// continuation to a thief (push-Release → steal-Acquire; on the
    /// fence-free backend the `claim_seq` CAS decides): from its push to
    /// its successful pop the owner is *not* the holder. After the
    /// holder's `JoinCell::release`, the holder is whoever the join cell
    /// returned the completed total to (ordered by the cell's lock).
    #[allow(clippy::mut_from_ref)] // the point of the cell: see `# Safety`
    pub(crate) unsafe fn cont(&self) -> &mut Cont<P> {
        &mut *self.cont.get()
    }

    /// Owner side of the copy-on-steal handshake: store a materialised
    /// workspace clone and publish it. Idempotent — a deposit racing with a
    /// pop-conflict backstop deposit keeps the first clone.
    pub(crate) fn deposit_ws(&self, state: P::State) {
        let mut g = self.deposit.lock();
        if g.is_none() {
            *g = Some(state);
            drop(g);
            // Release: publishes the cloned workspace before `ws_ready`;
            // pairs with the thief's AcqRel swap in `try_take_ws`.
            self.ws_ready.store(true, Ordering::Release);
        }
        // Release: the request is lowered only after the deposit above, so
        // an owner that polls it (Acquire) starts a fresh handshake.
        self.ws_requested.store(false, Ordering::Release);
    }

    /// Thief side: take the deposited workspace if the owner published one.
    /// Consuming the deposit lowers `ws_ready` again, keeping the invariant
    /// `ws_ready ⟺ an untaken deposit is present` — the owner's pop-conflict
    /// backstop relies on it when the same frame shell is stolen again
    /// later (a thief that materialised a frame re-pushes it, and *its*
    /// thief starts a fresh handshake).
    pub(crate) fn try_take_ws(&self) -> Option<P::State> {
        // AcqRel: acquires the deposited workspace, and releases the claim
        // so the owner cannot deposit twice.
        if !self.ws_ready.swap(false, Ordering::AcqRel) {
            return None;
        }
        // Release: lowers the request after a successful take, so the
        // owner's next Acquire poll starts a fresh handshake.
        self.ws_requested.store(false, Ordering::Release);
        self.deposit.lock().take()
    }

    /// A sealed-but-never-stolen frame retires with its deposit untaken;
    /// the common case (no deposit) costs one load and no lock. Leaves the
    /// handshake as a fresh frame has it.
    pub(crate) fn take_unclaimed_ws(&self) -> Option<P::State> {
        // Relaxed: the retiring owner made the deposit itself, and no
        // thief ever saw the frame (`ws_requested` was never raised).
        if !self.ws_ready.load(Ordering::Relaxed) {
            return None;
        }
        // Relaxed: as above — there is no other thread to order against;
        // a later deque push's Release republishes the shell.
        self.ws_ready.store(false, Ordering::Relaxed);
        self.deposit.lock().take()
    }
}

/// Deliver `out`, produced by a child of `parent`, through the shared join
/// cells, cascading completions upward: whoever empties a cell owns that
/// frame and carries its total one level up. Iterative to keep completion
/// chains off the call stack. Returns the number of frame cells the value
/// passed through (`RunStats::async_joins`).
pub(crate) fn deliver<P: Problem>(parent: Parent<P>, out: P::Out) -> u64 {
    let mut current = parent;
    let mut value = out;
    let mut joins = 0;
    loop {
        match current {
            Parent::Root(cell) => {
                cell.deliver(value);
                return joins;
            }
            Parent::Cell(cell) => {
                cell.deliver(value);
                return joins;
            }
            Parent::Frame(f) => {
                joins += 1;
                match f.join.arrive(value, P::Out::combine) {
                    None => return joins,
                    Some(total) => {
                        value = total;
                        // SAFETY: `arrive` returned the total, so this
                        // thread emptied the cell and is now the holder.
                        current = std::mem::replace(&mut unsafe { f.cont() }.parent, Parent::None);
                    }
                }
            }
            Parent::None => unreachable!("result delivered to a scrubbed frame"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::Expansion;

    struct Nop;
    impl Problem for Nop {
        type State = ();
        type Choice = u8;
        type Out = u64;
        fn root(&self) {}
        fn expand(&self, _: &(), _: u32) -> Expansion<u8, u64> {
            Expansion::Leaf(0)
        }
        fn apply(&self, _: &mut (), _: u8) {}
        fn undo(&self, _: &mut (), _: u8) {}
    }

    /// A frame as its thief sees it: the continuation taken over, the
    /// victim's child still to arrive.
    fn stolen_frame(parent: Parent<Nop>) -> Arc<Frame<Nop>> {
        let f = Frame::new(parent, Some(()), vec![0], 0, 0, 0);
        f.join.add_in_flight();
        f
    }

    fn release(f: &Arc<Frame<Nop>>, local: u64) -> Option<u64> {
        f.join.release(local, u64::combine)
    }

    #[test]
    fn root_cell_roundtrip_and_rearm() {
        let mut cell: Arc<RootCell<u64>> = RootCell::new();
        assert!(!cell.is_done());
        cell.deliver(42);
        assert!(cell.is_done());
        let cell_mut = Arc::get_mut(&mut cell).expect("unshared");
        assert!(!cell_mut.rearm(), "a result is still in it");
        assert_eq!(cell.take(), 42);
        assert!(cell.is_done(), "taking the result leaves the run finished");
        assert!(Arc::get_mut(&mut cell).expect("unshared").rearm());
        assert!(!cell.is_done());
    }

    #[test]
    fn frame_completes_after_children_and_continuation() {
        let cell = RootCell::new();
        let f = stolen_frame(Parent::Root(Arc::clone(&cell)));
        f.join.add_in_flight(); // a second child went asynchronous
        assert_eq!(deliver(Parent::Frame(Arc::clone(&f)), 10), 1);
        assert!(!cell.is_done());
        assert_eq!(release(&f, 0), None); // holder synced, one child pending
        assert!(!cell.is_done());
        deliver(Parent::Frame(f), 5); // last child completes it
        assert_eq!(cell.take(), 15);
    }

    #[test]
    fn completion_cascades_through_nested_frames() {
        let cell = RootCell::new();
        let top = stolen_frame(Parent::Root(Arc::clone(&cell)));
        let mid = stolen_frame(Parent::Frame(Arc::clone(&top)));
        assert_eq!(release(&top, 1), None);
        assert_eq!(release(&mid, 2), None);
        // Completes mid, cascades into top, lands in the cell: two frame
        // cells crossed.
        assert_eq!(deliver(Parent::Frame(mid), 7), 2);
        assert_eq!(cell.take(), 10);
    }

    #[test]
    fn holder_releasing_last_receives_the_total() {
        let f = stolen_frame(Parent::None);
        assert_eq!(deliver(Parent::Frame(Arc::clone(&f)), 3), 1);
        assert_eq!(release(&f, 4), Some(7));
    }

    #[test]
    fn waiter_nap_is_cut_short_by_a_delivery() {
        let cell: Arc<OutCell<u64>> = OutCell::new();
        let c2 = Arc::clone(&cell);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                c2.deliver(9);
            });
            // Naps far longer than the test may take (a spurious wake-up
            // starts another): only the notification ends one in time.
            let t0 = std::time::Instant::now();
            let out = loop {
                if let Some(out) = cell.wait_timeout(Duration::from_secs(60)) {
                    break out;
                }
            };
            assert_eq!(out, 9);
            assert!(t0.elapsed() < Duration::from_secs(30), "not notified");
        });
    }
}
