//! Task frames, the slab they live in, and the asynchronous result-delivery
//! chain.
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
//! still waiting or a [`ResultCell`] — the run's root, or a special
//! task's — is reached. Suspension at a `sync` is implicit: the holder
//! releases its tokens with children outstanding and walks away
//! ([`Outcome::Detached`]), and the last arriving child performs the
//! completion (the paper's Terminate rule (3)).
//!
//! # Where frames live
//!
//! Frames are not reference-counted. They live in [`FrameSlab`]s, one per
//! slot of the run's slot board: chunks of frames that are never returned
//! to the allocator while the run can reach them. A frame is named by a
//! [`FrameRef`], a plain pointer (debug builds add the slot's generation),
//! and every dereference names the right that makes it safe: the caller is
//! the continuation's *holder*, won the extraction that claims it, or
//! carries an *in-flight token* of its join cell. The same token rule
//! decides who may reuse a frame: the holder of one that never went
//! asynchronous, at its sync; otherwise whoever emptied its join cell.
//! Either way the frame goes to that worker's free list, whichever slab it
//! came from.

use crate::join::JoinCell;
use crate::submit::OutcomeGate;
#[cfg(debug_assertions)]
use crate::sync::{AtomicU32, Ordering};
use crate::sync::{Condvar, Mutex};
use adaptivetc_core::{Problem, Reduce};
use std::cell::UnsafeCell;
use std::ptr::NonNull;
use std::sync::Arc;

/// Frames a slab allocates at a time.
const CHUNK_FRAMES: usize = 32;

/// A value handed over once to whoever waits for it: a run's root result,
/// a special task's joined total (`sync_specialtask`), a job's outcome. The
/// [`OutcomeGate`] says whether the value is there and whether a waiter
/// sleeps on the condition variable, so a delivery nobody sleeps on makes
/// no futex call — workers poll [`is_done`](ResultCell::is_done) between
/// steals, and whoever collects a root result does so after it saw it done
/// or joined the workers. Reusable: a slot board keeps one root cell for
/// every run on it, rearmed as the board settles. A cell with one waiter
/// that takes value after value uses [`send`](ResultCell::send) and
/// [`recv`](ResultCell::recv) instead, and no gate.
#[derive(Debug)]
pub(crate) struct ResultCell<O> {
    slot: Mutex<Option<O>>,
    gate: OutcomeGate,
    cv: Condvar,
}

impl<O: Send> ResultCell<O> {
    pub(crate) fn new() -> Self {
        ResultCell {
            slot: Mutex::new(None),
            gate: OutcomeGate::new(),
            cv: Condvar::new(),
        }
    }

    /// Store the value, and wake the waiter if one registered.
    pub(crate) fn deliver(&self, out: O) {
        debug_assert!(!self.gate.is_published(), "result delivered twice");
        *self.slot.lock() = Some(out);
        if self.gate.publish() {
            // The waiter registered holding the slot's mutex and keeps it
            // until its wait releases it: once through, it is asleep, and
            // the notification cannot fall before the sleep.
            drop(self.slot.lock());
            self.cv.notify_all();
        }
    }

    /// Hand `out` to the cell's one waiter, in a cell that passes value
    /// after value ([`recv`](ResultCell::recv)): a Tascell worker's
    /// response, or its task's joined total. The gate stays out of it, so
    /// the notification is unconditional — a no-op when nobody sleeps.
    pub(crate) fn send(&self, out: O) {
        let mut g = self.slot.lock();
        debug_assert!(g.is_none(), "a value sent before the last was taken");
        *g = Some(out);
        drop(g);
        self.cv.notify_one();
    }

    /// Block until [`send`](ResultCell::send) hands a value over, and take
    /// it: the cell is ready for the next one.
    pub(crate) fn recv(&self) -> O {
        let mut g = self.slot.lock();
        loop {
            if let Some(out) = g.take() {
                return out;
            }
            self.cv.wait(&mut g);
        }
    }

    /// Non-blocking readiness check. Stays up once the value is taken: a
    /// late joiner of a finished job must keep seeing it finished.
    pub(crate) fn is_done(&self) -> bool {
        self.gate.is_published()
    }

    /// Block until the value arrives, and take it.
    pub(crate) fn wait(&self) -> O {
        let mut g = self.slot.lock();
        if !self.gate.is_published() && self.gate.register_waiter() {
            while !self.gate.is_published() {
                self.cv.wait(&mut g);
            }
        }
        g.take().expect("a delivered value is taken once")
    }

    /// The delivered value, once [`is_done`](ResultCell::is_done) says it
    /// is there.
    pub(crate) fn take(&self) -> O {
        self.slot
            .lock()
            .take()
            .expect("a delivered value is taken once, after it is done")
    }

    /// Make the cell ready for another value. `false` — and nothing reset
    /// — if a value is still in it.
    pub(crate) fn rearm(&mut self) -> bool {
        let empty = self.slot.get_mut().is_none();
        if empty {
            self.gate = OutcomeGate::new();
        }
        empty
    }
}

/// Where a frame delivers its completed result.
pub(crate) enum Parent<P: Problem> {
    /// The run's root cell, or a special task's.
    Cell(Arc<ResultCell<P::Out>>),
    /// An enclosing frame.
    Frame(FrameRef<P>),
    /// Scrubbed: an idle slab slot, or a completed frame whose link was
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
    /// The slot's workspace, its one home: a spawn clones the parent's
    /// straight into the child's frame, the node expands and recurses on
    /// it there, and a real task's children are cloned from it. A special
    /// task uses none — its children clone the fake task's. A freed frame
    /// keeps its buffer for the next spawn's `clone_from`, except under
    /// `Mode::Cilk`, which drops it; each worker drops what the frames on
    /// its free list kept as it retires, so no workspace outlives its run.
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
    /// A free frame's link to the next one on its worker's free list, the
    /// frame that worker freed before it (last in, first out). `None` on a
    /// frame in use and on the last free one; a worker's retirement cuts
    /// every link as it walks its list.
    pub next_free: Option<FrameRef<P>>,
}

/// A task continuation in a slab slot.
pub(crate) struct Frame<P: Problem> {
    /// Holder-private; see [`FrameRef::cont`] for who the holder is.
    cont: UnsafeCell<Cont<P>>,
    /// The shared half of the join: untouched until a theft.
    pub join: JoinCell<P::Out>,
    /// The slot's incarnation, bumped each time the slot is retired and at
    /// a slab rewind; a handle made for an earlier one is stale.
    #[cfg(debug_assertions)]
    generation: AtomicU32,
}

// SAFETY: every field but `cont` is an atomic or a lock. `cont` is only
// reached through `FrameRef::cont`, whose contract makes the accessing
// thread the single holder; holdership moves between threads only through
// a Release/Acquire edge (deque extraction or the join cell's lock), so
// the values inside merely move between threads and need `Send`, which
// `Problem` demands of `State`, `Choice` and `Out`.
unsafe impl<P: Problem> Sync for Frame<P> {}

impl<P: Problem> Frame<P> {
    /// A slab slot nobody has used yet.
    fn idle() -> Self {
        Frame {
            cont: UnsafeCell::new(Cont {
                parent: Parent::None,
                state: None,
                choices: Vec::new(),
                next: 0,
                acc: P::Out::identity(),
                depth: 0,
                logical: 0,
                next_free: None,
            }),
            join: JoinCell::new(),
            #[cfg(debug_assertions)]
            generation: AtomicU32::new(0),
        }
    }
}

/// A frame's name: a plain pointer into a [`FrameSlab`], `Copy` and
/// counted by nobody. What a thread may do through it is the protocol's
/// business — see [`get`](FrameRef::get) — and every dereference names
/// its right in a `// SAFETY:` comment. Debug builds also record the
/// slot's generation and check it at every dereference, so a handle used
/// after its frame was retired panics instead of reading the slot's next
/// incarnation.
pub(crate) struct FrameRef<P: Problem> {
    ptr: NonNull<Frame<P>>,
    #[cfg(debug_assertions)]
    generation: u32,
}

impl<P: Problem> Clone for FrameRef<P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: Problem> Copy for FrameRef<P> {}

// SAFETY: a handle is a shared reference to a `Frame`, which is `Sync`,
// into slab memory that outlives every handle of its run; the protocol,
// not the handle, decides what it may be used for (see `get`).
unsafe impl<P: Problem> Send for FrameRef<P> {}
unsafe impl<P: Problem> Sync for FrameRef<P> {}

impl<P: Problem> FrameRef<P> {
    /// A handle naming `frame`'s current incarnation.
    pub(crate) fn new(frame: &Frame<P>) -> Self {
        FrameRef {
            ptr: NonNull::from(frame),
            // Relaxed: whoever makes a handle owns the slot or reached it
            // through the edge that published its current incarnation.
            #[cfg(debug_assertions)]
            generation: frame.generation.load(Ordering::Relaxed),
        }
    }

    /// The frame.
    ///
    /// # Safety
    ///
    /// The slab must still be alive, which it is for every handle of a
    /// run while the run lasts, and the caller must hold a right to the
    /// frame's current incarnation: it is the continuation's *holder* (it
    /// made the frame, or popped back the entry it pushed), it won the
    /// *claimed extraction* of a stolen entry, it carries an *in-flight
    /// token* of the frame's join cell (a child result still to arrive),
    /// or it emptied that cell and so owns the completed frame. A holder
    /// loses its right from its push to its successful pop, and for good
    /// after a failed pop or its release; a token is gone once delivered.
    pub(crate) unsafe fn get(&self) -> &Frame<P> {
        // SAFETY: the slab is alive (caller's contract) and never moves a
        // frame; `Frame` is `Sync`.
        let frame = unsafe { self.ptr.as_ref() };
        // Relaxed: the caller's right orders it after the bump that made
        // this incarnation; a stale handle reads a later value.
        #[cfg(debug_assertions)]
        assert_eq!(
            frame.generation.load(Ordering::Relaxed),
            self.generation,
            "stale frame handle: its slot was retired after the handle was made"
        );
        frame
    }

    /// The continuation's fields.
    ///
    /// # Safety
    ///
    /// As for [`get`](FrameRef::get), with a stronger right: the caller is
    /// the holder — or the owner of a completed frame — and must not keep
    /// the borrow across a point where holdership can move (a push, a
    /// release, a delivery).
    #[allow(clippy::mut_from_ref)] // the point of the cell: see `# Safety`
    pub(crate) unsafe fn cont(&self) -> &mut Cont<P> {
        // SAFETY: the caller is the single holder (contract above).
        unsafe { &mut *self.get().cont.get() }
    }

    /// The workspace in the frame's slot.
    ///
    /// # Safety
    ///
    /// As for [`cont`](FrameRef::cont); and the slot holds a workspace:
    /// the frame was taken for a spawned node, or is a real task's.
    #[allow(clippy::mut_from_ref)] // as for `cont`
    pub(crate) unsafe fn state(&self) -> &mut P::State {
        // SAFETY: the caller's contract, as above.
        unsafe { self.cont() }
            .state
            .as_mut()
            .expect("a spawned frame holds its workspace")
    }

    /// Make a spawned node's frame its continuation: every field but the
    /// workspace, which the spawn already cloned into the slot.
    ///
    /// # Safety
    ///
    /// The slot is free — carved fresh from a slab, or taken from this
    /// worker's free list — and not yet published to any other thread.
    pub(crate) unsafe fn restart(
        &self,
        parent: Parent<P>,
        choices: Vec<P::Choice>,
        logical: u32,
        depth: u32,
    ) {
        // SAFETY: a free slot is its taker's alone (contract above).
        let cont = unsafe { self.cont() };
        cont.parent = parent;
        cont.choices = choices;
        cont.next = 0;
        cont.acc = P::Out::identity();
        cont.depth = depth;
        cont.logical = logical;
    }

    /// End this incarnation. The returned handle names the slot's next
    /// one; in debug builds every copy of this handle is now stale.
    ///
    /// # Safety
    ///
    /// The caller owns the completed frame — the holder of one that never
    /// went asynchronous, at its sync, or whoever emptied its join cell —
    /// and has scrubbed it.
    pub(crate) unsafe fn recycle(self) -> FrameRef<P> {
        // SAFETY: the caller owns the frame (contract above).
        let frame = unsafe { self.get() };
        // Relaxed: the owner bumps its own slot; the next taker receives
        // it through its free list (this thread) or a slab rewind (`&mut`).
        #[cfg(debug_assertions)]
        frame.generation.fetch_add(1, Ordering::Relaxed);
        FrameRef::new(frame)
    }
}

/// One slot's frame memory on a run's slot board: chunks of frames, each
/// handed whole to one worker, which carves frames from it alone. A chunk
/// is never moved or freed while the board can still be reached — a
/// one-shot run drops its board after its workers joined, a pool worker
/// rewinds a kept one only once every participant of its job has left —
/// so a frame outlives every handle and deque entry made for it.
pub(crate) struct FrameSlab<P: Problem> {
    chunks: Mutex<Chunks<P>>,
}

struct Chunks<P: Problem> {
    /// Every chunk, as `Box::leak` made it: raw, so that growing this
    /// vector never moves a box whose frames are in use.
    all: Vec<NonNull<[Frame<P>]>>,
    /// Chunks `[0, used)` were handed out since the last rewind.
    used: usize,
}

// SAFETY: the slab owns its chunks as a `Vec<Box<[Frame]>>` would; the
// chunk list is only touched under the lock or through `&mut self`, and
// the frames themselves are `Sync`.
unsafe impl<P: Problem> Send for FrameSlab<P> {}
unsafe impl<P: Problem> Sync for FrameSlab<P> {}

impl<P: Problem> FrameSlab<P> {
    pub(crate) fn new() -> Self {
        FrameSlab {
            chunks: Mutex::new(Chunks {
                all: Vec::new(),
                used: 0,
            }),
        }
    }

    /// A chunk nobody has carved since the last rewind — a new one if
    /// every chunk was handed out. Called once per chunk, so its lock is
    /// off the spawn path.
    pub(crate) fn chunk(&self) -> &[Frame<P>] {
        let mut g = self.chunks.lock();
        if g.used == g.all.len() {
            let chunk: Box<[Frame<P>]> = (0..CHUNK_FRAMES).map(|_| Frame::idle()).collect();
            g.all.push(NonNull::from(Box::leak(chunk)));
        }
        let chunk = g.all[g.used];
        g.used += 1;
        // SAFETY: only `Drop` frees a chunk, and `rewind` — after which it
        // is handed out again — takes `&mut self`: it stays valid, and this
        // caller's alone to carve, for as long as `&self` is borrowed.
        unsafe { chunk.as_ref() }
    }

    /// Hand every chunk out afresh. `&mut`: no handle into the slab is in
    /// use, so every frame carved from it should have been retired and
    /// scrubbed, its workspace dropped and its free-list link cut by the
    /// worker that freed it. Returns whether it was: debug builds check
    /// every frame carved since the last rewind, and make every handle of
    /// the run stale as they go; release builds do not look.
    pub(crate) fn rewind(&mut self) -> bool {
        let chunks = self.chunks.get_mut();
        #[cfg_attr(not(debug_assertions), allow(unused_mut))]
        let mut scrubbed = true;
        #[cfg(debug_assertions)]
        for chunk in &chunks.all[..chunks.used] {
            // SAFETY: `&mut self`: nobody else can reach the chunk.
            for frame in unsafe { chunk.as_ref() } {
                // SAFETY: as above.
                let cont = unsafe { &*frame.cont.get() };
                scrubbed &= matches!(cont.parent, Parent::None)
                    && cont.state.is_none()
                    && cont.next_free.is_none();
                // Relaxed: `&mut self`, as above.
                frame.generation.fetch_add(1, Ordering::Relaxed);
            }
        }
        chunks.used = 0;
        scrubbed
    }
}

impl<P: Problem> Drop for FrameSlab<P> {
    fn drop(&mut self) {
        for chunk in self.chunks.get_mut().all.drain(..) {
            // SAFETY: made by `Box::leak` in `chunk` and freed once, here,
            // with nobody left to reach it (`&mut self`).
            drop(unsafe { Box::from_raw(chunk.as_ptr()) });
        }
    }
}

/// Deliver `out`, produced by a child of `parent`, through the shared join
/// cells, cascading completions upward: whoever empties a cell owns that
/// frame, hands it to `retire` and carries its total one level up.
/// Iterative to keep completion chains off the call stack. Returns the
/// number of frame cells the value passed through (`RunStats::async_joins`).
pub(crate) fn deliver<P: Problem>(
    parent: Parent<P>,
    out: P::Out,
    mut retire: impl FnMut(FrameRef<P>),
) -> u64 {
    let mut current = parent;
    let mut value = out;
    let mut joins = 0;
    loop {
        match current {
            Parent::Cell(cell) => {
                cell.deliver(value);
                return joins;
            }
            Parent::Frame(f) => {
                joins += 1;
                // SAFETY: in-flight token: `value` is a child result still
                // to arrive at `f`.
                match unsafe { f.get() }.join.arrive(value, P::Out::combine) {
                    None => return joins,
                    Some(total) => {
                        value = total;
                        // SAFETY: `arrive` returned the total, so this
                        // thread emptied the cell and owns the frame.
                        current = std::mem::replace(&mut unsafe { f.cont() }.parent, Parent::None);
                        // Retired before the total moves on: once it lands,
                        // the run may be over.
                        retire(f);
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

    /// The first `n` frames of a fresh chunk, as a worker carves them.
    fn carve(slab: &FrameSlab<Nop>, n: usize) -> Vec<FrameRef<Nop>> {
        slab.chunk().iter().take(n).map(FrameRef::new).collect()
    }

    /// A frame as its thief sees it: the continuation taken over, the
    /// victim's child still to arrive.
    fn stolen(frame: FrameRef<Nop>, parent: Parent<Nop>) -> FrameRef<Nop> {
        // SAFETY: a freshly carved slot, unpublished; then its holder.
        unsafe {
            frame.cont().state = Some(());
            frame.restart(parent, vec![0], 0, 0);
            frame.get().join.add_in_flight();
        }
        frame
    }

    fn release(f: FrameRef<Nop>, local: u64) -> Option<u64> {
        // SAFETY: the test thread holds the continuation.
        unsafe { f.get() }.join.release(local, u64::combine)
    }

    /// What a worker does with a frame it emptied: scrub it and recycle.
    fn retire(into: &mut Vec<FrameRef<Nop>>) -> impl FnMut(FrameRef<Nop>) + '_ {
        |f| {
            // SAFETY: `deliver` hands over frames whose cell it emptied.
            unsafe {
                f.cont().state = None;
                f.get().join.rearm();
                into.push(f.recycle());
            }
        }
    }

    #[test]
    fn root_cell_roundtrip_and_rearm() {
        let mut cell = ResultCell::<u64>::new();
        assert!(!cell.is_done());
        cell.deliver(42);
        assert!(cell.is_done());
        assert!(!cell.rearm(), "a result is still in it");
        assert_eq!(cell.take(), 42);
        assert!(cell.is_done(), "taking the result leaves the run finished");
        assert!(cell.rearm());
        assert!(!cell.is_done());
    }

    #[test]
    fn a_value_delivered_before_the_wait_is_taken_without_registering() {
        let cell = ResultCell::<u64>::new();
        cell.deliver(5);
        assert_eq!(cell.wait(), 5);
        // A second publish reports whether a waiter ever registered.
        assert!(!cell.gate.publish(), "the wait registered as a waiter");
    }

    #[test]
    fn frame_completes_after_children_and_continuation() {
        let slab = FrameSlab::new();
        let cell = Arc::new(ResultCell::new());
        let f = stolen(carve(&slab, 1)[0], Parent::Cell(Arc::clone(&cell)));
        // SAFETY: the test thread holds the continuation.
        unsafe { f.get() }.join.add_in_flight(); // a second child went asynchronous
        let mut retired = Vec::new();
        assert_eq!(deliver(Parent::Frame(f), 10, retire(&mut retired)), 1);
        assert!(!cell.is_done());
        assert_eq!(release(f, 0), None); // holder synced, one child pending
        assert!(!cell.is_done());
        deliver(Parent::Frame(f), 5, retire(&mut retired)); // last child completes it
        assert_eq!(cell.take(), 15);
        assert_eq!(retired.len(), 1, "the emptier retired the frame");
    }

    #[test]
    fn completion_cascades_through_nested_frames() {
        let slab = FrameSlab::new();
        let cell = Arc::new(ResultCell::new());
        let frames = carve(&slab, 2);
        let top = stolen(frames[0], Parent::Cell(Arc::clone(&cell)));
        let mid = stolen(frames[1], Parent::Frame(top));
        assert_eq!(release(top, 1), None);
        assert_eq!(release(mid, 2), None);
        // Completes mid, cascades into top, lands in the cell: two frame
        // cells crossed, both frames retired on the way, innermost first.
        let mut retired = Vec::new();
        assert_eq!(deliver(Parent::Frame(mid), 7, retire(&mut retired)), 2);
        assert_eq!(cell.take(), 10);
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].ptr, mid.ptr);
        assert_eq!(retired[1].ptr, top.ptr);
    }

    #[test]
    fn holder_releasing_last_receives_the_total() {
        let slab = FrameSlab::new();
        let f = stolen(carve(&slab, 1)[0], Parent::None);
        let mut retired = Vec::new();
        assert_eq!(deliver(Parent::Frame(f), 3, retire(&mut retired)), 1);
        assert_eq!(release(f, 4), Some(7));
        assert!(
            retired.is_empty(),
            "the holder emptied the cell, not the child"
        );
    }

    #[test]
    fn a_recycled_frame_starts_its_next_incarnation_fresh() {
        let slab = FrameSlab::new();
        let cell = Arc::new(ResultCell::new());
        let f = stolen(carve(&slab, 1)[0], Parent::Cell(Arc::clone(&cell)));
        assert_eq!(release(f, 1), None);
        let mut retired = Vec::new();
        deliver(Parent::Frame(f), 2, retire(&mut retired));
        assert_eq!(cell.take(), 3);
        // The same slot, through the handle its retirement made: a fresh
        // join cell, whose holder completes it alone.
        let again = retired.pop().expect("retired");
        assert_eq!(again.ptr, f.ptr);
        // SAFETY: a retired slot, unpublished; then its holder.
        unsafe { again.restart(Parent::None, Vec::new(), 0, 0) };
        assert_eq!(release(again, 5), Some(5));
    }

    #[test]
    fn a_slab_hands_each_chunk_out_once_until_rewound() {
        let mut slab = FrameSlab::<Nop>::new();
        let first = slab.chunk().as_ptr();
        let second = slab.chunk().as_ptr();
        assert_ne!(first, second, "a chunk is one worker's alone");
        assert_eq!(slab.chunk().len(), CHUNK_FRAMES);
        assert!(slab.rewind(), "nothing was carved from the chunks");
        assert_eq!(slab.chunk().as_ptr(), first, "rewound memory is reused");
        assert_eq!(slab.chunk().as_ptr(), second);
        assert_eq!(slab.chunks.get_mut().all.len(), 3, "nothing was freed");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale frame handle")]
    fn a_handle_to_a_recycled_slot_is_caught() {
        let slab = FrameSlab::new();
        let old = carve(&slab, 1)[0];
        // SAFETY: the test thread owns the idle slot.
        let _next = unsafe { old.recycle() };
        // SAFETY: deliberately broken — the slot was recycled under `old`;
        // the debug check must fire before anything is read.
        let _ = unsafe { old.get() };
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale frame handle")]
    fn a_rewind_makes_every_handle_of_the_run_stale() {
        let mut slab = FrameSlab::new();
        let old = carve(&slab, 1)[0];
        slab.rewind();
        // SAFETY: deliberately broken — the slab was rewound under `old`.
        let _ = unsafe { old.get() };
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_rewind_over_an_unscrubbed_frame_reports_it_without_panicking() {
        let mut slab = FrameSlab::<Nop>::new();
        let frame = carve(&slab, 1)[0];
        // SAFETY: the test thread owns the idle slot.
        unsafe { frame.cont() }.state = Some(());
        assert!(!slab.rewind(), "a frame kept its workspace");
        // The same slot, through a handle of its incarnation after the
        // rewind.
        let frame = FrameRef::new(&slab.chunk()[0]);
        // SAFETY: as above.
        let cont = unsafe { frame.cont() };
        cont.state = None;
        cont.next_free = Some(frame);
        assert!(!slab.rewind(), "a frame kept its free-list link");
        let frame = FrameRef::new(&slab.chunk()[0]);
        // SAFETY: as above.
        unsafe { frame.cont() }.next_free = None;
        assert!(slab.rewind(), "every frame scrubbed");
    }

    #[test]
    fn waiter_nap_is_cut_short_by_a_delivery() {
        let cell = Arc::new(ResultCell::<u64>::new());
        let c2 = Arc::clone(&cell);
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                c2.deliver(9);
            });
            // Only the notification ends the sleep.
            assert_eq!(cell.wait(), 9);
        });
    }
}
