//! The simplified THE protocol of the paper's Figure 3.
//!
//! The owner manipulates the tail index `T`; thieves manipulate the head
//! index `H` under a per-deque lock (only one thief at a time, as in the
//! paper). The Dijkstra-style race between `pop` and `steal` on the last
//! element is resolved exactly as in Cilk-5: both sides optimistically move
//! their index, fence, then re-check against the other index, falling back
//! to the lock when they might have collided.
//!
//! Two operations extend the classic protocol for AdaptiveTC's special
//! tasks:
//!
//! * [`TheDeque::steal`] — when the head entry is a special task, the thief
//!   steals the entry *above* it (the special task's child) by advancing `H`
//!   by 2, discarding the special entry from the stealable region
//!   (`steal_specialtask` in the paper);
//! * [`TheDeque::pop_special`] — the owner's matching pop: if the child was
//!   stolen (`H > T` after decrementing), `H` is reset to `T` so the special
//!   task remains conceptually at the head (`pop_specialtask`).
//!
//! Beyond the paper, a *completion cursor* `C` (`cleaned`) tracks the
//! highest index whose claimed slot has been fully read; the owner's push
//! checks capacity against `C` rather than `H` so that recycling a
//! physical slot is ordered after the steal that last read it (see the
//! field docs — `H` alone provides no such happens-before edge).

use crate::sync::{fence, AtomicU64, AtomicU8, Mutex, Ordering, RaceCell};
use crate::Overflow;
use crossbeam_utils::CachePadded;
use std::fmt;
use std::mem::MaybeUninit;

/// Result of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealOutcome<T> {
    /// A task was stolen (for a special head entry, this is its child).
    Stolen(T),
    /// Nothing stealable: the deque is empty, holds only a special task with
    /// no child yet, or the thief lost the race on the last element.
    Empty,
}

/// Result of [`TheDeque::pop_special`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopSpecial<T> {
    /// No child of the special task was stolen; the special entry itself is
    /// handed back.
    Reclaimed(T),
    /// A thief took the special task's child (and with it the special entry's
    /// slot); the owner must eventually wait for that child
    /// (`sync_specialtask`). `H` has been reset to `T`.
    ChildStolen,
}

const KIND_EMPTY: u8 = 0;
const KIND_TASK: u8 = 1;
const KIND_SPECIAL: u8 = 2;

/// Logical indices start here rather than at 0 so that the transient
/// one-below-empty dip of `T` during a pop of an empty deque cannot wrap
/// below zero (a wrapped `T` would look like a huge full deque to a thief).
const INDEX_BASE: u64 = 1 << 32;

struct Slot<T> {
    kind: AtomicU8,
    /// Plain (non-atomic) cell; accesses are checked for data races under
    /// `cfg(adaptivetc_check)` with `check_races` on (DESIGN.md §16).
    value: RaceCell<MaybeUninit<T>>,
}

/// A fixed-capacity THE-protocol work-stealing deque.
///
/// The owner thread calls [`push`](TheDeque::push), [`pop`](TheDeque::pop),
/// [`push_special`](TheDeque::push_special) and
/// [`pop_special`](TheDeque::pop_special); any other thread may call
/// [`steal`](TheDeque::steal). Pops must match pushes in LIFO order by the
/// same owner (the structured spawn discipline of Cilk-style runtimes); it
/// is a logic error (checked by a debug assertion on the entry kind) to pop
/// an entry of the wrong kind.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{TheDeque, StealOutcome, PopSpecial};
///
/// let dq: TheDeque<u32> = TheDeque::new(16);
/// dq.push_special(100).unwrap(); // the special (transition) task
/// dq.push(1).unwrap();           // its child
/// // A thief never steals the special entry itself — it gets the child:
/// assert_eq!(dq.steal(), StealOutcome::Stolen(1));
/// // The owner discovers the child is gone and must wait for it:
/// assert_eq!(dq.pop_special(), PopSpecial::ChildStolen);
/// ```
pub struct TheDeque<T> {
    /// Head `H`: first stealable entry. Increased by thieves under the lock;
    /// moved down only by the owner's `pop_special` reset (also under the
    /// lock).
    head: CachePadded<AtomicU64>,
    /// Tail `T`: first unused slot. Modified only by the owner.
    tail: CachePadded<AtomicU64>,
    /// Completion cursor `C`: every physical slot backing an index below
    /// `C` has been fully read by the party that claimed it through the
    /// lock. Written only under the THE lock (steal success and the
    /// `pop_special` head reset); the owner's push reads it (`Acquire`)
    /// to prove a recycled slot's last reader finished. `head` alone
    /// cannot prove that: thieves raise `head` with a `Relaxed` store
    /// *before* reading the slot value, so an `Acquire` load of `head`
    /// carries no happens-before edge to the thief's value read — a real
    /// C11 wraparound race at `T = H + capacity`, found by the
    /// `check_races` lane (DESIGN.md §16).
    cleaned: CachePadded<AtomicU64>,
    /// The THE lock: serialises thieves against each other and against the
    /// owner's slow paths.
    lock: Mutex<()>,
    slots: Box<[Slot<T>]>,
}

// SAFETY: the THE protocol guarantees each logical index is claimed by
// exactly one party (owner pop or locked thief steal), and slot contents are
// published by the owner's Release store of `tail` before any claim can
// observe the index as live. `T: Send` suffices because values only move
// between threads, never get aliased.
unsafe impl<T: Send> Send for TheDeque<T> {}
unsafe impl<T: Send> Sync for TheDeque<T> {}

impl<T> TheDeque<T> {
    /// Create a deque with a fixed capacity (rounded up to 2).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        let slots = (0..capacity)
            .map(|_| Slot {
                kind: AtomicU8::new(KIND_EMPTY),
                value: RaceCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        TheDeque {
            head: CachePadded::new(AtomicU64::new(INDEX_BASE)),
            tail: CachePadded::new(AtomicU64::new(INDEX_BASE)),
            cleaned: CachePadded::new(AtomicU64::new(INDEX_BASE)),
            lock: Mutex::new(()),
            slots,
        }
    }

    /// Capacity of the backing array.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently in `[H, T)`. Racy by nature; for statistics only.
    pub fn len(&self) -> usize {
        // Relaxed: a racy size estimate for statistics and the owner's
        // cut-off controller; a torn H/T pair is benign.
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.saturating_sub(h) as usize
    }

    /// Whether the deque currently appears empty (racy; for statistics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot(&self, index: u64) -> &Slot<T> {
        &self.slots[(index % self.slots.len() as u64) as usize]
    }

    fn push_kind(&self, value: T, kind: u8) -> Result<(), Overflow> {
        // Relaxed: the owner is the only writer of `tail`.
        let t = self.tail.load(Ordering::Relaxed);
        // `cleaned` is a lower bound on consumed indices (it only grows at
        // quiescence), so `t - c` over-estimates occupancy: conservative,
        // never overwrites a slot whose last reader has not finished.
        // Acquire: pairs with the thief's Release store of `cleaned`
        // after its value reads — reusing the physical slot of index
        // `t - capacity` is safe only once that steal's read is ordered
        // before this push's write. (`head` cannot stand in: thieves raise
        // it Relaxed *before* reading the slot.) The audit refutes Relaxed
        // in `the_wraparound`.
        let c = self.cleaned.load(Ordering::Acquire);
        if t.wrapping_sub(c) >= self.slots.len() as u64 {
            return Err(Overflow(self.slots.len()));
        }
        let slot = self.slot(t);
        // SAFETY: slot `t` is outside the live region `[h, t)` and its
        // previous occupant (index `t - capacity`, if any) was consumed —
        // `cleaned > t - capacity` per the check above — so no other party
        // may access it until `tail` is advanced below.
        unsafe {
            (*slot.value.write()).write(value);
        }
        // Relaxed: the kind byte is published, like the value, by the
        // `tail` store below.
        slot.kind.store(kind, Ordering::Relaxed);
        // Release: publishes the slot's value and kind; pairs with the
        // thief's `tail` load (SeqCst, so at least Acquire). The audit
        // refutes Relaxed in `join_restolen`.
        self.tail.store(t + 1, Ordering::Release);
        Ok(())
    }

    /// Owner: push a regular task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the fixed capacity is exhausted; the entry
    /// is handed back to the caller via the error only conceptually — the
    /// value is dropped with the error. Use [`PoolDeque`](crate::PoolDeque)
    /// for unbounded growth.
    pub fn push(&self, value: T) -> Result<(), Overflow> {
        self.push_kind(value, KIND_TASK)
    }

    /// Owner: push a special (transition) task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when the fixed capacity is exhausted.
    pub fn push_special(&self, value: T) -> Result<(), Overflow> {
        self.push_kind(value, KIND_SPECIAL)
    }

    /// Owner: pop the entry it pushed most recently.
    ///
    /// Returns `None` if that entry was stolen (or the deque is empty). This
    /// is the paper's `pop()`: on failure the tail is restored to the
    /// canonical empty position `T = H` (as in Cilk-5's THE protocol; the
    /// paper's condensed pseudo-code leaves `T` decremented, which would
    /// corrupt the next push).
    pub fn pop(&self) -> Option<T> {
        // Relaxed: the owner is the only writer of `tail`.
        let t = self.tail.load(Ordering::Relaxed) - 1;
        // Release: not Relaxed, because a thief may read `tail` from *this*
        // store rather than from the push that published the entries below
        // `t`, and a same-thread Relaxed store does not continue that
        // push's release sequence — the thief's slot read would be
        // unordered with the push's slot write (found by the
        // `join_detached` scenario under `check_races`). Free on x86,
        // where every store is a release. Not SeqCst either: the Dekker
        // arbitration needs the store→fence→load *shape*, which the fence
        // below supplies.
        self.tail.store(t, Ordering::Release);
        // SeqCst: the THE protocol's one owner-side fence — it globally
        // orders the `tail` store above against the `head` read below, the
        // dual of the thief's head-store→fence→tail-load. The audit refutes
        // AcqRel in `the_linearizable` under TSO.
        fence(Ordering::SeqCst);
        // Relaxed: ordered by the fence above. A stale (lower) `head` only
        // sends the owner into the locked slow path — conservative.
        let h = self.head.load(Ordering::Relaxed);
        if h > t {
            // Possible conflict with a thief on the last entry (or pop of an
            // empty deque): arbitrate under the lock.
            let _guard = self.lock.lock();
            // Relaxed: `head` is only written under this lock, whose
            // acquire synchronises with the writing thief's release.
            let h = self.head.load(Ordering::Relaxed);
            if h > t {
                // Lost: the entry was stolen. Restore the canonical empty
                // shape. Relaxed: thieves read `tail` only after the lock
                // hand-off or behind their own SeqCst fence.
                self.tail.store(h, Ordering::Relaxed);
                return None;
            }
            // Won the race while a thief backed off.
        }
        let slot = self.slot(t);
        // Relaxed: debug-only read of a slot this thread now owns.
        debug_assert_eq!(slot.kind.load(Ordering::Relaxed), KIND_TASK);
        // SAFETY: index `t` is now exclusively claimed by the owner.
        Some(unsafe { (*slot.value.read()).assume_init_read() })
    }

    /// Owner: pop a special entry, detecting whether its child was stolen
    /// (`pop_specialtask` in Figure 3).
    /// # Panics
    ///
    /// Panics in debug builds if called without a matching
    /// [`push_special`](TheDeque::push_special) (unmatched pops corrupt the
    /// protocol).
    pub fn pop_special(&self) -> PopSpecial<T> {
        let _guard = self.lock.lock();
        // Relaxed: the whole operation runs under the THE lock — `head` is
        // lock-protected, and `tail` is owner-written (this thread) and
        // read by thieves only after the lock hand-off or behind their own
        // SeqCst fence.
        debug_assert!(
            self.tail.load(Ordering::Relaxed) > INDEX_BASE,
            "pop_special without a matching push_special"
        );
        // Relaxed: under the lock, as above.
        let t = self.tail.load(Ordering::Relaxed) - 1;
        self.tail.store(t, Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        if h > t {
            // The thief consumed the special entry's slot together with the
            // child it stole. Reset H = T so the (re-pushed) special task
            // stays at the head, and lower `cleaned` with it so the
            // `cleaned <= head` invariant holds (a stale-high `cleaned`
            // would make the next push's occupancy check wrap). Relaxed:
            // only this owner thread reads the lowered value back (via the
            // push Acquire load) before the next locked steal overwrites
            // it, and that steal is ordered after this store by the lock.
            self.head.store(t, Ordering::Relaxed);
            self.cleaned.store(t, Ordering::Relaxed);
            return PopSpecial::ChildStolen;
        }
        let slot = self.slot(t);
        // Relaxed: debug-only read of a slot this thread now owns.
        debug_assert_eq!(slot.kind.load(Ordering::Relaxed), KIND_SPECIAL);
        // SAFETY: index `t` is exclusively claimed (no thief passed it: h <= t).
        PopSpecial::Reclaimed(unsafe { (*slot.value.read()).assume_init_read() })
    }

    /// Thief: steal the oldest stealable entry.
    ///
    /// If the head entry is a special task, the entry above it (the special
    /// task's child) is stolen instead and the special entry is retired from
    /// the stealable region (`steal_specialtask`). Special entries are
    /// dropped by the thief in that case.
    pub fn steal(&self) -> StealOutcome<T> {
        let _guard = self.lock.lock();
        // Relaxed: `head` is only written under this lock (mutual
        // exclusion gives the thief the latest value).
        let h = self.head.load(Ordering::Relaxed);
        // SeqCst: pairs with the owner's unlocked pop — a weaker
        // load here could miss the owner's tail decrement and let the
        // thief claim an entry the owner already took. The Dekker
        // re-validation below depends on this anchor.
        let t = self.tail.load(Ordering::SeqCst);
        if h >= t {
            return StealOutcome::Empty;
        }
        // Relaxed: `h < t`, so the slot was published by the push whose
        // `tail` store the SeqCst load above read (or a later one).
        let head_kind = self.slot(h).kind.load(Ordering::Relaxed);
        if head_kind == KIND_SPECIAL {
            // steal_specialtask: claim the special entry and its child.
            // Relaxed: the SeqCst fence below orders this store before
            // the tail re-read; the owner's pop fence does the dual.
            self.head.store(h + 2, Ordering::Relaxed);
            // SeqCst: the thief-side fence of the Dekker pair (see `pop`).
            fence(Ordering::SeqCst);
            // SeqCst: the Dekker re-validation against the owner's
            // unlocked tail decrement.
            let t = self.tail.load(Ordering::SeqCst);
            if h + 2 > t {
                // No child present (yet): back off entirely. Relaxed: the
                // restore only lowers `head` back — the owner reading the
                // transient raised value merely takes its lock slow path.
                self.head.store(h, Ordering::Relaxed);
                return StealOutcome::Empty;
            }
            let child = self.slot(h + 1);
            // Relaxed: `h + 1 < t`, published like `head_kind` above.
            if child.kind.load(Ordering::Relaxed) == KIND_SPECIAL {
                // Two adjacent specials cannot arise from the five-version
                // FSM; refuse defensively rather than steal a special.
                // Relaxed: the same conservative restore as above.
                self.head.store(h, Ordering::Relaxed);
                return StealOutcome::Empty;
            }
            // SAFETY: indices h and h+1 are exclusively claimed by this
            // thief. The special entry's handle is dropped here; the owner
            // learns about the theft via `pop_special`.
            let stolen = unsafe {
                drop((*self.slot(h).value.read()).assume_init_read());
                (*child.value.read()).assume_init_read()
            };
            // Release: publishes the value reads above to the
            // owner's push (`cleaned` Acquire load) before the physical
            // slots can be recycled at indices h + capacity, h + 1 +
            // capacity. Still under the lock, so thieves stay serialised.
            self.cleaned.store(h + 2, Ordering::Release);
            StealOutcome::Stolen(stolen)
        } else {
            // Relaxed: ordered by the SeqCst fence below (see the
            // special-path store above for the argument).
            self.head.store(h + 1, Ordering::Relaxed);
            // SeqCst: the thief-side fence of the Dekker pair (see `pop`).
            fence(Ordering::SeqCst);
            // SeqCst: Dekker re-validation anchor.
            let t = self.tail.load(Ordering::SeqCst);
            if h + 1 > t {
                // Lost the race against the owner's pop of the last entry.
                // Relaxed: restore only lowers `head` back (conservative).
                self.head.store(h, Ordering::Relaxed);
                return StealOutcome::Empty;
            }
            // SAFETY: index h is exclusively claimed by this thief.
            let stolen = unsafe { (*self.slot(h).value.read()).assume_init_read() };
            // Release: publishes the value read above to the owner's
            // push (`cleaned` Acquire load) before the physical slot can be
            // recycled at index h + capacity. Still under the lock.
            self.cleaned.store(h + 1, Ordering::Release);
            StealOutcome::Stolen(stolen)
        }
    }
}

impl<T> Drop for TheDeque<T> {
    fn drop(&mut self) {
        // At rest every index in [H, T) holds a live value.
        // Relaxed: `&mut self` — no other thread can touch the deque.
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Relaxed);
        let mut i = h;
        while i < t {
            let slot = self.slot(i);
            // SAFETY: exclusive access in Drop; [h, t) entries are live.
            unsafe {
                (*slot.value.write()).assume_init_drop();
            }
            i += 1;
        }
    }
}

impl<T> fmt::Debug for TheDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Relaxed: an advisory racy snapshot; torn H/T pairs are acceptable.
        f.debug_struct("TheDeque")
            .field("head", &self.head.load(Ordering::Relaxed))
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("capacity", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use std::sync::Arc;

    #[test]
    fn lifo_for_owner_fifo_for_thief() {
        let d: TheDeque<u32> = TheDeque::new(8);
        d.push(1).unwrap();
        d.push(2).unwrap();
        d.push(3).unwrap();
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), StealOutcome::Empty);
    }

    #[test]
    fn pop_empty_is_none_and_reusable() {
        let d: TheDeque<u32> = TheDeque::new(4);
        assert_eq!(d.pop(), None);
        d.push(9).unwrap();
        assert_eq!(d.pop(), Some(9));
        assert_eq!(d.pop(), None);
        assert_eq!(d.pop(), None);
        d.push(10).unwrap();
        assert_eq!(d.steal(), StealOutcome::Stolen(10));
    }

    #[test]
    fn overflow_reported() {
        let d: TheDeque<u32> = TheDeque::new(2);
        d.push(1).unwrap();
        d.push(2).unwrap();
        assert_eq!(d.push(3), Err(Overflow(2)));
        // Draining makes room again.
        assert_eq!(d.pop(), Some(2));
        d.push(3).unwrap();
    }

    #[test]
    fn special_is_never_stolen_alone() {
        let d: TheDeque<u32> = TheDeque::new(8);
        d.push_special(42).unwrap();
        // Only the special present: thieves get nothing.
        assert_eq!(d.steal(), StealOutcome::Empty);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
    }

    #[test]
    fn steal_special_takes_child_and_pop_special_detects() {
        let d: TheDeque<u32> = TheDeque::new(8);
        d.push_special(42).unwrap();
        d.push(7).unwrap();
        assert_eq!(d.steal(), StealOutcome::Stolen(7));
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        // Deque is now canonically empty and reusable.
        assert!(d.is_empty());
        d.push_special(43).unwrap();
        d.push(8).unwrap();
        assert_eq!(d.pop(), Some(8));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(43));
    }

    #[test]
    fn special_reclaimed_when_child_popped_by_owner() {
        let d: TheDeque<u32> = TheDeque::new(8);
        d.push_special(42).unwrap();
        d.push(7).unwrap();
        assert_eq!(d.pop(), Some(7));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
    }

    #[test]
    fn regular_tasks_below_special_are_stolen_first() {
        let d: TheDeque<u32> = TheDeque::new(8);
        d.push(1).unwrap();
        d.push_special(42).unwrap();
        d.push(2).unwrap();
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.steal(), StealOutcome::Stolen(2)); // via the special
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
    }

    #[test]
    fn check_version_loop_shape() {
        // Mirrors the paper's check version: the special is re-pushed per
        // child; some children are stolen, some are not.
        let d: TheDeque<u32> = TheDeque::new(8);
        for (i, stolen_by_thief) in [(0u32, false), (1, true), (2, false)] {
            d.push_special(99).unwrap();
            d.push(i).unwrap();
            if stolen_by_thief {
                assert_eq!(d.steal(), StealOutcome::Stolen(i));
                assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
            } else {
                assert_eq!(d.pop(), Some(i));
                assert_eq!(d.pop_special(), PopSpecial::Reclaimed(99));
            }
        }
        assert!(d.is_empty());
    }

    #[test]
    fn wraparound_reuses_slots() {
        let d: TheDeque<u32> = TheDeque::new(4);
        for round in 0..100u32 {
            d.push(round).unwrap();
            d.push(round + 1000).unwrap();
            assert_eq!(d.steal(), StealOutcome::Stolen(round));
            assert_eq!(d.pop(), Some(round + 1000));
        }
    }

    #[test]
    fn drop_releases_remaining_entries() {
        static DROPS: TestCounter = TestCounter::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let d: TheDeque<Token> = TheDeque::new(8);
            d.push(Token).unwrap();
            d.push(Token).unwrap();
            d.push_special(Token).unwrap();
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn concurrent_owner_and_thieves_conserve_items() {
        // Stress the THE race: every pushed value is claimed exactly once.
        const ROUNDS: u64 = 20_000;
        let d: Arc<TheDeque<u64>> = Arc::new(TheDeque::new(64));
        let popped = Arc::new(TestCounter::new(0));
        let stolen = Arc::new(TestCounter::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let stolen = Arc::clone(&stolen);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let StealOutcome::Stolen(v) = d.steal() {
                            stolen.fetch_add(v, Ordering::Relaxed);
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            // Owner: push one, pop one — the classic last-element race.
            for i in 1..=ROUNDS {
                while d.push(i).is_err() {
                    if let Some(v) = d.pop() {
                        popped.fetch_add(v, Ordering::Relaxed);
                    }
                }
                if let Some(v) = d.pop() {
                    popped.fetch_add(v, Ordering::Relaxed);
                }
            }
            // Drain what is left.
            while let Some(v) = d.pop() {
                popped.fetch_add(v, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });

        let total = popped.load(Ordering::SeqCst) + stolen.load(Ordering::SeqCst);
        assert_eq!(total, ROUNDS * (ROUNDS + 1) / 2);
    }

    #[test]
    fn concurrent_special_children_conserved() {
        // Owner repeatedly runs the check-version loop while thieves poach
        // children through the special entry.
        const ROUNDS: u64 = 10_000;
        let d: Arc<TheDeque<u64>> = Arc::new(TheDeque::new(16));
        let claimed = Arc::new(TestCounter::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let claimed = Arc::clone(&claimed);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        if let StealOutcome::Stolen(v) = d.steal() {
                            claimed.fetch_add(v, Ordering::Relaxed);
                        }
                        std::hint::spin_loop();
                    }
                });
            }
            for i in 1..=ROUNDS {
                d.push_special(0).unwrap();
                d.push(i).unwrap();
                match d.pop() {
                    Some(v) => {
                        claimed.fetch_add(v, Ordering::Relaxed);
                        assert!(matches!(d.pop_special(), PopSpecial::Reclaimed(0)));
                    }
                    None => {
                        assert!(matches!(d.pop_special(), PopSpecial::ChildStolen));
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });

        assert_eq!(claimed.load(Ordering::SeqCst), ROUNDS * (ROUNDS + 1) / 2);
    }
}
