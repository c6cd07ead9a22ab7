//! A dynamic circular work-stealing deque (Chase & Lev, SPAA 2005),
//! extended with AdaptiveTC's special-task operations.
//!
//! The paper cites this design as the established fix for the overflow
//! proneness of Cilk's fixed arrays: the owner grows the circular buffer
//! on demand, thieves synchronise with a single CAS on the head index, and
//! no lock is ever taken. Unlike the THE deque there is no per-deque thief
//! lock, so concurrent thieves scale, at the cost of `Retry` outcomes when
//! a CAS is lost.
//!
//! # Special tasks without a lock
//!
//! Entries carry a special/regular tag. The THE deque's
//! `steal_specialtask` (retire the special entry, take its child) is a
//! single locked step; here it decomposes into two independent CAS claims:
//! a thief that finds a *special* entry at the top — and sees at least one
//! entry above it — claims the special with a CAS, **drops** it (a special
//! is never executed by a thief), and loops to claim the entry above,
//! which by then is the new top. Every CAS claims exactly one slot, so the
//! standard Chase-Lev safety argument applies unchanged to each step.
//!
//! The decomposition admits one benign race the locked protocol cannot
//! produce: between the two claims the owner may pop the child, so the
//! special is retired yet nothing was stolen. The owner's
//! [`pop_special`](ChaseLevDeque::pop_special) then reports
//! [`PopSpecial::ChildStolen`] conservatively; the runtime already treats
//! `ChildStolen` as "drop the handle and rely on the delivery chain",
//! which is correct in both cases (completion is tracked by child
//! delivery counts, never by deque occupancy — see
//! `adaptivetc-runtime`'s frame module).
//!
//! Retired buffers are kept alive until the deque is dropped (a thief may
//! still be reading a stale buffer pointer); for the scheduler workloads
//! here the deque holds `Arc` handles, so the memory overhead is a few
//! machine words per growth step.

use crate::sync::{fence, AtomicI64, AtomicPtr, Mutex, Ordering, RaceCell};
use crate::the::PopSpecial;
use crossbeam_utils::CachePadded;
use std::fmt;
use std::mem::MaybeUninit;

/// A tagged deque entry: special (transition) tasks are never handed to
/// thieves.
struct Entry<T> {
    special: bool,
    value: T,
}

struct Buffer<T> {
    /// Capacity, always a power of two.
    cap: usize,
    /// Plain cells; owner-side accesses are race-checked under
    /// `cfg(adaptivetc_check)`, thief reads go through the unchecked
    /// [`RaceCell::speculative`] escape hatch (see [`Buffer::read_speculative`]).
    slots: Box<[RaceCell<MaybeUninit<Entry<T>>>]>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        let slots = (0..cap)
            .map(|_| RaceCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::into_raw(Box::new(Buffer { cap, slots }))
    }

    /// Owner-side read (pop, grow, drop): exclusive or read-read only.
    ///
    /// # Safety
    ///
    /// The caller must guarantee `index` was initialised by a prior
    /// `write` and not yet retired. A caller that loses the claiming CAS
    /// must `mem::forget` the value so the true owner's copy is the only
    /// one dropped.
    unsafe fn read(&self, index: i64) -> Entry<T> {
        let slot = &self.slots[(index as usize) & (self.cap - 1)];
        // SAFETY: initialisation of the slot is the caller's contract
        // (above); the `& (cap - 1)` mask keeps the access in bounds for
        // the power-of-two buffer.
        unsafe { (*slot.read()).assume_init_read() }
    }

    /// Thief-side read: deliberately *speculative*, Chase-Lev's one benign
    /// race. A thief that loses its claiming CAS may have read a slot the
    /// owner was concurrently recycling; the torn value is forgotten, and
    /// the winning claim's CAS (SeqCst success, observed by the owner's
    /// Acquire load of `top` in the push capacity check) is what orders
    /// the recycling write after the *winner's* read. The race detector
    /// cannot express "losers discard", so this path bypasses it; kept
    /// separate from [`Buffer::read`] so every checked call site stays
    /// checked.
    ///
    /// # Safety
    ///
    /// Same contract as [`Buffer::read`].
    unsafe fn read_speculative(&self, index: i64) -> Entry<T> {
        let slot = &self.slots[(index as usize) & (self.cap - 1)];
        // SAFETY: initialisation per the caller's contract; masked index
        // is in bounds.
        unsafe { (*slot.speculative()).assume_init_read() }
    }

    /// # Safety
    ///
    /// Only the owner may call this, and only for an index in the open
    /// region `[top, bottom]` of the buffer that no concurrent reader can
    /// observe as initialised yet (bottom is published only after the
    /// write).
    unsafe fn write(&self, index: i64, entry: Entry<T>) {
        let slot = &self.slots[(index as usize) & (self.cap - 1)];
        // SAFETY: exclusive owner access per the contract above; masked
        // index is in bounds.
        unsafe {
            (*slot.write()).write(entry);
        }
    }
}

/// Result of [`ChaseLevDeque::steal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClSteal<T> {
    /// A task was stolen (for a special top entry, this is its child).
    Stolen(T),
    /// The deque was empty or held only an unstealable special entry.
    Empty,
    /// Lost a race with another thief or the owner; try again.
    Retry,
}

/// A lock-free growable work-stealing deque with special-task support.
///
/// The owner calls [`push`](ChaseLevDeque::push),
/// [`pop`](ChaseLevDeque::pop), [`push_special`](ChaseLevDeque::push_special)
/// and [`pop_special`](ChaseLevDeque::pop_special); any thread may call
/// [`steal`](ChaseLevDeque::steal). Pops must match pushes in LIFO order
/// by the same owner (the structured spawn discipline of Cilk-style
/// runtimes).
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{ChaseLevDeque, ClSteal, PopSpecial};
///
/// let dq: ChaseLevDeque<u32> = ChaseLevDeque::new();
/// for i in 0..1_000 { dq.push(i); }            // grows, never overflows
/// assert_eq!(dq.steal(), ClSteal::Stolen(0));  // FIFO for thieves
/// assert_eq!(dq.pop(), Some(999));             // LIFO for the owner
///
/// let dq: ChaseLevDeque<u32> = ChaseLevDeque::new();
/// dq.push_special(100);                         // the transition task
/// dq.push(1);                                   // its child
/// assert_eq!(dq.steal(), ClSteal::Stolen(1));   // thief gets the child
/// assert_eq!(dq.pop_special(), PopSpecial::ChildStolen);
/// ```
pub struct ChaseLevDeque<T> {
    top: CachePadded<AtomicI64>,
    bottom: CachePadded<AtomicI64>,
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers retired by growth, freed on drop.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the Chase-Lev protocol guarantees each index is claimed by
// exactly one party; retired buffers are only freed with exclusive access.
unsafe impl<T: Send> Send for ChaseLevDeque<T> {}
unsafe impl<T: Send> Sync for ChaseLevDeque<T> {}

const MIN_CAP: usize = 16;

impl<T> ChaseLevDeque<T> {
    /// Create an empty deque with the minimum capacity.
    pub fn new() -> Self {
        Self::with_capacity(MIN_CAP)
    }

    /// Create an empty deque with at least `capacity` initial slots
    /// (rounded up to a power of two, minimum 16). The deque still grows
    /// beyond this on demand.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(MIN_CAP);
        ChaseLevDeque {
            top: CachePadded::new(AtomicI64::new(0)),
            bottom: CachePadded::new(AtomicI64::new(0)),
            buffer: AtomicPtr::new(Buffer::alloc(cap)),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Entries currently present (racy; for statistics).
    pub fn len(&self) -> usize {
        // Relaxed: a racy size estimate for statistics and the owner's
        // `deque_peak` gauge; staleness is benign.
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Whether the deque currently appears empty (racy).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current buffer capacity (for the growth tests).
    pub fn capacity(&self) -> usize {
        // SAFETY: `buffer` always points to a live allocation — buffers
        // are only retired in `drop`, which has `&mut self`, so no
        // concurrent call can observe a dangling pointer.
        // Relaxed: `cap` is written before the buffer is published and any
        // published buffer is a valid answer.
        unsafe { (*self.buffer.load(Ordering::Relaxed)).cap }
    }

    fn push_entry(&self, entry: Entry<T>) {
        // Relaxed: the owner is the only writer of `bottom`.
        let b = self.bottom.load(Ordering::Relaxed);
        // Acquire (KEPT): pairs with thieves' claim CASes so the fullness
        // check (`b - t >= cap`) never under-counts claims and recycles a
        // slot a thief is still reading. The single bounded thief's SeqCst
        // CAS hands the edge over for free; a second thief breaks that.
        let t = self.top.load(Ordering::Acquire);
        // Relaxed: the owner is the only writer of `buffer`.
        let mut buf = self.buffer.load(Ordering::Relaxed);
        // SAFETY: the owner is the only mutator of `buffer`.
        unsafe {
            if (b - t) as usize >= (*buf).cap {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, entry);
        }
        // Release (KEPT): the classic Chase-Lev publish — a thief that
        // observes the new bottom must also observe the plain slot write.
        // Bounded SC with one thief routes visibility through the shared
        // SeqCst top CAS; on Arm with a thief that reads `bottom` before
        // any CAS, Relaxed loses the entry.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner: push a regular task at the bottom, growing the buffer if
    /// full.
    pub fn push(&self, value: T) {
        self.push_entry(Entry {
            special: false,
            value,
        });
    }

    /// Owner: push a special (transition) task at the bottom. Thieves will
    /// never receive this entry from [`steal`](ChaseLevDeque::steal); they
    /// take the entry above it instead.
    pub fn push_special(&self, value: T) {
        self.push_entry(Entry {
            special: true,
            value,
        });
    }

    /// Double the buffer, copying live entries. Owner only.
    unsafe fn grow(&self, b: i64, t: i64, old: *mut Buffer<T>) -> *mut Buffer<T> {
        // SAFETY (whole fn): owner-exclusive; thieves read the old buffer
        // only for indices they have claimed via CAS, and raw slot moves do
        // not drop.
        unsafe {
            let new = Buffer::alloc((*old).cap * 2);
            let mut i = t;
            while i < b {
                let v = (*old).read(i);
                (*new).write(i, v);
                i += 1;
            }
            // Release (KEPT): publishes the copied slots with the new
            // buffer pointer; thieves load `buffer` with Acquire and then
            // read slots plainly. The 2-thread bound orders the lone thief
            // through its SeqCst top CAS anyway; with several thieves (or
            // one parked pre-claim) this is the only edge making the copy
            // visible.
            self.buffer.store(new, Ordering::Release);
            self.retired.lock().push(old);
            new
        }
    }

    /// The standard Chase-Lev bottom pop, returning the raw tagged entry.
    fn pop_entry(&self) -> Option<Entry<T>> {
        // Relaxed: the owner is the only writer of `bottom` and `buffer`;
        // the decrement is ordered against the `top` read by the fence
        // below, not by the store itself.
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let buf = self.buffer.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // SeqCst: the size-one race — this fence totally orders the
        // `bottom` store above and the `top` read below against the
        // thief's top-load→fence→bottom-load (Chase-Lev, SPAA 2005; Lê et
        // al.). The audit refutes AcqRel in `chase_lev_special` under TSO.
        fence(Ordering::SeqCst);
        // Relaxed: ordered by the fence above; a stale `top` only sends the
        // owner to the CAS below, which re-validates.
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: restore the canonical shape.
            // Relaxed: thieves read `bottom` behind their own SeqCst fence.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        // SAFETY: index b is below the published bottom; contention on the
        // last element is resolved by the CAS below.
        let entry = unsafe { (*buf).read(b) };
        if t == b {
            // Last element: race thieves for it.
            // SeqCst: the claim must be totally ordered with the thieves'
            // SeqCst claim CASes so exactly one party takes index `t`.
            // Relaxed: a failed claim reads nothing through `top`.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                // Lost: a thief took it; forget our read (the thief owns it).
                std::mem::forget(entry);
                // Relaxed: restores the canonical empty shape, as above.
                self.bottom.store(b + 1, Ordering::Relaxed);
                return None;
            }
            // Relaxed: restores the canonical empty shape, as above.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return Some(entry);
        }
        Some(entry)
    }

    /// Owner: pop a regular task from the bottom; `None` if it was stolen.
    pub fn pop(&self) -> Option<T> {
        let entry = self.pop_entry()?;
        debug_assert!(
            !entry.special,
            "pop must match a regular push (LIFO discipline violated)"
        );
        Some(entry.value)
    }

    /// Owner: pop a special entry, detecting whether a thief consumed it.
    ///
    /// Unlike [`TheDeque::pop_special`](crate::TheDeque::pop_special), a
    /// `ChildStolen` outcome here may also cover the benign race where the
    /// special was retired by a thief that then lost its child to this
    /// owner's earlier [`pop`](ChaseLevDeque::pop) (see the module
    /// documentation); callers must treat `ChildStolen` as "handle gone",
    /// not as a guarantee that a child task is running elsewhere.
    pub fn pop_special(&self) -> PopSpecial<T> {
        match self.pop_entry() {
            Some(entry) => {
                debug_assert!(
                    entry.special,
                    "pop_special must match a push_special (LIFO discipline violated)"
                );
                PopSpecial::Reclaimed(entry.value)
            }
            None => PopSpecial::ChildStolen,
        }
    }

    /// Thief: steal from the top.
    ///
    /// A special entry at the top is retired (claimed and dropped) and the
    /// entry above it is taken instead; a special with nothing above it is
    /// left in place and reported as [`ClSteal::Empty`].
    pub fn steal(&self) -> ClSteal<T> {
        loop {
            // Acquire (KEPT): the top/bottom/buffer loads pair with the
            // owner's Release stores (push's bottom bump, grow's buffer
            // publish) to order the plain slot read below. At the explored
            // bound the SeqCst fence and CAS of the same iteration supply
            // the edges; the Acquire loads are what the protocol proof
            // actually names.
            let t = self.top.load(Ordering::Acquire);
            // SeqCst (KEPT): Lê et al.'s argument needs the thief's fence
            // and claim CAS totally ordered with the owner's pop-side
            // fence; otherwise owner and thief can both take the last
            // entry. Refuting AcqRel needs the owner's pop racing the CAS
            // in a window the pb-2, 2-thread exploration did not reach.
            fence(Ordering::SeqCst);
            // Acquire (KEPT): pairs with push's Release bottom bump, as
            // above.
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return ClSteal::Empty;
            }
            // Acquire (KEPT): pairs with grow's Release buffer publish, as
            // above.
            let buf = self.buffer.load(Ordering::Acquire);
            // SAFETY: speculative read of index `t`, which `t < b` proved
            // initialised; the claim is validated by the CAS below, and on
            // failure the value is forgotten (another party owns the
            // slot), so no double drop can occur.
            let entry = unsafe { (*buf).read_speculative(t) };
            if entry.special {
                if t + 1 >= b {
                    // A lone special is unstealable: leave it to the owner.
                    std::mem::forget(entry);
                    return ClSteal::Empty;
                }
                // Peek the child's tag before claiming anything: two
                // adjacent specials cannot arise from the five-version FSM,
                // so refuse defensively rather than retire a chain of
                // specials (mirrors the THE deque's behaviour).
                // SAFETY: speculative read like the top read — `t + 1 < b`
                // proved the index initialised, index t+1 cannot be
                // reclaimed before index t (which the CAS below
                // validates), and the value is forgotten immediately so it
                // is never dropped here.
                let above = unsafe { (*buf).read_speculative(t + 1) };
                let above_is_special = above.special;
                std::mem::forget(above);
                if above_is_special {
                    std::mem::forget(entry);
                    return ClSteal::Empty;
                }
                // SeqCst (KEPT): the claim CAS; see the fence above.
                // Relaxed: a failed claim abandons the speculation and
                // retries from fresh Acquire loads.
                if self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // steal_specialtask, step 1: the special entry is
                    // retired — dropped, never executed. Its child is now
                    // the top; loop to claim it.
                    drop(entry);
                    continue;
                }
                std::mem::forget(entry);
                return ClSteal::Retry;
            }
            // SeqCst (KEPT): the claim CAS; see the fence above.
            // Relaxed: a failed claim abandons the speculation, as above.
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return ClSteal::Stolen(entry.value);
            }
            std::mem::forget(entry);
            return ClSteal::Retry;
        }
    }
}

impl<T> Default for ChaseLevDeque<T> {
    fn default() -> Self {
        ChaseLevDeque::new()
    }
}

impl<T> Drop for ChaseLevDeque<T> {
    fn drop(&mut self) {
        // Drain live entries.
        // Relaxed: `&mut self` — no other thread can touch the deque.
        let t = self.top.load(Ordering::Relaxed);
        let b = self.bottom.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        let mut i = t;
        while i < b {
            // SAFETY: exclusive access in Drop.
            unsafe { drop((*buf).read(i)) };
            i += 1;
        }
        // SAFETY: reconstruct and drop the boxes.
        unsafe {
            drop(Box::from_raw(buf));
            for old in self.retired.lock().drain(..) {
                drop(Box::from_raw(old));
            }
        }
    }
}

impl<T> fmt::Debug for ChaseLevDeque<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Relaxed: an advisory racy snapshot; torn top/bottom pairs are
        // acceptable.
        f.debug_struct("ChaseLevDeque")
            .field("top", &self.top.load(Ordering::Relaxed))
            .field("bottom", &self.bottom.load(Ordering::Relaxed))
            .field("capacity", &self.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn lifo_owner_fifo_thief() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), ClSteal::Stolen(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), ClSteal::Stolen(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), ClSteal::Empty);
    }

    #[test]
    fn grows_past_initial_capacity() {
        let d: ChaseLevDeque<usize> = ChaseLevDeque::new();
        let initial = d.capacity();
        for i in 0..10 * initial {
            d.push(i);
        }
        assert!(d.capacity() > initial);
        assert_eq!(d.len(), 10 * initial);
        // Everything still pops in LIFO order.
        for i in (0..10 * initial).rev() {
            assert_eq!(d.pop(), Some(i));
        }
    }

    #[test]
    fn with_capacity_rounds_up() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::with_capacity(100);
        assert_eq!(d.capacity(), 128);
        let d: ChaseLevDeque<u32> = ChaseLevDeque::with_capacity(0);
        assert_eq!(d.capacity(), 16);
    }

    #[test]
    fn pop_empty_repeatedly_is_safe() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        for _ in 0..10 {
            assert_eq!(d.pop(), None);
        }
        d.push(5);
        assert_eq!(d.pop(), Some(5));
    }

    #[test]
    fn special_is_never_stolen_alone() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        d.push_special(42);
        assert_eq!(d.steal(), ClSteal::Empty);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
    }

    #[test]
    fn steal_special_takes_child_and_pop_special_detects() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        d.push_special(42);
        d.push(7);
        assert_eq!(d.steal(), ClSteal::Stolen(7));
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        // Deque is now canonically empty and reusable.
        assert!(d.is_empty());
        d.push_special(43);
        d.push(8);
        assert_eq!(d.pop(), Some(8));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(43));
    }

    #[test]
    fn adjacent_specials_are_refused() {
        // Cannot arise from the FSM; the deque refuses defensively, as the
        // THE implementation does.
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        d.push_special(1);
        d.push_special(2);
        assert_eq!(d.steal(), ClSteal::Empty);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(2));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(1));
    }

    #[test]
    fn regular_tasks_below_special_are_stolen_first() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        d.push(1);
        d.push_special(42);
        d.push(2);
        assert_eq!(d.steal(), ClSteal::Stolen(1));
        assert_eq!(d.steal(), ClSteal::Stolen(2)); // via the special
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        assert!(d.is_empty());
    }

    #[test]
    fn check_version_loop_shape() {
        // Mirrors the paper's check version: the special is re-pushed per
        // child; some children are stolen, some are not.
        let d: ChaseLevDeque<u32> = ChaseLevDeque::new();
        for (i, stolen_by_thief) in [(0u32, false), (1, true), (2, false)] {
            d.push_special(99);
            d.push(i);
            if stolen_by_thief {
                assert_eq!(d.steal(), ClSteal::Stolen(i));
                assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
            } else {
                assert_eq!(d.pop(), Some(i));
                assert_eq!(d.pop_special(), PopSpecial::Reclaimed(99));
            }
        }
        assert!(d.is_empty());
    }

    #[test]
    fn growth_preserves_special_tags() {
        let d: ChaseLevDeque<u32> = ChaseLevDeque::with_capacity(16);
        d.push_special(1000);
        for i in 0..100 {
            d.push(i); // forces growth with the special live at the head
        }
        assert!(d.capacity() > 16);
        assert_eq!(d.steal(), ClSteal::Stolen(0)); // child via the special
        for i in 1..100 {
            assert_eq!(d.steal(), ClSteal::Stolen(i));
        }
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
    }

    #[test]
    fn drop_releases_entries_and_buffers() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let d: ChaseLevDeque<Token> = ChaseLevDeque::new();
            d.push_special(Token);
            for _ in 0..100 {
                d.push(Token); // forces growth with live entries
            }
            for _ in 0..40 {
                drop(d.pop());
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 101);
    }

    #[test]
    fn concurrent_conservation() {
        const ROUNDS: u64 = 30_000;
        let d: Arc<ChaseLevDeque<u64>> = Arc::new(ChaseLevDeque::new());
        let stolen = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let stolen = Arc::clone(&stolen);
                let stop = Arc::clone(&stop);
                s.spawn(move || loop {
                    match d.steal() {
                        ClSteal::Stolen(v) => {
                            stolen.fetch_add(v, Ordering::Relaxed);
                        }
                        ClSteal::Retry => std::hint::spin_loop(),
                        ClSteal::Empty => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for i in 1..=ROUNDS {
                d.push(i);
                if i % 2 == 0 {
                    if let Some(v) = d.pop() {
                        popped.fetch_add(v, Ordering::Relaxed);
                    }
                }
            }
            while let Some(v) = d.pop() {
                popped.fetch_add(v, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            stolen.load(Ordering::SeqCst) + popped.load(Ordering::SeqCst),
            ROUNDS * (ROUNDS + 1) / 2
        );
    }

    #[test]
    fn concurrent_special_children_conserved() {
        // Owner repeatedly runs the check-version loop while thieves poach
        // children through the special entry. Every regular value must be
        // claimed exactly once; special entries are retired, never stolen.
        const ROUNDS: u64 = 10_000;
        const SPECIAL: u64 = u64::MAX; // sentinel: must never be claimed
        let d: Arc<ChaseLevDeque<u64>> = Arc::new(ChaseLevDeque::new());
        let claimed = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        std::thread::scope(|s| {
            for _ in 0..2 {
                let d = Arc::clone(&d);
                let claimed = Arc::clone(&claimed);
                let stop = Arc::clone(&stop);
                s.spawn(move || loop {
                    match d.steal() {
                        ClSteal::Stolen(v) => {
                            assert_ne!(v, SPECIAL, "a special entry was stolen");
                            claimed.fetch_add(v, Ordering::Relaxed);
                        }
                        ClSteal::Retry => std::hint::spin_loop(),
                        ClSteal::Empty => {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for i in 1..=ROUNDS {
                d.push_special(SPECIAL);
                d.push(i);
                match d.pop() {
                    Some(v) => {
                        claimed.fetch_add(v, Ordering::Relaxed);
                        // The special may have been retired concurrently
                        // (benign race): either outcome is legal here.
                        match d.pop_special() {
                            PopSpecial::Reclaimed(s) => assert_eq!(s, SPECIAL),
                            PopSpecial::ChildStolen => {}
                        }
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
