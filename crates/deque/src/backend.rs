//! The pluggable deque-backend abstraction.
//!
//! Every substrate in this crate exposes the same owner/thief protocol —
//! LIFO push/pop at the tail for the owner, FIFO steal at the head for
//! thieves, plus AdaptiveTC's special-task operations. [`WsDeque`] captures
//! that protocol so the model-checking suites and the repo benchmark can
//! drive every backend ([`TheDeque`], [`ChaseLevDeque`], [`PoolDeque`],
//! [`FenceFreeDeque`]) through the same code. The runtime engine itself
//! runs on [`TheDeque`] only.
//!
//! # Protocol contract
//!
//! Implementations must uphold, for a single owner thread and any number
//! of concurrent thieves:
//!
//! 1. every pushed entry is claimed by **exactly one** party (the owner's
//!    matching pop, or one thief's steal);
//! 2. a special entry is **never returned by [`steal`](WsDeque::steal)**:
//!    a thief that finds one at the head retires it and takes the entry
//!    above it (the special task's child) instead;
//! 3. [`pop_special`](WsDeque::pop_special) returns
//!    [`PopSpecial::Reclaimed`] only when the matching special entry is
//!    still present; once any thief has consumed the special's slot it
//!    returns [`PopSpecial::ChildStolen`].
//!
//! Lock-free backends may additionally report `ChildStolen` in a benign
//! race where the special entry was retired but its child was reclaimed
//! by the owner first; the runtime treats `ChildStolen` as "do not reuse
//! the handle", which is safe in both cases.
//!
//! [`FenceFreeDeque`] weakens property (1) to **at least one** party: the
//! owner's pop may *offer* an entry a thief already took (and
//! `pop_special` may report `Reclaimed` while a thief still races for the
//! child). It is sound only under a caller that gates every execution
//! behind a claim of its own; see its module documentation.
//!
//! Backends carry opaque entries and know nothing about taskprivate
//! workspaces: the runtime's frame owns its workspace, so whichever of
//! {owner pop, thief steal} claims an entry — exactly one, by property
//! (1) — runs the continuation on it.

use crate::{
    ChaseLevDeque, ClSteal, FenceFreeDeque, Overflow, PoolDeque, PopSpecial, StealOutcome, TheDeque,
};

/// A work-stealing deque usable as the engine's task substrate.
///
/// The protocol contract is in the documentation of the crate's `backend`
/// module.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::{StealOutcome, WsDeque};
///
/// fn drain_oldest<D: WsDeque<u32>>(dq: &D) -> Vec<u32> {
///     let mut out = Vec::new();
///     while let StealOutcome::Stolen(v) = dq.steal() {
///         out.push(v);
///     }
///     out
/// }
///
/// let dq = adaptivetc_deque::ChaseLevDeque::with_capacity(8);
/// WsDeque::push(&dq, 1).unwrap(); // inherent `push` returns (), the trait's returns Result
/// WsDeque::push(&dq, 2).unwrap();
/// assert_eq!(drain_oldest(&dq), vec![1, 2]);
/// ```
pub trait WsDeque<T: Send>: Send + Sync {
    /// Short name for reports and benchmark labels.
    const NAME: &'static str;

    /// Create a deque able to hold at least `capacity` entries before a
    /// push can fail (growable backends never fail and treat `capacity`
    /// as the initial allocation).
    fn with_capacity(capacity: usize) -> Self
    where
        Self: Sized;

    /// Owner: push a regular task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when a fixed capacity is exhausted.
    fn push(&self, value: T) -> Result<(), Overflow>;

    /// Owner: push a special (transition) task at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`Overflow`] when a fixed capacity is exhausted.
    fn push_special(&self, value: T) -> Result<(), Overflow>;

    /// Owner: pop the entry it pushed most recently; `None` if stolen.
    fn pop(&self) -> Option<T>;

    /// Owner: pop a special entry, detecting whether a thief consumed it.
    fn pop_special(&self) -> PopSpecial<T>;

    /// Thief: steal the oldest stealable entry. Blocks only for bounded
    /// internal retries; returns [`StealOutcome::Empty`] when nothing is
    /// stealable.
    fn steal(&self) -> StealOutcome<T>;

    /// Entries currently present (racy; for statistics).
    fn len(&self) -> usize;

    /// Whether the deque currently appears empty (racy; for statistics).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T: Send> WsDeque<T> for TheDeque<T> {
    const NAME: &'static str = "the";

    fn with_capacity(capacity: usize) -> Self {
        TheDeque::new(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        TheDeque::push(self, value)
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        TheDeque::push_special(self, value)
    }

    fn pop(&self) -> Option<T> {
        TheDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        TheDeque::pop_special(self)
    }

    fn steal(&self) -> StealOutcome<T> {
        TheDeque::steal(self)
    }

    fn len(&self) -> usize {
        TheDeque::len(self)
    }
}

impl<T: Send> WsDeque<T> for ChaseLevDeque<T> {
    const NAME: &'static str = "chase-lev";

    fn with_capacity(capacity: usize) -> Self {
        ChaseLevDeque::with_capacity(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        ChaseLevDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        ChaseLevDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        ChaseLevDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        ChaseLevDeque::pop_special(self)
    }

    fn steal(&self) -> StealOutcome<T> {
        // `Retry` means another party's CAS succeeded between our read and
        // our claim, so spinning here is globally lock-free.
        loop {
            match ChaseLevDeque::steal(self) {
                ClSteal::Stolen(v) => return StealOutcome::Stolen(v),
                ClSteal::Empty => return StealOutcome::Empty,
                ClSteal::Retry => std::hint::spin_loop(),
            }
        }
    }

    fn len(&self) -> usize {
        ChaseLevDeque::len(self)
    }
}

impl<T: Send> WsDeque<T> for PoolDeque<T> {
    const NAME: &'static str = "pool";

    fn with_capacity(_capacity: usize) -> Self {
        PoolDeque::new()
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        PoolDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        PoolDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        PoolDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        PoolDeque::pop_special(self)
    }

    fn steal(&self) -> StealOutcome<T> {
        PoolDeque::steal(self)
    }

    fn len(&self) -> usize {
        PoolDeque::len(self)
    }
}

impl<T: Send + Sync + Clone> WsDeque<T> for FenceFreeDeque<T> {
    const NAME: &'static str = "fence-free";

    fn with_capacity(capacity: usize) -> Self {
        FenceFreeDeque::with_capacity(capacity)
    }

    fn push(&self, value: T) -> Result<(), Overflow> {
        FenceFreeDeque::push(self, value);
        Ok(())
    }

    fn push_special(&self, value: T) -> Result<(), Overflow> {
        FenceFreeDeque::push_special(self, value);
        Ok(())
    }

    fn pop(&self) -> Option<T> {
        FenceFreeDeque::pop(self)
    }

    fn pop_special(&self) -> PopSpecial<T> {
        FenceFreeDeque::pop_special(self)
    }

    fn steal(&self) -> StealOutcome<T> {
        FenceFreeDeque::steal(self)
    }

    fn len(&self) -> usize {
        FenceFreeDeque::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generic protocol smoke test every backend must pass.
    fn protocol_smoke<D: WsDeque<u32>>() {
        let d = D::with_capacity(16);
        // LIFO owner, FIFO thief.
        d.push(1).unwrap();
        d.push(2).unwrap();
        d.push(3).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.steal(), StealOutcome::Stolen(1));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), StealOutcome::Stolen(2));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), StealOutcome::Empty);
        assert!(d.is_empty());

        // Special-task protocol: a lone special is unstealable …
        d.push_special(42).unwrap();
        assert_eq!(d.steal(), StealOutcome::Empty);
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(42));
        // … a special with a child yields the child and is retired …
        d.push_special(43).unwrap();
        d.push(7).unwrap();
        assert_eq!(d.steal(), StealOutcome::Stolen(7));
        assert_eq!(d.pop_special(), PopSpecial::ChildStolen);
        // … and the owner reclaims it when the child was not stolen.
        d.push_special(44).unwrap();
        d.push(8).unwrap();
        assert_eq!(d.pop(), Some(8));
        assert_eq!(d.pop_special(), PopSpecial::Reclaimed(44));
        assert!(d.is_empty());
    }

    #[test]
    fn the_deque_satisfies_protocol() {
        protocol_smoke::<TheDeque<u32>>();
    }

    #[test]
    fn chase_lev_satisfies_protocol() {
        protocol_smoke::<ChaseLevDeque<u32>>();
    }

    #[test]
    fn pool_deque_satisfies_protocol() {
        protocol_smoke::<PoolDeque<u32>>();
    }

    /// The fence-free backend's multiplicity-adjusted smoke test: same
    /// protocol shape as [`protocol_smoke`], but property (1) is
    /// at-least-once — pops *offer* stolen entries (a caller's claim
    /// must reject them) — and `len` is a racy over-estimate after steals.
    #[test]
    fn fence_free_satisfies_relaxed_protocol() {
        type D = FenceFreeDeque<u32>;
        let d = <D as WsDeque<u32>>::with_capacity(16);
        WsDeque::push(&d, 1).unwrap();
        WsDeque::push(&d, 2).unwrap();
        WsDeque::push(&d, 3).unwrap();
        assert_eq!(WsDeque::len(&d), 3);
        assert_eq!(WsDeque::steal(&d), StealOutcome::Stolen(1));
        assert_eq!(WsDeque::pop(&d), Some(3));
        assert_eq!(WsDeque::steal(&d), StealOutcome::Stolen(2));
        assert_eq!(WsDeque::pop(&d), Some(2), "duplicate offer of stolen 2");
        assert_eq!(WsDeque::pop(&d), Some(1), "duplicate offer of stolen 1");
        assert_eq!(WsDeque::pop(&d), None);
        assert_eq!(
            WsDeque::steal(&d),
            StealOutcome::Stolen(3),
            "cursor re-offers the owner-popped 3"
        );
        assert_eq!(WsDeque::steal(&d), StealOutcome::Empty);

        // Special-task protocol: identical to the exact backends, except
        // that the stolen child's dead offer is discarded internally when
        // pop_special is called without popping the child first.
        WsDeque::push_special(&d, 42).unwrap();
        assert_eq!(WsDeque::steal(&d), StealOutcome::Empty);
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::Reclaimed(42));
        WsDeque::push_special(&d, 43).unwrap();
        WsDeque::push(&d, 7).unwrap();
        assert_eq!(WsDeque::steal(&d), StealOutcome::Stolen(7));
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::ChildStolen);
        WsDeque::push_special(&d, 44).unwrap();
        WsDeque::push(&d, 8).unwrap();
        assert_eq!(WsDeque::pop(&d), Some(8));
        assert_eq!(WsDeque::pop_special(&d), PopSpecial::Reclaimed(44));
    }

    #[test]
    fn backend_names_are_distinct() {
        let names = [
            <TheDeque<u32> as WsDeque<u32>>::NAME,
            <ChaseLevDeque<u32> as WsDeque<u32>>::NAME,
            <PoolDeque<u32> as WsDeque<u32>>::NAME,
            <FenceFreeDeque<u32> as WsDeque<u32>>::NAME,
        ];
        assert_eq!(names, ["the", "chase-lev", "pool", "fence-free"]);
    }
}
