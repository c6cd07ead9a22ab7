//! Event categories.
//!
//! Every [`EventKind`] belongs to exactly one [`Category`], and the
//! partition deliberately follows the `RunStats` counters: each counter
//! that [`validate`](crate::validate()) checks derives from events of
//! exactly one category, so 1-in-N sampling of a category turns exactly
//! its counters into bounds and leaves the rest exact.
//!
//! Categories in [`Category::SAMPLED_MASK`] (the hot trio) are subject to 1-in-N sampling when `Config::trace_sample` is
//! above 1; see [`crate::collector`]. Sampling is the one volume
//! control: a traced run records every category.

use crate::event::EventKind;

/// An event category. Each owns one bit ([`Category::bit`]), so a set of
/// categories such as [`Category::SAMPLED_MASK`] is a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Real-task creation ([`EventKind::Spawn`]).
    Spawn = 0,
    /// Owner-side deque traffic: pushes, pops, pop conflicts, special
    /// pushes and special consumes. The hottest category by far.
    Deque = 1,
    /// Thief-side steal probes and their outcomes.
    Steal = 2,
    /// Fake-task execution ([`EventKind::FakeTask`]) — one event per
    /// demoted node, second-hottest category.
    Fake = 3,
    /// FSM version transitions.
    Fsm = 4,
    /// Special-task sections (begin/end).
    Special = 5,
    /// `need_task` signalling (signal + acknowledge).
    Signal = 6,
    /// Suspension brackets of special syncs.
    Sync = 7,
    /// Job-server participation brackets, which
    /// [`crate::Trace::split_jobs`] uses to attribute every other event.
    Job = 8,
}

impl Category {
    /// All categories, indexable by discriminant.
    pub const ALL: [Category; 9] = [
        Category::Spawn,
        Category::Deque,
        Category::Steal,
        Category::Fake,
        Category::Fsm,
        Category::Special,
        Category::Signal,
        Category::Sync,
        Category::Job,
    ];

    /// The categories subject to 1-in-N sampling when
    /// `Config::trace_sample > 1`: the high-frequency trio whose events
    /// scale with the task tree rather than with scheduling decisions.
    pub const SAMPLED_MASK: u64 =
        Category::Deque.bit() | Category::Fake.bit() | Category::Spawn.bit();

    /// This category's mask bit.
    #[inline]
    pub const fn bit(self) -> u64 {
        1 << (self as u8)
    }
}

impl EventKind {
    /// The category this event belongs to.
    pub fn category(&self) -> Category {
        match self {
            EventKind::Spawn { .. } => Category::Spawn,
            EventKind::Push
            | EventKind::Pop
            | EventKind::PopConflict
            | EventKind::SpecialPush
            | EventKind::SpecialConsume { .. } => Category::Deque,
            EventKind::StealAttempt { .. }
            | EventKind::StealOk { .. }
            | EventKind::StealEmpty { .. } => Category::Steal,
            EventKind::FakeTask { .. } => Category::Fake,
            EventKind::Fsm { .. } => Category::Fsm,
            EventKind::SpecialBegin { .. } | EventKind::SpecialEnd => Category::Special,
            EventKind::NeedTaskSignal { .. } | EventKind::NeedTaskAck => Category::Signal,
            EventKind::SyncSuspend | EventKind::SyncResume => Category::Sync,
            EventKind::JobBegin { .. } | EventKind::JobEnd { .. } => Category::Job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_distinct() {
        let mut acc = 0u64;
        for c in Category::ALL {
            assert_eq!(acc & c.bit(), 0, "{c:?} reuses a bit");
            acc |= c.bit();
        }
    }

    #[test]
    fn sampled_mask_is_the_hot_trio() {
        assert_eq!(
            Category::SAMPLED_MASK,
            Category::Deque.bit() | Category::Fake.bit() | Category::Spawn.bit()
        );
    }

    #[test]
    fn every_kind_has_a_category() {
        // Spot-check the partition boundaries that validate() relies on.
        assert_eq!(EventKind::SpecialPush.category(), Category::Deque);
        assert_eq!(
            EventKind::SpecialConsume { reclaimed: false }.category(),
            Category::Deque
        );
        assert_eq!(
            EventKind::SpecialBegin { depth: 0 }.category(),
            Category::Special
        );
        assert_eq!(
            EventKind::JobBegin { job: 1, slot: 0 }.category(),
            Category::Job
        );
    }
}
