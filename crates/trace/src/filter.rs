//! Event categories and the two-level category filter.
//!
//! Every [`EventKind`] belongs to exactly one [`Category`]; a trace
//! filter is a bitmask of category bits. Filtering happens at **two**
//! levels, both resolved before an event is constructed:
//!
//! * **Compile time** — [`compiled_mask`] removes whole categories from
//!   the build when the `no-hot-events` cargo feature is enabled (the
//!   hot trio: deque traffic, fake tasks, spawns). The emit macros still
//!   type-check; the mask test constant-folds to `false` and the whole
//!   site is dead-code-eliminated.
//! * **Run time** — `Config::trace_filter` (a raw `u64` so the core
//!   crate needs no dependency on this one) is ANDed with the compiled
//!   mask in the collector and checked with a single `Relaxed` load per
//!   emission.
//!
//! The category partition deliberately follows the `RunStats` counters:
//! each counter that [`validate`](crate::validate) checks derives from
//! events of exactly one category, so masking a category cleanly skips
//! its counters instead of corrupting the differential.
//!
//! Categories in [`Category::SAMPLED_MASK`] (the same hot trio) are
//! additionally subject to 1-in-N sampling when `Config::trace_sample`
//! is above 1; see [`crate::collector`].

use crate::event::EventKind;

/// An event category — one bit of a trace filter mask.
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
    /// Copy-on-steal workspace traffic (request/deposit/take/elision).
    Workspace = 7,
    /// Suspension brackets of special syncs.
    Sync = 8,
    /// Job-server participation brackets. Never maskable: the collector
    /// forces this bit on because [`crate::Trace::split_jobs`] needs the
    /// brackets to attribute every other event.
    Job = 9,
    /// Cut-off tunes from the online controller. Sampled like the hot
    /// trio so a pathological oscillation cannot flood the rings.
    Strategy = 10,
}

impl Category {
    /// All categories, indexable by discriminant.
    pub const ALL: [Category; 11] = [
        Category::Spawn,
        Category::Deque,
        Category::Steal,
        Category::Fake,
        Category::Fsm,
        Category::Special,
        Category::Signal,
        Category::Workspace,
        Category::Sync,
        Category::Job,
        Category::Strategy,
    ];

    /// Mask with every category enabled.
    pub const ALL_MASK: u64 = (1 << Category::ALL.len()) - 1;

    /// The categories subject to 1-in-N sampling when
    /// `Config::trace_sample > 1`: the high-frequency trio whose events
    /// scale with the task tree rather than with scheduling decisions,
    /// plus strategy tunes (which an oscillating controller could emit
    /// at poll frequency).
    pub const SAMPLED_MASK: u64 = Category::Deque.bit()
        | Category::Fake.bit()
        | Category::Spawn.bit()
        | Category::Strategy.bit();

    /// This category's filter bit.
    #[inline]
    pub const fn bit(self) -> u64 {
        1 << (self as u8)
    }

    /// Short stable name for reports and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Category::Spawn => "spawn",
            Category::Deque => "deque",
            Category::Steal => "steal",
            Category::Fake => "fake",
            Category::Fsm => "fsm",
            Category::Special => "special",
            Category::Signal => "signal",
            Category::Workspace => "workspace",
            Category::Sync => "sync",
            Category::Job => "job",
            Category::Strategy => "strategy",
        }
    }
}

/// The categories compiled into this build. All of them normally; the
/// `no-hot-events` cargo feature statically removes the hot trio so
/// their emit sites vanish entirely (the strongest form of "disabled").
pub const fn compiled_mask() -> u64 {
    #[cfg(feature = "no-hot-events")]
    {
        Category::ALL_MASK & !Category::SAMPLED_MASK
    }
    #[cfg(not(feature = "no-hot-events"))]
    {
        Category::ALL_MASK
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
            | EventKind::StealEmpty { .. }
            | EventKind::StealDup { .. } => Category::Steal,
            EventKind::FakeTask { .. } => Category::Fake,
            EventKind::Fsm { .. } => Category::Fsm,
            EventKind::SpecialBegin { .. } | EventKind::SpecialEnd => Category::Special,
            EventKind::NeedTaskSignal { .. } | EventKind::NeedTaskAck => Category::Signal,
            EventKind::WsRequest { .. }
            | EventKind::WsDeposit
            | EventKind::WsTake
            | EventKind::CopySaved => Category::Workspace,
            EventKind::SyncSuspend | EventKind::SyncResume => Category::Sync,
            EventKind::JobBegin { .. } | EventKind::JobEnd { .. } => Category::Job,
            EventKind::CutoffTune { .. } => Category::Strategy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_distinct_and_cover_all_mask() {
        let mut acc = 0u64;
        for c in Category::ALL {
            assert_eq!(acc & c.bit(), 0, "{} reuses a bit", c.name());
            acc |= c.bit();
        }
        assert_eq!(acc, Category::ALL_MASK);
    }

    #[test]
    fn sampled_mask_is_the_hot_trio_plus_strategy() {
        assert_eq!(
            Category::SAMPLED_MASK,
            Category::Deque.bit()
                | Category::Fake.bit()
                | Category::Spawn.bit()
                | Category::Strategy.bit()
        );
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = Category::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Category::ALL.len());
    }

    #[test]
    fn compiled_mask_defaults_to_everything() {
        #[cfg(not(feature = "no-hot-events"))]
        assert_eq!(compiled_mask(), Category::ALL_MASK);
        #[cfg(feature = "no-hot-events")]
        assert_eq!(
            compiled_mask(),
            Category::ALL_MASK & !Category::SAMPLED_MASK
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
        assert_eq!(EventKind::CopySaved.category(), Category::Workspace);
        assert_eq!(
            EventKind::JobBegin { job: 1, slot: 0 }.category(),
            Category::Job
        );
    }
}
