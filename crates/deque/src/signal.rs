//! The `stolen_num` / `need_task` back-pressure signal.

use crate::sync::{AtomicBool, AtomicU32, Ordering};
use crossbeam_utils::CachePadded;

/// Per-worker signal through which thieves ask a busy victim for tasks.
///
/// Reproduces the bottom half of the paper's Figure 3: a thief that fails to
/// steal from a victim increments the victim's `stolen_num`; once it exceeds
/// `max_stolen_num` the victim's `need_task` flag is raised. A successful
/// steal clears both. The victim's *check version* polls
/// [`needs_task`](NeedTask::needs_task) and responds by pushing a special
/// task.
///
/// # Examples
///
/// ```
/// use adaptivetc_deque::NeedTask;
///
/// let sig = NeedTask::new(3);
/// for _ in 0..3 { sig.record_steal_failure(); }
/// assert!(!sig.needs_task());     // threshold not yet exceeded
/// sig.record_steal_failure();
/// assert!(sig.needs_task());      // stolen_num > max_stolen_num
/// sig.record_steal_success();
/// assert!(!sig.needs_task());
/// ```
///
/// `stolen_num` sits on its own cache line: failing thieves count there
/// without invalidating the line of `need_task`, which the victim polls
/// at every check-version node.
#[derive(Debug)]
pub struct NeedTask {
    stolen_num: CachePadded<AtomicU32>,
    need_task: AtomicBool,
    max_stolen_num: u32,
}

impl NeedTask {
    /// Create a signal with the given `max_stolen_num` threshold (the
    /// paper's runtime defaults to 20).
    pub fn new(max_stolen_num: u32) -> Self {
        NeedTask {
            stolen_num: CachePadded::new(AtomicU32::new(0)),
            need_task: AtomicBool::new(false),
            max_stolen_num,
        }
    }

    /// A thief failed to steal from this victim. Returns `true` when this
    /// failure is the one that crossed the threshold and raised the
    /// victim's `need_task` flag (so callers can attribute the signal to a
    /// specific thief, e.g. in an event trace).
    pub fn record_steal_failure(&self) -> bool {
        // Relaxed: advisory bookkeeping — no payload is published through
        // the signal (the deque steal carries the data synchronisation),
        // and a stale value only delays task creation.
        let n = self.stolen_num.fetch_add(1, Ordering::Relaxed) + 1;
        if n > self.max_stolen_num {
            // swap, not store: the return value tells exactly one caller
            // that its failure performed the lowered→raised transition.
            // Relaxed: advisory flag, as above; the swap's atomicity alone
            // picks the one caller.
            !self.need_task.swap(true, Ordering::Relaxed)
        } else {
            false
        }
    }

    /// A thief successfully stole from this victim: clear the signal.
    /// `need_task` is written only when it is up, so a steal leaves the
    /// line the victim polls alone.
    pub fn record_steal_success(&self) {
        // Relaxed: advisory bookkeeping; observers tolerate staleness.
        self.stolen_num.store(0, Ordering::Relaxed);
        // Relaxed: a stale `false` leaves a raised flag for the victim's
        // acknowledgement to lower: one extra special task at worst.
        if self.need_task.load(Ordering::Relaxed) {
            // Relaxed: advisory flag, as above.
            self.need_task.store(false, Ordering::Relaxed);
        }
    }

    /// Polled by the victim's check version.
    pub fn needs_task(&self) -> bool {
        // Relaxed: an advisory poll on the owner's hot path; a stale read
        // delays adaptation but can never break safety.
        self.need_task.load(Ordering::Relaxed)
    }

    /// Acknowledge the signal after pushing a special task, so one request
    /// produces one transition.
    pub fn acknowledge(&self) {
        // Relaxed: advisory bookkeeping; a racing failure that re-raises
        // the flag just asks again.
        self.stolen_num.store(0, Ordering::Relaxed);
        self.need_task.store(false, Ordering::Relaxed);
    }

    /// Current consecutive-failure count (for statistics).
    pub fn stolen_num(&self) -> u32 {
        // Relaxed: a statistics read; staleness is benign.
        self.stolen_num.load(Ordering::Relaxed)
    }

    /// The threshold, fixed for the signal's lifetime.
    pub fn max_stolen_num(&self) -> u32 {
        self.max_stolen_num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_strict() {
        let s = NeedTask::new(2);
        assert!(!s.record_steal_failure());
        assert!(!s.record_steal_failure());
        assert!(
            !s.needs_task(),
            "need_task raised at, not above, the threshold"
        );
        assert!(s.record_steal_failure());
        assert!(s.needs_task());
    }

    #[test]
    fn only_the_raising_failure_reports_true() {
        let s = NeedTask::new(1);
        assert!(!s.record_steal_failure());
        assert!(s.record_steal_failure(), "threshold crossing must report");
        assert!(
            !s.record_steal_failure(),
            "already-raised flag must not re-report"
        );
        s.record_steal_success();
        assert!(!s.record_steal_failure());
        assert!(
            s.record_steal_failure(),
            "re-raise after clear reports again"
        );
    }

    #[test]
    fn success_clears() {
        let s = NeedTask::new(1);
        s.record_steal_failure();
        s.record_steal_failure();
        assert!(s.needs_task());
        s.record_steal_success();
        assert!(!s.needs_task());
        assert_eq!(s.stolen_num(), 0);
    }

    #[test]
    fn acknowledge_clears() {
        let s = NeedTask::new(1);
        s.record_steal_failure();
        s.record_steal_failure();
        s.acknowledge();
        assert!(!s.needs_task());
    }

    #[test]
    fn exposes_threshold() {
        assert_eq!(NeedTask::new(20).max_stolen_num(), 20);
    }
}
