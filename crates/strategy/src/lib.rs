//! The scheduling kernel under the AdaptiveTC threaded engine and its
//! simulator: every decision a work-stealing worker takes, written once —
//! the per-worker [`Kernel`], the FSM edges of [`fsm`], the policy table
//! ([`Policy`] → [`Mode`]) and Tascell's split and victim rules. The
//! two engines keep only mechanism and feed the kernel what it observed;
//! nothing here reads a clock or touches shared memory.
//!
//! # The online cut-off controller
//!
//! The paper creates tasks down to the static `⌈log₂N⌉` cut-off. Both
//! engines additionally let each worker raise that cut-off a few levels
//! while thieves starve and shed the raise again once they stop.
//! [`CutoffController`] is that state: a plain struct a worker owns
//! privately. Every input it consumes is a value the worker already read
//! on its existing hot path (the relaxed `need_task` poll, its own deque
//! occupancy, its own failed-steal streak), so closing the feedback loop
//! adds **zero** fences or shared-memory traffic.
//!
//! ## The rule and why it is stable
//!
//! The effective cut-off is `base + boost` with
//! `boost ∈ [0, MAX_BOOST]` (additive-increase/additive-decrease):
//!
//! * **Increase** (+1) on each observed pressure edge — a raised
//!   `need_task` at a poll, or a steal this worker completed only after
//!   [`HARD_STEAL_STREAK`] failed probes. Both mean thieves are starving:
//!   a deeper cut-off makes the next subtree publish more stealable tasks.
//! * **Decrease** (−1, toward `base`) after [`DECAY_PERIOD`]
//!   consecutive calm polls with own-deque occupancy at or above
//!   [`COMFORT_OCCUPANCY`]. Calm + a stocked deque means the extra
//!   tasks are no longer needed and their copy overhead can be shed.
//!
//! Bounded state, one-step moves, and opposing signals that cannot fire
//! on the same poll (a poll is either pressured or calm) give the loop
//! a standard AIAD stability argument: under sustained pressure it
//! converges to `base + MAX_BOOST` without overshoot, under sustained
//! calm it returns to `base` at 1/[`DECAY_PERIOD`] the rise rate, and
//! with no thieves at all (a 1-thread run) no pressure edge ever fires,
//! so the effective cut-off is the static `base` bit-for-bit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fsm;
mod kernel;
mod policy;

pub use kernel::{tascell_give, uniform_victim, Fallthrough, Kernel, Regime, Tune};
pub use policy::{Mode, Policy};

/// Most the adaptive cutoff may exceed its static base: deep enough to
/// multiply the stealable frontier by up to 2^8 on binary trees, small
/// enough that the copy overhead of a mistuned peak stays bounded.
pub const MAX_BOOST: u32 = 8;

/// Consecutive comfortable polls before one step of cutoff decay. Polls
/// happen once per fake task, so this is ~64 sequential nodes of calm.
pub const DECAY_PERIOD: u32 = 64;

/// Own-deque occupancy at or above which a calm poll counts toward
/// decay: with at least this many stealable entries parked, extra task
/// creation is pure overhead.
pub const COMFORT_OCCUPANCY: usize = 2;

/// Failed-steal streak beyond which a finally-successful steal counts as
/// a pressure edge ([`CutoffController::on_pressure`]): work exists but
/// took this many probes to find, i.e. tasks are too scarce.
pub const HARD_STEAL_STREAK: u32 = 16;

/// Per-worker adaptive cutoff state. See the crate docs for the rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutoffController {
    base: u32,
    boost: u32,
    calm: u32,
}

impl CutoffController {
    /// A controller resting at the static cutoff `base`.
    pub fn new(base: u32) -> CutoffController {
        CutoffController {
            base,
            boost: 0,
            calm: 0,
        }
    }

    /// The current effective cutoff, `base + boost`.
    #[inline]
    pub fn effective(&self) -> u32 {
        self.base + self.boost
    }

    /// Does a child at task depth `depth` run as a real task (frame +
    /// stealable continuation) rather than an inlined fake task? The
    /// paper's FSM rule over the effective cutoff: `fast2` marks the
    /// fast_2 regime, where the cutoff is doubled.
    #[inline]
    pub fn real_task(&self, depth: u32, fast2: bool) -> bool {
        let eff = self.effective();
        depth < if fast2 { eff * 2 } else { eff }
    }

    /// Is the cutoff currently above its base (i.e. could a calm poll
    /// decay it)? Lets the caller skip gathering the occupancy signal
    /// entirely while the controller rests at base.
    #[inline]
    pub fn boosted(&self) -> bool {
        self.boost > 0
    }

    /// A pressure edge: a poll observed a raised `need_task`, or this
    /// worker's own steal landed only after [`HARD_STEAL_STREAK`] failed
    /// probes. Returns the new effective cutoff if the adjustment moved
    /// it.
    #[inline]
    pub fn on_pressure(&mut self) -> Option<u32> {
        self.calm = 0;
        if self.boost < MAX_BOOST {
            self.boost += 1;
            Some(self.effective())
        } else {
            None
        }
    }

    /// A poll observed no pressure; `occupancy` is the worker's own
    /// deque length at the poll. Returns the new effective cutoff if a
    /// decay step fired.
    #[inline]
    pub fn on_calm_poll(&mut self, occupancy: usize) -> Option<u32> {
        if occupancy < COMFORT_OCCUPANCY {
            self.calm = 0;
            return None;
        }
        if self.boost == 0 {
            return None;
        }
        self.calm += 1;
        if self.calm >= DECAY_PERIOD {
            self.calm = 0;
            self.boost -= 1;
            Some(self.effective())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_rises_one_step_per_pressure_up_to_the_bound() {
        let mut c = CutoffController::new(4);
        assert_eq!(c.effective(), 4);
        assert!(!c.real_task(4, false));
        for i in 1..=MAX_BOOST {
            assert_eq!(c.on_pressure(), Some(4 + i));
            assert!(c.real_task(4, false), "the rule tracks the raise");
        }
        assert_eq!(c.on_pressure(), None, "bounded at base + MAX_BOOST");
        assert_eq!(c.effective(), 4 + MAX_BOOST);
    }

    #[test]
    fn cutoff_decays_only_after_a_full_comfortable_period() {
        let mut c = CutoffController::new(4);
        c.on_pressure();
        c.on_pressure();
        for _ in 0..DECAY_PERIOD - 1 {
            assert_eq!(c.on_calm_poll(COMFORT_OCCUPANCY), None);
        }
        assert_eq!(c.on_calm_poll(COMFORT_OCCUPANCY), Some(5));
        assert_eq!(c.effective(), 5);
    }

    #[test]
    fn low_occupancy_resets_the_calm_streak() {
        let mut c = CutoffController::new(4);
        c.on_pressure();
        for _ in 0..DECAY_PERIOD - 1 {
            c.on_calm_poll(COMFORT_OCCUPANCY);
        }
        // An uncomfortable poll wipes the streak: decay starts over.
        assert_eq!(c.on_calm_poll(0), None);
        assert_eq!(c.on_calm_poll(COMFORT_OCCUPANCY), None);
        assert_eq!(c.effective(), 5);
    }

    #[test]
    fn pressure_resets_the_calm_streak() {
        let mut c = CutoffController::new(4);
        c.on_pressure();
        for _ in 0..DECAY_PERIOD - 1 {
            c.on_calm_poll(COMFORT_OCCUPANCY);
        }
        c.on_pressure();
        assert_eq!(c.on_calm_poll(COMFORT_OCCUPANCY), None);
    }

    #[test]
    fn cutoff_never_decays_below_base() {
        let mut c = CutoffController::new(4);
        for _ in 0..10 * DECAY_PERIOD {
            assert_eq!(c.on_calm_poll(usize::MAX), None);
        }
        assert_eq!(c.effective(), 4);
    }

    #[test]
    fn no_pressure_means_exactly_the_static_cutoff() {
        // The 1-thread guarantee: with no thief to raise need_task or
        // fail steals, the effective cutoff is the base, always — the
        // paper's fast / fast_2 pair on `base`.
        let mut c = CutoffController::new(7);
        for occ in 0..1000 {
            c.on_calm_poll(occ % 5);
            assert_eq!(c.effective(), 7);
        }
        for depth in 0..20 {
            assert_eq!(c.real_task(depth, false), depth < 7);
            assert_eq!(c.real_task(depth, true), depth < 14);
        }
    }
}
