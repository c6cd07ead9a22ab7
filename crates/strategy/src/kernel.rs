//! The per-worker scheduling kernel (see the crate docs).

use crate::fsm::{self, Version};
use crate::policy::Mode;
use crate::{CutoffController, HARD_STEAL_STREAK};
use adaptivetc_core::XorShift64;

/// The code-version regime a frame's children are spawned under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// fast / slow versions: cut-off = `cutoff`; beyond it, the check
    /// version.
    Fast,
    /// fast_2 version: cut-off = `2 * cutoff`; beyond it, the sequence
    /// version.
    Fast2,
}

/// How a node that is not a real task runs its subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallthrough {
    /// The check version: fake tasks polling `need_task` at every node.
    Check,
    /// Plain recursion on the live workspace.
    Sequence,
    /// Recursion that still copies the workspace per child
    /// (Cutoff-library).
    SequenceCopy,
}

/// A move of the effective cut-off, for the caller's counter and trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tune {
    /// The new effective cut-off.
    pub eff: u32,
    /// Whether it rose.
    pub up: bool,
}

/// One worker's scheduling decisions: each engine keeps one per worker
/// and feeds it what its own mechanism observed.
#[derive(Debug, Clone)]
pub struct Kernel {
    mode: Mode,
    /// Rests at the static cut-off depth; fed under [`Mode::Adaptive`]
    /// only, so in the cut-off modes it stays there.
    ctl: CutoffController,
    /// Victim-choice stream.
    rng: XorShift64,
    /// Consecutive failed steal probes since the last success.
    fail_streak: u32,
    /// The victim that last came up empty, until a steal lands.
    last_empty: Option<usize>,
}

impl Kernel {
    /// A worker's kernel for `mode` at the configuration's cut-off depth
    /// (`Config::cutoff_depth`; depth 0 runs as 1), choosing victims from
    /// `rng`.
    pub fn new(mode: Mode, cutoff_depth: u32, rng: XorShift64) -> Kernel {
        Kernel {
            mode,
            ctl: CutoffController::new(cutoff_depth.max(1)),
            rng,
            fail_streak: 0,
            last_empty: None,
        }
    }

    /// Whether every spawn clones the taskprivate workspace (the paper's
    /// Cilk baselines); every other mode runs children in place and
    /// copies on steal.
    #[inline]
    pub fn copies_per_spawn(&self) -> bool {
        matches!(self.mode, Mode::Cilk | Mode::CilkSynched)
    }

    /// Does a child at task depth `tdepth` run as a real task (frame +
    /// stealable continuation) rather than inline?
    #[inline]
    pub fn real_task(&self, tdepth: u32, regime: Regime) -> bool {
        match self.mode {
            Mode::Cilk | Mode::CilkSynched => true,
            Mode::CutoffSequence | Mode::CutoffCopy => self.ctl.real_task(tdepth, false),
            // At rest `tdepth < cutoff`, doubled in fast_2; under pressure
            // the controller may have raised the cut-off.
            Mode::Adaptive => self.ctl.real_task(tdepth, regime == Regime::Fast2),
        }
    }

    /// What a node that is not a real task runs. Appendix C: the check
    /// version recurses into the check version at every depth; only
    /// fast_2 falls through to the sequence version. The Cilk modes never
    /// get here (every node is a task).
    #[inline]
    pub fn fallthrough(&self, regime: Regime) -> Fallthrough {
        match self.mode {
            Mode::CutoffCopy => Fallthrough::SequenceCopy,
            Mode::Adaptive if fsm::fallthrough(regime == Regime::Fast2) == Version::Check => {
                Fallthrough::Check
            }
            _ => Fallthrough::Sequence,
        }
    }

    /// One `need_task` poll of the check version: feed the controller —
    /// a raised flag is pressure; a calm poll may decay a raised cut-off,
    /// judged on the worker's own deque length, which `occupancy` reads
    /// only while the cut-off is raised (at rest a calm poll cannot move
    /// the controller). Returns where the fake task goes next (check, or
    /// special when `need_task` is up) and any cut-off move.
    #[inline]
    pub fn check_poll(
        &mut self,
        need_task: bool,
        occupancy: impl FnOnce() -> usize,
    ) -> (Version, Option<Tune>) {
        let eff = if need_task {
            self.ctl.on_pressure()
        } else if self.ctl.boosted() {
            self.ctl.on_calm_poll(occupancy())
        } else {
            None
        };
        let tune = eff.map(|eff| Tune { eff, up: need_task });
        (fsm::after_poll(need_task), tune)
    }

    /// A victim among `n ≥ 2` workers for worker `me`: uniform, never
    /// `me`, and — when at least three workers leave a choice — never the
    /// victim that just came up empty (a wasted probe that would also
    /// inflate the idle victim's `stolen_num`).
    #[inline]
    pub fn victim(&mut self, me: usize, n: usize) -> usize {
        match self.last_empty {
            Some(av) if n >= 3 && av != me => {
                let mut v = self.rng.below_usize(n - 2);
                // Remap over the two excluded ids in ascending order.
                let (lo, hi) = (me.min(av), me.max(av));
                if v >= lo {
                    v += 1;
                }
                if v >= hi {
                    v += 1;
                }
                v
            }
            _ => uniform_victim(&mut self.rng, me, n),
        }
    }

    /// A steal landed. If it came only after [`HARD_STEAL_STREAK`] failed
    /// probes, tasks are scarce: under AdaptiveTC — the one mode that
    /// reads the controller — that is a pressure edge.
    #[inline]
    pub fn on_steal(&mut self) -> Option<Tune> {
        let hard = self.fail_streak >= HARD_STEAL_STREAK && self.mode == Mode::Adaptive;
        self.fail_streak = 0;
        self.last_empty = None;
        let eff = if hard { self.ctl.on_pressure() } else { None };
        eff.map(|eff| Tune { eff, up: true })
    }

    /// A probe of `victim` found its deque empty.
    #[inline]
    pub fn on_steal_empty(&mut self, victim: usize) {
        self.fail_streak = self.fail_streak.saturating_add(1);
        self.last_empty = Some(victim);
    }
}

/// A victim among `n ≥ 2` workers for worker `me`, uniform over all the
/// others. Tascell's pick: it has no empty-victim rule.
#[inline]
pub fn uniform_victim(rng: &mut XorShift64, me: usize, n: usize) -> usize {
    let v = rng.below_usize(n - 1);
    if v >= me {
        v + 1
    } else {
        v
    }
}

/// Tascell's split of a frame with `untried` choices left (`untried ≥ 1`):
/// the victim keeps the first half and gives the later half away, at
/// least one choice. Returns how many it gives.
#[inline]
pub fn tascell_give(untried: usize) -> usize {
    (untried / 2).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::COMFORT_OCCUPANCY;

    #[test]
    fn a_victim_is_never_the_thief_itself() {
        for n in 2..6 {
            for me in 0..n {
                let mut k = Kernel::new(Mode::Adaptive, 1, XorShift64::new(n as u64));
                for round in 0..200 {
                    let v = k.victim(me, n);
                    assert!(v < n && v != me, "n={n} me={me} picked {v}");
                    if round % 3 == 0 {
                        k.on_steal_empty(v);
                    }
                }
            }
        }
    }

    #[test]
    fn the_last_empty_victim_is_not_probed_again_while_others_remain() {
        for n in 3..7 {
            for me in 0..n {
                let mut k = Kernel::new(Mode::Adaptive, 1, XorShift64::new(7 + n as u64));
                let mut seen = vec![false; n];
                let mut last = None;
                for _ in 0..500 {
                    let v = k.victim(me, n);
                    assert_ne!(Some(v), last, "n={n} me={me} re-probed {v}");
                    seen[v] = true;
                    k.on_steal_empty(v);
                    last = Some(v);
                }
                // Still uniform over the rest: every other worker is hit.
                assert_eq!(seen.iter().filter(|&&s| s).count(), n - 1);
                // A landed steal lifts the exclusion.
                k.on_steal();
                assert_eq!(k.last_empty, None);
            }
        }
        // Two workers leave no choice: the only other one, every time.
        let mut k = Kernel::new(Mode::Adaptive, 1, XorShift64::new(1));
        k.on_steal_empty(1);
        assert_eq!(k.victim(0, 2), 1);
    }

    #[test]
    fn a_calm_poll_at_rest_leaves_the_controller_unchanged() {
        // Whatever the history, a controller back at its base has nothing
        // to decay: the occupancy a calm poll would read cannot matter,
        // which is what lets `check_poll` skip reading it.
        let mut c = CutoffController::new(3);
        for _ in 0..2 {
            c.on_pressure();
        }
        for occ in (0..4000).map(|i| i % 5) {
            c.on_calm_poll(occ + COMFORT_OCCUPANCY);
        }
        assert!(!c.boosted(), "decayed back to base");
        for occ in [0, 1, COMFORT_OCCUPANCY, 100, usize::MAX] {
            let before = c.clone();
            assert_eq!(c.on_calm_poll(occ), None);
            assert_eq!(c, before, "occupancy {occ}");
        }
        let mut k = Kernel::new(Mode::Adaptive, 3, XorShift64::new(1));
        let (next, tune) = k.check_poll(false, || unreachable!("not read at rest"));
        assert_eq!((next, tune), (Version::Check, None));
    }

    #[test]
    fn only_adaptivetc_counts_a_hard_steal_as_pressure() {
        for mode in [Mode::Cilk, Mode::CutoffCopy, Mode::Adaptive] {
            let mut k = Kernel::new(mode, 2, XorShift64::new(3));
            for v in 0..HARD_STEAL_STREAK as usize {
                k.on_steal_empty(v % 2);
            }
            let expected = (mode == Mode::Adaptive).then_some(Tune { eff: 3, up: true });
            assert_eq!(k.on_steal(), expected, "{mode:?}");
            assert_eq!(k.on_steal(), None, "the streak was reset");
        }
    }

    #[test]
    fn the_task_rule_and_fallthrough_follow_the_mode() {
        let k = |mode| Kernel::new(mode, 2, XorShift64::new(1));
        assert!(k(Mode::Cilk).real_task(100, Regime::Fast));
        assert!(k(Mode::CutoffCopy).real_task(1, Regime::Fast));
        assert!(!k(Mode::CutoffCopy).real_task(2, Regime::Fast));
        assert!(k(Mode::Adaptive).real_task(3, Regime::Fast2));
        assert!(!k(Mode::Adaptive).real_task(4, Regime::Fast2));
        assert_eq!(
            k(Mode::CutoffCopy).fallthrough(Regime::Fast),
            Fallthrough::SequenceCopy
        );
        assert_eq!(
            k(Mode::CutoffSequence).fallthrough(Regime::Fast),
            Fallthrough::Sequence
        );
        assert_eq!(
            k(Mode::Adaptive).fallthrough(Regime::Fast),
            Fallthrough::Check
        );
        assert_eq!(
            k(Mode::Adaptive).fallthrough(Regime::Fast2),
            Fallthrough::Sequence
        );
        assert!(k(Mode::CilkSynched).copies_per_spawn());
        assert!(!k(Mode::CutoffSequence).copies_per_spawn());
    }

    #[test]
    fn tascell_gives_the_later_half() {
        assert_eq!(tascell_give(1), 1);
        assert_eq!(tascell_give(2), 1);
        assert_eq!(tascell_give(5), 2);
        let mut rng = XorShift64::new(5);
        assert!((0..100).all(|_| uniform_victim(&mut rng, 1, 3) != 1));
    }
}
