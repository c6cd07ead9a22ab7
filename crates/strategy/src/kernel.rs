//! The per-worker scheduling kernel (see the crate docs).

use crate::fsm::{self, Version};
use crate::policy::Mode;
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

/// What a worker does at a `sync_specialtask` whose stolen children are
/// still out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecialWait {
    /// Run the steal loop until the special task's result is in. The
    /// special task is not suspended: its section stays on the worker's
    /// stack below whatever the worker steals.
    Help,
    /// Sleep until the result is in: the worker is already helping at an
    /// enclosing special task's sync.
    Sleep,
}

/// One worker's scheduling decisions: each engine keeps one per worker
/// and feeds it what its own mechanism observed.
#[derive(Debug, Clone)]
pub struct Kernel {
    mode: Mode,
    /// The static cut-off depth.
    cutoff: u32,
    /// Victim-choice stream.
    rng: XorShift64,
    /// The victim that last came up empty, until a steal lands.
    last_empty: Option<usize>,
    /// Whether the worker is helping at a special task's sync.
    helping: bool,
}

impl Kernel {
    /// A worker's kernel for `mode` at the configuration's cut-off depth
    /// (`Config::cutoff_depth`; depth 0 runs as 1), choosing victims from
    /// `rng`.
    pub fn new(mode: Mode, cutoff_depth: u32, rng: XorShift64) -> Kernel {
        Kernel {
            mode,
            cutoff: cutoff_depth.max(1),
            rng,
            last_empty: None,
            helping: false,
        }
    }

    /// Does a child at task depth `tdepth` run as a real task (frame +
    /// stealable continuation) rather than inline?
    #[inline]
    pub fn real_task(&self, tdepth: u32, regime: Regime) -> bool {
        match self.mode {
            Mode::Cilk | Mode::CilkSynched => true,
            Mode::CutoffSequence | Mode::CutoffCopy => tdepth < self.cutoff,
            // The cut-off is doubled in fast_2.
            Mode::Adaptive if regime == Regime::Fast2 => tdepth < 2 * self.cutoff,
            Mode::Adaptive => tdepth < self.cutoff,
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

    /// A steal landed: every victim is worth probing again.
    #[inline]
    pub fn on_steal(&mut self) {
        self.last_empty = None;
    }

    /// A probe of `victim` found its deque empty; `need_task` is whether
    /// the victim's flag is up after this failure (raised by it, or
    /// earlier). Returns whether the thief backs off before its next
    /// probe: only once the flag is up. Before that, each failure is a
    /// step of the paper's count towards `need_task`, and a pause between
    /// them would only delay the flag.
    #[inline]
    pub fn on_steal_empty(&mut self, victim: usize, need_task: bool) -> bool {
        self.last_empty = Some(victim);
        need_task
    }

    /// A special task reached its sync with stolen children still out.
    /// The first such wait helps; one reached while helping sleeps, so at
    /// most one help loop is ever on a worker's stack.
    #[inline]
    pub fn special_wait(&mut self) -> SpecialWait {
        if self.helping {
            SpecialWait::Sleep
        } else {
            self.helping = true;
            SpecialWait::Help
        }
    }

    /// The special task the worker helped at has its result.
    #[inline]
    pub fn help_done(&mut self) {
        debug_assert!(self.helping, "help_done without a help loop");
        self.helping = false;
    }

    /// Whether the worker is helping at a special task's sync: its idle
    /// probes then count as waiting for children, not as stealing.
    #[inline]
    pub fn helping(&self) -> bool {
        self.helping
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

    #[test]
    fn a_victim_is_never_the_thief_itself() {
        for n in 2..6 {
            for me in 0..n {
                let mut k = Kernel::new(Mode::Adaptive, 1, XorShift64::new(n as u64));
                for round in 0..200 {
                    let v = k.victim(me, n);
                    assert!(v < n && v != me, "n={n} me={me} picked {v}");
                    if round % 3 == 0 {
                        k.on_steal_empty(v, false);
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
                    k.on_steal_empty(v, false);
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
        k.on_steal_empty(1, false);
        assert_eq!(k.victim(0, 2), 1);
    }

    #[test]
    fn the_first_special_wait_helps_and_a_nested_one_sleeps() {
        let mut k = Kernel::new(Mode::Adaptive, 1, XorShift64::new(4));
        assert!(!k.helping());
        assert_eq!(k.special_wait(), SpecialWait::Help);
        assert!(k.helping());
        assert_eq!(k.special_wait(), SpecialWait::Sleep);
        assert_eq!(k.special_wait(), SpecialWait::Sleep);
        k.help_done();
        assert!(!k.helping());
        assert_eq!(k.special_wait(), SpecialWait::Help);
    }

    #[test]
    fn the_task_rule_and_fallthrough_follow_the_mode() {
        let k = |mode| Kernel::new(mode, 2, XorShift64::new(1));
        assert!(k(Mode::Cilk).real_task(100, Regime::Fast));
        assert!(k(Mode::CutoffCopy).real_task(1, Regime::Fast));
        assert!(!k(Mode::CutoffCopy).real_task(2, Regime::Fast));
        assert!(k(Mode::Adaptive).real_task(1, Regime::Fast));
        assert!(!k(Mode::Adaptive).real_task(2, Regime::Fast));
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
