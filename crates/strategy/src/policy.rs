//! The policies of the paper's evaluation, and the engine mode each one
//! runs on: one name table and one policy → (mode, cut-off) mapping for
//! the threaded runtime and the simulator alike.

use adaptivetc_core::{Config, CutoffPolicy};

/// What the deque engine does at a spawn. All five modes are points on
/// one design axis — *when does a spawn create a task?*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Work-first Cilk: every spawn is a task with a workspace copy.
    Cilk,
    /// Cilk with `SYNCHED`-style workspace buffer reuse.
    CilkSynched,
    /// Fixed cut-off, sequential (copy-free) recursion below it
    /// ("Cutoff-programmer").
    CutoffSequence,
    /// Fixed cut-off, but workspace copies at every node below it
    /// ("Cutoff-library").
    CutoffCopy,
    /// The AdaptiveTC five-version state machine.
    Adaptive,
}

/// A parallel scheduling policy of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Work-first Cilk: every spawn is a task with a workspace copy.
    Cilk,
    /// Cilk with workspace-buffer reuse.
    CilkSynched,
    /// Fixed programmer-chosen cut-off depth; copy-free recursion below it.
    CutoffProgrammer(u32),
    /// Runtime-chosen cut-off (`⌈log₂ N⌉`); a workspace copy at every node
    /// below it.
    CutoffLibrary,
    /// The paper's contribution: adaptive task creation.
    AdaptiveTc,
    /// Tascell request-driven backtracking (its own interpreter, no deque).
    Tascell,
}

impl Policy {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Cilk => "Cilk",
            Policy::CilkSynched => "Cilk-SYNCHED",
            Policy::CutoffProgrammer(_) => "Cutoff-programmer",
            Policy::CutoffLibrary => "Cutoff-library",
            Policy::AdaptiveTc => "AdaptiveTC",
            Policy::Tascell => "Tascell",
        }
    }

    /// The engine mode this policy runs under and the configuration it
    /// runs with — `cfg` with the cut-off the policy fixes, if it fixes
    /// one — or `None` for Tascell, which does not run on the deque
    /// engine.
    pub fn on_engine(&self, cfg: &Config) -> Option<(Mode, Config)> {
        let (mode, cutoff) = match self {
            Policy::Cilk => (Mode::Cilk, cfg.cutoff),
            Policy::CilkSynched => (Mode::CilkSynched, cfg.cutoff),
            Policy::CutoffProgrammer(d) => (Mode::CutoffSequence, CutoffPolicy::Fixed(*d)),
            Policy::CutoffLibrary => (Mode::CutoffCopy, CutoffPolicy::Auto),
            Policy::AdaptiveTc => (Mode::Adaptive, cfg.cutoff),
            Policy::Tascell => return None,
        };
        Some((mode, cfg.clone().cutoff(cutoff)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_library_cutoff_is_the_runtime_one_whatever_the_config_says() {
        let cfg = Config::new(8).cutoff(CutoffPolicy::Fixed(64));
        let (mode, run) = Policy::CutoffLibrary
            .on_engine(&cfg)
            .expect("on the engine");
        assert_eq!((mode, run.cutoff_depth()), (Mode::CutoffCopy, 3));
        let (mode, run) = Policy::CutoffProgrammer(5)
            .on_engine(&cfg)
            .expect("on the engine");
        assert_eq!((mode, run.cutoff_depth()), (Mode::CutoffSequence, 5));
        let (mode, run) = Policy::AdaptiveTc.on_engine(&cfg).expect("on the engine");
        assert_eq!((mode, run), (Mode::Adaptive, cfg));
        assert!(Policy::Tascell.on_engine(&Config::new(2)).is_none());
    }
}
