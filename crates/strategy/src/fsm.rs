//! The edges of the paper's five-version finite-state machine.
//!
//! The adaptive scheduler compiles five versions of every task-creating
//! function — fast, check, special task, fast_2 and sequence (§3.2, Fig. 4)
//! — and a worker's control flow is the walk between them. This module
//! names the *edges* of that walk (what a node falls through to past the
//! cut-off, what the check version does after a poll, what the special
//! section re-enters with) as pure functions. [`crate::Kernel`] and both
//! engines take their decisions through them; the trace validator's
//! legal-edge table and the `crates/check` miniature worker are built from
//! all three.

/// The five compiled versions of a task-creating function. `Fast` also
/// stands for the slow version: a stolen frame re-enters the same code
/// path with the cut-off of the fast version (the "slow" distinction is
/// only who resumed the frame).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Version {
    /// Spawn real tasks while above the cut-off.
    Fast,
    /// Fake tasks: traverse sequentially, polling `need_task` per node.
    Check,
    /// Transition back to task creation via a special task.
    Special,
    /// Like fast but with the cut-off doubled and task depth reset.
    Fast2,
    /// Plain sequential execution, no polling (below fast_2's cut-off).
    Sequence,
}

/// Which version a node falls through to past the cut-off: the
/// fast version hands over to the check version (fake tasks), while fast_2
/// runs the rest of the subtree sequentially (Appendix C).
#[inline]
#[must_use]
pub fn fallthrough(fast2: bool) -> Version {
    if fast2 {
        Version::Sequence
    } else {
        Version::Check
    }
}

/// One `need_task` poll of the check version: a raised signal diverts the
/// fake task into the special-task section, otherwise it stays a fake task.
#[inline]
#[must_use]
pub fn after_poll(need_task: bool) -> Version {
    if need_task {
        Version::Special
    } else {
        Version::Check
    }
}

/// The special section runs every child through fast_2 with its task depth
/// reset to zero (§3.2: "the special task creates tasks eagerly again").
#[must_use]
pub fn special_reentry() -> (Version, u32) {
    (Version::Fast2, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_section_reenters_fast2_at_depth_zero() {
        assert_eq!(special_reentry(), (Version::Fast2, 0));
    }

    #[test]
    fn fallthrough_matrix() {
        assert_eq!(fallthrough(false), Version::Check);
        assert_eq!(fallthrough(true), Version::Sequence);
        assert_eq!(after_poll(false), Version::Check);
        assert_eq!(after_poll(true), Version::Special);
    }
}
