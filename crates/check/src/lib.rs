//! Bounded model checking for the deque protocols.
//!
//! This crate compiles the *same source files* as `adaptivetc-deque` —
//! `the.rs`, `chase_lev.rs` and `signal.rs` are `#[path]`-included below —
//! but resolves their `crate::sync` imports to the model primitives of
//! [`shim_sync`] instead of the real ones. Every atomic operation, fence
//! and mutex acquisition then becomes a yield point of a bounded schedule
//! explorer: [`explore`] re-executes a closure under every interleaving
//! reachable within a preemption bound (DFS with state-hash pruning) and
//! panics with a replayable schedule trace on the first violation.
//!
//! The suites live in `tests/`:
//!
//! * `the_protocol.rs` — push/pop/steal linearizability of the THE deque
//!   against the reference model, including the special-task extension;
//! * `chase_lev_special.rs` — the two-step CAS special-task steal
//!   (owner-pop vs thief race and its conservative resolution), plus the
//!   pinned-schedule regression replay;
//! * `signal_delivery.rs` — `need_task` delivery and acknowledgement;
//! * `fsm_transition.rs` — the fast→check→fast_2 walk of a miniature
//!   worker (driven by `adaptivetc_strategy::fsm`) under a concurrent
//!   thief;
//! * `jobserver_submit.rs` — the job-server submission kernel
//!   (`runtime/src/submit.rs`, included below): no lost submission, no
//!   double claim, and the cancel-vs-complete race resolving to exactly
//!   one terminal state, exhaustive at 2 workers × 2 jobs (or a worker and
//!   a client leading queued jobs while it waits, which never takes a
//!   team from the head), with a pinned replayable race-window schedule;
//!   and, under the miniature server of
//!   [`park_model`], the two wake hand-shakes — no job stays queued while
//!   every worker sleeps, a registered waiter is always notified — plus
//!   the seeded missing-recheck meta-test;
//! * `join_protocol.rs` — the work-first frame's join cell
//!   (`runtime/src/join.rs`, included below) under the miniature engine
//!   of [`join_model`]: exactly one completion carrying every child's
//!   result, across steal-before/after-return, re-steal and detached
//!   children, plus the seeded missing-token meta-test.
//!
//! Payloads in model-checked scenarios should be `Copy` integers: a
//! violation tears the execution down by unwinding every model thread, and
//! non-`Copy` payloads could then be dropped twice by the Chase-Lev deque's
//! speculative reads.

use std::error::Error;
use std::fmt;

/// Mirror of `adaptivetc_deque::Overflow` so the included sources resolve
/// `crate::Overflow` identically in both crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow(pub usize);

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deque overflowed its fixed capacity of {}", self.0)
    }
}

impl Error for Overflow {}

/// Model primitives; the included sources import these as `crate::sync`.
pub mod sync {
    pub use shim_sync::sync::*;
}

#[path = "../../deque/src/the.rs"]
pub mod the;

#[path = "../../deque/src/chase_lev.rs"]
pub mod chase_lev;

#[path = "../../deque/src/fence_free.rs"]
pub mod fence_free;

#[path = "../../deque/src/pool.rs"]
pub mod pool;

#[path = "../../deque/src/signal.rs"]
pub mod signal;

#[path = "../../runtime/src/submit.rs"]
pub mod submit;

#[path = "../../runtime/src/join.rs"]
pub mod join;

pub mod join_model;

pub mod park_model;

pub mod scenarios;

pub use shim_sync::{current_trail, explore, replay, replay_with, Config, Report};

/// A single-owner deque operation as observed in one execution, for the
/// linearizability oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerOp {
    /// `push(v)` succeeded.
    Push(u32),
    /// `pop()` observed this result.
    Pop(Option<u32>),
}

/// The reference model: an idealized sequential deque. Owner pushes and
/// pops at the back, thieves take from the front, one element at a time.
#[derive(Default)]
struct RefDeque {
    items: std::collections::VecDeque<u32>,
}

impl RefDeque {
    fn push(&mut self, v: u32) {
        self.items.push_back(v);
    }
    fn pop(&mut self) -> Option<u32> {
        self.items.pop_back()
    }
    fn steal(&mut self) -> Option<u32> {
        self.items.pop_front()
    }
}

/// Check that one concurrent execution is linearizable against the
/// reference deque: the owner's operations already have a total order
/// (they ran on one thread), so it suffices to find positions for the
/// thief's steal observations among them such that the reference model
/// reproduces every observed result exactly. Steal results are in thief
/// order; `None` means the steal observed an empty/unavailable deque.
pub fn linearizable(owner: &[OwnerOp], steals: &[Option<u32>]) -> bool {
    fn go(m: &mut RefDeque, owner: &[OwnerOp], steals: &[Option<u32>]) -> bool {
        if owner.is_empty() && steals.is_empty() {
            return true;
        }
        // Option 1: linearize the next steal here.
        if let Some(&s) = steals.first() {
            let saved = m.items.clone();
            if m.steal() == s && go(m, owner, &steals[1..]) {
                return true;
            }
            m.items = saved;
        }
        // Option 2: run the next owner op here.
        if let Some(&op) = owner.first() {
            let saved = m.items.clone();
            let ok = match op {
                OwnerOp::Push(v) => {
                    m.push(v);
                    true
                }
                OwnerOp::Pop(expect) => m.pop() == expect,
            };
            if ok && go(m, &owner[1..], steals) {
                return true;
            }
            m.items = saved;
        }
        false
    }
    go(&mut RefDeque::default(), owner, steals)
}

#[cfg(test)]
mod oracle_tests {
    use super::*;

    #[test]
    fn sequential_histories_linearize() {
        assert!(linearizable(
            &[
                OwnerOp::Push(1),
                OwnerOp::Push(2),
                OwnerOp::Pop(Some(2)),
                OwnerOp::Pop(Some(1)),
                OwnerOp::Pop(None),
            ],
            &[]
        ));
    }

    #[test]
    fn steal_takes_oldest() {
        // Owner pushes 1,2 and pops 2; the thief's steal of 1 linearizes.
        assert!(linearizable(
            &[OwnerOp::Push(1), OwnerOp::Push(2), OwnerOp::Pop(Some(2))],
            &[Some(1)]
        ));
        // A steal of the newest element cannot linearize while 1 is present.
        assert!(!linearizable(
            &[OwnerOp::Push(1), OwnerOp::Push(2), OwnerOp::Pop(Some(1))],
            &[Some(2)]
        ));
    }

    #[test]
    fn duplicated_delivery_is_rejected() {
        assert!(!linearizable(
            &[OwnerOp::Push(1), OwnerOp::Pop(Some(1))],
            &[Some(1)]
        ));
    }

    #[test]
    fn lost_value_is_rejected() {
        assert!(!linearizable(
            &[OwnerOp::Push(1), OwnerOp::Pop(None)],
            &[None]
        ));
    }
}
