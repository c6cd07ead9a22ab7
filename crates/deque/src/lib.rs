//! Work-stealing deques for the AdaptiveTC reproduction.
//!
//! This crate implements the paper's *d-e-que* substrate:
//!
//! * [`TheDeque`] — a faithful implementation of the simplified **THE
//!   protocol** of Figure 3 (Frigo et al.'s Dijkstra-like mutual-exclusion
//!   protocol as adapted by AdaptiveTC), including the special-task
//!   operations `pop_specialtask` and `steal_specialtask` and honest
//!   fixed-capacity overflow reporting;
//! * [`PoolDeque`] — a growable variant (the buffer-pool style deque the
//!   paper cites as the fix for overflow) with the same interface;
//! * [`ChaseLevDeque`] — the lock-free dynamic circular deque of Chase &
//!   Lev (SPAA 2005), the paper's reference \[6\];
//! * [`FenceFreeDeque`] — the fully read/write fence-free deque with
//!   multiplicity of Castañeda & Piña: zero fences/RMWs on the owner
//!   path, at the price that an entry may be *extracted* more than once
//!   (a claim layer above it must restore exactly-once *execution*);
//! * [`NeedTask`] — the `stolen_num` / `need_task` back-pressure signal a
//!   thief raises on its victim after repeated failed steals.
//!
//! # Which end is which
//!
//! The owner pushes and pops at the **tail** (`T`); thieves steal from the
//! **head** (`H`). Indices grow from head to tail, so `T >= H` whenever the
//! deque is quiescent. A **special task** entry can never be stolen: a thief
//! that finds one at the head steals the entry just above it (the special
//! task's child) instead, exactly as in the paper's `steal_specialtask`.
//!
//! # Examples
//!
//! ```
//! use adaptivetc_deque::{TheDeque, StealOutcome};
//!
//! let dq: TheDeque<&'static str> = TheDeque::new(8);
//! dq.push("a").unwrap();
//! dq.push("b").unwrap();
//! assert_eq!(dq.steal(), StealOutcome::Stolen("a")); // thieves take the oldest
//! assert_eq!(dq.pop(), Some("b"));                   // the owner takes the newest
//! assert_eq!(dq.pop(), None);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod chase_lev;
mod fence_free;
mod pool;
mod signal;
mod sync;
mod the;

pub use backend::WsDeque;
pub use chase_lev::{ChaseLevDeque, ClSteal};
pub use fence_free::FenceFreeDeque;
pub use pool::PoolDeque;
pub use signal::NeedTask;
#[cfg(feature = "count-sync")]
pub use sync::sync_counts;
pub use the::{PopSpecial, StealOutcome, TheDeque};

use std::error::Error;
use std::fmt;

/// A fixed-capacity deque rejected a push.
///
/// Carries the capacity that was exceeded. The paper highlights that Cilk's
/// fixed-size array deques are "prone to overflow" while AdaptiveTC, pushing
/// far fewer tasks, is not; reproducing that contrast requires overflow to be
/// observable rather than fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow(pub usize);

impl fmt::Display for Overflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deque overflowed its fixed capacity of {}", self.0)
    }
}

impl Error for Overflow {}
