//! The scheduling kernel under the AdaptiveTC threaded engine and its
//! simulator: every decision a work-stealing worker takes, written once —
//! the per-worker [`Kernel`], the FSM edges of [`fsm`], the policy table
//! ([`Policy`] → [`Mode`]) and Tascell's split and victim rules. The
//! two engines keep only mechanism and feed the kernel what it observed;
//! nothing here reads a clock or touches shared memory.
//!
//! The task rule is the paper's one static cut-off: a child at task
//! depth `tdepth` is a real task while `tdepth < ⌈log₂N⌉`, doubled in
//! fast_2 (DESIGN.md §15). A starving thief gets its answer through
//! `need_task` → special task → fast_2 alone, and reaches the flag at
//! signal speed: it backs off only once the flag is up. A worker whose
//! special task waits for stolen children steals meanwhile, one level
//! deep ([`SpecialWait`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fsm;
mod kernel;
mod policy;

pub use kernel::{tascell_split, uniform_victim, Fallthrough, Kernel, Regime, SpecialWait};
pub use policy::{Mode, Policy};
