//! The join cell: the one piece of a frame that is shared.
//!
//! Work-first joining: a frame whose continuation is never stolen joins
//! its children on the owner's stack and never touches this cell. The
//! cell exists for the slow path a theft opens — results that arrive
//! from another thread, or after the worker that spawned them has
//! unwound — and carries a token count plus the fold of every result
//! delivered so far.
//!
//! # Token rule
//!
//! A fresh cell holds two tokens: the **continuation** token, owned by
//! whoever currently runs the frame's continuation (the *holder*), and
//! one **in-flight** token for the child executing on the holder's
//! stack. Tokens move as follows:
//!
//! * a child result delivered asynchronously — by a victim whose pop
//!   found the frame stolen, or by a child frame that itself completed
//!   asynchronously — [`arrive`](JoinCell::arrive)s, consuming one
//!   in-flight token;
//! * a holder whose in-flight token was handed away — a thief taking
//!   over the continuation (the victim's child still owns the old
//!   token), or a holder whose child came back detached —
//!   [`add_in_flight`](JoinCell::add_in_flight)s one before spawning on;
//! * a holder reaching the sync [`release`](JoinCell::release)s the
//!   continuation token together with its idle in-flight token, folding
//!   in the results it joined on its stack.
//!
//! Whoever brings the count to zero receives the folded result and with
//! it exclusive ownership of the frame. There is no transient zero: the
//! continuation token is the holder's until `release`, and every other
//! token stands for a result still to arrive.
//!
//! The module is pure protocol over [`crate::sync`], like [`crate::fsm`]:
//! `crates/check` `#[path]`-includes it against the model primitives and
//! explores it under every bounded interleaving
//! (`tests/join_protocol.rs`).

use crate::sync::Mutex;

/// Tokens of a fresh cell: the continuation and its one in-flight child.
const FRESH_TOKENS: u32 = 2;

struct Join<T> {
    tokens: u32,
    /// Fold of the results delivered so far (`None` until the first).
    acc: Option<T>,
}

/// A frame's shared join state; see the module docs for the protocol.
pub struct JoinCell<T> {
    state: Mutex<Join<T>>,
}

impl<T> JoinCell<T> {
    /// A cell for a frame whose continuation is about to run.
    pub fn new() -> Self {
        JoinCell {
            state: Mutex::new(Join {
                tokens: FRESH_TOKENS,
                acc: None,
            }),
        }
    }

    /// Fold `out` in and consume `tokens`; the folded total if that
    /// emptied the cell.
    fn settle(&self, out: T, tokens: u32, fold: impl FnOnce(&mut T, T)) -> Option<T> {
        let mut g = self.state.lock();
        assert!(g.tokens >= tokens, "join cell settled after completion");
        match &mut g.acc {
            Some(acc) => fold(acc, out),
            empty => *empty = Some(out),
        }
        g.tokens -= tokens;
        if g.tokens == 0 {
            g.acc.take()
        } else {
            None
        }
    }

    /// A child's result arriving off the holder's stack: consumes one
    /// in-flight token. `Some(total)` makes the caller the frame's
    /// completer.
    pub fn arrive(&self, out: T, fold: impl FnOnce(&mut T, T)) -> Option<T> {
        self.settle(out, 1, fold)
    }

    /// The holder replaces an in-flight token that now belongs to a
    /// result still to arrive. Holder only: the continuation token it
    /// holds keeps the count above zero.
    pub fn add_in_flight(&self) {
        self.state.lock().tokens += 1;
    }

    /// The holder reaches the sync: folds in `local` (what it joined on
    /// its own stack) and gives up the continuation token and its idle
    /// in-flight token. `Some(total)` if every child had already arrived;
    /// otherwise the last arrival completes the frame and the caller
    /// must not touch it again.
    pub fn release(&self, local: T, fold: impl FnOnce(&mut T, T)) -> Option<T> {
        self.settle(local, FRESH_TOKENS, fold)
    }

    /// Make an emptied cell fresh for the frame's next incarnation. Only
    /// its emptier may call this: the total it received made it the
    /// frame's sole owner.
    pub fn rearm(&self) {
        let mut g = self.state.lock();
        assert!(g.tokens == 0, "join cell rearmed before completion");
        g.tokens = FRESH_TOKENS;
    }
}

impl<T> Default for JoinCell<T> {
    fn default() -> Self {
        Self::new()
    }
}
