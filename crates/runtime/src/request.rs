//! Tascell's steal request: one word per worker, always answered.
//!
//! The word reads [`IDLE`] while its worker has no traversal to split,
//! [`OPEN`] while it runs a task and takes requests, or the id of the one
//! thief whose request is pending. Each side moves it along one edge:
//!
//! ```text
//!            open (victim)          ask (thief, CAS)
//!   IDLE ─────────────────► OPEN ─────────────────► thief id
//!     ▲                      ▲ │                        │
//!     │                      │ └──── take (victim) ◄────┘
//!     └──── close (victim, swap) from OPEN or an id ────┘
//! ```
//!
//! A thief installs itself only over `OPEN`, so a request to an idle or
//! waiting worker fails at once. The victim answers a pending request at
//! its next per-node poll ([`take`](Request::take)), with a split or with
//! nothing; before it stops taking requests it *swaps* the word to `IDLE`
//! ([`close`](Request::close)) and answers whoever got in. A swap cannot
//! lose a request that lands between a read and a write, so every
//! installed request is answered exactly once, and a thief waits for its
//! answer with no timeout.
//!
//! The module is pure protocol over [`crate::sync`], like [`crate::join`]:
//! `crates/check` `#[path]`-includes it against the model primitives and
//! explores one victim against two thieves (`tests/request_protocol.rs`).
//! The answer itself travels through the thief's own `ResultCell`, so the
//! word orders nothing but itself.

use crate::sync::{AtomicU32, Ordering};

/// The worker has no traversal to split: requests fail.
pub(crate) const IDLE: u32 = u32::MAX;
/// The worker runs a task and takes a request.
pub(crate) const OPEN: u32 = u32::MAX - 1;

/// One worker's request word; see the module docs.
pub(crate) struct Request {
    pub(crate) word: AtomicU32,
}

impl Request {
    /// An idle worker's word.
    pub(crate) fn new() -> Self {
        Request {
            word: AtomicU32::new(IDLE),
        }
    }

    /// Victim: a task begins, requests may come in. Only from `IDLE`,
    /// which no thief writes over.
    pub(crate) fn open(&self) {
        // Relaxed: the word carries no data; answers go through a mutex.
        self.word.store(OPEN, Ordering::Relaxed);
    }

    /// Thief `me`: install a request. `true` obliges the victim to answer
    /// it exactly once.
    pub(crate) fn ask(&self, me: u32) -> bool {
        debug_assert!(me < OPEN, "a worker id is below the two states");
        self.word
            // Relaxed: arbitration only, as in `open`.
            .compare_exchange(OPEN, me, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }

    /// Victim's per-node poll: the pending requester, if any, which the
    /// caller must answer; the word is `OPEN` again.
    #[inline]
    pub(crate) fn take(&self) -> Option<u32> {
        // Relaxed: an advisory poll on the victim's hot path.
        let pending = self.word.load(Ordering::Relaxed);
        if pending >= OPEN {
            return None;
        }
        // Relaxed: only the victim moves the word off a thief's id, so a
        // store cannot overwrite another request.
        self.word.store(OPEN, Ordering::Relaxed);
        Some(pending)
    }

    /// Victim: stop taking requests. Returns the requester that got in
    /// first, whom the caller must answer.
    pub(crate) fn close(&self) -> Option<u32> {
        // Relaxed: a swap, not a store, so a request installed after the
        // last poll is read as it is replaced.
        let pending = self.word.swap(IDLE, Ordering::Relaxed);
        (pending < OPEN).then_some(pending)
    }
}
