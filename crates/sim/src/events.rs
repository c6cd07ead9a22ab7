//! The interpreters' event queue: one pending event slot per virtual
//! worker.
//!
//! A virtual worker has at most one live event: the next step of its own
//! clock, or the wake-up a waiting worker is owed. So the queue is one
//! `(virtual time, sequence)` slot per worker, and the next event is found
//! by a scan over the slots. The scan is O(workers); every caller
//! simulates at most eight, where it beats a heap's bookkeeping. The
//! sequence number breaks ties between equal times in scheduling order.

/// A slot holds `time << 64 | sequence << 8 | worker`: the keys order as
/// `(time, sequence)` do, and the least one names its worker.
const EMPTY: u128 = u128::MAX;

pub(crate) struct Events {
    slots: Vec<u128>,
    seq: u64,
}

impl Events {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers <= 256, "a slot key names its worker in 8 bits");
        Events {
            slots: vec![EMPTY; workers],
            seq: 0,
        }
    }

    /// Schedule `wid`, which has no pending event, at `at`.
    pub(crate) fn schedule(&mut self, wid: usize, at: u64) {
        debug_assert_eq!(self.slots[wid], EMPTY, "worker {wid} has an event");
        self.seq += 1;
        self.slots[wid] = u128::from(at) << 64 | u128::from(self.seq) << 8 | wid as u128;
    }

    /// Take the earliest pending event: `(time, worker)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        let key = self.slots.iter().fold(EMPTY, |a, &b| a.min(b));
        if key == EMPTY {
            return None;
        }
        let wid = (key & 0xff) as usize;
        self.slots[wid] = EMPTY;
        Some(((key >> 64) as u64, wid))
    }
}
