//! The interpreters' event queue: the pending events' keys, kept sorted in
//! a ring.
//!
//! A virtual worker has at most one live event: the next step of its own
//! clock, or the wake-up a waiting worker is owed. An event's key is
//! `time << 64 | sequence << 8 | worker`, so keys order as `(virtual time,
//! sequence)` do, and the sequence number breaks ties between equal times
//! in scheduling order. The pending keys sit in a ring in ascending order:
//! `pop` takes the head, and `schedule` inserts from the back, where a
//! worker that has just stepped usually lands — it is rarely the next to
//! run, so an insertion moves few keys, and a pop reads one. The ring has
//! 256 slots, one per worker the key's 8-bit field can name, indexed by a
//! wrapping `u8`: no index is bounds-checked.

const SLOTS: usize = 256;

pub(crate) struct Events {
    /// `len` keys in ascending order from `head`, wrapping at the end.
    ring: [u128; SLOTS],
    head: u8,
    len: usize,
    seq: u64,
}

impl Events {
    pub(crate) fn new(workers: usize) -> Self {
        assert!(workers <= SLOTS, "a key names its worker in 8 bits");
        Events {
            ring: [0; SLOTS],
            head: 0,
            len: 0,
            seq: 0,
        }
    }

    /// The ring slot `i` keys past the head.
    fn slot(&self, i: usize) -> usize {
        usize::from(self.head.wrapping_add(i as u8))
    }

    /// Schedule `wid`, which has no pending event, at `at`.
    pub(crate) fn schedule(&mut self, wid: usize, at: u64) {
        debug_assert!(
            (0..self.len).all(|i| self.ring[self.slot(i)] & 0xff != wid as u128),
            "worker {wid} has an event"
        );
        self.seq += 1;
        let key = u128::from(at) << 64 | u128::from(self.seq) << 8 | wid as u128;
        // Every key is unique and this one has the greatest sequence, so it
        // goes after every key of a time no later than `at`.
        let mut i = self.len;
        while i > 0 {
            let before = self.ring[self.slot(i - 1)];
            if before < key {
                break;
            }
            self.ring[self.slot(i)] = before;
            i -= 1;
        }
        self.ring[self.slot(i)] = key;
        self.len += 1;
    }

    /// Take the earliest pending event: `(time, worker)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        let key = self.ring[usize::from(self.head)];
        self.head = self.head.wrapping_add(1);
        self.len -= 1;
        Some(((key >> 64) as u64, (key & 0xff) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptivetc_core::XorShift64;

    /// The reference queue: one `(time, sequence)` slot per worker, the
    /// next event the least slot by a scan.
    struct Scan {
        slots: Vec<Option<(u64, u64)>>,
        seq: u64,
    }

    impl Scan {
        fn schedule(&mut self, wid: usize, at: u64) {
            assert!(self.slots[wid].is_none());
            self.seq += 1;
            self.slots[wid] = Some((at, self.seq));
        }

        fn pop(&mut self) -> Option<(u64, u64, usize)> {
            let (wid, (t, seq)) = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(w, s)| s.map(|s| (w, s)))
                .min_by_key(|&(_, s)| s)?;
            self.slots[wid] = None;
            Some((t, seq, wid))
        }
    }

    /// Seeded schedule/pop runs, times from a small range so many tie:
    /// the ring pops what the scan pops, in `(time, sequence)` order.
    #[test]
    fn pops_in_the_order_a_scan_over_worker_slots_gives() {
        for workers in [1, 2, 3, 5, 8, 256] {
            for seed in 1..=4 {
                let mut rng = XorShift64::new(seed * 1_000 + workers as u64);
                let mut ring = Events::new(workers);
                let mut scan = Scan {
                    slots: vec![None; workers],
                    seq: 0,
                };
                let mut now = 0;
                let mut last = (0, 0);
                let mut pops = 0;
                for _ in 0..20_000 {
                    let idle: Vec<usize> =
                        (0..workers).filter(|&w| scan.slots[w].is_none()).collect();
                    if !idle.is_empty() && rng.next_u64().is_multiple_of(2) {
                        let wid = idle[(rng.next_u64() % idle.len() as u64) as usize];
                        let at = now + rng.next_u64() % 4;
                        ring.schedule(wid, at);
                        scan.schedule(wid, at);
                        continue;
                    }
                    let want = scan.pop();
                    assert_eq!(ring.pop(), want.map(|(t, _, w)| (t, w)));
                    let Some((t, seq, _)) = want else {
                        continue;
                    };
                    assert!(t >= now, "popped times never decrease");
                    assert!(
                        t > last.0 || seq > last.1,
                        "equal times pop in schedule order"
                    );
                    (now, last) = (t, (t, seq));
                    pops += 1;
                }
                while let Some((t, seq, w)) = scan.pop() {
                    assert_eq!(ring.pop(), Some((t, w)));
                    assert!((t, seq) > last);
                    last = (t, seq);
                }
                assert_eq!(ring.pop(), None, "an empty queue pops nothing");
                assert!(pops > SLOTS, "the ring's head wraps");
            }
        }
    }
}
