//! Per-worker SPSC event ring with a block-claim producer protocol.
//!
//! One [`EventRing`] belongs to exactly one producer (the worker thread
//! that records into it). The hot-path contract is deliberately narrow so
//! that [`EventRing::push`] compiles to a store, a counter bump and one
//! predictable branch:
//!
//! * **Single producer, private cursor.** Only the owning worker calls
//!   `push`. The write cursor (`tail`) is a plain [`Cell`] the producer
//!   alone touches — no atomic load, store or RMW per event. The
//!   producer implicitly *claims a block* of `block` slots at a time:
//!   only when the cursor crosses a block boundary does it publish the
//!   new tail with a single `Release` store. Between publications the
//!   freshest `< block` events are invisible to observers — never lost,
//!   only not yet published.
//! * **Drop-oldest without a head counter.** The cursor wraps over the
//!   power-of-two slot array, so a full ring overwrites the oldest
//!   event by construction. The head is *derived*, not stored:
//!   `head = max(consumed, tail − capacity)`, and the dropped count is
//!   whatever that subtraction swallowed. The old design's per-push
//!   head load, full-ring branch and `fetch_add` are gone entirely.
//! * **Quiescent consumer.** [`EventRing::drain`] requires `&mut self`
//!   and is only called after the worker threads have been joined (the
//!   collector's `finish` consumes `self`); it reads the producer's
//!   private cursor directly, which the join's happens-before makes
//!   safe. Mid-run observers must use [`EventRing::published_len`],
//!   which reads only the `Release`-published tail.
//! * **Producer-side sampling.** The per-category 1-in-N countdowns of
//!   the collector's sampling path ([`EventRing::sample_tick`]) also
//!   live in the producer's private cache line as plain `Cell`s.
//!
//! Slots are plain [`RawEvent`]s in `UnsafeCell`s; the producer state
//! and the published tail are `CachePadded` so two adjacent workers'
//! rings never false-share their control words.

use crate::event::{Event, RawEvent};
use crate::filter::Category;
use crate::sync::{AtomicU64, Ordering};
use crossbeam_utils::CachePadded;
use std::cell::{Cell, UnsafeCell};

/// Minimum ring capacity; smaller requests are rounded up.
pub const MIN_CAPACITY: usize = 16;

/// Block granularity of tail publication (capped at the ring capacity):
/// the producer publishes its cursor once per this many events.
pub const BLOCK: u64 = 64;

/// Producer-private state: touched only by the owning worker thread.
struct Producer {
    /// Next free slot index (monotonically increasing, not wrapped).
    tail: Cell<u64>,
    /// First index past the currently claimed block; crossing it
    /// publishes the cursor and claims the next block.
    block_end: Cell<u64>,
    /// Per-category 1-in-N sampling countdowns.
    samples: [Cell<u32>; Category::ALL.len()],
}

/// A fixed-capacity single-producer event buffer with drop-oldest
/// overflow semantics and block-granular tail publication.
pub struct EventRing {
    slots: Box<[UnsafeCell<RawEvent>]>,
    mask: u64,
    block: u64,
    /// Producer-private cursors (see [`Producer`]).
    prod: CachePadded<Producer>,
    /// Tail as of the last block boundary, `Release`-published for
    /// mid-run observers. Lags `prod.tail` by less than `block`.
    published: CachePadded<AtomicU64>,
    /// Index up to which `drain` has consumed (consumer-private).
    consumed: Cell<u64>,
    /// Overwritten events accounted by past drains (consumer-private).
    dropped_drained: Cell<u64>,
}

// SAFETY: the slot cells and the producer/consumer `Cell`s are split by
// role. Producer state (`prod`, slot writes) is touched only by the
// single producer thread; consumer state (`consumed`, `dropped_drained`,
// slot reads) only under `&mut self` (`drain`) or after the producer has
// quiesced (`len`/`dropped`, see their docs) — so at any point in time
// at most one thread touches a given cell, and the handoff from producer
// to consumer is ordered by the thread join that precedes draining (see
// the module docs). Cross-thread *mid-run* observation goes exclusively
// through the `published` atomic.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    /// Create a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum [`MIN_CAPACITY`]).
    pub fn with_capacity(capacity: usize) -> EventRing {
        let cap = capacity.max(MIN_CAPACITY).next_power_of_two();
        let slots: Vec<UnsafeCell<RawEvent>> =
            (0..cap).map(|_| UnsafeCell::new(RawEvent::ZERO)).collect();
        let block = BLOCK.min(cap as u64);
        EventRing {
            slots: slots.into_boxed_slice(),
            mask: (cap - 1) as u64,
            block,
            prod: CachePadded::new(Producer {
                tail: Cell::new(0),
                block_end: Cell::new(block),
                samples: [const { Cell::new(0) }; Category::ALL.len()],
            }),
            published: CachePadded::new(AtomicU64::new(0)),
            consumed: Cell::new(0),
            dropped_drained: Cell::new(0),
        }
    }

    /// Number of event slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Record one event. Wait-free; on a full ring the oldest event is
    /// overwritten (drop-oldest, accounted at drain time).
    ///
    /// # Safety contract (not enforced by the type system)
    /// Must only be called from the single producer thread that owns this
    /// ring; the collector hands out one [`WorkerHandle`] per worker to
    /// uphold this.
    ///
    /// [`WorkerHandle`]: crate::collector::WorkerHandle
    #[inline]
    pub fn push(&self, ev: RawEvent) {
        let tail = self.prod.tail.get();
        let idx = (tail & self.mask) as usize;
        // SAFETY: single producer (contract above); no concurrent reader
        // until quiescent drain.
        unsafe { *self.slots[idx].get() = ev };
        let next = tail + 1;
        self.prod.tail.set(next);
        if next == self.prod.block_end.get() {
            // Block boundary: publish the claimed block in one go.
            // Release: publishes a whole block of slot payloads at once;
            // pairs with the Acquire loads in `published_len` and
            // `drain_published`.
            self.published.store(next, Ordering::Release);
            self.prod.block_end.set(next + self.block);
        }
    }

    /// Producer-side 1-in-N sampling countdown for `cat`: returns `true`
    /// when this occurrence should be recorded (the first of every run
    /// of `n`). Producer-only, like [`EventRing::push`].
    #[inline]
    pub fn sample_tick(&self, cat: Category, n: u32) -> bool {
        let cell = &self.prod.samples[cat as usize];
        let left = cell.get();
        if left == 0 {
            cell.set(n - 1);
            true
        } else {
            cell.set(left - 1);
            false
        }
    }

    /// Events published so far and not yet consumed — what a *mid-run*
    /// observer on another thread may safely see. Lags the true count by
    /// less than the block size.
    pub fn published_len(&self) -> usize {
        // Acquire: pairs with the producer's per-block Release store, so a
        // mid-run observer sees every payload up to the published boundary.
        let published = self.published.load(Ordering::Acquire);
        let consumed = self.consumed.get();
        let head = consumed.max(published.saturating_sub(self.slots.len() as u64));
        (published - head) as usize
    }

    /// Overwritten events not yet accounted by a drain.
    fn pending_overwrites(&self) -> u64 {
        self.prod
            .tail
            .get()
            .saturating_sub(self.slots.len() as u64)
            .saturating_sub(self.consumed.get())
    }

    /// Events overwritten so far. Exact, so it reads the producer's
    /// private cursor: only call once the producer has quiesced (or from
    /// the producer thread itself).
    pub fn dropped(&self) -> u64 {
        self.dropped_drained.get() + self.pending_overwrites()
    }

    /// Number of live events currently buffered. Quiescent-exact, like
    /// [`EventRing::dropped`]; mid-run observers want
    /// [`EventRing::published_len`].
    pub fn len(&self) -> usize {
        let tail = self.prod.tail.get();
        let head = self
            .consumed
            .get()
            .max(tail.saturating_sub(self.slots.len() as u64));
        (tail - head) as usize
    }

    /// True when no events are buffered (quiescent-exact).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decode *published* events oldest-first while the producer may
    /// still be running.
    ///
    /// Safety argument: the producer's private `tail` is at most
    /// `block − 1` ahead of the `Release`-published cursor, so the slots
    /// it may currently be writing all alias ring indices in
    /// `[published − capacity, published − capacity + block)`. This
    /// reader therefore starts no earlier than
    /// `published − capacity + block` — every slot it touches was
    /// written before the `Release` store its `Acquire` load observed,
    /// and the producer cannot wrap back onto it until `tail` passes
    /// `published + capacity − block`, i.e. not before the next
    /// publication. Events skipped by that guard band (only possible
    /// when the ring is within one block of overflow) are counted as
    /// dropped.
    ///
    /// # Contract (not enforced by the type system)
    /// At most one consumer thread may call this (it advances the same
    /// consumer-private cursor as [`EventRing::drain`]), and it must not
    /// race the quiescent drain — the collector serialises both behind a
    /// reader lock.
    pub fn drain_published(&self) -> Vec<Event> {
        // Acquire: pairs with the producer's per-block Release store, so
        // every event below the cursor is fully written before it is copied.
        let published = self.published.load(Ordering::Acquire);
        let consumed = self.consumed.get();
        let guard = (published + self.block).saturating_sub(self.slots.len() as u64);
        let head = consumed.max(guard);
        if head >= published {
            return Vec::new();
        }
        self.dropped_drained
            .set(self.dropped_drained.get() + (head - consumed));
        let mut out = Vec::with_capacity((published - head) as usize);
        for i in head..published {
            let idx = (i & self.mask) as usize;
            // SAFETY: slot `i` is outside the producer's current write
            // window (see the guard-band argument above) and its write
            // happens-before the Acquire load of `published`.
            let raw = unsafe { *self.slots[idx].get() };
            out.push(Event {
                ts: raw.ts,
                kind: raw.decode(),
            });
        }
        self.consumed.set(published);
        out
    }

    /// Decode the live events oldest-first. Requires exclusive access —
    /// i.e. the producer has quiesced (worker joined).
    pub fn drain(&mut self) -> Vec<Event> {
        let tail = self.prod.tail.get();
        let consumed = self.consumed.get();
        let head = consumed.max(tail.saturating_sub(self.slots.len() as u64));
        self.dropped_drained
            .set(self.dropped_drained.get() + (head - consumed));
        let mut out = Vec::with_capacity((tail - head) as usize);
        for i in head..tail {
            let idx = (i & self.mask) as usize;
            // SAFETY: exclusive access via &mut self.
            let raw = unsafe { *self.slots[idx].get() };
            out.push(Event {
                ts: raw.ts,
                kind: raw.decode(),
            });
        }
        self.consumed.set(tail);
        // Catch the published tail up so observers agree the ring is
        // empty again.
        // Release: `&mut self` means the producer is quiescent, but a later
        // `published_len` observer must still see the drained state.
        self.published.store(tail, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(EventRing::with_capacity(0).capacity(), MIN_CAPACITY);
        assert_eq!(EventRing::with_capacity(17).capacity(), 32);
        assert_eq!(EventRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn push_drain_preserves_order() {
        let mut ring = EventRing::with_capacity(64);
        for i in 0..10u64 {
            ring.push(RawEvent::encode(i, EventKind::Spawn { depth: i as u32 }));
        }
        let events = ring.drain();
        assert_eq!(events.len(), 10);
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.ts, i as u64);
            assert_eq!(ev.kind, EventKind::Spawn { depth: i as u32 });
        }
        assert_eq!(ring.dropped(), 0);
        assert!(ring.is_empty());
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut ring = EventRing::with_capacity(16);
        for i in 0..40u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        assert_eq!(ring.dropped(), 40 - 16);
        let events = ring.drain();
        assert_eq!(events.len(), 16);
        // The survivors are the newest 16, oldest-first.
        assert_eq!(events.first().unwrap().ts, 24);
        assert_eq!(events.last().unwrap().ts, 39);
        // Drop accounting survives the drain.
        assert_eq!(ring.dropped(), 24);
    }

    #[test]
    fn drain_resets_ring() {
        let mut ring = EventRing::with_capacity(16);
        ring.push(RawEvent::encode(1, EventKind::Pop));
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring.drain().len(), 0);
        ring.push(RawEvent::encode(2, EventKind::Pop));
        assert_eq!(ring.drain().len(), 1);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn publication_is_block_granular() {
        let ring = EventRing::with_capacity(256);
        for i in 0..(BLOCK - 1) {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        // One short of a block: nothing published yet.
        assert_eq!(ring.published_len(), 0);
        assert_eq!(ring.len(), (BLOCK - 1) as usize);
        ring.push(RawEvent::encode(BLOCK, EventKind::Push));
        assert_eq!(ring.published_len(), BLOCK as usize);
    }

    #[test]
    fn tiny_rings_publish_every_capacity_events() {
        // Block is capped at the capacity, so a minimum-size ring still
        // publishes.
        let ring = EventRing::with_capacity(MIN_CAPACITY);
        for i in 0..MIN_CAPACITY as u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        assert_eq!(ring.published_len(), MIN_CAPACITY);
    }

    #[test]
    fn published_len_caps_at_capacity_on_overflow() {
        let ring = EventRing::with_capacity(16);
        for i in 0..160u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        assert_eq!(ring.published_len(), 16);
        assert_eq!(ring.len(), 16);
        assert_eq!(ring.dropped(), 144);
    }

    #[test]
    fn sample_tick_records_one_in_n() {
        let ring = EventRing::with_capacity(16);
        let hits: Vec<bool> = (0..10)
            .map(|_| ring.sample_tick(Category::Deque, 4))
            .collect();
        assert_eq!(
            hits,
            vec![true, false, false, false, true, false, false, false, true, false]
        );
        // Categories count down independently.
        assert!(ring.sample_tick(Category::Fake, 4));
    }

    #[test]
    fn cross_thread_handoff_after_join() {
        let ring = std::sync::Arc::new(EventRing::with_capacity(1024));
        let producer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    ring.push(RawEvent::encode(i, EventKind::Push));
                }
            })
        };
        producer.join().unwrap();
        let mut ring = std::sync::Arc::try_unwrap(ring).ok().expect("sole owner");
        let events = ring.drain();
        assert_eq!(events.len(), 500);
        assert!(events.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn drain_published_hands_out_each_event_exactly_once() {
        let mut ring = EventRing::with_capacity(1024);
        for i in 0..100u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        // 100 pushed, 64 published (one block): the mid-run reader gets
        // exactly the published prefix.
        let snap = ring.drain_published();
        assert_eq!(snap.len(), BLOCK as usize);
        assert_eq!(snap.first().unwrap().ts, 0);
        assert_eq!(snap.last().unwrap().ts, BLOCK - 1);
        // A second snapshot with nothing newly published is empty.
        assert!(ring.drain_published().is_empty());
        // The quiescent drain picks up only the remainder.
        let rest = ring.drain();
        assert_eq!(rest.len(), 100 - BLOCK as usize);
        assert_eq!(rest.first().unwrap().ts, BLOCK);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn drain_published_stays_out_of_the_producer_write_window() {
        // Capacity 128, block 64: with 128 events published the guard
        // band excludes the oldest block (the producer may be wrapping
        // onto it), and the skipped events count as dropped.
        let mut ring = EventRing::with_capacity(128);
        for i in 0..128u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        let snap = ring.drain_published();
        assert_eq!(snap.len(), 128 - BLOCK as usize);
        assert_eq!(snap.first().unwrap().ts, BLOCK);
        assert_eq!(ring.dropped(), BLOCK);
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn drain_published_while_producer_races() {
        // A concurrent reader must only ever see timestamps in order and
        // each exactly once, with reader+drain+dropped covering all
        // events. The big ring keeps the producer from lapping.
        let ring = std::sync::Arc::new(EventRing::with_capacity(1 << 16));
        let reader = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while seen.len() < 2048 {
                    seen.extend(ring.drain_published());
                }
                seen
            })
        };
        for i in 0..8192u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        let seen = reader.join().unwrap();
        assert!(seen.windows(2).all(|w| w[0].ts < w[1].ts));
        assert_eq!(seen.first().unwrap().ts, 0);
        let mut ring = std::sync::Arc::try_unwrap(ring).ok().expect("sole owner");
        let rest = ring.drain();
        assert_eq!(seen.len() as u64 + rest.len() as u64 + ring.dropped(), 8192);
    }

    #[test]
    fn mid_run_observer_sees_only_published_blocks() {
        // A reader polling published_len concurrently with a producer
        // must only ever see multiples of the block (until overflow).
        let ring = std::sync::Arc::new(EventRing::with_capacity(1 << 16));
        let observer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while seen < 4096 {
                    seen = ring.published_len();
                    assert_eq!(seen as u64 % BLOCK, 0);
                }
            })
        };
        for i in 0..4096u64 {
            ring.push(RawEvent::encode(i, EventKind::Push));
        }
        observer.join().unwrap();
    }
}
