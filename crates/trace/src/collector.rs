//! The collector: one ring per worker, handed out as per-worker handles,
//! drained into an immutable [`Trace`] once the run has quiesced.
//!
//! The collector also owns the run's **sampling rate** (`trace_sample`,
//! applied only to [`Category::SAMPLED_MASK`] categories). Sampling
//! countdowns live producer-private inside each ring, so sampling adds no
//! shared-write traffic to the hot path.

use crate::clock::TraceClock;
use crate::event::{Event, EventKind, RawEvent};
use crate::filter::Category;
use crate::ring::EventRing;

/// Owns the per-worker rings and the run-epoch clock for one traced run.
///
/// Lifecycle: create with [`TraceCollector::new`] (or
/// [`TraceCollector::with_sample`] for a sampled run), hand
/// each worker its [`WorkerHandle`] (the handles borrow the collector,
/// so workers must be scoped threads or the collector must be shared via
/// `Arc`), then — after every worker has been joined — call
/// [`TraceCollector::finish`] to drain the rings into a [`Trace`].
pub struct TraceCollector {
    rings: Vec<EventRing>,
    clock: TraceClock,
    /// 1-in-N rate for [`Category::SAMPLED_MASK`] categories (1 = all).
    sample: u32,
    /// Serialises mid-run readers ([`TraceCollector::drain_published`])
    /// against each other — the rings' consumer cursors are
    /// single-consumer state.
    reader: std::sync::Mutex<()>,
}

/// A single worker's recording endpoint. Cheap to copy into the worker's
/// hot loop; `emit` stamps the shared run-epoch clock and pushes into the
/// worker's own SPSC ring.
#[derive(Clone, Copy)]
pub struct WorkerHandle<'a> {
    ring: &'a EventRing,
    clock: TraceClock,
    sample: u32,
}

impl WorkerHandle<'_> {
    /// Record `kind` now, subject — for sampled categories — to the
    /// 1-in-N countdown. Wait-free (clock read + ring push).
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        self.emit_in(kind.category(), kind);
    }

    /// As [`WorkerHandle::emit`] for call sites that name `cat`
    /// statically (the engine's `tev!` macro), so the sampling test
    /// constant-folds per site.
    #[inline]
    pub fn emit_in(&self, cat: Category, kind: EventKind) {
        debug_assert_eq!(kind.category(), cat);
        if self.sample > 1
            && cat.bit() & Category::SAMPLED_MASK != 0
            && !self.ring.sample_tick(cat, self.sample)
        {
            return;
        }
        self.ring.push(RawEvent::encode(self.clock.now(), kind));
    }
}

impl TraceCollector {
    /// A collector with one ring of `capacity` events per worker and no
    /// sampling.
    pub fn new(workers: usize, capacity: usize) -> TraceCollector {
        TraceCollector::with_sample(workers, capacity, 1)
    }

    /// A collector with a 1-in-`sample` rate for the hot categories
    /// (`0`/`1` = record every event).
    ///
    /// Creating the first collector in the process also runs the
    /// one-time TSC calibration handshake — see [`TraceClock`].
    pub fn with_sample(workers: usize, capacity: usize, sample: u32) -> TraceCollector {
        TraceCollector {
            rings: (0..workers)
                .map(|_| EventRing::with_capacity(capacity))
                .collect(),
            clock: TraceClock::start(),
            sample: sample.max(1),
            reader: std::sync::Mutex::new(()),
        }
    }

    /// Number of worker rings.
    pub fn workers(&self) -> usize {
        self.rings.len()
    }

    /// The 1-in-N sampling rate for hot categories.
    pub fn sample(&self) -> u32 {
        self.sample
    }

    /// The run-epoch clock (exposed for bench reporting of the active
    /// backend).
    pub fn clock(&self) -> TraceClock {
        self.clock
    }

    /// The recording endpoint for `worker`. Each worker must use only its
    /// own handle — that is what makes the rings single-producer.
    pub fn handle(&self, worker: usize) -> WorkerHandle<'_> {
        WorkerHandle {
            ring: &self.rings[worker],
            clock: self.clock,
            sample: self.sample,
        }
    }

    /// Record an event for `worker` at an explicit timestamp. This is the
    /// simulator's entry point (virtual nanoseconds); the threaded runtime
    /// uses [`WorkerHandle::emit`] instead. Not safe to mix with a live
    /// handle on another thread for the same worker.
    ///
    /// Never sampled: virtual-time streams are deterministic and cheap,
    /// and keeping them exhaustive preserves exact real-vs-sim diffing
    /// at any sampling rate.
    pub fn emit_at(&self, worker: usize, ts: u64, kind: EventKind) {
        self.rings[worker].push(RawEvent::encode(ts, kind));
    }

    /// Events `worker` has published so far and not yet consumed — the
    /// most a concurrent [`TraceCollector::drain_published`] could
    /// return for that ring (it may return up to one block less near
    /// overflow; see [`EventRing::drain_published`]).
    pub fn published_len(&self, worker: usize) -> usize {
        self.rings[worker].published_len()
    }

    /// Drain every ring's *published* events into a trace snapshot while
    /// the workers are still running. Wait-free for the producers; the
    /// per-ring dropped counts are deferred to [`TraceCollector::finish`]
    /// (they read producer-private state, so a mid-run snapshot reports
    /// 0 there). Multiple reader threads are serialised internally;
    /// events handed out here never reappear in a later snapshot or in
    /// the final [`TraceCollector::finish`] trace.
    pub fn drain_published(&self) -> Trace {
        let _guard = self.reader.lock().unwrap();
        let workers = self
            .rings
            .iter()
            .enumerate()
            .map(|(worker, ring)| WorkerTrace {
                worker,
                dropped: 0,
                events: ring.drain_published(),
            })
            .collect();
        Trace {
            workers,
            sample: self.sample,
            clock_backend: self.clock.backend(),
        }
    }

    /// Drain every ring into an immutable trace. Callers must ensure all
    /// workers have quiesced (joined) first; `finish` consumes the
    /// collector so no handle can outlive it.
    pub fn finish(mut self) -> Trace {
        let workers = self
            .rings
            .iter_mut()
            .enumerate()
            .map(|(worker, ring)| WorkerTrace {
                worker,
                dropped: ring.dropped(),
                events: ring.drain(),
            })
            .collect();
        Trace {
            workers,
            sample: self.sample,
            clock_backend: self.clock.backend(),
        }
    }
}

/// The drained event stream of one worker, oldest-first.
#[derive(Debug, Clone)]
pub struct WorkerTrace {
    /// Worker id (index into the run's worker set).
    pub worker: usize,
    /// Events in emission order.
    pub events: Vec<Event>,
    /// Events lost to ring overflow (0 means the stream is complete).
    pub dropped: u64,
}

/// A complete drained trace: one stream per worker plus the run epoch
/// implied by timestamp zero, and the sampling rate it was recorded
/// under (consumers like [`validate`](crate::validate()) use it to know
/// which counters the trace can be exact about).
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-worker streams, indexed by worker id.
    pub workers: Vec<WorkerTrace>,
    /// The 1-in-N sampling rate for [`Category::SAMPLED_MASK`]
    /// categories (1 = exhaustive).
    pub sample: u32,
    /// Which clock stamped the events: `"tsc"`, `"instant"`, or
    /// `"virtual"` for simulator traces.
    pub clock_backend: &'static str,
}

impl Trace {
    /// An exhaustive trace (no sampling) from bare
    /// per-worker streams. Handy for tests and for consumers that
    /// assemble traces by hand.
    pub fn from_workers(workers: Vec<WorkerTrace>) -> Trace {
        Trace {
            workers,
            sample: 1,
            clock_backend: "virtual",
        }
    }

    /// Is `cat` subject to 1-in-N sampling in this trace (so its event
    /// counts are lower bounds, not exact)?
    pub fn sampled(&self, cat: Category) -> bool {
        self.sample > 1 && cat.bit() & Category::SAMPLED_MASK != 0
    }

    /// Total events across all workers.
    pub fn len(&self) -> usize {
        self.workers.iter().map(|w| w.events.len()).sum()
    }

    /// True when no worker recorded anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events lost to ring overflow across all workers.
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// All events of every worker as `(worker, event)`, merged and sorted
    /// by timestamp (ties broken by worker id, then emission order, which
    /// a stable sort preserves).
    pub fn merged(&self) -> Vec<(usize, Event)> {
        let mut all: Vec<(usize, Event)> = self
            .workers
            .iter()
            .flat_map(|w| w.events.iter().map(move |e| (w.worker, *e)))
            .collect();
        all.sort_by_key(|(w, e)| (e.ts, *w));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn handles_record_into_their_own_rings() {
        let collector = TraceCollector::new(3, 64);
        collector.handle(0).emit(EventKind::Push);
        collector.handle(2).emit(EventKind::Pop);
        collector.handle(2).emit(EventKind::Pop);
        let trace = collector.finish();
        assert_eq!(trace.workers[0].events.len(), 1);
        assert_eq!(trace.workers[1].events.len(), 0);
        assert_eq!(trace.workers[2].events.len(), 2);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.total_dropped(), 0);
        assert_eq!(trace.sample, 1);
    }

    #[test]
    fn emit_at_uses_the_given_timestamp() {
        let collector = TraceCollector::new(1, 64);
        collector.emit_at(0, 12345, EventKind::FakeTask { depth: 2 });
        let trace = collector.finish();
        assert_eq!(trace.workers[0].events[0].ts, 12345);
    }

    #[test]
    fn merged_is_sorted_by_timestamp() {
        let collector = TraceCollector::new(2, 64);
        collector.emit_at(0, 30, EventKind::Push);
        collector.emit_at(1, 10, EventKind::Pop);
        collector.emit_at(0, 20, EventKind::Push);
        let merged = collector.finish().merged();
        let ts: Vec<u64> = merged.iter().map(|(_, e)| e.ts).collect();
        assert_eq!(ts, vec![10, 20, 30]);
    }

    #[test]
    fn sampling_keeps_one_in_n_of_hot_categories() {
        let collector = TraceCollector::with_sample(1, 1 << 12, 4);
        let h = collector.handle(0);
        for _ in 0..100 {
            h.emit(EventKind::Push);
        }
        for _ in 0..10 {
            h.emit(EventKind::StealOk { victim: 0 }); // Steal is never sampled
        }
        let trace = collector.finish();
        assert!(trace.sampled(Category::Deque));
        assert!(!trace.sampled(Category::Steal));
        let pushes = trace.workers[0]
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Push)
            .count();
        let steals = trace.workers[0].events.len() - pushes;
        assert_eq!(pushes, 25);
        assert_eq!(steals, 10);
    }

    #[test]
    fn emit_at_is_never_sampled() {
        let collector = TraceCollector::with_sample(1, 256, 8);
        for i in 0..20 {
            collector.emit_at(0, i, EventKind::Spawn { depth: 0 });
        }
        let trace = collector.finish();
        assert_eq!(trace.len(), 20);
    }

    #[test]
    fn drain_published_snapshots_without_losing_events() {
        let collector = TraceCollector::new(2, 1 << 12);
        for i in 0..200 {
            collector.emit_at(0, i, EventKind::Push);
            collector.emit_at(1, i, EventKind::Pop);
        }
        let announced = collector.published_len(0);
        let snap = collector.drain_published();
        assert_eq!(snap.workers[0].events.len(), announced);
        assert!(snap.workers[0].events.len() <= 200);
        // Snapshot + final trace partition the stream exactly.
        let rest = collector.finish();
        for w in 0..2 {
            assert_eq!(
                snap.workers[w].events.len() + rest.workers[w].events.len(),
                200
            );
            assert_eq!(rest.workers[w].dropped, 0);
        }
    }

    #[test]
    fn concurrent_workers_then_finish() {
        let collector = std::sync::Arc::new(TraceCollector::new(4, 4096));
        let mut joins = Vec::new();
        for w in 0..4 {
            let c = std::sync::Arc::clone(&collector);
            joins.push(std::thread::spawn(move || {
                let h = c.handle(w);
                for i in 0..1000 {
                    h.emit(EventKind::Spawn { depth: i as u32 });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let collector = std::sync::Arc::try_unwrap(collector)
            .ok()
            .expect("sole owner");
        let trace = collector.finish();
        assert_eq!(trace.len(), 4000);
        assert_eq!(trace.total_dropped(), 0);
        for w in &trace.workers {
            assert!(w.events.windows(2).all(|p| p[0].ts <= p[1].ts));
        }
    }
}
