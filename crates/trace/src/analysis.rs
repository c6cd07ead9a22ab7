//! Derived metrics over a drained [`Trace`]: aggregate event counts, the
//! steal-provenance tree, per-state dwell-time totals, and steal-latency /
//! deque-occupancy histograms.

use crate::collector::Trace;
use crate::event::EventKind;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Aggregate counts
// ---------------------------------------------------------------------------

/// Per-kind event totals, aggregated over all workers. The fields mirror
/// the `RunStats` counters they must equal (see [`crate::validate()`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    /// `Spawn` events (== `tasks_created`).
    pub spawns: u64,
    /// `Push` events (regular deque pushes).
    pub pushes: u64,
    /// `Pop` events (regular owner pops).
    pub pops: u64,
    /// `PopConflict` events.
    pub pop_conflicts: u64,
    /// `StealAttempt` events.
    pub steal_attempts: u64,
    /// `StealOk` events (== `steals_ok`).
    pub steals_ok: u64,
    /// `StealEmpty` events (== `steals_failed`).
    pub steals_empty: u64,
    /// `FakeTask` events (== `fake_tasks`).
    pub fake_tasks: u64,
    /// `Fsm` transition events.
    pub fsm_transitions: u64,
    /// `SpecialBegin` events (== `special_tasks`).
    pub special_begins: u64,
    /// `SpecialPush` events (special deque pushes).
    pub special_pushes: u64,
    /// `SpecialConsume { reclaimed: true }` events.
    pub special_reclaimed: u64,
    /// `SpecialConsume { reclaimed: false }` events (child was stolen).
    pub special_lost: u64,
    /// `NeedTaskSignal` events.
    pub need_task_signals: u64,
    /// `NeedTaskAck` events.
    pub need_task_acks: u64,
    /// `SyncSuspend` events (== `suspensions`).
    pub suspends: u64,
    /// `SyncResume` events.
    pub resumes: u64,
}

impl TraceCounts {
    /// Tally one worker's (or the whole trace's) event stream.
    pub fn from_events<'a, I: IntoIterator<Item = &'a crate::event::Event>>(events: I) -> Self {
        let mut c = TraceCounts::default();
        for ev in events {
            match ev.kind {
                EventKind::Spawn { .. } => c.spawns += 1,
                EventKind::Push => c.pushes += 1,
                EventKind::Pop => c.pops += 1,
                EventKind::PopConflict => c.pop_conflicts += 1,
                EventKind::StealAttempt { .. } => c.steal_attempts += 1,
                EventKind::StealOk { .. } => c.steals_ok += 1,
                EventKind::StealEmpty { .. } => c.steals_empty += 1,
                EventKind::FakeTask { .. } => c.fake_tasks += 1,
                EventKind::Fsm { .. } => c.fsm_transitions += 1,
                EventKind::SpecialBegin { .. } => c.special_begins += 1,
                EventKind::SpecialEnd => {}
                EventKind::SpecialPush => c.special_pushes += 1,
                EventKind::SpecialConsume { reclaimed: true } => c.special_reclaimed += 1,
                EventKind::SpecialConsume { reclaimed: false } => c.special_lost += 1,
                EventKind::NeedTaskSignal { .. } => c.need_task_signals += 1,
                EventKind::NeedTaskAck => c.need_task_acks += 1,
                EventKind::SyncSuspend => c.suspends += 1,
                EventKind::SyncResume => c.resumes += 1,
                // Job markers delimit epochs; they mirror no RunStats
                // counter, so the tally ignores them.
                EventKind::JobBegin { .. } | EventKind::JobEnd { .. } => {}
            }
        }
        c
    }

    /// Tally the whole trace.
    pub fn from_trace(trace: &Trace) -> Self {
        Self::from_events(trace.workers.iter().flat_map(|w| w.events.iter()))
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A power-of-two bucketed histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        let bucket = (u64::BITS - sample.leading_zeros()) as usize;
        if self.buckets.len() <= bucket {
            self.buckets.resize(bucket + 1, 0);
        }
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += sample;
        self.max = self.max.max(sample);
    }

    /// `(upper_bound_exclusive, count)` for each non-empty bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (1u64 << i, *n))
            .collect()
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Steal provenance
// ---------------------------------------------------------------------------

/// One successful steal: `thief` took work from `victim` at `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEdge {
    /// Nanoseconds since the run epoch.
    pub ts: u64,
    /// The stealing worker.
    pub thief: usize,
    /// The robbed worker.
    pub victim: usize,
    /// Index of this node's parent in [`StealTree::edges`], or `None`
    /// for steals fed directly by the victim's root-descended work.
    pub parent: Option<usize>,
}

/// The steal-provenance forest: every successful steal, each linked to
/// the steal that put the stolen subtree on the victim in the first
/// place (the victim's most recent earlier `StealOk`, if any).
#[derive(Debug, Clone, Default)]
pub struct StealTree {
    /// All successful steals in timestamp order.
    pub edges: Vec<StealEdge>,
}

impl StealTree {
    /// Build the forest from a trace.
    ///
    /// Provenance rule: the parent of a steal by `T` from `V` at time `t`
    /// is `V`'s latest `StealOk` before `t` — the theft that gave `V`
    /// the subtree `T` is now carving up. With no such steal, `V` was
    /// working on root-descended tasks and the edge is a forest root.
    pub fn build(trace: &Trace) -> StealTree {
        let mut edges: Vec<StealEdge> = trace
            .workers
            .iter()
            .flat_map(|w| {
                w.events.iter().filter_map(move |e| match e.kind {
                    EventKind::StealOk { victim } => Some(StealEdge {
                        ts: e.ts,
                        thief: w.worker,
                        victim: victim as usize,
                        parent: None,
                    }),
                    _ => None,
                })
            })
            .collect();
        edges.sort_by_key(|e| (e.ts, e.thief));
        // latest_by_thief[w] = index of w's most recent StealOk edge.
        let mut latest_by_thief: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, edge) in edges.iter_mut().enumerate() {
            edge.parent = latest_by_thief.get(&edge.victim).copied();
            latest_by_thief.insert(edge.thief, i);
        }
        StealTree { edges }
    }

    /// Number of forest roots (steals of root-descended work).
    pub fn roots(&self) -> usize {
        self.edges.iter().filter(|e| e.parent.is_none()).count()
    }

    /// Depth of the deepest provenance chain (a single steal has depth 1).
    pub fn max_depth(&self) -> usize {
        let mut depth = vec![0usize; self.edges.len()];
        let mut max = 0;
        for i in 0..self.edges.len() {
            // Parents always precede children in the sorted order.
            depth[i] = 1 + self.edges[i].parent.map_or(0, |p| depth[p]);
            max = max.max(depth[i]);
        }
        max
    }

    /// Render as an indented text tree (one line per steal).
    pub fn render(&self) -> String {
        fn rec(
            tree: &StealTree,
            children: &[Vec<usize>],
            i: usize,
            depth: usize,
            out: &mut String,
        ) {
            let e = &tree.edges[i];
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "worker {} stole from worker {} @ {} ns\n",
                e.thief, e.victim, e.ts
            ));
            for &c in &children[i] {
                rec(tree, children, c, depth + 1, out);
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.edges.len()];
        let mut roots = Vec::new();
        for (i, e) in self.edges.iter().enumerate() {
            match e.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        let mut out = String::new();
        for r in roots {
            rec(self, &children, r, 0, &mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Dwell times
// ---------------------------------------------------------------------------

/// Per-worker time-in-state totals over the span of the worker's stream.
///
/// States are the coarse worker phases the trace can bracket exactly:
/// special sections, stolen-continuation (slow) execution and sync
/// waits; everything else is `work` (fast/check/fast_2/sequence code,
/// plus steal-loop spinning between `idle→slow` brackets on workers that
/// never steal — the trace cannot split those without per-node events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dwell {
    /// ns inside `SpecialBegin..SpecialEnd` spans.
    pub special_ns: u64,
    /// ns inside `idle→slow .. slow→idle` brackets.
    pub slow_ns: u64,
    /// ns inside `SyncSuspend..SyncResume` spans.
    pub sync_wait_ns: u64,
    /// Remaining ns of the worker's active span.
    pub work_ns: u64,
    /// Total span (last ts − first ts).
    pub span_ns: u64,
}

/// Compute [`Dwell`] per worker. Unclosed spans (a worker that never
/// resumed) are closed at the worker's final timestamp.
pub fn dwell_times(trace: &Trace) -> Vec<Dwell> {
    use crate::event::FsmState;
    trace
        .workers
        .iter()
        .map(|w| {
            let mut d = Dwell::default();
            let (first, last) = match (w.events.first(), w.events.last()) {
                (Some(f), Some(l)) => (f.ts, l.ts),
                _ => return d,
            };
            d.span_ns = last - first;
            let mut special_open: Option<u64> = None;
            let mut slow_open: Option<u64> = None;
            let mut sync_open: Option<u64> = None;
            for ev in &w.events {
                match ev.kind {
                    EventKind::SpecialBegin { .. } => special_open = Some(ev.ts),
                    EventKind::SpecialEnd => {
                        if let Some(s) = special_open.take() {
                            d.special_ns += ev.ts - s;
                        }
                    }
                    EventKind::SyncSuspend => sync_open = Some(ev.ts),
                    EventKind::SyncResume => {
                        if let Some(s) = sync_open.take() {
                            d.sync_wait_ns += ev.ts - s;
                        }
                    }
                    EventKind::Fsm {
                        from: FsmState::Idle,
                        to: FsmState::Slow,
                        ..
                    } => slow_open = Some(ev.ts),
                    EventKind::Fsm {
                        from: FsmState::Slow,
                        to: FsmState::Idle,
                        ..
                    } => {
                        if let Some(s) = slow_open.take() {
                            d.slow_ns += ev.ts - s;
                        }
                    }
                    _ => {}
                }
            }
            // Close spans left open at the worker's final event.
            if let Some(s) = special_open {
                d.special_ns += last - s;
            }
            if let Some(s) = slow_open {
                d.slow_ns += last - s;
            }
            if let Some(s) = sync_open {
                d.sync_wait_ns += last - s;
            }
            // Sync waits nest inside special sections, so special_ns
            // already covers them; work is the rest of the span.
            d.work_ns = d.span_ns.saturating_sub(d.special_ns + d.slow_ns);
            d
        })
        .collect()
}

/// Steal latency per worker: time from each `StealAttempt` to the next
/// steal outcome (`StealOk`/`StealEmpty`) in the same worker's stream.
pub fn steal_latency(trace: &Trace) -> Histogram {
    let mut h = Histogram::default();
    for w in &trace.workers {
        let mut pending: Option<u64> = None;
        for ev in &w.events {
            match ev.kind {
                EventKind::StealAttempt { .. } => pending = Some(ev.ts),
                EventKind::StealOk { .. } | EventKind::StealEmpty { .. } => {
                    if let Some(t0) = pending.take() {
                        h.record(ev.ts - t0);
                    }
                }
                _ => {}
            }
        }
    }
    h
}

/// Deque occupancy seen across the run: replays each worker's deque from
/// the merged event order (owner pushes/pops plus thieves' `StealOk`s
/// against that worker) and records the occupancy after every change.
///
/// Cross-worker timestamps are taken *after* the underlying atomic op,
/// so the replayed counter can transiently dip negative when a thief's
/// stamp lands before the victim's; the replay clamps at zero, which
/// keeps the histogram a faithful *approximation* (exact at 1 thread).
pub fn deque_occupancy(trace: &Trace) -> Histogram {
    let mut h = Histogram::default();
    let merged = trace.merged();
    let mut depth: BTreeMap<usize, i64> = BTreeMap::new();
    for (w, ev) in merged {
        let (target, delta): (usize, i64) = match ev.kind {
            EventKind::Push | EventKind::SpecialPush => (w, 1),
            EventKind::Pop | EventKind::SpecialConsume { reclaimed: true } => (w, -1),
            EventKind::StealOk { victim } => (victim as usize, -1),
            _ => continue,
        };
        let d = depth.entry(target).or_insert(0);
        *d = (*d + delta).max(0);
        h.record(*d as u64);
    }
    h
}

// ---------------------------------------------------------------------------
// Latency CDFs
// ---------------------------------------------------------------------------

/// An exact empirical distribution over nanosecond samples, for the
/// per-op latency reporting the bucketed [`Histogram`] is too coarse
/// for. Stores every sample (sorted), so use it for per-run analysis,
/// not on the hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cdf {
    samples: Vec<u64>,
}

impl Cdf {
    /// Build from raw samples (any order).
    pub fn from_samples(mut samples: Vec<u64>) -> Cdf {
        samples.sort_unstable();
        Cdf { samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`-quantile (nearest-rank on the sorted samples), 0 when
    /// empty. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1).min(self.samples.len() - 1)]
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest sample, 0 when empty.
    pub fn max(&self) -> u64 {
        self.samples.last().copied().unwrap_or(0)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64
        }
    }
}

/// Per-op steal latency as an exact CDF: time from each `StealAttempt`
/// to the next steal outcome (`StealOk`/`StealEmpty`) in the same
/// worker's stream — the same pairing as [`steal_latency`], kept as
/// individual samples for p50/p90/p99 reporting.
pub fn steal_latency_cdf(trace: &Trace) -> Cdf {
    let mut samples = Vec::new();
    for w in &trace.workers {
        let mut pending: Option<u64> = None;
        for ev in &w.events {
            match ev.kind {
                EventKind::StealAttempt { .. } => pending = Some(ev.ts),
                EventKind::StealOk { .. } | EventKind::StealEmpty { .. } => {
                    if let Some(t0) = pending.take() {
                        samples.push(ev.ts - t0);
                    }
                }
                _ => {}
            }
        }
    }
    Cdf::from_samples(samples)
}

/// `need_task` → delivery response time as an exact CDF: from a thief
/// raising a victim's `need_task` flag (`NeedTaskSignal`) to that same
/// thief's next successful steal (`StealOk`, from any victim — the
/// special task the signal provokes is stealable by anyone, and what the
/// starving thief cares about is *getting work*). Thieves that signal
/// and never steal again contribute no sample.
pub fn response_time_cdf(trace: &Trace) -> Cdf {
    let mut samples = Vec::new();
    for w in &trace.workers {
        let mut pending: Option<u64> = None;
        for ev in &w.events {
            match ev.kind {
                EventKind::NeedTaskSignal { .. } => {
                    // A thief may re-signal (a new victim) before any
                    // delivery; the wait began at the *first* signal.
                    pending = pending.or(Some(ev.ts));
                }
                EventKind::StealOk { .. } => {
                    if let Some(t0) = pending.take() {
                        samples.push(ev.ts - t0);
                    }
                }
                _ => {}
            }
        }
    }
    Cdf::from_samples(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::TraceCollector;
    use crate::event::{EventKind, FsmState};

    #[test]
    fn histogram_buckets_and_moments() {
        let mut h = Histogram::default();
        for s in [0, 1, 2, 3, 4, 1000] {
            h.record(s);
        }
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1010);
        assert_eq!(h.max, 1000);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3; 1000 → bucket 10.
        assert_eq!(h.buckets(), vec![(1, 1), (2, 1), (4, 2), (8, 1), (1024, 1)]);
        assert!((h.mean() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn provenance_links_to_latest_prior_steal() {
        let c = TraceCollector::new(3, 64);
        // w1 steals from w0 (root), then w2 steals from w1 (child of the
        // first edge), then w0 steals from w2 (child of the second).
        c.emit_at(1, 10, EventKind::StealOk { victim: 0 });
        c.emit_at(2, 20, EventKind::StealOk { victim: 1 });
        c.emit_at(0, 30, EventKind::StealOk { victim: 2 });
        let tree = StealTree::build(&c.finish());
        assert_eq!(tree.edges.len(), 3);
        assert_eq!(tree.edges[0].parent, None);
        assert_eq!(tree.edges[1].parent, Some(0));
        assert_eq!(tree.edges[2].parent, Some(1));
        assert_eq!(tree.roots(), 1);
        assert_eq!(tree.max_depth(), 3);
        let rendered = tree.render();
        assert!(rendered.contains("worker 1 stole from worker 0 @ 10 ns"));
        assert!(rendered.contains("    worker 0 stole from worker 2 @ 30 ns"));
    }

    #[test]
    fn dwell_brackets_spans() {
        let c = TraceCollector::new(1, 64);
        c.emit_at(0, 0, EventKind::Spawn { depth: 0 });
        c.emit_at(0, 100, EventKind::SpecialBegin { depth: 2 });
        c.emit_at(0, 300, EventKind::SpecialEnd);
        c.emit_at(
            0,
            400,
            EventKind::Fsm {
                from: FsmState::Idle,
                to: FsmState::Slow,
                depth: 0,
            },
        );
        c.emit_at(
            0,
            900,
            EventKind::Fsm {
                from: FsmState::Slow,
                to: FsmState::Idle,
                depth: 0,
            },
        );
        c.emit_at(0, 1000, EventKind::Push);
        let d = dwell_times(&c.finish());
        assert_eq!(d[0].span_ns, 1000);
        assert_eq!(d[0].special_ns, 200);
        assert_eq!(d[0].slow_ns, 500);
        assert_eq!(d[0].sync_wait_ns, 0);
        assert_eq!(d[0].work_ns, 300);
    }

    #[test]
    fn steal_latency_pairs_attempt_with_outcome() {
        let c = TraceCollector::new(2, 64);
        c.emit_at(1, 100, EventKind::StealAttempt { victim: 0 });
        c.emit_at(1, 140, EventKind::StealEmpty { victim: 0 });
        c.emit_at(1, 200, EventKind::StealAttempt { victim: 0 });
        c.emit_at(1, 210, EventKind::StealOk { victim: 0 });
        let h = steal_latency(&c.finish());
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 50);
        assert_eq!(h.max, 40);
    }

    #[test]
    fn occupancy_replay_counts_all_deque_traffic() {
        let c = TraceCollector::new(2, 64);
        c.emit_at(0, 10, EventKind::Push);
        c.emit_at(0, 20, EventKind::Push);
        c.emit_at(1, 30, EventKind::StealOk { victim: 0 });
        c.emit_at(0, 40, EventKind::Pop);
        let h = deque_occupancy(&c.finish());
        // Occupancies after each change: 1, 2, 1, 0.
        assert_eq!(h.count, 4);
        assert_eq!(h.max, 2);
        assert_eq!(h.sum, 4);
    }

    #[test]
    fn counts_tally_every_kind() {
        let c = TraceCollector::new(1, 256);
        c.emit_at(0, 1, EventKind::Spawn { depth: 0 });
        c.emit_at(0, 2, EventKind::Push);
        c.emit_at(0, 3, EventKind::SpecialPush);
        c.emit_at(0, 4, EventKind::SpecialConsume { reclaimed: true });
        c.emit_at(0, 5, EventKind::SpecialConsume { reclaimed: false });
        c.emit_at(0, 6, EventKind::SyncSuspend);
        let counts = TraceCounts::from_trace(&c.finish());
        assert_eq!(counts.spawns, 1);
        assert_eq!(counts.pushes, 1);
        assert_eq!(counts.special_pushes, 1);
        assert_eq!(counts.special_reclaimed, 1);
        assert_eq!(counts.special_lost, 1);
        assert_eq!(counts.suspends, 1);
    }

    #[test]
    fn cdf_quantiles_use_nearest_rank() {
        let cdf = Cdf::from_samples((1..=100).collect());
        assert_eq!(cdf.count(), 100);
        assert_eq!(cdf.p50(), 50);
        assert_eq!(cdf.p90(), 90);
        assert_eq!(cdf.p99(), 99);
        assert_eq!(cdf.quantile(1.0), 100);
        assert_eq!(cdf.max(), 100);
        assert_eq!(cdf.mean(), 50.5);
        let empty = Cdf::default();
        assert!(empty.is_empty());
        assert_eq!(empty.p99(), 0);
    }

    #[test]
    fn steal_latency_cdf_matches_the_histogram_pairing() {
        let c = TraceCollector::new(2, 64);
        c.emit_at(1, 100, EventKind::StealAttempt { victim: 0 });
        c.emit_at(1, 140, EventKind::StealEmpty { victim: 0 });
        c.emit_at(1, 200, EventKind::StealAttempt { victim: 0 });
        c.emit_at(1, 210, EventKind::StealOk { victim: 0 });
        let cdf = steal_latency_cdf(&c.finish());
        assert_eq!(cdf.count(), 2);
        assert_eq!(cdf.p50(), 10);
        assert_eq!(cdf.max(), 40);
    }

    #[test]
    fn response_time_runs_from_first_signal_to_next_steal_ok() {
        let c = TraceCollector::new(2, 64);
        // Thief 1 signals twice (second victim) before the delivery; the
        // wait spans from the first signal.
        c.emit_at(1, 100, EventKind::NeedTaskSignal { victim: 0 });
        c.emit_at(1, 150, EventKind::NeedTaskSignal { victim: 0 });
        c.emit_at(1, 180, EventKind::StealEmpty { victim: 0 });
        c.emit_at(1, 400, EventKind::StealOk { victim: 0 });
        // A second wait with no delivery contributes nothing.
        c.emit_at(1, 500, EventKind::NeedTaskSignal { victim: 0 });
        let cdf = response_time_cdf(&c.finish());
        assert_eq!(cdf.count(), 1);
        assert_eq!(cdf.p50(), 300);
    }
}
