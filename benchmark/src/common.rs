//! Pieces every workload shares: the run context, the time budget, and
//! the engine-layer metrics read from `RunStats`.

use crate::metrics::{Metric, ENGINE_COUNTS, ENGINE_SHARES};
use crate::report::{Gate, RunOutput};
use crate::spans::Spans;
use crate::stats::{geomean, median, percentile, share};
use adaptivetc_core::RunStats;
use std::time::{Duration, Instant};

/// How often a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub struct Ctx<'a> {
    pub seed: u64,
    /// Seconds of timed work (already divided by 20 in quick mode).
    pub seconds: f64,
    pub quick: bool,
    pub spans: &'a Spans,
}

impl Ctx<'_> {
    /// Rounds an end-to-end timed section runs at least, however slow the
    /// box is; the traced pass and the ladder settle for one fewer.
    pub fn min_rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }
}

/// One of the six workloads.
pub trait Workload: Sync {
    fn name(&self) -> &'static str;

    /// Why the workload exists: one line, for `BENCHMARK.json`.
    fn why(&self) -> &'static str;

    /// Tracing and timing off: every end-to-end metric.
    fn run_untraced(&self, ctx: &Ctx) -> RunOutput;

    /// The traced pass: the workload's share of the per-layer metrics (the
    /// fixed ladder in `ladder` supplies the rest).
    fn run_traced(&self, ctx: &Ctx, gate: &mut Gate) -> Vec<Metric>;
}

/// A timed section: rounds run until the next one would overrun.
pub struct Budget {
    start: Instant,
    limit: Duration,
    min_rounds: usize,
}

impl Budget {
    pub fn new(seconds: f64, min_rounds: usize) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds.max(0.0)),
            min_rounds,
        }
    }

    /// Whether to start round number `done` (0-based count of finished rounds).
    pub fn more(&self, done: usize) -> bool {
        if done < self.min_rounds {
            return true;
        }
        let elapsed = self.start.elapsed();
        elapsed + elapsed / done as u32 <= self.limit
    }
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// What one traced round saw of the engine layer.
#[derive(Default, Clone)]
pub struct EngineRound {
    /// `RunStats` merged over the round's runs (or jobs, or simulations).
    pub stats: RunStats,
    /// Serial wall of the same work: the "working" share, as `fig6` takes it.
    pub serial_ns: f64,
    /// Wall × threads of the timed runs: the total the shares divide.
    pub thread_ns: f64,
}

/// The 16 count metrics and 6 time shares of `runtime.engine`, one value
/// per round, reported as medians. `exact` marks one-thread and simulated
/// counts, which repeat exactly.
fn engine_metrics(rounds: &[EngineRound], exact: bool) -> Vec<Metric> {
    let per_round =
        |f: &dyn Fn(&EngineRound) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let mut out = Vec::new();
    for (name, _, _) in ENGINE_COUNTS {
        let f = |r: &EngineRound| {
            let s = &r.stats;
            let nodes = s.nodes as f64;
            match name {
                "tasks_per_knode" => share(s.tasks_created as f64 * 1e3, nodes),
                "fake_share" => share(s.fake_tasks as f64, nodes),
                "special_tasks" => s.special_tasks as f64,
                "copies_per_knode" => share(s.copies as f64 * 1e3, nodes),
                "copy_bytes_per_node" => share(s.copy_bytes as f64, nodes),
                "copies_saved_share" => share(
                    s.workspace_copies_saved as f64,
                    (s.workspace_copies_saved + s.copies) as f64,
                ),
                "frame_reuse_share" => share(s.frame_reuse as f64, s.tasks_created as f64),
                "state_reuse_share" => share(s.state_reuse as f64, s.copies as f64),
                "polls_per_node" => share(s.polls as f64, nodes),
                "steals_ok" => s.steals_ok as f64,
                "steal_hit_share" => {
                    share(s.steals_ok as f64, (s.steals_ok + s.steals_failed) as f64)
                }
                "pop_conflicts" => s.pop_conflicts as f64,
                "suspensions" => s.suspensions as f64,
                "steal_backoffs" => s.steal_backoffs as f64,
                "deque_peak" => s.deque_peak as f64,
                "deque_overflows" => s.deque_overflows as f64,
                other => unreachable!("undeclared engine count {other}"),
            }
        };
        out.push(Metric::median_of(format!("engine.{name}"), &per_round(&f)).exact(exact));
    }
    // Fig. 6's attribution, taken from outside: working time is the serial
    // run's, copy and the two waits are what `Config::timing` measured, and
    // deque/task management is the remainder. The threaded engine does not
    // time its polls (the simulator does), so `poll_share` is 0 there until
    // an issue instruments the product crates.
    for (name, _) in ENGINE_SHARES {
        let f = |r: &EngineRound| {
            let t = &r.stats.time;
            let total = r.thread_ns;
            let busy = if t.busy_ns > 0 {
                t.busy_ns as f64
            } else {
                r.serial_ns.min(total)
            };
            let measured = (t.copy_ns + t.wait_children_ns + t.steal_wait_ns + t.poll_ns) as f64;
            match name {
                "busy_share" => share(busy, total),
                "copy_share" => share(t.copy_ns as f64, total),
                "deque_share" => {
                    if t.deque_ns > 0 {
                        share(t.deque_ns as f64, total)
                    } else {
                        share((total - busy - measured).max(0.0), total)
                    }
                }
                "poll_share" => share(t.poll_ns as f64, total),
                "steal_wait_share" => share(t.steal_wait_ns as f64, total),
                "wait_children_share" => share(t.wait_children_ns as f64, total),
                other => unreachable!("undeclared engine share {other}"),
            }
        };
        out.push(Metric::median_of(format!("engine.{name}"), &per_round(&f)));
    }
    out
}

/// Paired samples of one kind of job: an instance, or a (policy, instance)
/// pair. `wall[r]` and `serial[r]` are round `r`'s wall of the system under
/// test and of `core::serial::run` on the same work.
pub struct Unit {
    pub nodes: f64,
    pub wall: Vec<f64>,
    pub serial: Vec<f64>,
}

/// The five timing metrics of a workload whose jobs are a fixed mix of
/// `units`, each run once per round. Values are built from per-unit
/// medians; the quartiles are those of the per-round series.
pub fn mix_metrics(units: &[Unit]) -> Vec<Metric> {
    let k = units.len();
    // Rounds in which every unit produced a sample (all of them, unless
    // the gate failed something).
    let full = units.iter().map(|u| u.wall.len()).min().unwrap_or(0);
    let rounds = |f: &dyn Fn(&Unit, usize) -> f64| -> Vec<f64> {
        (0..full)
            .map(|r| geomean(&units.iter().map(|u| f(u, r)).collect::<Vec<_>>()))
            .collect()
    };
    let over_units = |f: &dyn Fn(&Unit) -> f64| geomean(&units.iter().map(f).collect::<Vec<_>>());
    let ratios =
        |u: &Unit| -> Vec<f64> { u.wall.iter().zip(&u.serial).map(|(w, s)| w / s).collect() };
    // A job's latency is its unit's median wall; the percentiles are over
    // the job mix, so they are built from medians and not from a run's
    // slowest samples, which on a shared box measure the neighbour.
    let latency = |name: &str, p: f64| {
        let over_mix = |f: &dyn Fn(&Unit) -> f64| {
            percentile(&units.iter().map(f).collect::<Vec<_>>(), p) / 1e3
        };
        Metric::with_value(
            name,
            over_mix(&|u| median(&u.wall)),
            &(0..full)
                .map(|r| over_mix(&|u| u.wall[r]))
                .collect::<Vec<_>>(),
        )
    };
    vec![
        Metric::with_value(
            "ratio_to_serial",
            over_units(&|u| median(&ratios(u))),
            &rounds(&|u, r| u.wall[r] / u.serial[r]),
        ),
        Metric::with_value(
            "nodes_per_s",
            over_units(&|u| u.nodes / median(&u.wall) * 1e9),
            &rounds(&|u, r| u.nodes / u.wall[r] * 1e9),
        ),
        Metric::median_of(
            "jobs_per_s",
            &(0..full)
                .map(|r| k as f64 / units.iter().map(|u| u.wall[r]).sum::<f64>() * 1e9)
                .collect::<Vec<_>>(),
        ),
        latency("job_latency_p50_us", 0.5),
        latency("job_latency_p90_us", 0.9),
    ]
}

/// What the rounds of a traced pass accumulate, whatever the workload.
#[derive(Default)]
pub struct TracedRounds {
    engine: Vec<EngineRound>,
    /// Per round: wall of the plain, traced 1-in-16, traced exhaustively
    /// and `Config::timing` variants of the same work.
    walls: Vec<[f64; 4]>,
    overhead_ns_per_node: Vec<f64>,
    events_per_node: Vec<f64>,
    /// `trace::validate` mismatches, summed over the pass.
    pub mismatches: usize,
}

impl TracedRounds {
    /// Record one round. `overhead_ns_per_node` is thread time of the plain
    /// variant minus serial time of the same work, per node — two outside
    /// timings.
    pub fn push(
        &mut self,
        engine: EngineRound,
        walls: [f64; 4],
        overhead_ns_per_node: f64,
        events_per_node: f64,
    ) {
        self.engine.push(engine);
        self.walls.push(walls);
        self.overhead_ns_per_node.push(overhead_ns_per_node);
        self.events_per_node.push(events_per_node);
    }

    pub fn rounds(&self) -> usize {
        self.walls.len()
    }

    /// The 30 per-layer metrics a workload's own traced pass supplies.
    pub fn metrics(&self, exact: bool) -> Vec<Metric> {
        let over_plain = |variant: usize| -> Vec<f64> {
            self.walls.iter().map(|w| w[variant] / w[0] - 1.0).collect()
        };
        let stat = |f: &dyn Fn(&RunStats) -> u64| -> Vec<f64> {
            self.engine.iter().map(|r| f(&r.stats) as f64).collect()
        };
        let mut out = engine_metrics(&self.engine, exact);
        out.extend([
            Metric::median_of("engine.overhead_ns_per_node", &self.overhead_ns_per_node),
            Metric::median_of("engine.timing_overhead_share", &over_plain(3)),
            Metric::median_of("trace.overhead_share", &over_plain(1)),
            Metric::median_of("trace.overhead_share_exhaustive", &over_plain(2)),
            Metric::median_of("trace.events_per_node", &self.events_per_node),
            Metric::count("trace.validate_mismatches", self.mismatches as f64),
            Metric::median_of(
                "strategy.cutoff_adjustments",
                &stat(&|s| s.cutoff_adjustments),
            )
            .exact(exact),
            Metric::median_of(
                "strategy.threshold_adjustments",
                &stat(&|s| s.threshold_adjustments),
            )
            .exact(exact),
        ]);
        out
    }
}
