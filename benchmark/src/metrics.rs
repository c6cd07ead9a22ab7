//! Every metric the benchmark reports, declared once: name, unit,
//! direction and — for end-to-end metrics — the regression bound.
//! `BENCHMARK.json` is generated from this table (`declare` subcommand)
//! and a test keeps the committed file equal to it.

use crate::common::Workload;
use crate::instances::TABLE1;
use crate::json::Json;
use crate::stats::{median, quartiles};
use adaptivetc_core::DequeBackend;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Decl {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// Run length the driver passes as `--seconds`.
pub const RUN_SECONDS: u32 = 12;

fn d(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Decl {
    Decl {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end() -> Vec<Decl> {
    use Better::*;
    vec![
        // One bound per metric for all six workloads, so each is set by the
        // noisiest of them (`steal_2t`): at least three times the ten-seed
        // spread seen on the 2-vCPU shared box this was sized on.
        d("ratio_to_serial", "x", Lower, Some(0.20)),
        d("nodes_per_s", "nodes/s", Higher, Some(0.24)),
        d("jobs_per_s", "jobs/s", Higher, Some(0.24)),
        d("job_latency_p50_us", "us", Lower, Some(0.24)),
        d("job_latency_p90_us", "us", Lower, Some(0.24)),
        d("peak_rss_mb", "MiB", Lower, Some(0.24)),
        d("setup_s", "s", Lower, Some(0.25)),
    ]
}

pub const DEQUE_OPS: [(&str, &str, Better); 5] = [
    ("push_pop_ns", "ns", Better::Lower),
    ("push_pop_special_ns", "ns", Better::Lower),
    ("steal_ns", "ns", Better::Lower),
    ("steal_contended_ns", "ns", Better::Lower),
    ("steal_hit_share", "fraction", Better::Higher),
];

/// `RunStats` counts, normalised where a rate says more than a total.
pub const ENGINE_COUNTS: [(&str, &str, Better); 16] = [
    ("tasks_per_knode", "1/knode", Better::Lower),
    ("fake_share", "fraction", Better::Higher),
    ("special_tasks", "count", Better::Lower),
    ("copies_per_knode", "1/knode", Better::Lower),
    ("copy_bytes_per_node", "B/node", Better::Lower),
    ("copies_saved_share", "fraction", Better::Higher),
    ("frame_reuse_share", "fraction", Better::Higher),
    ("state_reuse_share", "fraction", Better::Higher),
    ("polls_per_node", "1/node", Better::Lower),
    ("steals_ok", "count", Better::Higher),
    ("steal_hit_share", "fraction", Better::Higher),
    ("pop_conflicts", "count", Better::Lower),
    ("suspensions", "count", Better::Lower),
    ("steal_backoffs", "count", Better::Lower),
    ("deque_peak", "count", Better::Lower),
    ("deque_overflows", "count", Better::Lower),
];

pub const ENGINE_SHARES: [(&str, Better); 6] = [
    ("busy_share", Better::Higher),
    ("copy_share", Better::Lower),
    ("deque_share", Better::Lower),
    ("poll_share", Better::Lower),
    ("steal_wait_share", Better::Lower),
    ("wait_children_share", Better::Lower),
];

/// The per-layer ladder, reported by every workload's traced run.
pub fn per_layer() -> Vec<Decl> {
    use Better::*;
    let mut v = Vec::new();
    for b in DequeBackend::ALL {
        for (op, unit, better) in DEQUE_OPS {
            v.push(d(format!("deque.{}.{op}", b.name()), unit, better, None));
        }
    }
    v.push(d("deque.signal.fail_to_flag_ns", "ns", Lower, None));
    for inst in TABLE1 {
        v.push(d(
            format!("core.serial.ns_per_node.{inst}"),
            "ns",
            Lower,
            None,
        ));
    }
    for inst in TABLE1.iter().filter(|i| !matches!(**i, "fib" | "comp")) {
        v.push(d(format!("core.state.clone_ns.{inst}"), "ns", Lower, None));
        v.push(d(format!("core.state.bytes.{inst}"), "B", Lower, None));
    }
    for (name, unit, better) in ENGINE_COUNTS {
        v.push(d(format!("engine.{name}"), unit, better, None));
    }
    for (name, better) in ENGINE_SHARES {
        v.push(d(format!("engine.{name}"), "fraction", better, None));
    }
    v.push(d("engine.overhead_ns_per_node", "ns", Lower, None));
    v.push(d("engine.timing_overhead_share", "fraction", Lower, None));
    v.push(d("engine.steal_latency_p50_ns", "ns", Lower, None));
    v.push(d("engine.steal_latency_p99_ns", "ns", Lower, None));
    v.push(d("engine.need_task_response_p50_ns", "ns", Lower, None));
    v.push(d("engine.need_task_response_p99_ns", "ns", Lower, None));
    v.push(d("tascell.ratio_to_serial", "x", Lower, None));
    v.push(d("tascell.steal_responses", "count", Higher, None));
    v.push(d("server.submit_call_p50_ns", "ns", Lower, None));
    v.push(d("server.submit_call_p99_ns", "ns", Lower, None));
    v.push(d("server.latency_p99_us", "us", Lower, None));
    v.push(d("server.latency_p999_us", "us", Lower, None));
    v.push(d("server.job_overhead_us", "us", Lower, None));
    v.push(d("server.pool_reuse_ratio", "x", Higher, None));
    v.push(d("server.spawn_ms", "ms", Lower, None));
    v.push(d("server.shutdown_ms", "ms", Lower, None));
    v.push(d("server.rejected", "count", Lower, None));
    v.push(d("server.helper_join_share", "fraction", Higher, None));
    v.push(d("server.heavy_vs_solo_ratio", "x", Lower, None));
    v.push(d("submit.queue_push_pop_ns", "ns", Lower, None));
    v.push(d("submit.lifecycle_ns", "ns", Lower, None));
    v.push(d("trace.overhead_share", "fraction", Lower, None));
    v.push(d(
        "trace.overhead_share_exhaustive",
        "fraction",
        Lower,
        None,
    ));
    v.push(d("trace.events_per_node", "1/node", Lower, None));
    v.push(d("trace.validate_mismatches", "count", Lower, None));
    v.push(d("sim.flatten_ns_per_node", "ns", Lower, None));
    v.push(d("sim.pred_over_measured_geomean", "x", Lower, None));
    v.push(d("sim.pred_over_measured_worst", "x", Lower, None));
    v.push(d("sim.tracediff_mismatches", "count", Lower, None));
    v.push(d("strategy.cutoff_adjustments", "count", Lower, None));
    v.push(d("strategy.threshold_adjustments", "count", Lower, None));
    v
}

/// The `BENCHMARK.json` this table declares.
pub fn benchmark_json(workloads: &[&dyn Workload]) -> Json {
    let decl = |x: &Decl| {
        let mut pairs = vec![
            ("name", Json::str(x.name.clone())),
            ("unit", Json::str(x.unit)),
            ("better", Json::str(x.better.name())),
        ];
        if let Some(b) = x.bound {
            pairs.push(("bound", Json::num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                workloads
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::str(w.name())),
                            ("why", Json::str(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(decl).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(decl).collect()),
        ),
    ])
}

/// One measured metric: the value, and the spread of the per-round
/// samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Median of the samples; equal to `value` unless the value is
    /// aggregated some other way.
    pub median: f64,
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
    /// A count that repeats exactly on this workload; the only kind of
    /// layer number a later claim may rest on.
    pub exact: bool,
}

impl Metric {
    /// The median of `samples`, with their quartiles.
    pub fn median_of(name: impl Into<String>, samples: &[f64]) -> Metric {
        Metric::with_value(name, median(samples), samples)
    }

    /// A value aggregated some other way than a plain median (a geomean of
    /// per-instance medians, a p90), with the spread of `samples`.
    pub fn with_value(name: impl Into<String>, value: f64, samples: &[f64]) -> Metric {
        let (q1, q3) = quartiles(samples);
        Metric {
            name: name.into(),
            value,
            median: median(samples),
            n: samples.len(),
            q1,
            q3,
            exact: false,
        }
    }

    /// A count read once.
    pub fn count(name: impl Into<String>, value: f64) -> Metric {
        Metric::with_value(name, value, &[value])
    }

    pub fn exact(mut self, exact: bool) -> Metric {
        self.exact = exact;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ladder_has_94_rungs_with_legal_names() {
        let layer = per_layer();
        assert_eq!(layer.len(), 94);
        let e2e = end_to_end();
        assert!(e2e.len() <= 16 && layer.len() <= 128);
        let mut names: Vec<&str> = layer.iter().chain(&e2e).map(|x| x.name.as_str()).collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 94 + e2e.len());
        assert!(e2e.iter().all(|x| x.bound.is_some_and(|b| b <= 0.25)));
        let setup = e2e.iter().find(|x| x.name == "setup_s").unwrap();
        assert!(e2e.iter().all(|x| x.bound <= setup.bound));
    }
}
