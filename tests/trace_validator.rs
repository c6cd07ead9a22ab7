//! Differential validation of the event-tracing subsystem: the trace is
//! an independent witness of the run, so every count it implies must
//! equal the `RunStats` the engine accumulated — per worker and in
//! aggregate, for every scheduling mode — and the
//! simulator's stream must diff exactly against the threaded engine's
//! over the shared schema at one thread.

use adaptivetc_suite::core::{serial, Config, CutoffPolicy, Problem};
use adaptivetc_suite::runtime::Scheduler;
use adaptivetc_suite::sim::{simulate_traced, CostModel, Policy, SimTree};
use adaptivetc_suite::trace::{to_chrome_json, validate, EventKind, Trace, TraceDiff};
use adaptivetc_suite::workloads::fig1::Fig1Tree;
use adaptivetc_suite::workloads::nqueens::NqueensArray;

mod table1;

/// The acceptance matrix: fig1 and nqueens at thread counts with real
/// stealing, under the schedulers that exercise the distinct engine modes
/// (including plain Cilk — tracing is not an AdaptiveTC-only facility).
/// Each cell runs twice: exhaustively (`trace_sample(1)`, everything
/// exact) and at the default flight-recorder rate (hot categories become
/// lower bounds, everything unsampled must stay exact).
#[test]
fn trace_counts_equal_runstats() {
    let fig1 = Fig1Tree::new();
    let queens = NqueensArray::new(7);
    for scheduler in [
        Scheduler::AdaptiveTc,
        Scheduler::Cilk,
        Scheduler::CutoffLibrary,
    ] {
        for threads in [1usize, 2, 4] {
            for sample in [1u32, Config::new(1).trace_sample] {
                let cfg = Config::new(threads)
                    .trace(true)
                    .trace_sample(sample)
                    .max_stolen_num(2)
                    .seed(42 + threads as u64);
                for (label, trace, report) in [
                    {
                        let (out, report, trace) = scheduler
                            .run_traced(&fig1, &cfg.clone().cutoff(CutoffPolicy::Fixed(2)))
                            .expect("fig1 run");
                        assert_eq!(out, Fig1Tree::LEAVES);
                        ("fig1", trace, report)
                    },
                    {
                        let (out, report, trace) =
                            scheduler.run_traced(&queens, &cfg).expect("nqueens run");
                        assert_eq!(out, 40, "nqueens(7) solutions");
                        ("nqueens", trace, report)
                    },
                ] {
                    let trace = trace.expect("Config::trace is set");
                    assert_eq!(trace.workers.len(), threads);
                    assert_eq!(trace.total_dropped(), 0, "ring sized for the workload");
                    let mismatches = validate(&trace, &report);
                    assert!(
                        mismatches.is_empty(),
                        "{label}/{scheduler}/{threads}t/sample {sample}:\n{}",
                        mismatches
                            .iter()
                            .map(ToString::to_string)
                            .collect::<Vec<_>>()
                            .join("\n")
                    );
                }
            }
        }
    }
}

/// The count identities hold under steals: four workers and a low
/// `need_task` threshold make thieves, special tasks and pop conflicts.
#[test]
fn trace_counts_equal_runstats_copy_on_steal() {
    let queens = NqueensArray::new(7);
    let cfg = Config::new(4).trace(true).max_stolen_num(2).seed(11);
    let (out, report, trace) = Scheduler::AdaptiveTc
        .run_traced(&queens, &cfg)
        .expect("nqueens run");
    assert_eq!(out, 40);
    let trace = trace.expect("Config::trace is set");
    let mismatches = validate(&trace, &report);
    assert!(
        mismatches.is_empty(),
        "{}",
        mismatches
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Tracing stays opt-in: without `Config::trace` the engine runs
/// untraced and `run_traced` returns `None`.
#[test]
fn tracing_is_opt_in() {
    let fig1 = Fig1Tree::new();
    let (out, _, trace) = Scheduler::AdaptiveTc
        .run_traced(&fig1, &Config::new(2))
        .expect("fig1 run");
    assert_eq!(out, Fig1Tree::LEAVES);
    assert!(trace.is_none());
}

/// At one thread both engines are deterministic and emit the shared
/// schema with identical counts: the trace-vs-sim diff must be exact on
/// Figure 1 and on every Table-1 problem, for each scheduler whose events
/// the simulator models.
#[test]
fn fig1_trace_diff_real_vs_sim_is_exact() {
    struct Exact;
    impl table1::Visit for Exact {
        fn visit<P: Problem<Out = u64>>(&mut self, label: &str, problem: &P) {
            let (expected, serial_report) = serial::run(problem);
            // Room for every event of the run: the diff compares counts.
            let capacity = (4 * serial_report.nodes as usize).next_power_of_two();
            // Exhaustive on the real side: the sim's virtual-time stream
            // never samples, so an exact diff needs the threaded run
            // unsampled too.
            let cfg = Config::new(1)
                .trace(true)
                .trace_sample(1)
                .trace_capacity(capacity)
                .cutoff(CutoffPolicy::Fixed(2))
                .seed(42);
            let sim_tree = SimTree::from_problem(problem);
            for (scheduler, policy) in [
                (Scheduler::AdaptiveTc, Policy::AdaptiveTc),
                (Scheduler::CutoffLibrary, Policy::CutoffLibrary),
                (Scheduler::Cilk, Policy::Cilk),
            ] {
                let (out, _, real) = scheduler
                    .run_traced(problem, &cfg)
                    .unwrap_or_else(|e| panic!("{label}/{scheduler}: {e}"));
                assert_eq!(out, expected, "{label}/{scheduler}");
                let real = real.expect("Config::trace is set");
                let (sim_out, sim) =
                    simulate_traced(&sim_tree, policy, &cfg, CostModel::calibrated());
                assert_eq!(sim_out.leaves, sim_tree.leaf_count(), "{label}/{scheduler}");
                let sim = sim.expect("Config::trace is set");
                assert_eq!(real.total_dropped() + sim.total_dropped(), 0, "{label}");
                let diff = TraceDiff::compare(&real, &sim);
                assert!(diff.is_exact(), "{label}/{scheduler}:\n{}", diff.render());
            }
        }
    }
    table1::each(&mut Exact);
}

/// One victim rule on both engines: until a steal lands, a thief never
/// probes again the victim whose deque it just found empty (there are at
/// least three workers, so another victim is always left).
#[test]
fn a_thief_never_reprobes_the_victim_that_came_up_empty() {
    fn empties(label: &str, trace: &Trace) -> u64 {
        let mut empties = 0;
        for w in &trace.workers {
            assert_eq!(w.dropped, 0, "{label}: ring sized for the run");
            let mut last_empty = None;
            for e in &w.events {
                match e.kind {
                    EventKind::StealOk { .. } => last_empty = None,
                    EventKind::StealEmpty { victim } => {
                        assert_ne!(
                            Some(victim),
                            last_empty,
                            "{label}: worker {} probed {victim} twice running",
                            w.worker
                        );
                        last_empty = Some(victim);
                        empties += 1;
                    }
                    _ => {}
                }
            }
        }
        empties
    }
    let queens = NqueensArray::new(8);
    let cfg = |threads| {
        Config::new(threads)
            .trace(true)
            .trace_sample(1)
            .trace_capacity(1 << 18)
            .max_stolen_num(2)
            .seed(3)
    };
    let (out, _, real) = Scheduler::AdaptiveTc
        .run_traced(&queens, &cfg(4))
        .expect("nqueens run");
    assert_eq!(out, 92);
    let real = real.expect("Config::trace is set");
    let tree = SimTree::from_problem(&queens);
    let (_, sim) = simulate_traced(&tree, Policy::AdaptiveTc, &cfg(8), CostModel::calibrated());
    let sim = sim.expect("Config::trace is set");
    assert!(
        empties("sim, 8 workers", &sim) > 0,
        "the rule was exercised"
    );
    // Two vCPUs may finish a real run before a thief comes up empty; the
    // rule holds for every probe that did.
    empties("real, 4 threads", &real);
}

/// The Chrome export of a real multi-threaded run is structurally valid
/// JSON with one metadata record per worker thread.
#[test]
fn chrome_export_of_nqueens_run() {
    let queens = NqueensArray::new(7);
    let cfg = Config::new(4).trace(true).max_stolen_num(2).seed(5);
    let (_, _, trace) = Scheduler::AdaptiveTc
        .run_traced(&queens, &cfg)
        .expect("nqueens run");
    let trace = trace.expect("Config::trace is set");
    let json = to_chrome_json(&trace);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    for w in 0..4 {
        assert!(
            json.contains(&format!("\"name\":\"worker {w}\"")),
            "missing thread_name metadata for worker {w}"
        );
    }
}
