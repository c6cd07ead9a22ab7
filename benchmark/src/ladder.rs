//! The fixed part of the per-layer ladder: micro-loops and probes that do
//! not depend on the workload, run by every traced pass so that each
//! reports the whole ladder. Everything is measured from outside — timing
//! loops around public functions, or public counters read after a run.

use crate::common::{ns, Budget, Ctx};
use crate::instances::{table1, unbalanced, Instance};
use crate::jobs::{JobsWorkload, JOBS_FLOOD, JOBS_HEAVY};
use crate::metrics::Metric;
use crate::report::Gate;
use crate::stats::{geomean, median, percentile};
use adaptivetc_core::{Config, CutoffPolicy};
use adaptivetc_deque::{
    ChaseLevDeque, FenceFreeDeque, NeedTask, PoolDeque, StealOutcome, TheDeque, WsDeque,
};
use adaptivetc_runtime::submit::{JobLifecycle, PrioQueue};
use adaptivetc_runtime::{JobServer, Priority, Scheduler, ServerConfig};
use adaptivetc_sim::{simulate, simulate_traced, CostModel, Policy, SimTree};
use adaptivetc_trace::{response_time_cdf, steal_latency_cdf, TraceDiff};
use adaptivetc_workloads::fig1::Fig1Tree;
use adaptivetc_workloads::nqueens::NqueensArray;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Operations per deque burst. Each burst runs on a fresh deque: the
/// fence-free backend's publication log only shrinks on `Drop`, so an
/// open-ended loop on one deque would measure its memory growth.
const BURST: u64 = 1024;

/// How many samples a micro-loop takes.
fn samples(ctx: &Ctx) -> usize {
    if ctx.quick {
        3
    } else {
        7
    }
}

fn repeat(n: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..n).map(|_| f()).collect()
}

// ---------------------------------------------------------------------------
// deque
// ---------------------------------------------------------------------------

/// ns per owner push + matched pop.
fn push_pop<D: WsDeque<u64>>(bursts: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..bursts {
        let dq = D::with_capacity(BURST as usize);
        for i in 0..BURST {
            let _ = black_box(dq.push(black_box(i)));
            black_box(dq.pop());
        }
    }
    ns(t.elapsed()) / (bursts * BURST) as f64
}

/// ns per special-task cycle: push_special, push, pop, pop_special.
fn push_pop_special<D: WsDeque<u64>>(bursts: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..bursts {
        let dq = D::with_capacity(BURST as usize);
        for i in 0..BURST / 2 {
            let _ = black_box(dq.push_special(black_box(i)));
            let _ = black_box(dq.push(black_box(i)));
            black_box(dq.pop());
            black_box(dq.pop_special());
        }
    }
    ns(t.elapsed()) / (bursts * BURST / 2) as f64
}

/// ns per steal from a prefilled deque nobody else touches.
fn steal_uncontended<D: WsDeque<u64>>(bursts: u64) -> f64 {
    let mut total = 0.0;
    for _ in 0..bursts {
        let dq = D::with_capacity(BURST as usize);
        for i in 0..BURST {
            let _ = dq.push(i);
        }
        let t = Instant::now();
        for _ in 0..BURST {
            black_box(dq.steal());
        }
        total += ns(t.elapsed());
    }
    total / (bursts * BURST) as f64
}

/// A thief (this thread) against a live owner (one spawned thread): ns
/// per steal attempt and the share of attempts that got an entry.
fn steal_contended<D: WsDeque<u64>>(attempts: u64) -> (f64, f64) {
    let dq = D::with_capacity(4096);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            // Push two, pop one, so there is usually something to steal;
            // bounded so the fence-free log stays small.
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) && i < 4_000_000 {
                if dq.push(i).is_err() || dq.len() > 256 {
                    while dq.pop().is_some() {}
                }
                if i % 2 == 1 {
                    black_box(dq.pop());
                }
                i += 1;
            }
        });
        while dq.is_empty() {
            std::hint::spin_loop();
        }
        let mut hits = 0u64;
        let t = Instant::now();
        for _ in 0..attempts {
            if let StealOutcome::Stolen(v) = dq.steal() {
                black_box(v);
                hits += 1;
            }
        }
        let wall = ns(t.elapsed());
        stop.store(true, Ordering::Relaxed);
        (wall / attempts as f64, hits as f64 / attempts as f64)
    })
}

fn deque_backend<D: WsDeque<u64>>(ctx: &Ctx, out: &mut Vec<Metric>) {
    let _span = ctx.spans.enter("WsDeque loops", 0);
    let n = samples(ctx);
    let name = |op: &str| format!("deque.{}.{op}", D::NAME);
    out.push(Metric::median_of(
        name("push_pop_ns"),
        &repeat(n, || push_pop::<D>(32)),
    ));
    out.push(Metric::median_of(
        name("push_pop_special_ns"),
        &repeat(n, || push_pop_special::<D>(32)),
    ));
    out.push(Metric::median_of(
        name("steal_ns"),
        &repeat(n, || steal_uncontended::<D>(32)),
    ));
    let contended: Vec<(f64, f64)> = (0..n).map(|_| steal_contended::<D>(100_000)).collect();
    out.push(Metric::median_of(
        name("steal_contended_ns"),
        &contended.iter().map(|c| c.0).collect::<Vec<_>>(),
    ));
    out.push(Metric::median_of(
        name("steal_hit_share"),
        &contended.iter().map(|c| c.1).collect::<Vec<_>>(),
    ));
}

/// ns from the first failed steal to a raised and acknowledged flag:
/// threshold + 1 failures, `needs_task`, `acknowledge`.
fn signal_cycle(cycles: u32) -> f64 {
    let threshold = Config::new(1).max_stolen_num;
    let signal = NeedTask::new(threshold);
    let t = Instant::now();
    for _ in 0..cycles {
        for _ in 0..=threshold {
            black_box(signal.record_steal_failure());
        }
        assert!(
            black_box(signal.needs_task()),
            "threshold + 1 failures raise the flag"
        );
        signal.acknowledge();
    }
    ns(t.elapsed()) / f64::from(cycles)
}

fn deque_layer(ctx: &Ctx, out: &mut Vec<Metric>) {
    deque_backend::<TheDeque<u64>>(ctx, out);
    deque_backend::<ChaseLevDeque<u64>>(ctx, out);
    deque_backend::<PoolDeque<u64>>(ctx, out);
    deque_backend::<FenceFreeDeque<u64>>(ctx, out);
    out.push(Metric::median_of(
        "deque.signal.fail_to_flag_ns",
        &repeat(samples(ctx), || signal_cycle(20_000)),
    ));
}

// ---------------------------------------------------------------------------
// core, tascell, sim: interleaved passes over the eight Table-1 instances
// ---------------------------------------------------------------------------

fn table1_layers(ctx: &Ctx, seconds: f64, gate: &mut Gate, out: &mut Vec<Metric>) {
    let insts = table1(ctx.seed);
    let k = insts.len();
    let cfg = Config::new(1).seed(ctx.seed);
    let (mut serial, mut tascell, mut adaptive) = (
        vec![Vec::new(); k],
        vec![Vec::new(); k],
        vec![Vec::new(); k],
    );
    let mut nodes = vec![0u64; k];
    let budget = Budget::new(seconds, ctx.min_rounds() - 1);
    let mut pass = 0;
    while budget.more(pass) {
        for (i, inst) in insts.iter().enumerate() {
            let sample = (pass * k + i) as u64;
            let (s, expect) = {
                let _span = ctx.spans.enter("serial::run", sample);
                let t = Instant::now();
                let (out, report) = inst.serial();
                nodes[i] = report.nodes;
                (ns(t.elapsed()), out)
            };
            serial[i].push(s);
            for (scheduler, walls) in [
                (Scheduler::Tascell, &mut tascell),
                (Scheduler::AdaptiveTc, &mut adaptive),
            ] {
                let _span = ctx.spans.enter("Scheduler::run", sample);
                let t = Instant::now();
                let res = inst.run(scheduler, &cfg);
                let wall = ns(t.elapsed());
                let ok = matches!(&res, Ok((o, _)) if *o == expect);
                gate.check(ok, || {
                    format!(
                        "ladder: {scheduler} on {} gave {:?}, serial gave {expect}; {cfg:?}",
                        inst.name,
                        res.as_ref().map(|r| r.0)
                    )
                });
                if ok {
                    walls[i].push(wall);
                }
            }
        }
        pass += 1;
    }

    for (i, inst) in insts.iter().enumerate() {
        let per_node: Vec<f64> = serial[i].iter().map(|s| s / nodes[i] as f64).collect();
        out.push(Metric::median_of(
            format!("core.serial.ns_per_node.{}", inst.name),
            &per_node,
        ));
        if inst.taskprivate {
            let probes: Vec<(f64, usize)> = (0..samples(ctx))
                .map(|_| inst.clone_probe(20_000))
                .collect();
            out.push(Metric::median_of(
                format!("core.state.clone_ns.{}", inst.name),
                &probes.iter().map(|p| p.0).collect::<Vec<_>>(),
            ));
            out.push(
                Metric::count(
                    format!("core.state.bytes.{}", inst.name),
                    probes[0].1 as f64,
                )
                .exact(true),
            );
        }
    }
    let passes = |f: &dyn Fn(usize, usize) -> f64, walls: &[Vec<f64>]| -> Vec<f64> {
        let full = walls.iter().map(Vec::len).min().unwrap_or(0);
        (0..full)
            .map(|p| geomean(&(0..k).map(|i| f(i, p)).collect::<Vec<_>>()))
            .collect()
    };
    out.push(Metric::with_value(
        "tascell.ratio_to_serial",
        geomean(
            &(0..k)
                .map(|i| median(&tascell[i]) / median(&serial[i]))
                .collect::<Vec<_>>(),
        ),
        &passes(&|i, p| tascell[i][p] / serial[i][p], &tascell),
    ));

    sim_layer(ctx, &insts, &serial, &adaptive, &nodes, out);
}

/// Flatten cost, cost-model drift and the real-vs-sim trace diff.
fn sim_layer(
    ctx: &Ctx,
    insts: &[Instance],
    serial: &[Vec<f64>],
    adaptive: &[Vec<f64>],
    nodes: &[u64],
    out: &mut Vec<Metric>,
) {
    let (mut flatten, mut drift) = (Vec::new(), Vec::new());
    for (i, inst) in insts.iter().enumerate() {
        let tree = {
            let _span = ctx.spans.enter("SimTree::from_problem", i as u64);
            let t = Instant::now();
            let tree = inst.flatten();
            flatten.push(ns(t.elapsed()) / tree.len() as f64);
            tree
        };
        // The calibration `crates/bench` uses for the paper's figures: the
        // node cost is this machine's serial time per node.
        let mut cost = CostModel::calibrated();
        cost.node_ns = ((median(&serial[i]) / nodes[i] as f64) as u64).clamp(5, 100_000);
        let predicted = ctx.spans.wrap("sim::simulate", i as u64, || {
            simulate(&tree, Policy::AdaptiveTc, &Config::new(1), cost)
        });
        if !adaptive[i].is_empty() {
            drift.push(predicted.wall_ns as f64 / median(&adaptive[i]));
        }
    }
    out.push(Metric::median_of("sim.flatten_ns_per_node", &flatten));
    out.push(Metric::with_value(
        "sim.pred_over_measured_geomean",
        geomean(&drift),
        &drift,
    ));
    let worst = drift.iter().copied().fold(
        1.0f64,
        |w, d| if d.ln().abs() > w.ln().abs() { d } else { w },
    );
    out.push(Metric::with_value(
        "sim.pred_over_measured_worst",
        worst,
        &drift,
    ));

    // At one thread both sides schedule deterministically and every count
    // of the shared schema must agree.
    let cfg = Config::new(1)
        .cutoff(CutoffPolicy::Fixed(2))
        .trace(true)
        .trace_sample(1)
        .seed(ctx.seed);
    let fig1 = Fig1Tree::new();
    let mismatches = match (
        Scheduler::AdaptiveTc.run_traced(&fig1, &cfg),
        simulate_traced(
            &SimTree::from_problem(&fig1),
            Policy::AdaptiveTc,
            &cfg,
            CostModel::calibrated(),
        )
        .1,
    ) {
        (Ok((_, _, Some(real))), Some(sim)) => {
            TraceDiff::compare(&real, &sim).mismatches().len() as f64
        }
        // No trace to compare is itself a mismatch.
        _ => 1.0,
    };
    out.push(Metric::count("sim.tracediff_mismatches", mismatches).exact(true));
}

// ---------------------------------------------------------------------------
// steal path probes: two threads on one seeded unbalanced tree per shape
// ---------------------------------------------------------------------------

fn steal_probes(ctx: &Ctx, gate: &mut Gate, out: &mut Vec<Metric>) {
    let trees = unbalanced(ctx.seed);
    let cfg = Config::new(2)
        .seed(ctx.seed)
        .trace(true)
        .trace_capacity(1 << 20);
    let (mut steal50, mut steal99, mut resp50, mut resp99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut responses = Vec::new();
    for (i, inst) in trees.iter().enumerate() {
        let (expect, _) = inst.serial();
        let res = ctx.spans.wrap("Scheduler::run_traced", i as u64, || {
            inst.run_traced(Scheduler::AdaptiveTc, &cfg)
        });
        match res {
            Ok((o, _, Some(trace))) if o == expect => {
                gate.pass();
                let steal = steal_latency_cdf(&trace);
                if !steal.is_empty() {
                    steal50.push(steal.p50() as f64);
                    steal99.push(steal.p99() as f64);
                }
                let resp = response_time_cdf(&trace);
                if !resp.is_empty() {
                    resp50.push(resp.p50() as f64);
                    resp99.push(resp.p99() as f64);
                }
            }
            other => gate.fail(format!(
                "ladder: traced 2-thread {} gave {:?}, serial gave {expect}; {cfg:?}",
                inst.name,
                other.map(|r| r.0)
            )),
        }
        let plain = Config::new(2).seed(ctx.seed);
        match ctx.spans.wrap("Scheduler::run", i as u64, || {
            inst.run(Scheduler::Tascell, &plain)
        }) {
            Ok((o, report)) if o == expect => {
                gate.pass();
                responses.push(report.stats.steal_responses as f64);
            }
            other => gate.fail(format!(
                "ladder: 2-thread Tascell on {} gave {:?}, serial gave {expect}; {plain:?}",
                inst.name,
                other.map(|r| r.0)
            )),
        }
    }
    // A run in which no thief ever waited has no sample; report 0 of 0.
    let cdf = |name: &str, xs: &[f64]| {
        Metric::with_value(name, if xs.is_empty() { 0.0 } else { median(xs) }, xs)
    };
    out.push(cdf("engine.steal_latency_p50_ns", &steal50));
    out.push(cdf("engine.steal_latency_p99_ns", &steal99));
    out.push(cdf("engine.need_task_response_p50_ns", &resp50));
    out.push(cdf("engine.need_task_response_p99_ns", &resp99));
    out.push(cdf("tascell.steal_responses", &responses));
}

// ---------------------------------------------------------------------------
// runtime.server and runtime.submit
// ---------------------------------------------------------------------------

/// ns per `PrioQueue` push + pop.
fn queue_cycle(ops: u64) -> f64 {
    let q: PrioQueue<u64> = PrioQueue::with_capacity(64);
    let t = Instant::now();
    for i in 0..ops {
        let _ = black_box(q.try_push(Priority::Normal, black_box(i)));
        black_box(q.try_pop());
    }
    ns(t.elapsed()) / ops as f64
}

/// ns per `JobLifecycle`: new, claim, finish, status.
fn lifecycle_cycle(ops: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..ops {
        let l = black_box(JobLifecycle::new());
        black_box(l.claim());
        black_box(l.finish(false));
        black_box(l.status());
    }
    ns(t.elapsed()) / ops as f64
}

fn server_layer(ctx: &Ctx, gate: &mut Gate, out: &mut Vec<Metric>) {
    let n = samples(ctx);
    {
        let _span = ctx.spans.enter("PrioQueue loops", 0);
        out.push(Metric::median_of(
            "submit.queue_push_pop_ns",
            &repeat(n, || queue_cycle(50_000)),
        ));
        out.push(Metric::median_of(
            "submit.lifecycle_ns",
            &repeat(n, || lifecycle_cycle(50_000)),
        ));
    }

    let (mut spawn, mut shutdown) = (Vec::new(), Vec::new());
    for _ in 0..n {
        let t = Instant::now();
        let server = ctx
            .spans
            .wrap("JobServer::new", 0, || JobServer::new(ServerConfig::new(1)));
        spawn.push(ns(t.elapsed()) / 1e6);
        let t = Instant::now();
        ctx.spans
            .wrap("JobServer::shutdown", 0, || server.shutdown());
        shutdown.push(ns(t.elapsed()) / 1e6);
    }
    out.push(Metric::median_of("server.spawn_ms", &spawn));
    out.push(Metric::median_of("server.shutdown_ms", &shutdown));

    // A short flood for the call-level numbers the end-to-end run leaves out.
    let flood = &JOBS_FLOOD;
    let jobs = if ctx.quick { 2_000 } else { 12_000 };
    let (serial_ns, expect) = flood.serial_ns_per_job(ctx, 0);
    let server = JobServer::new(flood.server_config());
    flood.closed_loop(&server, jobs / 4, 0, false, expect, ctx, gate);
    let batch = flood.closed_loop(&server, jobs, 0, false, expect, ctx, gate);
    let rejected = server.shutdown().stats.rejected;
    let per_job = batch.wall_ns / batch.completed().max(1) as f64;
    out.push(Metric::with_value(
        "server.submit_call_p50_ns",
        percentile(&batch.submit_ns, 0.5),
        &batch.submit_ns,
    ));
    out.push(Metric::with_value(
        "server.submit_call_p99_ns",
        percentile(&batch.submit_ns, 0.99),
        &batch.submit_ns,
    ));
    let lat_us: Vec<f64> = batch.latency_ns.iter().map(|l| l / 1e3).collect();
    out.push(Metric::with_value(
        "server.latency_p99_us",
        percentile(&lat_us, 0.99),
        &lat_us,
    ));
    out.push(Metric::with_value(
        "server.latency_p999_us",
        percentile(&lat_us, 0.999),
        &lat_us,
    ));
    out.push(Metric::count(
        "server.job_overhead_us",
        (per_job - serial_ns) / 1e3,
    ));
    out.push(Metric::count("server.rejected", rejected as f64).exact(true));

    // The same jobs with a fresh `Scheduler::run` — a pool spawn and join — each.
    let solo_jobs = jobs / 8;
    let fig1 = Fig1Tree::new();
    let t = Instant::now();
    for i in 0..solo_jobs {
        let cfg = Config::new(1).seed(ctx.seed.wrapping_add(i as u64));
        let res = ctx.spans.wrap("Scheduler::run", i as u64, || {
            Scheduler::AdaptiveTc.run(&fig1, &cfg)
        });
        gate.check(matches!(&res, Ok((o, _)) if *o == expect), || {
            format!(
                "ladder: solo fig1 gave {:?}, serial gave {expect}; {cfg:?}",
                res.as_ref().map(|r| r.0)
            )
        });
    }
    let solo_per_job = ns(t.elapsed()) / solo_jobs.max(1) as f64;
    out.push(Metric::count(
        "server.pool_reuse_ratio",
        solo_per_job / per_job,
    ));

    // Heavy jobs: who joins, and what the pool costs over a solo run.
    let heavy = &JOBS_HEAVY;
    let heavy_jobs = if ctx.quick { 6 } else { 16 };
    let (_, expect) = heavy.serial_ns_per_job(ctx, 0);
    let server = JobServer::new(heavy.server_config());
    let shared = heavy.closed_loop(&server, heavy_jobs, 0, false, expect, ctx, gate);
    out.push(Metric::count(
        "server.helper_join_share",
        shared.helper_join_share(),
    ));
    // One job at a time, so each has both workers, as a solo run has both threads.
    let alone = JobsWorkload {
        window: 1,
        ..JOBS_HEAVY
    };
    let pooled = alone.closed_loop(&server, heavy_jobs, 0, false, expect, ctx, gate);
    server.shutdown();
    let problem = NqueensArray::new(11);
    let solo: Vec<f64> = (0..heavy_jobs)
        .map(|i| {
            let cfg = Config::new(2).seed(ctx.seed.wrapping_add(i as u64));
            let t = Instant::now();
            let res = ctx.spans.wrap("Scheduler::run", i as u64, || {
                Scheduler::AdaptiveTc.run(&problem, &cfg)
            });
            let wall = ns(t.elapsed());
            gate.check(matches!(&res, Ok((o, _)) if *o == expect), || {
                format!(
                    "ladder: solo nqueens gave {:?}, serial gave {expect}; {cfg:?}",
                    res.as_ref().map(|r| r.0)
                )
            });
            wall
        })
        .collect();
    let ratios: Vec<f64> = pooled
        .latency_ns
        .iter()
        .zip(&solo)
        .map(|(p, s)| p / s)
        .collect();
    out.push(Metric::with_value(
        "server.heavy_vs_solo_ratio",
        median(&pooled.latency_ns) / median(&solo),
        &ratios,
    ));
}

/// The workload-independent ladder. `seconds` bounds the Table-1 passes,
/// the one part whose length depends on the box; the rest is fixed-count.
pub fn run(ctx: &Ctx, seconds: f64, gate: &mut Gate) -> Vec<Metric> {
    let mut out = Vec::new();
    deque_layer(ctx, &mut out);
    server_layer(ctx, gate, &mut out);
    steal_probes(ctx, gate, &mut out);
    table1_layers(ctx, seconds, gate, &mut out);
    out
}
