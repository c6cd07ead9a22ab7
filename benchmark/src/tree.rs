//! The three tree workloads: one `Scheduler::run` per instance per round,
//! each paired with an interleaved `core::serial::run` of the same
//! instance so frequency drift cancels in the ratio.

use crate::common::{
    mix_metrics, ns, Budget, Ctx, EngineRound, TracedRounds, Unit, Workload, SETUP_REPEATS,
};
use crate::env::peak_rss_mb;
use crate::instances::{table1, table1_small, unbalanced, Instance, RunResult, TREE_SHAPES};
use crate::metrics::Metric;
use crate::report::{Gate, RunOutput};
use adaptivetc_core::{Config, RunStats};
use adaptivetc_runtime::Scheduler;
use adaptivetc_trace::validate;
use std::time::Instant;

pub struct TreeWorkload {
    pub name: &'static str,
    pub why: &'static str,
    pub scheduler: Scheduler,
    /// A fixed constant, never derived from `nproc`.
    pub threads: usize,
    /// Seeded unbalanced trees instead of the Table-1 instances.
    pub unbalanced: bool,
    /// Ring slots per worker for traced runs: enough that no sampled run of
    /// the traced pass drops an event, which `trace::validate` needs, and no
    /// more, because zeroing a ring is part of what a short traced run costs.
    pub trace_capacity: usize,
}

pub static TABLE2_1T: TreeWorkload = TreeWorkload {
    name: "table2_1t",
    why: "AdaptiveTC at 1 thread on the eight Table-1 instances: nearly every node is a fake task, so the spawn path and Problem::expand do the work and the deque idles",
    scheduler: Scheduler::AdaptiveTc,
    threads: 1,
    unbalanced: false,
    trace_capacity: 1 << 17,
};

pub static CILK_1T: TreeWorkload = TreeWorkload {
    name: "cilk_1t",
    why: "Cilk at 1 thread on the same instances: a task, a frame and a workspace copy per spawn, so deque owner ops, frames and copies do the work and the FSM none",
    scheduler: Scheduler::Cilk,
    threads: 1,
    unbalanced: false,
    trace_capacity: 1 << 17,
};

pub static STEAL_2T: TreeWorkload = TreeWorkload {
    name: "steal_2t",
    why: "AdaptiveTC at 2 threads on seeded unbalanced trees: the thief side of the deques - steals, need_task, special tasks, copy-on-steal",
    scheduler: Scheduler::AdaptiveTc,
    threads: 2,
    unbalanced: true,
    // `tree3` logs a saved-copy event per real task: up to 200 000 a worker.
    trace_capacity: 1 << 19,
};

/// Tree seeds a run cycles through, one per round.
const TREE_SEEDS: u64 = 10;

impl TreeWorkload {
    /// The round's inputs. Table-1 instances are the same every round;
    /// unbalanced trees take the round's seed.
    fn instances(&self, ctx: &Ctx, round: usize, small: bool) -> Vec<Instance> {
        if self.unbalanced {
            unbalanced(ctx.seed.wrapping_mul(TREE_SEEDS) + round as u64 % TREE_SEEDS)
        } else if small {
            table1_small(ctx.seed)
        } else {
            table1(ctx.seed)
        }
    }

    fn config(&self, ctx: &Ctx, round: usize) -> Config {
        Config::new(self.threads).seed(ctx.seed.wrapping_add(round as u64))
    }

    /// One parallel run, timed from outside, then checked against the
    /// serial result. `None` on a failure, which the gate has then counted.
    fn timed_run(&self, inst: &Instance, cfg: &Config, ctx: &Ctx, sample: u64) -> (f64, RunResult) {
        let _span = ctx.spans.enter("Scheduler::run", sample);
        let t = Instant::now();
        let res = inst.run(self.scheduler, cfg);
        (ns(t.elapsed()), res)
    }

    fn checked(
        &self,
        inst: &Instance,
        cfg: &Config,
        run: (f64, RunResult),
        expect: u64,
        gate: &mut Gate,
        ctx: &Ctx,
    ) -> Option<(f64, RunStats)> {
        match run {
            (wall, Ok((out, report))) if out == expect => {
                gate.pass();
                Some((wall, report.stats))
            }
            (_, other) => {
                gate.fail(format!(
                    "{}: {} gave {:?}, serial gave {expect}; seed {} {cfg:?}",
                    self.name,
                    inst.name,
                    other.map(|r| r.0),
                    ctx.seed
                ));
                None
            }
        }
    }

    fn timed_serial(inst: &Instance, ctx: &Ctx, sample: u64) -> (f64, u64, u64) {
        let _span = ctx.spans.enter("serial::run", sample);
        let t = Instant::now();
        let (out, report) = inst.serial();
        (ns(t.elapsed()), out, report.nodes)
    }

    /// Instance construction plus a fixed-count warm-up: the small
    /// instances once each, serial and parallel.
    fn setup(&self, ctx: &Ctx, gate: &mut Gate) -> f64 {
        let t = Instant::now();
        let warm = self.instances(ctx, 0, true);
        let _all = self.instances(ctx, 0, false);
        for inst in &warm {
            let (_, expect, _) = Self::timed_serial(inst, ctx, 0);
            let cfg = self.config(ctx, 0);
            let run = self.timed_run(inst, &cfg, ctx, 0);
            self.checked(inst, &cfg, run, expect, gate, ctx);
        }
        t.elapsed().as_secs_f64()
    }
}

impl Workload for TreeWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn run_untraced(&self, ctx: &Ctx) -> RunOutput {
        let mut gate = Gate::default();
        let setup: Vec<f64> = (0..SETUP_REPEATS)
            .map(|_| self.setup(ctx, &mut gate))
            .collect();

        let fixed = (!self.unbalanced).then(|| self.instances(ctx, 0, false));
        let k = fixed.as_ref().map_or(TREE_SHAPES.len(), Vec::len);
        let mut units: Vec<Unit> = (0..k)
            .map(|_| Unit {
                nodes: 0.0,
                wall: Vec::new(),
                serial: Vec::new(),
            })
            .collect();
        let budget = Budget::new(ctx.seconds, ctx.min_rounds());
        let mut round = 0;
        while budget.more(round) {
            let seeded;
            let insts = match &fixed {
                Some(f) => f,
                None => {
                    seeded = self.instances(ctx, round, false);
                    &seeded
                }
            };
            let cfg = self.config(ctx, round);
            for (i, inst) in insts.iter().enumerate() {
                let sample = (round * k + i) as u64;
                // Alternate which side goes first, so neither always runs
                // on the caches the other left.
                let serial_first = round % 2 == 0;
                let mut reference = serial_first.then(|| Self::timed_serial(inst, ctx, sample));
                let run = self.timed_run(inst, &cfg, ctx, sample);
                let (s, expect, n) = reference
                    .take()
                    .unwrap_or_else(|| Self::timed_serial(inst, ctx, sample));
                units[i].nodes = n as f64;
                if let Some((p, _)) = self.checked(inst, &cfg, run, expect, &mut gate, ctx) {
                    units[i].serial.push(s);
                    units[i].wall.push(p);
                }
            }
            round += 1;
        }

        let mut metrics = mix_metrics(&units);
        metrics.push(Metric::count("peak_rss_mb", peak_rss_mb()));
        metrics.push(Metric::median_of("setup_s", &setup));
        RunOutput {
            workload: self.name.into(),
            traced: false,
            gate,
            metrics,
        }
    }

    /// Per round and instance: serial, plain, traced at the default 1-in-16
    /// sampling, traced exhaustively, and with `Config::timing`; the large
    /// instances are left out ("fewer samples").
    fn run_traced(&self, ctx: &Ctx, gate: &mut Gate) -> Vec<Metric> {
        let budget = Budget::new(ctx.seconds, ctx.min_rounds() - 1);
        let mut rounds = TracedRounds::default();
        while budget.more(rounds.rounds()) {
            let round = rounds.rounds();
            let insts = self.instances(ctx, round, true);
            let base = self.config(ctx, round);
            let mut agg = EngineRound::default();
            let mut sums = [0.0f64; 5];
            let (mut events, mut nodes) = (0usize, 0u64);
            for (i, inst) in insts.iter().enumerate() {
                let sample = (round * insts.len() + i) as u64;
                let (s, expect, n) = Self::timed_serial(inst, ctx, sample);
                nodes += n;
                sums[0] += s;
                let run = self.timed_run(inst, &base, ctx, sample);
                if let Some((p, _)) = self.checked(inst, &base, run, expect, gate, ctx) {
                    sums[1] += p;
                }
                for (slot, sampling) in [(2, 16u32), (3, 1)] {
                    let cfg = base
                        .clone()
                        .trace(true)
                        .trace_capacity(self.trace_capacity)
                        .trace_sample(sampling);
                    let _span = ctx.spans.enter("Scheduler::run_traced", sample);
                    let t = Instant::now();
                    let res = inst.run_traced(self.scheduler, &cfg);
                    sums[slot] += ns(t.elapsed());
                    match res {
                        Ok((out, report, trace)) if out == expect => {
                            gate.pass();
                            if let (16, Some(trace)) = (sampling, trace) {
                                events += trace.len();
                                rounds.mismatches += validate(&trace, &report).len();
                            }
                        }
                        other => gate.fail(format!(
                            "{}: traced {} gave {:?}, serial {expect}; seed {} {cfg:?}",
                            self.name,
                            inst.name,
                            other.map(|r| r.0),
                            ctx.seed
                        )),
                    }
                }
                let cfg = base.clone().timing(true);
                let run = self.timed_run(inst, &cfg, ctx, sample);
                if let Some((p, stats)) = self.checked(inst, &cfg, run, expect, gate, ctx) {
                    sums[4] += p;
                    agg.stats.merge(&stats);
                    agg.serial_ns += s;
                    agg.thread_ns += p * self.threads as f64;
                }
            }
            let [serial, plain, traced, exhaustive, timed] = sums;
            rounds.push(
                agg,
                [plain, traced, exhaustive, timed],
                (plain * self.threads as f64 - serial) / nodes.max(1) as f64,
                events as f64 / nodes.max(1) as f64,
            );
        }
        rounds.metrics(self.threads == 1)
    }
}
