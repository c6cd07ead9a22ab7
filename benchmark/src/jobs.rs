//! The two server workloads: a closed loop of `JobServer::submit` →
//! `JobHandle::wait` from one client thread, timed on the client's clock.
//!
//! `jobs_flood` runs 1 pool worker and 1 client; `jobs_heavy` runs 2 pool
//! workers and a client that is blocked in `wait` — never more than two
//! runnable threads.

use crate::common::{ns, Budget, Ctx, EngineRound, TracedRounds, Workload, SETUP_REPEATS};
use crate::env::peak_rss_mb;
use crate::metrics::Metric;
use crate::report::{Gate, RunOutput};
use crate::spans::Spans;
use crate::stats::percentile_sorted;
use adaptivetc_core::{serial, Config, Problem, RunReport, RunStats};
use adaptivetc_runtime::{JobOutcome, JobServer, Mode, Priority, ServerConfig};
use adaptivetc_trace::validate_concurrent;
use adaptivetc_workloads::fig1::Fig1Tree;
use adaptivetc_workloads::nqueens::NqueensArray;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

pub struct JobsWorkload<P> {
    pub name: &'static str,
    pub why: &'static str,
    /// Pool worker threads; a fixed constant, never derived from `nproc`.
    pub workers: usize,
    pub work_sharing: bool,
    /// Jobs the client keeps in flight.
    pub window: usize,
    /// `Config::threads` of each job (its slot count).
    pub job_threads: usize,
    pub jobs_per_round: usize,
    /// Jobs per server in the traced pass, which starts four servers a round.
    pub traced_jobs: usize,
    pub warmup_jobs: usize,
    /// Serial runs timed together as one reference sample, so a
    /// microsecond-sized job is not timed by a single clock read.
    pub serial_batch: usize,
    pub make: fn() -> P,
}

pub static JOBS_FLOOD: JobsWorkload<Fig1Tree> = JobsWorkload {
    name: "jobs_flood",
    why: "JobServer, 1 worker, one client keeping 32 tiny Fig1Tree jobs in flight: per-job cost of submit, claim and terminal; the tree work is negligible",
    workers: 1,
    work_sharing: false,
    window: 32,
    job_threads: 1,
    jobs_per_round: 10_000,
    traced_jobs: 2_000,
    warmup_jobs: 5_000,
    serial_batch: 15_000,
    make: Fig1Tree::new,
};

fn nqueens11() -> NqueensArray {
    NqueensArray::new(11)
}

pub static JOBS_HEAVY: JobsWorkload<NqueensArray> = JobsWorkload {
    name: "jobs_heavy",
    why: "JobServer, 2 workers with work sharing, 2 two-slot NqueensArray(11) jobs in flight: slot board, helper join and a per-job engine region on the steal path",
    workers: 2,
    work_sharing: true,
    window: 2,
    job_threads: 2,
    jobs_per_round: 40,
    traced_jobs: 12,
    warmup_jobs: 10,
    serial_batch: 1,
    make: nqueens11,
};

/// What one closed-loop batch of jobs measured.
#[derive(Default)]
pub struct Batch {
    /// Client clock, first `submit` to last `wait` return.
    pub wall_ns: f64,
    /// Client clock, `submit` call to `wait` return, per completed job.
    pub latency_ns: Vec<f64>,
    /// Duration of the `submit` call alone, per job.
    pub submit_ns: Vec<f64>,
    /// `(job id, report)` of every completed job.
    pub reports: Vec<(u32, RunReport)>,
}

impl Batch {
    pub fn completed(&self) -> usize {
        self.latency_ns.len()
    }

    pub fn nodes(&self) -> u64 {
        self.reports.iter().map(|(_, r)| r.stats.nodes).sum()
    }

    pub fn merged_stats(&self) -> RunStats {
        let mut s = RunStats::default();
        for (_, r) in &self.reports {
            s.merge(&r.stats);
        }
        s
    }

    /// Share of jobs in which a slot beyond the lead executed nodes.
    pub fn helper_join_share(&self) -> f64 {
        let joined = self
            .reports
            .iter()
            .filter(|(_, r)| r.per_worker.iter().skip(1).any(|w| w.nodes > 0))
            .count();
        joined as f64 / self.reports.len().max(1) as f64
    }
}

impl<P: Problem<Out = u64> + 'static> JobsWorkload<P> {
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::new(self.workers).work_sharing(self.work_sharing)
    }

    fn job_config(&self, ctx: &Ctx, job: u64) -> Config {
        Config::new(self.job_threads).seed(ctx.seed.wrapping_add(job))
    }

    /// Keep `window` jobs in flight until `jobs` have completed, checking
    /// every outcome against `expect`. Rejections, cancellations and wrong
    /// results are failures of the gate.
    #[allow(clippy::too_many_arguments)]
    pub fn closed_loop(
        &self,
        server: &JobServer,
        jobs: usize,
        first_job: u64,
        timing: bool,
        expect: u64,
        ctx: &Ctx,
        gate: &mut Gate,
    ) -> Batch {
        let mut batch = Batch::default();
        let mut inflight = VecDeque::with_capacity(self.window);
        let spans: &Spans = ctx.spans;
        let (mut submitted, mut done) = (0usize, 0usize);
        let t0 = Instant::now();
        while done < jobs {
            while inflight.len() < self.window && submitted < jobs {
                let job = first_job + submitted as u64;
                let cfg = self.job_config(ctx, job).timing(timing);
                submitted += 1;
                let _span = spans.enter("JobServer::submit", job);
                let t = Instant::now();
                match server.submit((self.make)(), cfg, Mode::Adaptive, Priority::Normal) {
                    Ok(handle) => {
                        batch.submit_ns.push(ns(t.elapsed()));
                        inflight.push_back((t, job, handle));
                    }
                    Err(e) => {
                        done += 1;
                        gate.fail(format!(
                            "{}: job {job} rejected: {e}; seed {}",
                            self.name, ctx.seed
                        ));
                    }
                }
            }
            let Some((t, job, handle)) = inflight.pop_front() else {
                continue;
            };
            let id = handle.id() as u32;
            let outcome = spans.wrap("JobHandle::wait", job, || handle.wait());
            let latency = ns(t.elapsed());
            done += 1;
            match outcome {
                JobOutcome::Completed { out, report } if out == expect => {
                    gate.pass();
                    batch.latency_ns.push(latency);
                    batch.reports.push((id, report));
                }
                JobOutcome::Completed { out, .. } => gate.fail(format!(
                    "{}: job {job} returned {out}, serial gave {expect}; seed {} {:?}",
                    self.name,
                    ctx.seed,
                    self.job_config(ctx, job)
                )),
                JobOutcome::Cancelled { .. } => gate.fail(format!(
                    "{}: job {job} was cancelled though nobody cancelled it; seed {}",
                    self.name, ctx.seed
                )),
            }
        }
        batch.wall_ns = ns(t0.elapsed());
        batch
    }

    /// Serial wall of one job's tree, from a timed batch of `serial::run`.
    pub fn serial_ns_per_job(&self, ctx: &Ctx, sample: u64) -> (f64, u64) {
        let problem = (self.make)();
        let _span = ctx.spans.enter("serial::run", sample);
        let t = Instant::now();
        let mut out = 0;
        for _ in 0..self.serial_batch {
            out = black_box(serial::run(black_box(&problem))).0;
        }
        (ns(t.elapsed()) / self.serial_batch as f64, out)
    }

    fn spawn(&self, ctx: &Ctx, cfg: ServerConfig) -> JobServer {
        ctx.spans.wrap("JobServer::new", 0, || JobServer::new(cfg))
    }
}

impl<P: Problem<Out = u64> + 'static> Workload for JobsWorkload<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn run_untraced(&self, ctx: &Ctx) -> RunOutput {
        let mut gate = Gate::default();
        let (_, expect) = self.serial_ns_per_job(ctx, 0);

        // Pool spawn plus a fixed-count warm-up, several times over; the
        // last pool is the one measured.
        let mut setup = Vec::new();
        let mut server = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(old) = server.take() {
                JobServer::shutdown(old);
            }
            let t = Instant::now();
            let s = self.spawn(ctx, self.server_config());
            self.closed_loop(&s, self.warmup_jobs, 0, false, expect, ctx, &mut gate);
            setup.push(t.elapsed().as_secs_f64());
            server = Some(s);
        }
        let server = server.expect("SETUP_REPEATS is at least 1");

        let (mut ratio, mut nodes_per_s, mut jobs_per_s, mut p50, mut p90) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let budget = Budget::new(ctx.seconds, ctx.min_rounds());
        let mut round = 0;
        while budget.more(round) {
            let first = (round * self.jobs_per_round) as u64;
            let mut batch = self.closed_loop(
                &server,
                self.jobs_per_round,
                first,
                false,
                expect,
                ctx,
                &mut gate,
            );
            // The pool is drained here, so the reference runs alone.
            let (serial_ns, _) = self.serial_ns_per_job(ctx, round as u64);
            if batch.completed() > 0 {
                let per_job = batch.wall_ns / batch.completed() as f64;
                ratio.push(per_job / serial_ns);
                nodes_per_s.push(batch.nodes() as f64 / batch.wall_ns * 1e9);
                jobs_per_s.push(1e9 / per_job);
                batch.latency_ns.sort_by(f64::total_cmp);
                p50.push(percentile_sorted(&batch.latency_ns, 0.5) / 1e3);
                p90.push(percentile_sorted(&batch.latency_ns, 0.9) / 1e3);
            }
            round += 1;
        }
        let report = ctx
            .spans
            .wrap("JobServer::shutdown", 0, || server.shutdown());
        gate.check(
            report.stats.rejected == 0 && report.stats.cancelled == 0,
            || {
                format!(
                    "{}: server counted {:?}; seed {}",
                    self.name, report.stats, ctx.seed
                )
            },
        );

        RunOutput {
            workload: self.name.into(),
            traced: false,
            gate,
            metrics: vec![
                Metric::median_of("ratio_to_serial", &ratio),
                Metric::median_of("nodes_per_s", &nodes_per_s),
                Metric::median_of("jobs_per_s", &jobs_per_s),
                Metric::median_of("job_latency_p50_us", &p50),
                Metric::median_of("job_latency_p90_us", &p90),
                Metric::count("peak_rss_mb", peak_rss_mb()),
                Metric::median_of("setup_s", &setup),
            ],
        }
    }

    /// Per round, four fresh pools run the same batch — plain, traced
    /// 1-in-16, traced exhaustively, and with per-job `Config::timing` —
    /// after a serial reference.
    fn run_traced(&self, ctx: &Ctx, gate: &mut Gate) -> Vec<Metric> {
        let (_, expect) = self.serial_ns_per_job(ctx, 0);
        let budget = Budget::new(ctx.seconds, ctx.min_rounds() - 1);
        let mut rounds = TracedRounds::default();
        while budget.more(rounds.rounds()) {
            let round = rounds.rounds();
            let first = (round * self.traced_jobs) as u64;
            let (serial_ns, _) = self.serial_ns_per_job(ctx, round as u64);
            let variant = |trace: Option<u32>, timing: bool, gate: &mut Gate| {
                let mut cfg = self.server_config();
                if let Some(sample) = trace {
                    cfg = cfg.trace(true).trace_sample(sample);
                    // No drops: `validate_concurrent` needs every event.
                    cfg.trace_capacity = 1 << 20;
                }
                let server = self.spawn(ctx, cfg);
                let batch =
                    self.closed_loop(&server, self.traced_jobs, first, timing, expect, ctx, gate);
                let report = ctx
                    .spans
                    .wrap("JobServer::shutdown", 0, || server.shutdown());
                (batch, report.trace)
            };
            let (b_plain, _) = variant(None, false, gate);
            let (b_traced, trace) = variant(Some(16), false, gate);
            let (b_exh, _) = variant(Some(1), false, gate);
            let (b_timed, _) = variant(None, true, gate);

            // A pool built without the trace feature reports no trace;
            // then there is nothing to validate and no event to count.
            let mut events_per_node = 0.0;
            if let Some(trace) = trace {
                let jobs: Vec<(u32, &RunReport)> =
                    b_traced.reports.iter().map(|(id, r)| (*id, r)).collect();
                rounds.mismatches += validate_concurrent(&trace, &jobs).len();
                events_per_node = trace.len() as f64 / b_traced.nodes().max(1) as f64;
            }
            rounds.push(
                EngineRound {
                    serial_ns: serial_ns * b_timed.completed() as f64,
                    thread_ns: b_timed
                        .reports
                        .iter()
                        .map(|(_, r)| r.wall_ns as f64 * r.threads as f64)
                        .sum(),
                    stats: b_timed.merged_stats(),
                },
                [
                    b_plain.wall_ns,
                    b_traced.wall_ns,
                    b_exh.wall_ns,
                    b_timed.wall_ns,
                ],
                // Pool thread time minus the serial time of the same jobs.
                (b_plain.wall_ns * self.workers as f64 - serial_ns * b_plain.completed() as f64)
                    / b_plain.nodes().max(1) as f64,
                events_per_node,
            );
        }
        rounds.metrics(false)
    }
}
