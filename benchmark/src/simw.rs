//! `sim_8w`: the simulator as a layer of its own — single-threaded and
//! deterministic, so it is the tightest row, and no runtime-only change
//! may move it.

use crate::common::{
    mix_metrics, ns, Budget, Ctx, EngineRound, TracedRounds, Unit, Workload, SETUP_REPEATS,
};
use crate::env::peak_rss_mb;
use crate::instances::{table1, table1_small, Instance};
use crate::metrics::Metric;
use crate::report::{Gate, RunOutput};
use adaptivetc_core::{Config, RunStats};
use adaptivetc_sim::{simulate, simulate_traced, CostModel, Policy, SimOutcome, SimTree};
use adaptivetc_trace::validate;
use std::time::Instant;

pub const NAME: &str = "sim_8w";

pub struct SimWorkload;

pub static SIM_8W: SimWorkload = SimWorkload;

/// Virtual workers; a fixed constant. The host runs one thread.
const WORKERS: usize = 8;

const POLICIES: [Policy; 4] = [
    Policy::AdaptiveTc,
    Policy::Cilk,
    Policy::Tascell,
    Policy::CutoffLibrary,
];

/// Instances of the traced pass: three small trees whose exhaustive
/// event streams fit the rings without a drop.
const TRACED: [&str; 3] = ["sudoku", "pentomino", "comp"];

fn flatten(inst: &Instance, ctx: &Ctx) -> SimTree {
    ctx.spans
        .wrap("SimTree::from_problem", 0, || inst.flatten())
}

fn config(ctx: &Ctx, round: usize) -> Config {
    Config::new(WORKERS).seed(ctx.seed.wrapping_add(round as u64))
}

/// One checked simulation, host-timed from outside.
fn timed_sim(
    tree: &SimTree,
    name: &str,
    policy: Policy,
    cfg: &Config,
    ctx: &Ctx,
    gate: &mut Gate,
    sample: u64,
) -> (f64, SimOutcome) {
    let _span = ctx.spans.enter("sim::simulate", sample);
    let t = Instant::now();
    let out = simulate(tree, policy, cfg, CostModel::calibrated());
    let wall = ns(t.elapsed());
    gate.check(out.leaves == tree.leaf_count(), || {
        format!(
            "{NAME}: {} on {name} visited {} leaves, the tree has {}; seed {} {cfg:?}",
            policy.name(),
            out.leaves,
            tree.leaf_count(),
            ctx.seed
        )
    });
    (wall, out)
}

fn setup(ctx: &Ctx, gate: &mut Gate) -> (f64, Vec<Instance>, Vec<SimTree>) {
    let t = Instant::now();
    // Without the two large instances: simulating them under four policies
    // takes four seconds, which would leave three rounds to a run.
    let insts = table1_small(ctx.seed);
    let trees: Vec<SimTree> = insts.iter().map(|i| flatten(i, ctx)).collect();
    // Warm-up: every policy once on the smallest tree.
    let (small, name) = trees
        .iter()
        .zip(&insts)
        .min_by_key(|(t, _)| t.len())
        .map(|(t, i)| (t, i.name))
        .expect("Table 1 is not empty");
    for policy in POLICIES {
        timed_sim(small, name, policy, &config(ctx, 0), ctx, gate, 0);
    }
    (t.elapsed().as_secs_f64(), insts, trees)
}

impl Workload for SimWorkload {
    fn name(&self) -> &'static str {
        NAME
    }

    fn why(&self) -> &'static str {
        "sim::simulate, 8 virtual workers, four policies over six flattened Table-1 trees: single-threaded and deterministic; runtime-only changes must not move it"
    }

    fn run_untraced(&self, ctx: &Ctx) -> RunOutput {
        run_untraced(ctx)
    }

    fn run_traced(&self, ctx: &Ctx, gate: &mut Gate) -> Vec<Metric> {
        run_traced(ctx, gate)
    }
}

fn run_untraced(ctx: &Ctx) -> RunOutput {
    let mut gate = Gate::default();
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (s, insts, trees) = setup(ctx, &mut gate);
        setups.push(s);
        built = Some((insts, trees));
    }
    let (insts, trees) = built.expect("SETUP_REPEATS is at least 1");

    // One unit of work is a (policy, instance) pair, policy-major.
    let mut units: Vec<Unit> = POLICIES
        .iter()
        .flat_map(|_| &trees)
        .map(|tree| Unit {
            nodes: tree.len() as f64,
            wall: Vec::new(),
            serial: Vec::new(),
        })
        .collect();
    let budget = Budget::new(ctx.seconds, ctx.min_rounds());
    let mut round = 0;
    while budget.more(round) {
        let cfg = config(ctx, round);
        for (i, (inst, tree)) in insts.iter().zip(&trees).enumerate() {
            let sample = (round * insts.len() + i) as u64;
            let serial = {
                let _span = ctx.spans.enter("serial::run", sample);
                let t = Instant::now();
                let (_, report) = inst.serial();
                let wall = ns(t.elapsed());
                gate.check(report.leaves == tree.leaf_count(), || {
                    format!(
                        "{NAME}: flattened {} has {} leaves, serial saw {}",
                        inst.name,
                        tree.leaf_count(),
                        report.leaves
                    )
                });
                wall
            };
            for (p, policy) in POLICIES.into_iter().enumerate() {
                let (wall, _) = timed_sim(tree, inst.name, policy, &cfg, ctx, &mut gate, sample);
                let unit = &mut units[p * insts.len() + i];
                unit.wall.push(wall);
                unit.serial.push(serial);
            }
        }
        round += 1;
    }

    let mut metrics = mix_metrics(&units);
    metrics.push(Metric::count("peak_rss_mb", peak_rss_mb()));
    metrics.push(Metric::median_of("setup_s", &setups));
    RunOutput {
        workload: NAME.into(),
        traced: false,
        gate,
        metrics,
    }
}

/// The traced pass, on the three `TRACED` trees. Engine counts and time
/// shares come from the simulated engine, in virtual time.
fn run_traced(ctx: &Ctx, gate: &mut Gate) -> Vec<Metric> {
    let insts: Vec<Instance> = table1(ctx.seed)
        .into_iter()
        .filter(|i| TRACED.contains(&i.name))
        .collect();
    let trees: Vec<SimTree> = insts.iter().map(|i| flatten(i, ctx)).collect();
    let cost = CostModel::calibrated();
    let budget = Budget::new(ctx.seconds, ctx.min_rounds() - 1);
    let mut rounds = TracedRounds::default();
    while budget.more(rounds.rounds()) {
        let round = rounds.rounds();
        // The same virtual run every round, so the counts repeat exactly.
        let base = config(ctx, 0);
        let mut agg = EngineRound::default();
        let mut stats = RunStats::default();
        let mut sums = [0.0f64; 4];
        let (mut events, mut traced_nodes, mut nodes) = (0usize, 0u64, 0u64);
        for (i, (inst, tree)) in insts.iter().zip(&trees).enumerate() {
            let sample = (round * insts.len() + i) as u64;
            for policy in POLICIES {
                let (wall, out) = timed_sim(tree, inst.name, policy, &base, ctx, gate, sample);
                sums[0] += wall;
                stats.merge(&out.report.stats);
                agg.serial_ns += cost.work_ns(tree.total_work()) as f64;
                agg.thread_ns += out.wall_ns as f64 * WORKERS as f64;
                nodes += tree.len() as u64;
                // The simulator never samples, so both traced variants are
                // exhaustive; Tascell's interpreter emits no events.
                for (slot, sampling) in [(1, 16u32), (2, 1)] {
                    let cfg = base
                        .clone()
                        .trace(true)
                        .trace_capacity(1 << 16)
                        .trace_sample(sampling);
                    let _span = ctx.spans.enter("sim::simulate_traced", sample);
                    let t = Instant::now();
                    let (out, trace) = simulate_traced(tree, policy, &cfg, cost);
                    sums[slot] += ns(t.elapsed());
                    gate.check(out.leaves == tree.leaf_count(), || {
                        format!(
                            "{NAME}: traced {} on {} lost leaves; seed {} {cfg:?}",
                            policy.name(),
                            inst.name,
                            ctx.seed
                        )
                    });
                    if let (16, Some(trace)) = (sampling, trace) {
                        events += trace.len();
                        traced_nodes += tree.len() as u64;
                        rounds.mismatches += validate(&trace, &out.report).len();
                    }
                }
                let (wall, _) = timed_sim(
                    tree,
                    inst.name,
                    policy,
                    &base.clone().timing(true),
                    ctx,
                    gate,
                    sample,
                );
                sums[3] += wall;
            }
        }
        agg.stats = stats;
        // Virtual worker time beyond the tree's own work, per node.
        let overhead = (agg.thread_ns - agg.serial_ns) / nodes.max(1) as f64;
        rounds.push(
            agg,
            sums,
            overhead,
            events as f64 / traced_nodes.max(1) as f64,
        );
    }
    rounds.metrics(true)
}
