//! Table 2: one-thread execution time relative to the sequential C program
//! — the system-overhead table. This experiment is single-threaded, so it
//! runs on the **real threaded runtime** of this repository (no
//! simulation).
//!
//! Each repetition runs the serial program and the four schedulers back to
//! back, in an order rotated by one per repetition, so a drift of the
//! host's speed lands on every column alike. A cell is the median of the
//! per-repetition ratios to that repetition's serial time, with their
//! quartiles.
//!
//! ```text
//! cargo run --release -p adaptivetc-bench --bin table2
//! ```

use adaptivetc_bench::PaperBench;
use adaptivetc_core::Config;
use adaptivetc_runtime::Scheduler;

/// Repetitions per instance: each gives every column one ratio.
const REPS: usize = 5;

const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::Tascell,
    Scheduler::Cilk,
    Scheduler::CilkSynched,
    Scheduler::AdaptiveTc,
];

/// The `q`-quantile of `xs`, interpolated between order statistics.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

fn main() {
    println!("Table 2: execution time with ONE thread, relative to the serial baseline");
    println!(
        "(per cell: median ms, median ratio [quartiles] over {REPS} repetitions of serial +\n \
         schedulers back to back, order rotated per repetition; real threaded runtime)\n"
    );
    println!(
        "{:<22} {:>9} {:>26} {:>26} {:>26} {:>26}",
        "benchmark", "serial ms", "Tascell", "Cilk", "Cilk-SYNCHED", "AdaptiveTC"
    );
    let cfg = Config::new(1);
    for bench in PaperBench::all() {
        // Fault in code and data pages.
        let _warmup = bench.run_serial();
        // Column 0 is the serial program, then `SCHEDULERS` in order; a
        // column that does not apply stays empty.
        let columns: Vec<usize> = (0..=SCHEDULERS.len())
            .filter(|&c| {
                c == 0 || SCHEDULERS[c - 1] != Scheduler::CilkSynched || bench.has_taskprivate()
            })
            .collect();
        let mut ns = vec![Vec::with_capacity(REPS); SCHEDULERS.len() + 1];
        for rep in 0..REPS {
            for i in 0..columns.len() {
                let c = columns[(i + rep) % columns.len()];
                let wall = if c == 0 {
                    bench.run_serial().1.wall_ns
                } else {
                    bench
                        .run_real(SCHEDULERS[c - 1], &cfg)
                        .expect("single-thread run succeeds")
                        .1
                        .wall_ns
                };
                ns[c].push(wall.max(1) as f64);
            }
        }
        let serial = &ns[0];
        let mut row = format!("{:<22} {:>9.1}", bench.name(), quantile(serial, 0.5) / 1e6);
        for times in &ns[1..] {
            if times.is_empty() {
                row.push_str(&format!(" {:>26}", "-"));
                continue;
            }
            let ratios: Vec<f64> = times.iter().zip(serial).map(|(t, s)| t / s).collect();
            row.push_str(&format!(
                " {:>8.1} {:>5.2} [{:.2},{:.2}]",
                quantile(times, 0.5) / 1e6,
                quantile(&ratios, 0.5),
                quantile(&ratios, 0.25),
                quantile(&ratios, 0.75),
            ));
        }
        println!("{row}");
    }
    println!(
        "\npaper's shape: AdaptiveTC ~1.0-1.5x of serial; Cilk 1.5-4x; Cilk-SYNCHED\n\
         slightly below Cilk; Tascell low overhead except vs Cilk-style costs"
    );
}
