//! Where a result came from: the machine, the build and the clock.

use crate::json::Json;
use std::process::Command;

/// Cores the harness needs: no workload ever has more than two runnable
/// threads, and none may have fewer cores than that.
pub const MIN_CORES: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Refuse to measure where the numbers would mean something else.
pub fn check_host() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("debug build: the benchmark measures release builds only".into());
    }
    let n = nproc();
    if n < MIN_CORES {
        return Err(format!(
            "{n} core(s) available: the workloads are sized for two runnable threads and need at least {MIN_CORES}"
        ));
    }
    Ok(())
}

fn first_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// The environment fingerprint written into every result file.
pub fn fingerprint(build_s: Option<f64>, seed: u64, seconds: f64, quick: bool) -> Json {
    // A driver's checkout is not a git repository; say so instead of failing.
    let commit = first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = first_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::num(nproc() as f64)),
        ("git_commit", Json::str(commit)),
        ("rustc", Json::str(rustc)),
        ("build_s", build_s.map_or(Json::Null, Json::num)),
        (
            "trace_clock_backend",
            Json::str(adaptivetc_trace::TraceClock::start().backend()),
        ),
        (
            "cargo_features",
            Json::Arr(vec![
                Json::str("adaptivetc-runtime/trace"),
                Json::str("adaptivetc-sim/trace"),
            ]),
        ),
        ("profile", Json::str("release")),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("quick", Json::Bool(quick)),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), the memory metric.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
