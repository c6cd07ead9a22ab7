//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! bash benchmark/run.sh                       # every workload, both passes
//! bash benchmark/run.sh --workload steal_2t --seed 3 --seconds 12 --trace 0
//! bash benchmark/run.sh compare A.json B.json
//! ```

use adaptivetc_benchmark::common::Ctx;
use adaptivetc_benchmark::json::{self, Json};
use adaptivetc_benchmark::metrics::{self, end_to_end, per_layer, RUN_SECONDS};
use adaptivetc_benchmark::report::{Gate, RunOutput};
use adaptivetc_benchmark::spans::Spans;
use adaptivetc_benchmark::{compare, env, ladder, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  adaptivetc-benchmark [--seed N] [--seconds S] [--quick] [--reverse] [--out FILE]
      run every workload, tracing off then traced, and write FILE
      (default benchmark/out/result.json)
  adaptivetc-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      run one pass of one workload; the last line of output is its result
  adaptivetc-benchmark compare A.json B.json
  adaptivetc-benchmark declare
      print the BENCHMARK.json this build declares";

/// The share of a traced run's seconds its two time-boxed parts get; the
/// fixed-count ladder loops take the rest.
const TRACED_PASS_SHARE: f64 = 0.4;
const LADDER_PASS_SHARE: f64 = 0.25;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    reverse: bool,
    build_s: Option<f64>,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        reverse: false,
        build_s: None,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--build-s" => a.build_s = value("a number")?.parse().ok(),
            "--out" => a.out = Some(PathBuf::from(value("a path")?)),
            "--quick" => a.quick = true,
            "--reverse" => a.reverse = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// `benchmark/out` under the current directory, which must be the root of
/// a checkout: the benchmark reads and writes nowhere else.
fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("BENCHMARK.json").is_file() || !Path::new("benchmark").is_dir() {
        return Err(
            "run from the repository root (BENCHMARK.json and benchmark/ not found here)".into(),
        );
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn run_file(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join(format!("{workload}-trace{}.json", u8::from(traced)))
}

/// One pass of one workload.
fn run_one(args: &Args, name: &str) -> Result<ExitCode, String> {
    env::check_host()?;
    let Some(workload) = WORKLOADS.iter().find(|w| w.name() == name) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name()).collect();
        return Err(format!("unknown workload {name}; there are {names:?}"));
    };
    let dir = out_dir()?;
    let seconds = if args.quick {
        args.seconds / 20.0
    } else {
        args.seconds
    };
    let spans = Spans::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        quick: args.quick,
        spans: &spans,
    };

    let (output, declared) = if args.trace {
        let pass = Ctx {
            seconds: seconds * TRACED_PASS_SHARE,
            ..ctx
        };
        let mut gate = Gate::default();
        let mut metrics = workload.run_traced(&pass, &mut gate);
        metrics.extend(ladder::run(&ctx, seconds * LADDER_PASS_SHARE, &mut gate));
        let output = RunOutput {
            workload: name.into(),
            traced: true,
            gate,
            metrics,
        };
        (output, per_layer())
    } else {
        let output = workload.run_untraced(&ctx);
        (output, end_to_end())
    };

    output.print_table(&declared);
    if output.gate.failed == 0 {
        // With failures the run is reported as incorrect below; a metric
        // that could not be computed is then a consequence, not a bug.
        output.check_names(&declared)?;
    }
    let fingerprint = env::fingerprint(args.build_s, args.seed, args.seconds, args.quick);
    write_file(
        &run_file(&dir, name, args.trace),
        &output.to_json(&declared, fingerprint).to_pretty(),
    )?;
    if let Some(spans) = spans.to_json(name) {
        let path = dir.join(format!("spans-{name}.json"));
        write_file(&path, &spans.to_line())?;
        println!("spans written to {}", path.display());
    }
    println!("{}", output.contract_line(&declared));
    Ok(if output.gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, each pass in a child process of this binary, so that
/// `VmHWM` is per workload and no pass inherits another's heap.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    env::check_host()?;
    let dir = out_dir()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    if args.reverse {
        order.reverse();
    }
    let mut workloads = Vec::new();
    let (mut attempted, mut failed, mut all_ok) = (0.0, 0.0, true);
    for workload in order {
        let mut sections = Vec::new();
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            if let Some(b) = args.build_s {
                cmd.args(["--build-s", &b.to_string()]);
            }
            let out = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            // Everything but the child's driver-format result line.
            let text = String::from_utf8_lossy(&out.stdout);
            let lines: Vec<&str> = text.lines().collect();
            for line in &lines[..lines.len().saturating_sub(1)] {
                println!("{line}");
            }
            all_ok &= out.status.success();
            let path = run_file(&dir, workload, traced);
            let run = std::fs::read_to_string(&path)
                .map_err(|e| format!("{workload} left no {}: {e}", path.display()))
                .and_then(|t| json::parse(&t))?;
            attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            sections.push((
                if traced { "per_layer" } else { "end_to_end" },
                run.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        workloads.push((workload, Json::obj(sections)));
    }
    let result = Json::obj(vec![
        (
            "fingerprint",
            env::fingerprint(args.build_s, args.seed, args.seconds, args.quick),
        ),
        ("attempted", Json::num(attempted)),
        ("failed", Json::num(failed)),
        ("failed_share", Json::num(failed / f64::max(attempted, 1.0))),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    let path = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    write_file(&path, &result.to_pretty())?;
    println!(
        "\n{}",
        Json::obj(vec![
            ("result", Json::str(path.display().to_string())),
            ("workloads", Json::num(WORKLOADS.len() as f64)),
            ("attempted", Json::num(attempted)),
            ("failed", Json::num(failed)),
            ("claim", Json::Null),
        ])
        .to_line()
    );
    Ok(if all_ok && failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| json::parse(&t))
    };
    let bad = compare::compare(&read(a)?, &read(b)?)?;
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]),
        Some("declare") => {
            print!("{}", metrics::benchmark_json(&WORKLOADS).to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("help" | "--help" | "-h") | Some("compare") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => parse_args(&argv).and_then(|args| match args.workload.clone() {
            Some(w) => run_one(&args, &w),
            None => run_all(&args),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("adaptivetc-benchmark: {e}");
        ExitCode::from(2)
    })
}
