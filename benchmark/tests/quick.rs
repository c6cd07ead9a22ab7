//! Runs the benchmark in `--quick` mode and checks what it emits against
//! what `BENCHMARK.json` declares.
//!
//! The command refuses debug builds, so under plain `cargo test` this file
//! checks only that refusal; run `cargo test --release` for the rest
//! (about a minute and a half).

use adaptivetc_benchmark::json::{self, Json};
use adaptivetc_benchmark::metrics::benchmark_json;
use adaptivetc_benchmark::WORKLOADS;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_adaptivetc-benchmark");

/// The repository root: the benchmark runs from there, as the driver runs it.
fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .current_dir(root())
        .output()
        .expect("the benchmark binary starts")
}

fn read(path: &str) -> Json {
    let text = std::fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn names(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a declared name")
                .to_string()
        })
        .collect()
}

#[test]
fn committed_declaration_matches_the_code() {
    assert_eq!(
        read("BENCHMARK.json"),
        benchmark_json(&WORKLOADS),
        "regenerate with `bash benchmark/run.sh declare > BENCHMARK.json`"
    );
}

#[test]
fn quick_run_emits_what_is_declared() {
    if cfg!(debug_assertions) {
        let out = run(&[
            "--workload",
            "table2_1t",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "a debug build must refuse to measure"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
        assert!(out.stdout.is_empty(), "and print no result");
        return;
    }

    let out = run(&[
        "--quick",
        "--seed",
        "7",
        "--out",
        "benchmark/out/quick.json",
    ]);
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "quick run failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.trim_end().ends_with("\"claim\": null}"),
        "the summary ends with the claim, and the claim is null"
    );

    let bench = read("BENCHMARK.json");
    let (e2e, layer) = (
        names(bench.get("end_to_end").unwrap()),
        names(bench.get("per_layer").unwrap()),
    );
    assert!(e2e.len() <= 16 && layer.len() <= 128);
    for name in e2e.iter().chain(&layer) {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "illegal metric name {name}"
        );
    }

    let result = read("benchmark/out/quick.json");
    assert_eq!(
        result.as_obj().last().map(|(k, v)| (k.as_str(), v)),
        Some(("claim", &Json::Null))
    );
    assert_eq!(result.get("failed_share").and_then(Json::as_f64), Some(0.0));
    let workloads = result.get("workloads").unwrap().as_obj();
    assert_eq!(
        workloads
            .iter()
            .map(|(k, _)| k.clone())
            .collect::<BTreeSet<_>>(),
        names(bench.get("workloads").unwrap())
    );
    for (workload, sections) in workloads {
        for (section, declared) in [("end_to_end", &e2e), ("per_layer", &layer)] {
            let metrics = sections.get(section).unwrap().as_obj();
            let emitted: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(&emitted, declared, "{workload} {section}");
            for (name, m) in metrics {
                let get = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_f64)
                        .unwrap_or_else(|| panic!("{workload} {name} {k}"))
                };
                assert!(get("n") >= 0.0 && get("value").is_finite());
                if get("n") >= 1.0 {
                    assert!(
                        get("q1") <= get("median") && get("median") <= get("q3"),
                        "{workload} {name}: quartiles {} {} do not bracket the median {}",
                        get("q1"),
                        get("q3"),
                        get("median")
                    );
                }
            }
        }
        for zero in [
            "trace.validate_mismatches",
            "sim.tracediff_mismatches",
            "server.rejected",
        ] {
            let value = sections
                .get("per_layer")
                .unwrap()
                .get(zero)
                .unwrap()
                .get("value");
            assert_eq!(value.and_then(Json::as_f64), Some(0.0), "{workload} {zero}");
        }
        assert!(root()
            .join(format!("benchmark/out/spans-{workload}.json"))
            .is_file());
    }

    // A second traced pass of table2_1t: every count marked exact repeats
    // to the bit, and the last line is the driver's four keys.
    let first = read("benchmark/out/table2_1t-trace1.json");
    let out = run(&[
        "--workload",
        "table2_1t",
        "--seed",
        "7",
        "--trace",
        "1",
        "--quick",
    ]);
    assert!(out.status.success());
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .unwrap();
    let line = json::parse(&line).expect("the last line is JSON");
    let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    let second = read("benchmark/out/table2_1t-trace1.json");
    let mut exact = 0;
    for (name, m) in first.get("metrics").unwrap().as_obj() {
        if m.get("exact") == Some(&Json::Bool(true)) {
            exact += 1;
            assert_eq!(
                m.get("value"),
                second
                    .get("metrics")
                    .unwrap()
                    .get(name)
                    .unwrap()
                    .get("value"),
                "{name} is marked exact but differs between two runs"
            );
        }
    }
    assert!(exact >= 16, "table2_1t marks its engine counts exact");
}
