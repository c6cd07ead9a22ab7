//! The ordering-minimization audit (DESIGN.md §16).
//!
//! For every `Ordering::` site group in the lint's covered files
//! (`adaptivetc_lint::verdicts::COVERED_FILES`), this binary:
//!
//! 1. runs the covering scenarios once with an *identity* override rule
//!    to count how often the site actually executes (`exercised`);
//! 2. re-runs them with each kind-aware one-step-weaker candidate
//!    (`SeqCst → Acquire/Release/AcqRel`, `AcqRel → Acquire|Release`,
//!    `Acquire/Release → Relaxed`) substituted at the site, under both
//!    sequential consistency and the x86-TSO store-buffer model, with
//!    happens-before race checking on — so a weakening is refuted either
//!    by a protocol assertion or by a data race on a plain access;
//! 3. writes one machine-readable `[[verdict]]` per group to
//!    `ORDERING_VERDICTS.toml` (`required` / `weakenable` / `minimal` /
//!    `unexercised`), which `adaptivetc-lint -- --orderings-verify`
//!    cross-checks against the tree on every CI run.
//!
//! Budgets: each exploration is bounded (preemption bound 2, schedule
//! and wall caps below, both overridable with `SHIM_SYNC_MAX_SCHEDULES`
//! / `SHIM_SYNC_MAX_WALL_SECS`), so verdicts are statements about the
//! explored bounds, not unbounded proofs — `required` refutations are
//! definitive, `weakenable` survivals are evidence.

use adaptivetc_check::scenarios::{covering, Scenario};
use adaptivetc_check::sync::Ordering;
use adaptivetc_check::Config;
use adaptivetc_lint::sites::SiteKey;
use adaptivetc_lint::verdicts::{self, VerdictEntry};
use shim_sync::{OpKind, OverrideRule, OverrideSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// Per-exploration schedule cap (env-overridable upward for a deeper
/// audit run); one group costs up to `1 + candidates × 2` explorations
/// per covering scenario.
const MAX_SCHEDULES: u64 = 20_000;
/// Per-exploration wall cap.
const MAX_WALL: Duration = Duration::from_secs(10);

fn parse_ordering(s: &str) -> Ordering {
    match s {
        "Relaxed" => Ordering::Relaxed,
        "Acquire" => Ordering::Acquire,
        "Release" => Ordering::Release,
        "AcqRel" => Ordering::AcqRel,
        "SeqCst" => Ordering::SeqCst,
        other => panic!("unknown ordering {other}"),
    }
}

fn ordering_name(o: Ordering) -> &'static str {
    match o {
        Ordering::Relaxed => "Relaxed",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        _ => "?",
    }
}

fn kind_name(k: Option<OpKind>) -> &'static str {
    match k {
        None => "any",
        Some(OpKind::Load) => "load",
        Some(OpKind::Store) => "store",
        Some(OpKind::Rmw) => "rmw",
        Some(OpKind::Fence) => "fence",
    }
}

/// The kind-aware one-step-down ladder for a declared ordering.
fn candidates(from: Ordering) -> Vec<(Option<OpKind>, Ordering)> {
    match from {
        Ordering::SeqCst => vec![
            (Some(OpKind::Load), Ordering::Acquire),
            (Some(OpKind::Store), Ordering::Release),
            (Some(OpKind::Rmw), Ordering::AcqRel),
            (Some(OpKind::Fence), Ordering::AcqRel),
        ],
        Ordering::AcqRel => vec![
            (Some(OpKind::Rmw), Ordering::Acquire),
            (Some(OpKind::Rmw), Ordering::Release),
            (Some(OpKind::Fence), Ordering::Acquire),
            (Some(OpKind::Fence), Ordering::Release),
        ],
        Ordering::Acquire | Ordering::Release => vec![(None, Ordering::Relaxed)],
        _ => Vec::new(),
    }
}

fn rule(key: &SiteKey, lines: &[u32], kind: Option<OpKind>, to: Ordering) -> Arc<OverrideSet> {
    Arc::new(OverrideSet {
        rules: vec![OverrideRule {
            file_suffix: key.file.clone(),
            lines: lines.to_vec(),
            from: parse_ordering(&key.ordering),
            to,
            kind,
            hits: AtomicU64::new(0),
        }],
    })
}

fn config(tso: bool, overrides: &Arc<OverrideSet>) -> Config {
    Config {
        tso,
        check_races: true,
        max_schedules: MAX_SCHEDULES,
        max_wall: MAX_WALL,
        overrides: Some(Arc::clone(overrides)),
        ..Config::with_preemption_bound(2)
    }
}

/// Run one scenario under `cfg`; `Ok(())` means no violation.
fn run(cfg: Config, s: &Scenario) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| adaptivetc_check::explore(cfg, s.run)))
        .map(drop)
        .map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string())
        })
}

fn audit_group(key: &SiteKey, lines: &[u32]) -> VerdictEntry {
    let scenarios: Vec<&Scenario> = covering(&key.file).collect();
    let suites = scenarios
        .iter()
        .map(|s| s.name)
        .collect::<Vec<_>>()
        .join(",");
    let from = parse_ordering(&key.ordering);

    // Baseline: identity override counts how often the site resolves.
    let identity = rule(key, lines, None, from);
    for s in &scenarios {
        if let Err(msg) = run(config(false, &identity), s) {
            // A baseline violation is a real protocol bug, not a verdict.
            panic!(
                "baseline violation in {} at {} `{}`:\n{msg}",
                s.name, key.file, key.symbol
            );
        }
    }
    let exercised = identity.rules[0]
        .hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let verdict = |v: &str, detail: String| VerdictEntry {
        key: key.clone(),
        verdict: v.to_string(),
        exercised,
        suites: suites.clone(),
        detail,
        line: 0,
    };

    if exercised == 0 {
        return verdict(
            "unexercised",
            "site never resolved in any covering scenario".to_string(),
        );
    }
    let cands = candidates(from);
    if cands.is_empty() {
        return verdict(
            "minimal",
            "already Relaxed; nothing weaker to try".to_string(),
        );
    }

    let mut survived = Vec::new();
    for (kind, to) in cands {
        let mut fired = false;
        for tso in [false, true] {
            let set = rule(key, lines, kind, to);
            for s in &scenarios {
                if let Err(msg) = run(config(tso, &set), s) {
                    let first = msg.lines().next().unwrap_or("violation").to_string();
                    return verdict(
                        "required",
                        format!(
                            "{}:{} -> {} refuted in {} ({} mode): {first}",
                            kind_name(kind),
                            key.ordering,
                            ordering_name(to),
                            s.name,
                            if tso { "tso" } else { "sc" },
                        ),
                    );
                }
            }
            fired |= set.rules[0].hits.load(std::sync::atomic::Ordering::Relaxed) > 0;
        }
        if fired {
            survived.push(format!(
                "{}:{} -> {}",
                kind_name(kind),
                key.ordering,
                ordering_name(to)
            ));
        }
    }
    if survived.is_empty() {
        // Exercised at baseline, but no kind-filtered candidate matched:
        // treat as required so nobody weakens on no evidence.
        return verdict(
            "required",
            "no one-step candidate applicable to the ops observed".to_string(),
        );
    }
    verdict(
        "weakenable",
        format!(
            "survived bounded SC+TSO exploration with races checked: {}",
            survived.join("; ")
        ),
    )
}

fn main() -> ExitCode {
    let root = match std::env::current_dir()
        .ok()
        .and_then(|d| adaptivetc_lint::find_root(&d))
    {
        Some(r) => r,
        None => {
            eprintln!("could not locate the workspace root");
            return ExitCode::from(2);
        }
    };
    // Model threads unwind on every refuted candidate; silence the
    // default per-thread panic banner and report through the verdicts.
    std::panic::set_hook(Box::new(|_| {}));

    let files = match adaptivetc_lint::model::load_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("workspace walk failed: {e}");
            return ExitCode::from(2);
        }
    };
    let sites = verdicts::covered_sites(&files);
    eprintln!(
        "auditing {} site group(s) across {} covered file(s)",
        sites.len(),
        verdicts::COVERED_FILES.len()
    );

    let mut entries = Vec::new();
    for (key, lines) in &sites {
        let v = audit_group(key, lines);
        eprintln!(
            "  {} `{}` Ordering::{}: {} (exercised {})",
            key.file, key.symbol, key.ordering, v.verdict, v.exercised
        );
        entries.push(v);
    }
    let _ = std::panic::take_hook();

    let text = verdicts::render_verdicts(&entries);
    let out = root.join(verdicts::VERDICTS_FILE);
    if let Err(e) = std::fs::write(&out, text) {
        eprintln!("writing {} failed: {e}", out.display());
        return ExitCode::from(2);
    }
    let count = |v: &str| entries.iter().filter(|e| e.verdict == v).count();
    println!(
        "{}: {} verdicts ({} required, {} weakenable, {} minimal, {} unexercised)",
        Path::new(verdicts::VERDICTS_FILE).display(),
        entries.len(),
        count("required"),
        count("weakenable"),
        count("minimal"),
        count("unexercised"),
    );
    if count("unexercised") > 0 {
        println!("unexercised sites fail `--orderings-verify`; extend the scenario registry");
    }
    ExitCode::SUCCESS
}
