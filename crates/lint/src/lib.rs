//! `adaptivetc-lint`: a zero-dependency static analyzer enforcing the
//! workspace's concurrency invariants.
//!
//! The paper's correctness story rests on a hand-proved THE protocol and
//! deliberately chosen fences; this crate makes the reproduction's
//! counterparts machine-checked on every commit:
//!
//! 1. **Facade integrity** — no `std::sync::atomic`, `std::thread::spawn`
//!    or `parking_lot` outside the `crate::sync` facade modules (plus a
//!    short justified allowlist), so the `crates/check` model-checking
//!    coverage claim — every atomic the protocols execute is a shim-sync
//!    yield point in check builds — cannot silently rot.
//! 2. **Memory-ordering audit** — every `Ordering::X` in non-test product
//!    code carries an adjacent `// X: reason` comment; see [`sites`].
//! 3. **Unsafe hygiene** — every `unsafe` needs an adjacent `// SAFETY:`
//!    comment.
//! 4. **Trace discipline** — the only clock reads on hot paths are the
//!    allow-listed ones: the `Config::timing`-gated `now_if` and the
//!    once-per-run wall-clock sites.
//!
//! Run as `cargo run -p adaptivetc-lint` (checks, exits non-zero on
//! findings); `--orderings-verify` cross-checks the model checker's
//! `ORDERING_VERDICTS.toml` against the tree and its `(KEPT)` markers. The
//! default mode also runs as the tier-1 test `tests/lint_gate.rs`.

#![warn(missing_docs)]

pub mod allowlist;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod sites;
pub mod spans;
pub mod toml;
pub mod verdicts;

pub use allowlist::ALLOWLIST_FILE;
pub use model::{Finding, Rule};
pub use verdicts::VERDICTS_FILE;

use allowlist::Allowlist;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Run every check over the workspace at `root`. Returns the findings,
/// sorted by file and line; an empty vector means the tree is clean.
pub fn analyze(root: &Path) -> io::Result<Vec<Finding>> {
    let files = model::load_workspace(root)?;
    let mut findings = Vec::new();

    let allow_text = read_or_empty(&root.join(ALLOWLIST_FILE))?;
    let allow = Allowlist::parse(&allow_text, &mut findings);

    for f in &files {
        rules::check_facade(f, &allow, &mut findings);
        rules::check_unsafe(f, &allow, &mut findings);
        rules::check_trace_gate(f, &allow, &mut findings);
        sites::check_comments(f, &mut findings);
    }

    allow.report_stale(&mut findings);

    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// Run the ordering-minimization cross-checks (`--orderings-verify`):
/// every covered `Ordering::` site must carry a fresh
/// `ORDERING_VERDICTS.toml` verdict, `unexercised` verdicts fail hard,
/// `weakenable` groups must be marked `(KEPT)` at their sites, and a keep
/// marker anywhere else is stale.
pub fn verify_orderings(root: &Path) -> io::Result<Vec<Finding>> {
    let files = model::load_workspace(root)?;
    let sites = verdicts::covered_sites(&files);
    let kept = sites::keep_marked(&files);
    let mut findings = Vec::new();

    let verdicts_path = root.join(VERDICTS_FILE);
    let verdicts = if verdicts_path.is_file() {
        verdicts::parse_verdicts(&fs::read_to_string(&verdicts_path)?, &mut findings)
    } else {
        findings.push(Finding {
            file: VERDICTS_FILE.to_string(),
            line: 1,
            col: 1,
            rule: Rule::Verdict,
            msg: format!(
                "{VERDICTS_FILE} is missing; run `cargo run -p adaptivetc-check --bin ordering_audit`"
            ),
        });
        Vec::new()
    };

    verdicts::check(&sites, &verdicts, &kept, &mut findings);
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn read_or_empty(path: &Path) -> io::Result<String> {
    if path.is_file() {
        fs::read_to_string(path)
    } else {
        Ok(String::new())
    }
}
