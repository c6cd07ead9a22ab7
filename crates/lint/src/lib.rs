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
//! 2. **Memory-ordering audit** — every `Ordering::` site under `crates/`
//!    must appear in `ORDERINGS.toml` with a justification; see
//!    [`manifest`].
//! 3. **Unsafe hygiene** — every `unsafe` needs an adjacent `// SAFETY:`
//!    comment.
//! 4. **Trace discipline** — the only clock reads on hot paths are the
//!    allow-listed ones: the `Config::timing`-gated `now_if` and the
//!    once-per-run wall-clock sites.
//!
//! Run as `cargo run -p adaptivetc-lint` (checks, exits non-zero on
//! findings) or with `--bless` to regenerate `ORDERINGS.toml` skeleton
//! entries and the DESIGN.md §12 table after intentional changes. The same
//! engine runs as the tier-1 test `tests/lint_gate.rs`.

#![warn(missing_docs)]

pub mod allowlist;
pub mod design;
pub mod lexer;
pub mod manifest;
pub mod model;
pub mod rules;
pub mod spans;
pub mod toml;
pub mod verdicts;

pub use allowlist::ALLOWLIST_FILE;
pub use manifest::ORDERINGS_FILE;
pub use model::{Finding, Rule};
pub use verdicts::{MINIMIZE_FILE, VERDICTS_FILE};

use allowlist::Allowlist;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The design document carrying the generated audit section.
pub const DESIGN_FILE: &str = "DESIGN.md";

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
    }

    let sites = manifest::collect_sites(&files);
    let manifest_path = root.join(ORDERINGS_FILE);
    let entries = if manifest_path.is_file() {
        manifest::parse_manifest(&fs::read_to_string(&manifest_path)?, &mut findings)
    } else if sites.is_empty() {
        Vec::new()
    } else {
        findings.push(Finding {
            file: ORDERINGS_FILE.to_string(),
            line: 1,
            col: 1,
            rule: Rule::Manifest,
            msg: format!(
                "{ORDERINGS_FILE} is missing but the tree has {} `Ordering::` site group(s); run `cargo run -p adaptivetc-lint -- --bless`",
                sites.len()
            ),
        });
        Vec::new()
    };
    manifest::check(&sites, &entries, &mut findings);

    // DESIGN sync: only meaningful where a DESIGN.md exists (fixture trees
    // in the meta-tests have none).
    let design_path = root.join(DESIGN_FILE);
    if design_path.is_file() && manifest_path.is_file() {
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        let expected = design::render(&sorted);
        design::check(&fs::read_to_string(&design_path)?, &expected, &mut findings);
    }

    allow.report_stale(&mut findings);

    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// What `bless` changed.
#[derive(Debug)]
pub struct BlessReport {
    /// Total `Ordering::` occurrences observed.
    pub sites: usize,
    /// Manifest entries written.
    pub entries: usize,
    /// Entries that still need a justification.
    pub unjustified: usize,
    /// Whether the DESIGN.md section was rewritten.
    pub design_updated: bool,
}

/// Regenerate `ORDERINGS.toml` (preserving justifications) and the
/// DESIGN.md generated table.
pub fn bless(root: &Path) -> io::Result<BlessReport> {
    let files = model::load_workspace(root)?;
    let sites = manifest::collect_sites(&files);

    let manifest_path = root.join(ORDERINGS_FILE);
    let mut scratch = Vec::new(); // parse problems are irrelevant while blessing
    let old = if manifest_path.is_file() {
        manifest::parse_manifest(&fs::read_to_string(&manifest_path)?, &mut scratch)
    } else {
        Vec::new()
    };
    let text = manifest::render(&sites, &old);
    fs::write(&manifest_path, &text)?;

    let mut findings = Vec::new();
    let entries = manifest::parse_manifest(&text, &mut findings);
    let unjustified = entries.iter().filter(|e| e.why.trim().is_empty()).count();

    let design_path = root.join(DESIGN_FILE);
    let mut design_updated = false;
    if design_path.is_file() {
        let design_text = fs::read_to_string(&design_path)?;
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        if let Some(new_text) = design::splice(&design_text, &design::render(&sorted)) {
            if new_text != design_text {
                fs::write(&design_path, new_text)?;
                design_updated = true;
            }
        }
    }

    Ok(BlessReport {
        sites: sites.values().map(Vec::len).sum(),
        entries: entries.len(),
        unjustified,
        design_updated,
    })
}

/// Run the ordering-minimization cross-checks (`--orderings-verify`):
/// every covered `Ordering::` site must carry a fresh
/// `ORDERING_VERDICTS.toml` verdict, `unexercised` verdicts fail hard,
/// and `weakenable` verdicts need a justified `MINIMIZE.toml` entry.
pub fn verify_orderings(root: &Path) -> io::Result<Vec<Finding>> {
    let files = model::load_workspace(root)?;
    let sites = verdicts::covered_sites(&files);
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
    let minimize_text = read_or_empty(&root.join(MINIMIZE_FILE))?;
    let minimize = verdicts::parse_minimize(&minimize_text, &mut findings);

    verdicts::check(&sites, &verdicts, &minimize, &mut findings);
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// What `--orderings-verify --bless` changed.
#[derive(Debug)]
pub struct MinimizeReport {
    /// `weakenable` verdicts found (→ `[[keep]]` skeletons written).
    pub weakenable: usize,
    /// Skeletons still missing a justification.
    pub unjustified: usize,
}

/// Regenerate `MINIMIZE.toml` skeletons from the `weakenable` verdicts,
/// preserving existing justifications by key.
pub fn bless_minimize(root: &Path) -> io::Result<MinimizeReport> {
    let mut scratch = Vec::new(); // parse problems are irrelevant while blessing
    let verdicts_path = root.join(VERDICTS_FILE);
    let verdicts = if verdicts_path.is_file() {
        verdicts::parse_verdicts(&fs::read_to_string(&verdicts_path)?, &mut scratch)
    } else {
        Vec::new()
    };
    let minimize_path = root.join(MINIMIZE_FILE);
    let old = verdicts::parse_minimize(&read_or_empty(&minimize_path)?, &mut scratch);
    let text = verdicts::render_minimize(&verdicts, &old);
    fs::write(&minimize_path, &text)?;
    let fresh = verdicts::parse_minimize(&text, &mut scratch);
    Ok(MinimizeReport {
        weakenable: fresh.len(),
        unjustified: fresh.iter().filter(|m| m.why.trim().is_empty()).count(),
    })
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
