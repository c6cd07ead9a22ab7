//! The ordering-minimization audit: machine-readable verdicts for every
//! `Ordering::` site that the bounded model-checking suites can reach.
//!
//! `crates/check`'s `ordering_audit` binary re-runs the relevant bounded
//! suites with each site weakened one step down the ladder
//! (`SeqCst → AcqRel → Acquire/Release → Relaxed`, in both SC and x86-TSO
//! store-buffer modes) and writes one `[[verdict]]` per site group to
//! `ORDERING_VERDICTS.toml`:
//!
//! - `required` — some one-step-weaker candidate was refuted (an assertion
//!   or race fired), so the declared ordering is load-bearing at the
//!   explored bounds.
//! - `weakenable` — every one-step-weaker candidate survived exhaustive
//!   bounded exploration; the site is a minimization candidate and must be
//!   either weakened (and re-proved) or kept, with the reason in a
//!   `// X (KEPT): …` comment at each of its sites ([`crate::sites`]).
//! - `minimal` — already `Relaxed`; there is nothing weaker to try.
//! - `unexercised` — no covering suite ever executed the site, so the
//!   audit proved nothing; this is a hard failure (grow a suite or drop
//!   the site from [`COVERED_FILES`]).
//!
//! This module cross-checks the committed verdicts against the live tree:
//! every site group in a covered file needs a fresh verdict, stale
//! verdicts must go, `weakenable` groups must be marked kept at their
//! sites, and a keep marker on any other group is stale.

use crate::model::{Finding, Rule, SourceFile};
use crate::sites::SiteKey;
use crate::toml::{self, quote};
use std::collections::BTreeMap;

/// Files whose ordering sites are reachable from the `crates/check`
/// bounded suites (the `#[path]`-included model-checked sources). Sites
/// elsewhere (e.g. the runtime's worker loop) have no bounded harness and
/// are out of the audit's scope.
pub const COVERED_FILES: &[&str] = &[
    "crates/deque/src/chase_lev.rs",
    "crates/deque/src/fence_free.rs",
    "crates/deque/src/pool.rs",
    "crates/deque/src/signal.rs",
    "crates/deque/src/the.rs",
    "crates/runtime/src/join.rs",
    "crates/runtime/src/submit.rs",
];

/// Name of the verdict report at the workspace root.
pub const VERDICTS_FILE: &str = "ORDERING_VERDICTS.toml";

/// The verdict classes the audit binary may emit.
pub const VERDICT_KINDS: &[&str] = &["required", "weakenable", "minimal", "unexercised"];

/// One `[[verdict]]` from `ORDERING_VERDICTS.toml`.
#[derive(Debug, Clone)]
pub struct VerdictEntry {
    /// Site identity.
    pub key: SiteKey,
    /// `required` | `weakenable` | `minimal` | `unexercised`.
    pub verdict: String,
    /// Number of times the site group executed in the baseline run.
    pub exercised: u64,
    /// Comma-separated covering suite names.
    pub suites: String,
    /// Human-readable evidence (which candidate failed how, or why not).
    pub detail: String,
    /// Line of the entry header in the verdicts file.
    pub line: u32,
}

fn parse_key(t: &toml::Table, findings: &mut Vec<Finding>) -> Option<SiteKey> {
    let file = t.get_str("file").unwrap_or_default().to_string();
    let symbol = t.get_str("symbol").unwrap_or_default().to_string();
    let ordering = t.get_str("ordering").unwrap_or_default().to_string();
    if file.is_empty() || symbol.is_empty() || ordering.is_empty() {
        findings.push(Finding {
            file: VERDICTS_FILE.to_string(),
            line: t.line,
            col: 1,
            rule: Rule::Verdict,
            msg: "entry must set `file`, `symbol` and `ordering`".to_string(),
        });
        return None;
    }
    Some(SiteKey {
        file,
        symbol,
        ordering,
    })
}

/// Parse `ORDERING_VERDICTS.toml`. Structural problems become findings.
pub fn parse_verdicts(text: &str, findings: &mut Vec<Finding>) -> Vec<VerdictEntry> {
    let tables = match toml::parse(text) {
        Ok(t) => t,
        Err(e) => {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: e.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!("parse error: {}", e.msg),
            });
            return Vec::new();
        }
    };
    let mut entries = Vec::new();
    for t in tables {
        if t.name != "verdict" {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: t.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!("unknown table `[[{}]]` (expected `[[verdict]]`)", t.name),
            });
            continue;
        }
        let Some(key) = parse_key(&t, findings) else {
            continue;
        };
        let verdict = t.get_str("verdict").unwrap_or_default().to_string();
        if !VERDICT_KINDS.contains(&verdict.as_str()) {
            findings.push(Finding {
                file: VERDICTS_FILE.to_string(),
                line: t.line,
                col: 1,
                rule: Rule::Verdict,
                msg: format!(
                    "unknown verdict `{verdict}` (expected one of {})",
                    VERDICT_KINDS.join(", ")
                ),
            });
            continue;
        }
        entries.push(VerdictEntry {
            key,
            verdict,
            exercised: t.get_int("exercised").unwrap_or(0),
            suites: t.get_str("suites").unwrap_or_default().to_string(),
            detail: t.get_str("detail").unwrap_or_default().to_string(),
            line: t.line,
        });
    }
    entries
}

/// Cross-check the committed verdicts and the keep markers (`kept`, from
/// [`crate::sites::keep_marked`]) against the `Ordering::` sites observed
/// in the tree.
///
/// Hard failures: a covered site group with no verdict, a verdict for a
/// site that no longer exists, an `unexercised` verdict, a site of a
/// `weakenable` group that is neither weakened nor marked
/// `// X (KEPT): reason`, and a keep marker on a group the audit does not
/// call `weakenable`.
pub fn check(
    sites: &BTreeMap<SiteKey, Vec<u32>>,
    verdicts: &[VerdictEntry],
    kept: &BTreeMap<SiteKey, Vec<u32>>,
    findings: &mut Vec<Finding>,
) {
    let by_key: BTreeMap<&SiteKey, &VerdictEntry> = verdicts.iter().map(|v| (&v.key, v)).collect();
    let mut push = |file: &str, line: u32, rule: Rule, msg: String| {
        findings.push(Finding {
            file: file.to_string(),
            line,
            col: 1,
            rule,
            msg,
        })
    };

    for (key, lines) in sites {
        if !COVERED_FILES.contains(&key.file.as_str()) {
            continue;
        }
        let (o, sym) = (&key.ordering, &key.symbol);
        let Some(v) = by_key.get(key) else {
            let msg = format!(
                "Ordering::{o} in `{sym}` has no {VERDICTS_FILE} entry; run `cargo run -p adaptivetc-check --bin ordering_audit`"
            );
            push(&key.file, lines[0], Rule::Verdict, msg);
            continue;
        };
        match v.verdict.as_str() {
            "unexercised" => {
                let msg = format!(
                    "Ordering::{o} in `{sym}` is unexercised: no bounded suite reaches it — add coverage or drop the file from the audit scope"
                );
                push(&key.file, lines[0], Rule::Verdict, msg);
            }
            "weakenable" => {
                let marked = kept.get(key).map_or(&[][..], Vec::as_slice);
                for &line in lines.iter().filter(|l| !marked.contains(l)) {
                    let msg = format!(
                        "Ordering::{o} in `{sym}` is weakenable at the explored bounds: weaken it (and re-run the audit) or mark it `// {o} (KEPT): <what the bounds cannot see>` here"
                    );
                    push(&key.file, line, Rule::Keep, msg);
                }
            }
            _ => {}
        }
    }

    for v in verdicts {
        if !sites.contains_key(&v.key) {
            let msg = format!(
                "stale verdict: {} `{}` Ordering::{} no longer exists in the tree — re-run the audit",
                v.key.file, v.key.symbol, v.key.ordering
            );
            push(VERDICTS_FILE, v.line, Rule::Verdict, msg);
        }
    }

    for (key, lines) in kept {
        if by_key.get(key).is_none_or(|v| v.verdict != "weakenable") {
            let msg = format!(
                "stale keep marker: Ordering::{o} in `{}` has no `weakenable` verdict — write `// {o}: <reason>`",
                key.symbol,
                o = key.ordering
            );
            push(&key.file, lines[0], Rule::Keep, msg);
        }
    }
}

/// Render `ORDERING_VERDICTS.toml` from audit results (used by the
/// `ordering_audit` binary so the file format lives next to its parser).
pub fn render_verdicts(entries: &[VerdictEntry]) -> String {
    let mut sorted: Vec<&VerdictEntry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.key.cmp(&b.key));
    let mut out = String::new();
    out.push_str(
        "# ORDERING_VERDICTS.toml — machine-written by the ordering-minimization audit.\n\
         #\n\
         # One [[verdict]] per (file, symbol, ordering) group in the audit's\n\
         # covered files. Regenerate with:\n\
         #   cargo run -p adaptivetc-check --bin ordering_audit\n\
         # (check-shim build; see DESIGN.md §16 for verdict semantics).\n\
         # `cargo run -p adaptivetc-lint -- --orderings-verify` cross-checks\n\
         # this file against the live tree and fails on unexercised sites\n\
         # and on weakenable sites not marked (KEPT). Do not edit by hand.\n",
    );
    let mut last_file = String::new();
    for v in sorted {
        if v.key.file != last_file {
            out.push_str(&format!("\n# ---- {} ----\n", v.key.file));
            last_file = v.key.file.clone();
        }
        out.push('\n');
        out.push_str("[[verdict]]\n");
        out.push_str(&format!("file = {}\n", quote(&v.key.file)));
        out.push_str(&format!("symbol = {}\n", quote(&v.key.symbol)));
        out.push_str(&format!("ordering = {}\n", quote(&v.key.ordering)));
        out.push_str(&format!("verdict = {}\n", quote(&v.verdict)));
        out.push_str(&format!("exercised = {}\n", v.exercised));
        out.push_str(&format!("suites = {}\n", quote(&v.suites)));
        out.push_str(&format!("detail = {}\n", quote(&v.detail)));
    }
    out
}

/// Collect the ordering sites of the covered files only — what the audit
/// binary iterates. `#[cfg(test)]` code is not a site: the bounded
/// scenarios run the *product* protocol paths, and a unit test's own
/// atomics are exercised by that unit test.
pub fn covered_sites(files: &[SourceFile]) -> BTreeMap<SiteKey, Vec<u32>> {
    files
        .iter()
        .filter(|f| COVERED_FILES.contains(&f.rel.as_str()))
        .flat_map(crate::sites::collect_sites)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ordering: &str) -> SiteKey {
        SiteKey {
            file: "crates/deque/src/the.rs".to_string(),
            symbol: "steal".to_string(),
            ordering: ordering.to_string(),
        }
    }

    fn verdict(ordering: &str, kind: &str) -> VerdictEntry {
        VerdictEntry {
            key: key(ordering),
            verdict: kind.to_string(),
            exercised: 4,
            suites: "the_protocol".to_string(),
            detail: "d".to_string(),
            line: 1,
        }
    }

    #[test]
    fn missing_verdict_and_unexercised_are_hard_failures() {
        let mut sites = BTreeMap::new();
        sites.insert(key("SeqCst"), vec![10]);
        sites.insert(key("Acquire"), vec![20]);
        let verdicts = vec![verdict("Acquire", "unexercised")];
        let mut findings = Vec::new();
        check(&sites, &verdicts, &BTreeMap::new(), &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.msg.contains("no ORDERING_VERDICTS.toml entry")));
        assert!(findings.iter().any(|f| f.msg.contains("unexercised")));
    }

    #[test]
    fn weakenable_requires_a_keep_marker_at_every_site() {
        let mut sites = BTreeMap::new();
        sites.insert(key("SeqCst"), vec![10, 30]);
        let verdicts = vec![verdict("SeqCst", "weakenable")];
        let mut kept = BTreeMap::new();
        kept.insert(key("SeqCst"), vec![10]);
        let mut findings = Vec::new();
        check(&sites, &verdicts, &kept, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 30);
        assert!(findings[0].msg.contains("weakenable"));

        kept.insert(key("SeqCst"), vec![10, 30]);
        findings.clear();
        check(&sites, &verdicts, &kept, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn stale_verdict_and_stale_keep_are_flagged() {
        let mut sites = BTreeMap::new();
        sites.insert(key("Release"), vec![7]);
        let verdicts = vec![
            verdict("SeqCst", "required"),
            verdict("Release", "required"),
        ];
        let mut kept = BTreeMap::new();
        kept.insert(key("Release"), vec![7]);
        let mut findings = Vec::new();
        check(&sites, &verdicts, &kept, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.msg.contains("stale verdict")));
        assert!(findings
            .iter()
            .any(|f| f.msg.contains("stale keep marker") && f.line == 7));
    }

    #[test]
    fn verdicts_roundtrip() {
        let entries = vec![verdict("SeqCst", "required"), verdict("Relaxed", "minimal")];
        let text = render_verdicts(&entries);
        let mut findings = Vec::new();
        let back = parse_verdicts(&text, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(back.len(), 2);
        assert!(back
            .iter()
            .any(|v| v.verdict == "required" && v.exercised == 4));
    }
}
