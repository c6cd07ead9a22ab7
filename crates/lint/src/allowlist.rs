//! `LINT_ALLOW.toml`: the explicit, justified exception list.
//!
//! Every entry must name the file, the rule it suppresses, and a
//! non-empty justification; an optional `symbol` narrows the exception to
//! one function. Entries that suppress nothing are themselves findings
//! (stale), as are entries without a real justification — the allowlist
//! can only ever shrink silently, never grow silently.

use crate::model::{Finding, Rule};
use crate::toml;
use std::cell::Cell;

/// One allowlist entry.
#[derive(Debug)]
pub struct AllowEntry {
    /// Workspace-relative file the exception applies to.
    pub file: String,
    /// Rule name (`facade`, `trace-gate`, `unsafe-safety`).
    pub rule: String,
    /// Optional enclosing-function restriction.
    pub symbol: Option<String>,
    /// Why the exception is legitimate.
    pub why: String,
    /// Line of the entry in `LINT_ALLOW.toml`.
    pub line: u32,
    used: Cell<bool>,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
}

/// Rules an allowlist entry may suppress. The ordering audit is
/// deliberately absent: its exception mechanism is the comment at the site.
const ALLOWABLE: &[&str] = &["facade", "trace-gate", "unsafe-safety"];

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "LINT_ALLOW.toml";

impl Allowlist {
    /// Parse the allowlist document. Structural problems become findings
    /// rather than hard errors so one bad entry does not mask the rest of
    /// the run.
    pub fn parse(text: &str, findings: &mut Vec<Finding>) -> Allowlist {
        let tables = match toml::parse(text) {
            Ok(t) => t,
            Err(e) => {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: e.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: format!("parse error: {}", e.msg),
                });
                return Allowlist::default();
            }
        };
        let mut entries = Vec::new();
        for t in tables {
            if t.name != "allow" {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: t.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: format!("unknown table `[[{}]]` (expected `[[allow]]`)", t.name),
                });
                continue;
            }
            let file = t.get_str("file").unwrap_or_default().to_string();
            let rule = t.get_str("rule").unwrap_or_default().to_string();
            let why = t.get_str("why").unwrap_or_default().to_string();
            if file.is_empty() || rule.is_empty() {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: t.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: "entry must set both `file` and `rule`".to_string(),
                });
                continue;
            }
            if !ALLOWABLE.contains(&rule.as_str()) {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: t.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: format!(
                        "rule `{rule}` cannot be allowlisted (allowed: {})",
                        ALLOWABLE.join(", ")
                    ),
                });
                continue;
            }
            if why.trim().is_empty() || why.trim_start().starts_with("TODO") {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: t.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: format!("entry for `{file}` has no justification (`why`)"),
                });
                // Fall through: an unjustified entry still suppresses, so a
                // missing justification is exactly one finding, not a
                // cascade of re-opened sites.
            }
            entries.push(AllowEntry {
                file,
                rule,
                symbol: t.get_str("symbol").map(str::to_string),
                why,
                line: t.line,
                used: Cell::new(false),
            });
        }
        Allowlist { entries }
    }

    /// Whether an entry suppresses `rule` at `file`/`symbol`; marks the
    /// entry used for staleness accounting.
    pub fn permits(&self, rule: Rule, file: &str, symbol: &str) -> bool {
        let mut hit = false;
        for e in &self.entries {
            if e.rule == rule.name()
                && e.file == file
                && e.symbol.as_deref().map(|s| s == symbol).unwrap_or(true)
            {
                e.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Report entries that suppressed nothing this run.
    pub fn report_stale(&self, findings: &mut Vec<Finding>) {
        for e in &self.entries {
            if !e.used.get() {
                findings.push(Finding {
                    file: ALLOWLIST_FILE.to_string(),
                    line: e.line,
                    col: 1,
                    rule: Rule::Allowlist,
                    msg: format!(
                        "stale entry: rule `{}` at `{}`{} no longer matches any site — remove it",
                        e.rule,
                        e.file,
                        e.symbol
                            .as_deref()
                            .map(|s| format!(" (symbol `{s}`)"))
                            .unwrap_or_default()
                    ),
                });
            }
        }
    }
}
