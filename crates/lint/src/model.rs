//! Workspace walking, per-file analysis state, and findings.

use crate::lexer::{self, Comment, Tok};
use crate::spans::{self, Spans};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which invariant a finding violates. The stable string names double as
/// the `rule` values accepted by `LINT_ALLOW.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Raw `std::sync::atomic` / `std::thread::spawn` / `parking_lot`
    /// outside a `crate::sync` facade.
    Facade,
    /// An `Ordering::X` site without an adjacent comment that names `X`
    /// and gives the reason.
    Ordering,
    /// An `unsafe` block/fn/impl without an adjacent `// SAFETY:` comment.
    UnsafeHygiene,
    /// `Instant::now` on a hot path outside an allow-listed symbol (the
    /// `Config::timing`-gated `now_if`, or a once-per-run site).
    TraceGate,
    /// A problem in `LINT_ALLOW.toml` itself (stale or unjustified entry).
    Allowlist,
    /// An `ORDERING_VERDICTS.toml` problem from the ordering-minimization
    /// audit: a covered site with no verdict, a stale verdict, or an
    /// `unexercised` site no bounded suite reaches.
    Verdict,
    /// A site of a `weakenable` group neither weakened nor marked
    /// `// X (KEPT): …`, or a keep marker on a group that is not
    /// `weakenable`.
    Keep,
}

impl Rule {
    /// The stable display/allowlist name.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Facade => "facade",
            Rule::Ordering => "ordering",
            Rule::UnsafeHygiene => "unsafe-safety",
            Rule::TraceGate => "trace-gate",
            Rule::Allowlist => "allowlist",
            Rule::Verdict => "verdict",
            Rule::Keep => "keep",
        }
    }
}

/// One diagnostic: `file:line:col: [rule] message`.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column; `1` when the finding is about a whole line
    /// (allowlist and verdict entries, ordering sites) rather than a
    /// specific token.
    pub col: u32,
    /// Violated invariant.
    pub rule: Rule,
    /// Human explanation.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.msg
        )
    }
}

/// One lexed-and-scanned source file.
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel: String,
    /// Raw lines (for adjacency/context checks).
    pub lines: Vec<String>,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Comments with line extents.
    pub comments: Vec<Comment>,
    /// Structural spans.
    pub spans: Spans,
}

impl SourceFile {
    /// Build the analysis state for one file.
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let (toks, comments) = lexer::lex(text);
        let spans = spans::scan(&toks);
        SourceFile {
            rel,
            lines: text.lines().map(str::to_string).collect(),
            toks,
            comments,
            spans,
        }
    }

    /// Concatenated comment text overlapping `line` (empty if none).
    pub fn comment_text_at(&self, line: u32) -> String {
        let mut out = String::new();
        for c in &self.comments {
            if c.start <= line && line <= c.end {
                out.push_str(&c.text);
                out.push('\n');
            }
        }
        out
    }

    /// Whether any token starts on `line`.
    pub fn has_code_on(&self, line: u32) -> bool {
        // Tokens are in line order; a binary search would work, but files
        // are small enough that a scan is fine and simpler.
        self.toks.iter().any(|t| t.line == line)
    }

    /// Raw text of `line` (1-based), or empty for out-of-range.
    pub fn line_text(&self, line: u32) -> &str {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    /// Whether the file lives in a test/example context (integration test
    /// dirs and examples are exempt from the facade and hot-path rules;
    /// `#[cfg(test)]` modules are handled separately via spans).
    pub fn is_test_context(&self) -> bool {
        let r = &self.rel;
        r.starts_with("tests/")
            || r.starts_with("examples/")
            || r.contains("/tests/")
            || r.contains("/examples/")
            || r.contains("/benches/")
    }
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures"];

/// Top-level entries of the workspace that are walked for sources.
const WALK_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Collect and parse every `.rs` file under the workspace `root`.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for entry in WALK_ROOTS {
        let dir = root.join(entry);
        if dir.is_dir() {
            walk(&dir, root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(SourceFile::parse(rel, &text));
        }
    }
    Ok(())
}
