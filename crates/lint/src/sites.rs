//! The memory-ordering audit: every `Ordering::X` in audited code must
//! carry its reason in an adjacent comment that names `X`.
//!
//! The source is the manifest. The form is `// X: reason`, or
//! `// X (KEPT): reason` for an ordering the bounded audit found weakenable
//! and a human decided to keep (see [`crate::verdicts`]). Adjacent means:
//! on the site's own line, or in the comment block directly above the
//! site's statement. One comment may head a contiguous run of
//! same-ordering sites. So a new site fails until someone writes its
//! reason, and an ordering changed under an unchanged comment fails
//! because the comment no longer names it — the review nudge the audit
//! exists to produce.

use crate::lexer::TokKind;
use crate::model::{Finding, Rule, SourceFile};
use crate::rules::path_at;
use std::collections::BTreeMap;

/// The five orderings (plus fences, which reuse the same tokens).
pub const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Crates whose `Ordering::` tokens are data or oracle code, not protocol:
/// the model-checking harness (weakening ladders, match arms, scenario
/// oracles) and this analyzer. Everything else under `crates/` is audited.
const UNAUDITED: &[&str] = &["crates/check/", "crates/lint/"];

/// The suffix that turns `// X: reason` into a keep decision.
const KEEP_MARK: &str = " (KEPT)";

/// Identity of one audited ordering group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SiteKey {
    /// Workspace-relative file.
    pub file: String,
    /// Enclosing function (or `(top-level)`).
    pub symbol: String,
    /// `Relaxed` | `Acquire` | `Release` | `AcqRel` | `SeqCst`.
    pub ordering: String,
}

/// What the comment adjacent to a site says about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// `// X: reason`.
    Plain,
    /// `// X (KEPT): reason` — weakenable at the explored bounds, kept on
    /// purpose.
    Kept,
}

/// The audited `Ordering::X` sites of one file — non-test code under
/// `crates/`, outside the [`UNAUDITED`] crates — grouped by key, with the
/// 1-based line of each occurrence.
pub fn collect_sites(f: &SourceFile) -> BTreeMap<SiteKey, Vec<u32>> {
    let mut map: BTreeMap<SiteKey, Vec<u32>> = BTreeMap::new();
    if !f.rel.starts_with("crates/")
        || f.is_test_context()
        || UNAUDITED.iter().any(|p| f.rel.starts_with(p))
    {
        return map;
    }
    for (i, t) in f.toks.iter().enumerate() {
        if f.spans.in_test(t.line) {
            continue;
        }
        for ord in ORDERINGS {
            if path_at(&f.toks, i, &["Ordering", ord]) {
                let key = SiteKey {
                    file: f.rel.clone(),
                    symbol: f.spans.symbol_at(t.line),
                    ordering: (*ord).to_string(),
                };
                map.entry(key).or_default().push(t.line);
            }
        }
    }
    map
}

/// The site-comment rule: one finding per audited site whose adjacent
/// comment does not name its ordering and give a reason.
pub fn check_comments(f: &SourceFile, out: &mut Vec<Finding>) {
    for (key, mut lines) in collect_sites(f) {
        lines.dedup(); // `compare_exchange(.., Relaxed, Relaxed)`: one finding
        for line in lines {
            if reason_at(f, line, &key.ordering).is_none() {
                out.push(Finding {
                    file: key.file.clone(),
                    line,
                    col: 1,
                    rule: Rule::Ordering,
                    msg: format!(
                        "Ordering::{o} in `{}` has no adjacent `// {o}: <reason>` comment (on the line, or heading the statement or a run of {o} sites)",
                        key.symbol,
                        o = key.ordering
                    ),
                });
            }
        }
    }
}

/// The sites whose comment carries the keep marker, grouped like
/// [`collect_sites`].
pub fn keep_marked(files: &[SourceFile]) -> BTreeMap<SiteKey, Vec<u32>> {
    let mut map = BTreeMap::new();
    for f in files {
        for (key, mut lines) in collect_sites(f) {
            lines.retain(|&l| reason_at(f, l, &key.ordering) == Some(Reason::Kept));
            if !lines.is_empty() {
                map.insert(key, lines);
            }
        }
    }
    map
}

/// The reason the comment adjacent to the `Ordering::ord` on `line` gives.
///
/// Walks up from the site: a comment block ends the walk (it names `ord`
/// or the site is bare); a code line is walked over only while it belongs
/// to the site's own statement (it does not end in `;`, `{` or `}`) or to
/// a run of `ord` sites (it holds one); anything else — a blank line, an
/// unrelated statement, a site of another ordering — ends it bare.
pub fn reason_at(f: &SourceFile, line: u32, ord: &str) -> Option<Reason> {
    if let Some(r) = names(&f.comment_text_at(line), ord) {
        return Some(r);
    }
    let mut l = line - 1;
    while l >= 1 {
        let comment = f.comment_text_at(l);
        if !f.has_code_on(l) {
            if comment.is_empty() {
                return None; // blank line
            }
            let mut top = l;
            while top > 1 && !f.has_code_on(top - 1) && !f.comment_text_at(top - 1).is_empty() {
                top -= 1;
            }
            let block: String = (top..=l).map(|c| f.comment_text_at(c)).collect();
            return names(&block, ord);
        }
        if let Some(r) = names(&comment, ord) {
            return Some(r);
        }
        if !(continues(f, l) || has_site(f, l, ord)) {
            return None;
        }
        l -= 1;
    }
    None
}

/// Whether the statement on `line` runs on into the next line.
fn continues(f: &SourceFile, line: u32) -> bool {
    let last = f.toks.iter().rev().find(|t| t.line == line);
    !matches!(
        last.map(|t| &t.kind),
        Some(TokKind::Punct(';' | '{' | '}')) | None
    )
}

fn has_site(f: &SourceFile, line: u32, ord: &str) -> bool {
    f.toks
        .iter()
        .enumerate()
        .any(|(i, t)| t.line == line && path_at(&f.toks, i, &["Ordering", ord]))
}

/// Whether comment `text` holds `ord: reason` or `ord (KEPT): reason` as
/// a whole word. The keep form wins when both appear.
fn names(text: &str, ord: &str) -> Option<Reason> {
    let mut found = None;
    for (at, _) in text.match_indices(ord) {
        let boundary = text[..at]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if !boundary {
            continue;
        }
        let rest = &text[at + ord.len()..];
        let (rest, reason) = match rest.strip_prefix(KEEP_MARK) {
            Some(r) => (r, Reason::Kept),
            None => (rest, Reason::Plain),
        };
        let Some(why) = rest.strip_prefix(':') else {
            continue;
        };
        let why = why.trim_start_matches(|c: char| c.is_whitespace() || c == '/');
        if why.is_empty() || why.starts_with("TODO") {
            continue;
        }
        if reason == Reason::Kept {
            return Some(Reason::Kept);
        }
        found = Some(Reason::Plain);
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reason(src: &str, line: u32, ord: &str) -> Option<Reason> {
        reason_at(
            &SourceFile::parse("crates/x/src/lib.rs".into(), src),
            line,
            ord,
        )
    }

    #[test]
    fn names_wants_the_word_a_colon_and_a_reason() {
        assert_eq!(
            names("// Relaxed: a counter", "Relaxed"),
            Some(Reason::Plain)
        );
        assert_eq!(
            names("// Acquire (KEPT): pairs with push", "Acquire"),
            Some(Reason::Kept)
        );
        assert_eq!(names("// uses Relaxed here", "Relaxed"), None, "no colon");
        assert_eq!(names("// Relaxed:", "Relaxed"), None, "no reason");
        assert_eq!(names("// Relaxed: TODO", "Relaxed"), None);
        assert_eq!(names("// NotRelaxed: x", "Relaxed"), None, "not a word");
        assert_eq!(names("// Release: publishes\n// the slot", "Acquire"), None);
        // The reason may start on the next comment line.
        assert_eq!(
            names("// Relaxed:\n// a counter\n", "Relaxed"),
            Some(Reason::Plain)
        );
    }

    #[test]
    fn comment_heads_the_statement_or_a_run() {
        let src = "\
fn f(a: &A) {
    // Relaxed: statistics only.
    let t = a.tail.load(Ordering::Relaxed);
    let h = a
        .head
        .load(Ordering::Relaxed);
    // AcqRel: claims the job. Acquire: the loser sees the winner.
    a.state
        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
    a.n.store(0, Ordering::Relaxed); // Relaxed: reset at rest.
}
";
        assert_eq!(reason(src, 3, "Relaxed"), Some(Reason::Plain));
        assert_eq!(
            reason(src, 6, "Relaxed"),
            Some(Reason::Plain),
            "run + chain"
        );
        assert_eq!(reason(src, 9, "AcqRel"), Some(Reason::Plain));
        assert_eq!(reason(src, 9, "Acquire"), Some(Reason::Plain));
        assert_eq!(reason(src, 10, "Relaxed"), Some(Reason::Plain), "trailing");
    }

    #[test]
    fn a_run_ends_at_other_code_blank_lines_and_other_orderings() {
        let src = "\
fn f(a: &A) {
    // Relaxed: statistics only.
    let t = a.tail.load(Ordering::Relaxed);
    work();
    let h = a.head.load(Ordering::Relaxed);

    let k = a.kind.load(Ordering::Relaxed);
    // Acquire: pairs with the push.
    let c = a.c.load(Ordering::Relaxed);
    a.d.store(1, Ordering::Release);
}
";
        assert_eq!(reason(src, 5, "Relaxed"), None, "unrelated statement");
        assert_eq!(reason(src, 7, "Relaxed"), None, "blank line");
        assert_eq!(reason(src, 9, "Relaxed"), None, "comment names Acquire");
        assert_eq!(reason(src, 10, "Release"), None, "other ordering above");
    }

    #[test]
    fn test_code_and_the_harness_are_not_audited() {
        let body = "fn f(a: &A) { a.n.load(Ordering::Relaxed); }\n";
        let bare = |rel: &str, src: &str| {
            let mut out = Vec::new();
            check_comments(&SourceFile::parse(rel.into(), src), &mut out);
            out.len()
        };
        assert_eq!(bare("crates/x/src/lib.rs", body), 1);
        assert_eq!(bare("crates/x/tests/t.rs", body), 0);
        assert_eq!(bare("crates/check/src/scenarios.rs", body), 0);
        let gated = format!("#[cfg(test)]\nmod tests {{\n{body}}}\n");
        assert_eq!(bare("crates/x/src/lib.rs", &gated), 0);
    }
}
