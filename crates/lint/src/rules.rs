//! The per-file token rules: facade integrity, unsafe hygiene, and trace
//! discipline. (The memory-ordering audit is the fourth; it lives in
//! `sites` with the site collector the verdict cross-check shares.)

use crate::allowlist::Allowlist;
use crate::lexer::{Tok, TokKind};
use crate::model::{Finding, Rule, SourceFile};

/// Files whose bodies are the scheduler/deque/trace hot paths. A clock
/// read in these files needs an explicit allowlist entry naming its symbol.
pub const HOT_PATH_FILES: &[&str] = &[
    "crates/runtime/src/engine.rs",
    "crates/runtime/src/tascell.rs",
    "crates/runtime/src/frame.rs",
    "crates/runtime/src/join.rs",
    "crates/runtime/src/pool.rs",
    "crates/deque/src/the.rs",
    "crates/deque/src/chase_lev.rs",
    "crates/deque/src/fence_free.rs",
    "crates/deque/src/pool.rs",
    "crates/deque/src/signal.rs",
    "crates/deque/src/backend.rs",
    "crates/trace/src/ring.rs",
];

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Whether the path `seg0::seg1::...` starts at token `i`.
pub fn path_at(toks: &[Tok], i: usize, segs: &[&str]) -> bool {
    let mut idx = i;
    for (k, seg) in segs.iter().enumerate() {
        if k > 0 {
            if !(punct_at(toks, idx, ':') && punct_at(toks, idx + 1, ':')) {
                return false;
            }
            idx += 2;
        }
        if ident_at(toks, idx) != Some(*seg) {
            return false;
        }
        idx += 1;
    }
    true
}

/// Facade integrity: raw concurrency primitives may only be named inside
/// the `crate::sync` facade modules (allowlisted) and test code. Everything
/// else must import through a facade so the model checker's coverage claim
/// — "every atomic the deques execute is a shim-sync yield point" — stays
/// machine-verified.
pub fn check_facade(f: &SourceFile, allow: &Allowlist, out: &mut Vec<Finding>) {
    if f.is_test_context() {
        return;
    }
    const BANNED: &[(&[&str], &str)] = &[
        (
            &["std", "sync", "atomic"],
            "raw `std::sync::atomic` outside a `crate::sync` facade",
        ),
        (
            &["std", "thread", "spawn"],
            "raw `std::thread::spawn` outside a `crate::sync` facade (use scoped workers)",
        ),
        (
            &["parking_lot"],
            "direct `parking_lot` use outside a `crate::sync` facade",
        ),
    ];
    for (i, t) in f.toks.iter().enumerate() {
        for (segs, what) in BANNED {
            if path_at(&f.toks, i, segs) {
                let line = t.line;
                if f.spans.in_test(line) {
                    continue;
                }
                let symbol = f.spans.symbol_at(line);
                if allow.permits(Rule::Facade, &f.rel, &symbol) {
                    continue;
                }
                out.push(Finding {
                    file: f.rel.clone(),
                    line,
                    col: t.col,
                    rule: Rule::Facade,
                    msg: format!("{what} (in `{symbol}`)"),
                });
            }
        }
    }
}

/// Unsafe hygiene: every `unsafe` keyword in non-test code needs an
/// adjacent `// SAFETY:` comment stating the discharged invariant. Blocks
/// inside an `unsafe fn` body are covered by the function's own
/// requirement comment; consecutive `unsafe impl` lines share one comment.
pub fn check_unsafe(f: &SourceFile, allow: &Allowlist, out: &mut Vec<Finding>) {
    if f.is_test_context() {
        return;
    }
    let mut reported = Vec::new();
    for t in &f.toks {
        if t.kind != TokKind::Ident("unsafe".to_string()) {
            continue;
        }
        let line = t.line;
        if f.spans.in_test(line) || f.spans.inside_unsafe_fn_body(line) {
            continue;
        }
        if reported.contains(&line) {
            continue; // one finding per line, e.g. `unsafe { a() }; unsafe { b() }`
        }
        if has_safety_comment(f, line) {
            continue;
        }
        let symbol = f.spans.symbol_at(line);
        if allow.permits(Rule::UnsafeHygiene, &f.rel, &symbol) {
            continue;
        }
        reported.push(line);
        out.push(Finding {
            file: f.rel.clone(),
            line,
            col: t.col,
            rule: Rule::UnsafeHygiene,
            msg: format!("`unsafe` without an adjacent `// SAFETY:` comment (in `{symbol}`)"),
        });
    }
}

/// Whether a SAFETY comment sits adjacent to the `unsafe` token on `line`:
/// on the line itself, directly above (skipping blanks, attributes, other
/// comments and earlier `unsafe impl` one-liners of the same group), or —
/// when the line opens a block — in the comment lines leading its body.
fn has_safety_comment(f: &SourceFile, line: u32) -> bool {
    let marks = |text: &str| text.contains("SAFETY") || text.contains("# Safety");
    if marks(&f.comment_text_at(line)) {
        return true;
    }
    // Down-scan into an opened block: `unsafe fn foo(...) {` / `unsafe {`
    // followed by the comment as the body's first lines.
    if f.line_text(line).trim_end().ends_with('{') {
        let mut l = line + 1;
        while (l as usize) <= f.lines.len() {
            let comment = f.comment_text_at(l);
            if marks(&comment) {
                return true;
            }
            let pure_comment = !comment.is_empty() && !f.has_code_on(l);
            let blank = comment.is_empty() && f.line_text(l).trim().is_empty();
            if pure_comment || blank {
                l += 1;
                continue;
            }
            break;
        }
    }
    // Up-scan for the comment above the construct.
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let comment = f.comment_text_at(l);
        if marks(&comment) {
            return true;
        }
        let trimmed = f.line_text(l).trim().to_string();
        let pure_comment = !comment.is_empty() && !f.has_code_on(l);
        let blank = trimmed.is_empty();
        let attr = trimmed.starts_with("#[") || trimmed.starts_with("#!");
        let unsafe_impl = trimmed.starts_with("unsafe impl");
        if pure_comment || blank || attr || unsafe_impl {
            l -= 1;
            continue;
        }
        break;
    }
    false
}

/// Trace discipline: on hot-path files, every `Instant::now` must sit in
/// an allow-listed symbol — the one `now_if` probe that `Config::timing`
/// gates at run time, or a once-per-run wall-clock read. Anything else
/// would put a clock read into every run's per-task path.
pub fn check_trace_gate(f: &SourceFile, allow: &Allowlist, out: &mut Vec<Finding>) {
    if !HOT_PATH_FILES.contains(&f.rel.as_str()) {
        return;
    }
    for (i, t) in f.toks.iter().enumerate() {
        if !path_at(&f.toks, i, &["Instant", "now"]) {
            continue;
        }
        let line = t.line;
        if f.spans.in_test(line) {
            continue;
        }
        let symbol = f.spans.symbol_at(line);
        if allow.permits(Rule::TraceGate, &f.rel, &symbol) {
            continue;
        }
        out.push(Finding {
            file: f.rel.clone(),
            line,
            col: t.col,
            rule: Rule::TraceGate,
            msg: format!(
                "`Instant::now` on a hot path outside an allow-listed symbol (in `{symbol}`)"
            ),
        });
    }
}
