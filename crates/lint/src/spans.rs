//! Structural spans recovered from the token stream: `#[cfg(...)]`-gated
//! regions, function bodies, and `unsafe fn` bodies.
//!
//! The scanner is deliberately lightweight — it brace-matches the token
//! stream (strings and comments are already gone, so every `{`/`}` token
//! is structural) and interprets only the `cfg` predicate the rules care
//! about. Predicates are evaluated *conservatively*: a region counts as
//! test-only only when the predicate provably requires `test` (directly or
//! under `all(...)`); `any(...)` and `not(...)` never qualify.

use crate::lexer::{Tok, TokKind};

/// A line range `[start, end]` (1-based, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineSpan {
    /// First line.
    pub start: u32,
    /// Last line.
    pub end: u32,
}

impl LineSpan {
    /// Whether `line` falls inside the span.
    pub fn contains(&self, line: u32) -> bool {
        self.start <= line && line <= self.end
    }
}

/// A named function body span.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// The function's identifier.
    pub name: String,
    /// Line of the `fn` keyword.
    pub start: u32,
    /// Line of the closing body brace.
    pub end: u32,
    /// Whether the function is declared `unsafe fn`.
    pub is_unsafe: bool,
}

/// All structural spans of one file.
#[derive(Debug, Default)]
pub struct Spans {
    /// Regions gated by `#[cfg]` predicates requiring `test`.
    pub cfg_test: Vec<LineSpan>,
    /// Function bodies, outermost first (scan order).
    pub fns: Vec<FnSpan>,
}

impl Spans {
    /// Whether `line` is inside a test-only region.
    pub fn in_test(&self, line: u32) -> bool {
        self.cfg_test.iter().any(|s| s.contains(line))
    }

    /// Innermost function containing `line` (smallest enclosing body).
    pub fn fn_at(&self, line: u32) -> Option<&FnSpan> {
        self.fns
            .iter()
            .filter(|f| f.start <= line && line <= f.end)
            .min_by_key(|f| f.end - f.start)
    }

    /// Name of the innermost function at `line`, or a placeholder for
    /// top-level positions (static initializers and the like).
    pub fn symbol_at(&self, line: u32) -> String {
        self.fn_at(line)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| "(top-level)".to_string())
    }

    /// Whether `line` lies strictly inside the body of an `unsafe fn`
    /// (the declaring line itself does not count).
    pub fn inside_unsafe_fn_body(&self, line: u32) -> bool {
        self.fns
            .iter()
            .any(|f| f.is_unsafe && f.start < line && line <= f.end)
    }
}

/// Compute all spans for a token stream.
pub fn scan(toks: &[Tok]) -> Spans {
    let mut spans = Spans::default();
    scan_attrs(toks, &mut spans);
    scan_fns(toks, &mut spans);
    spans
}

fn is_punct(t: &Tok, c: char) -> bool {
    t.kind == TokKind::Punct(c)
}

fn ident(t: &Tok) -> Option<&str> {
    match &t.kind {
        TokKind::Ident(s) => Some(s),
        _ => None,
    }
}

/// Find `#[cfg(...)]` attributes and record the line span of the item (or
/// block) each one gates.
fn scan_attrs(toks: &[Tok], spans: &mut Spans) {
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(&toks[i], '#') {
            i += 1;
            continue;
        }
        // `#[` outer attribute; `#![...]` inner attributes gate the whole
        // enclosing item and never carry cfg(test) here, skip.
        let Some(open) = toks.get(i + 1) else { break };
        if !is_punct(open, '[') {
            i += 1;
            continue;
        }
        // Collect the attribute token slice up to the matching `]`.
        let mut depth = 1i32;
        let mut j = i + 2;
        let attr_start = j;
        while j < toks.len() && depth > 0 {
            if is_punct(&toks[j], '[') {
                depth += 1;
            } else if is_punct(&toks[j], ']') {
                depth -= 1;
            }
            j += 1;
        }
        let attr = &toks[attr_start..j.saturating_sub(1)];
        let is_cfg = attr.first().and_then(ident) == Some("cfg");
        if is_cfg && requires_test(attr) {
            if let Some(span) = attached_span(toks, j) {
                spans.cfg_test.push(span);
            }
        }
        i = j;
    }
}

/// Whether the cfg predicate (tokens between `cfg(` and `)`) provably
/// requires `test`: bare, or inside `all(...)` at any depth; `any`/`not`
/// subtrees never qualify.
fn requires_test(attr: &[Tok]) -> bool {
    // Walk the token list; treat `all(` as transparent, and skip balanced
    // parens after `any` / `not` / unknown functions entirely.
    let mut i = 0usize;
    while i < attr.len() {
        match ident(&attr[i]) {
            Some("all") | Some("cfg") => i += 1, // transparent wrappers
            Some("any") | Some("not") => {
                // Skip the balanced `(...)` group.
                let mut j = i + 1;
                if j < attr.len() && is_punct(&attr[j], '(') {
                    let mut depth = 1i32;
                    j += 1;
                    while j < attr.len() && depth > 0 {
                        if is_punct(&attr[j], '(') {
                            depth += 1;
                        } else if is_punct(&attr[j], ')') {
                            depth -= 1;
                        }
                        j += 1;
                    }
                }
                i = j;
            }
            Some("test") => return true,
            _ => i += 1,
        }
    }
    false
}

/// The line span of the item an attribute at token index `start` attaches
/// to: further attributes are skipped, then the span runs to the matching
/// close brace of the first `{`, or to the first `;` when no brace opens
/// before it (e.g. a gated `use` or `const`).
fn attached_span(toks: &[Tok], mut start: usize) -> Option<LineSpan> {
    // Skip stacked attributes.
    while start + 1 < toks.len() && is_punct(&toks[start], '#') && is_punct(&toks[start + 1], '[') {
        let mut depth = 1i32;
        let mut j = start + 2;
        while j < toks.len() && depth > 0 {
            if is_punct(&toks[j], '[') {
                depth += 1;
            } else if is_punct(&toks[j], ']') {
                depth -= 1;
            }
            j += 1;
        }
        start = j;
    }
    let first = toks.get(start)?;
    let start_line = first.line;
    let mut i = start;
    while i < toks.len() {
        if is_punct(&toks[i], ';') {
            return Some(LineSpan {
                start: start_line,
                end: toks[i].line,
            });
        }
        if is_punct(&toks[i], '{') {
            let end = match_brace(toks, i)?;
            return Some(LineSpan {
                start: start_line,
                end: toks[end].line,
            });
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn match_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if is_punct(t, '{') {
            depth += 1;
        } else if is_punct(t, '}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Find every `fn name ... { body }` definition and record its body span.
fn scan_fns(toks: &[Tok], spans: &mut Spans) {
    let mut i = 0usize;
    while i < toks.len() {
        if ident(&toks[i]) != Some("fn") {
            i += 1;
            continue;
        }
        // `fn(` is a function-pointer type, not a definition.
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        let Some(name) = ident(name_tok) else {
            i += 1;
            continue;
        };
        // Unsafety: look back over qualifiers (`pub(crate) unsafe fn`,
        // `unsafe extern fn`). Scan a few tokens back for `unsafe` that is
        // not separated by a `;`, `}` or `{`.
        let is_unsafe = toks[..i]
            .iter()
            .rev()
            .take(6)
            .take_while(|t| !is_punct(t, ';') && !is_punct(t, '}') && !is_punct(t, '{'))
            .any(|t| ident(t) == Some("unsafe"));
        // Find the body `{` at paren depth 0 (the signature's parameter
        // list and any const-generic braces live behind parens or `=`).
        let mut paren = 0i32;
        let mut j = i + 2;
        let mut body = None;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('(') => paren += 1,
                TokKind::Punct(')') => paren -= 1,
                TokKind::Punct(';') if paren == 0 => break, // trait decl, no body
                TokKind::Punct('{') if paren == 0 => {
                    body = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(open) = body {
            if let Some(close) = match_brace(toks, open) {
                spans.fns.push(FnSpan {
                    name: name.to_string(),
                    start: toks[i].line,
                    end: toks[close].line,
                    is_unsafe,
                });
                // Continue scanning *inside* the body too (nested fns).
                i += 2;
                continue;
            }
        }
        i = j.max(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn spans_of(src: &str) -> Spans {
        scan(&lex(src).0)
    }

    #[test]
    fn cfg_test_mod_span() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn t() {}\n}\nfn b() {}";
        let s = spans_of(src);
        assert!(!s.in_test(1));
        assert!(s.in_test(3));
        assert!(s.in_test(4));
        assert!(!s.in_test(6));
    }

    #[test]
    fn cfg_test_item_and_use_spans() {
        let src =
            "#[cfg(test)]\nuse other::Thing;\n#[cfg(test)]\nfn helper() {\n x();\n}\nfn plain() {}";
        let s = spans_of(src);
        assert!(s.in_test(2));
        assert!(s.in_test(5));
        assert!(!s.in_test(7));
    }

    #[test]
    fn negated_and_any_predicates_do_not_gate() {
        let src = "#[cfg(not(test))]\nfn a() { x(); }\n#[cfg(any(test, feature = \"x\"))]\nfn b() { y(); }\n#[cfg(all(test, unix))]\nfn c() { z(); }";
        let s = spans_of(src);
        assert!(!s.in_test(2));
        assert!(!s.in_test(4));
        assert!(s.in_test(6)); // all(test, ..) requires test
    }

    #[test]
    fn fn_spans_and_symbols() {
        let src =
            "impl Foo {\n fn alpha(&self) {\n  one();\n }\n unsafe fn beta() {\n  two();\n }\n}";
        let s = spans_of(src);
        assert_eq!(s.symbol_at(3), "alpha");
        assert_eq!(s.symbol_at(6), "beta");
        assert!(s.inside_unsafe_fn_body(6));
        assert!(!s.inside_unsafe_fn_body(3));
        assert!(!s.inside_unsafe_fn_body(5)); // declaring line itself
    }

    #[test]
    fn fn_pointer_types_are_not_defs() {
        let s = spans_of("type F = fn(usize) -> bool;\nfn real() { body(); }");
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].name, "real");
    }

    #[test]
    fn block_level_test_gate() {
        let src = "fn hot() {\n #[cfg(test)]\n {\n  probe();\n }\n cold();\n}";
        let s = spans_of(src);
        assert!(s.in_test(4));
        assert!(!s.in_test(6));
    }
}
