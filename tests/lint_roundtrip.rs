//! Property-based round-trips for the lint's data files.
//!
//! `ORDERING_VERDICTS.toml` (machine-written by the audit binary) and
//! `LINT_ALLOW.toml` (hand-edited) both flow through the minimal TOML
//! subset in `adaptivetc_lint::toml`. Two properties keep that trustworthy
//! for arbitrary (printable) text:
//!
//! 1. **Parse inverts render** — rendering a verdict list and parsing it
//!    back yields the same entries, findings-free, even when strings
//!    contain quotes, backslashes and `#`.
//! 2. **The allowlist parser accepts what the documented format says** —
//!    any entry with a known rule and a non-empty justification parses
//!    without findings.

use adaptivetc_lint::allowlist::Allowlist;
use adaptivetc_lint::sites::SiteKey;
use adaptivetc_lint::toml::quote;
use adaptivetc_lint::verdicts::{self, VerdictEntry, VERDICT_KINDS};
use proptest::prelude::*;

/// Printable ASCII with no newline — the single-line-value TOML subset's
/// whole domain. Deliberately includes `"`, `\` and `#` to stress the
/// escaping and comment-stripping paths.
fn printable() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~]{1,30}").expect("valid regex")
}

/// Non-empty field text (keys reject empty/whitespace-only strings).
fn field() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[!-~][ -~]{0,24}").expect("valid regex")
}

/// One of the five real ordering names; file and symbol get the
/// adversarial text.
fn ordering() -> impl Strategy<Value = String> {
    (0usize..5).prop_map(|i| ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"][i].to_string())
}

fn site_key() -> impl Strategy<Value = SiteKey> {
    (field(), field(), ordering()).prop_map(|(file, symbol, ordering)| SiteKey {
        file,
        symbol,
        ordering,
    })
}

proptest! {
    // Render → parse over ORDERING_VERDICTS.toml recovers every field.
    #[test]
    fn verdicts_parse_inverts_render(
        raw in proptest::collection::btree_map(
            site_key(),
            (0usize..VERDICT_KINDS.len(), 0u64..10_000, printable(), printable()),
            1..8,
        )
    ) {
        let entries: Vec<VerdictEntry> = raw
            .into_iter()
            .map(|(key, (kind, exercised, suites, detail))| VerdictEntry {
                key,
                verdict: VERDICT_KINDS[kind].to_string(),
                exercised,
                suites,
                detail,
                line: 0,
            })
            .collect();
        let text = verdicts::render_verdicts(&entries);
        let mut findings = Vec::new();
        let back = verdicts::parse_verdicts(&text, &mut findings);
        prop_assert!(findings.is_empty(), "{findings:?}");
        prop_assert_eq!(back.len(), entries.len());
        for (a, b) in entries.iter().zip(&back) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(&a.verdict, &b.verdict);
            prop_assert_eq!(a.exercised, b.exercised);
            prop_assert_eq!(&a.suites, &b.suites);
            prop_assert_eq!(&a.detail, &b.detail);
        }
    }

    // Any LINT_ALLOW.toml entry with a known rule and a real
    // justification parses findings-free with every field intact.
    #[test]
    fn allowlist_parse_accepts_documented_format(
        raw in proptest::collection::vec(
            (
                field(),
                0usize..3,
                proptest::option::of(field()),
                printable(),
            ),
            1..8,
        )
    ) {
        const RULES: &[&str] = &["facade", "trace-gate", "unsafe-safety"];
        let mut text = String::from("# generated\n");
        for (file, rule, symbol, why) in &raw {
            text.push_str("\n[[allow]]\n");
            text.push_str(&format!("file = {}\n", quote(file)));
            text.push_str(&format!("rule = {}\n", quote(RULES[*rule])));
            if let Some(sym) = symbol {
                text.push_str(&format!("symbol = {}\n", quote(sym)));
            }
            // A justification the parser must not flag as empty/TODO.
            text.push_str(&format!("why = {}\n", quote(&format!("because {why}"))));
        }
        let mut findings = Vec::new();
        let allow = Allowlist::parse(&text, &mut findings);
        prop_assert!(findings.is_empty(), "{findings:?}");
        prop_assert_eq!(allow.entries.len(), raw.len());
        for (e, (file, rule, symbol, _)) in allow.entries.iter().zip(&raw) {
            prop_assert_eq!(&e.file, file);
            prop_assert_eq!(e.rule.as_str(), RULES[*rule]);
            prop_assert_eq!(&e.symbol, symbol);
        }
    }
}
