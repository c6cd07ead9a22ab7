//! Tier-1 cases for the lint's memory-ordering rules, each over a small
//! fixture tree written under the test's temp directory: an `Ordering::X`
//! needs an adjacent `// X: reason`, and `--orderings-verify` reads the
//! `(KEPT)` marker from the same comment. Together with `lint_gate.rs`
//! they show the review nudge: a new site, an ordering changed under an
//! unchanged comment, and a keep decision that drifted from the audit's
//! verdict all fail `cargo test` with a `file:line` diagnostic.

use adaptivetc_lint::{analyze, verify_orderings, Finding, Rule};
use std::fs;
use std::path::PathBuf;

/// A covered file of the audit, so `verify_orderings` wants a verdict.
const FILE: &str = "crates/deque/src/signal.rs";

/// Write `body` (as `fn poll`) and, if given, a verdict for its `ordering`
/// group into a fresh tree; returns the tree's root.
fn tree(name: &str, body: &str, verdict: Option<(&str, &str)>) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join(FILE);
    fs::create_dir_all(src.parent().unwrap()).unwrap();
    fs::write(
        &src,
        format!("use crate::sync::Ordering;\n\npub fn poll(a: &A) -> bool {{\n{body}}}\n"),
    )
    .unwrap();
    if let Some((ordering, verdict)) = verdict {
        fs::write(
            root.join("ORDERING_VERDICTS.toml"),
            format!(
                "[[verdict]]\nfile = \"{FILE}\"\nsymbol = \"poll\"\nordering = \"{ordering}\"\n\
                 verdict = \"{verdict}\"\nexercised = 1\nsuites = \"s\"\ndetail = \"d\"\n"
            ),
        )
        .unwrap();
    }
    root
}

/// The single finding, which must point into the fixture source.
fn only(findings: Vec<Finding>, rule: Rule, line: u32) -> Finding {
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = findings.into_iter().next().unwrap();
    assert_eq!((f.rule, f.file.as_str(), f.line), (rule, FILE, line), "{f}");
    f
}

#[test]
fn site_without_a_comment_fails() {
    let bare = tree("bare", "    a.flag.load(Ordering::Relaxed)\n", None);
    let f = only(analyze(&bare).unwrap(), Rule::Ordering, 4);
    assert!(f.to_string().starts_with(&format!("{FILE}:4:")), "{f}");

    let body = "    // Relaxed: an advisory poll.\n    a.flag.load(Ordering::Relaxed)\n";
    let clean = tree("commented", body, None);
    assert!(analyze(&clean).unwrap().is_empty());
}

#[test]
fn comment_naming_another_ordering_fails() {
    // The ordering was weakened under an unchanged comment.
    let body =
        "    // Acquire: pairs with the thief's Release.\n    a.flag.load(Ordering::Relaxed)\n";
    let f = only(
        analyze(&tree("renamed", body, None)).unwrap(),
        Rule::Ordering,
        5,
    );
    assert!(f.msg.contains("Ordering::Relaxed"), "{f}");
}

#[test]
fn weakenable_group_without_the_keep_marker_fails_verify() {
    let plain =
        "    // Acquire: pairs with the thief's Release.\n    a.flag.load(Ordering::Acquire)\n";
    let root = tree("unkept", plain, Some(("Acquire", "weakenable")));
    assert!(analyze(&root).unwrap().is_empty(), "a reason is a reason");
    let f = only(verify_orderings(&root).unwrap(), Rule::Keep, 5);
    assert!(f.msg.contains("weakenable"), "{f}");

    let kept =
        "    // Acquire (KEPT): two thieves need the edge.\n    a.flag.load(Ordering::Acquire)\n";
    let root = tree("kept", kept, Some(("Acquire", "weakenable")));
    assert!(verify_orderings(&root).unwrap().is_empty());
}

#[test]
fn keep_marker_on_a_required_group_fails_verify() {
    let kept =
        "    // Acquire (KEPT): two thieves need the edge.\n    a.flag.load(Ordering::Acquire)\n";
    let root = tree("stale-keep", kept, Some(("Acquire", "required")));
    let f = only(verify_orderings(&root).unwrap(), Rule::Keep, 5);
    assert!(f.msg.contains("stale keep marker"), "{f}");
}
