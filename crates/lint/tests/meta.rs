//! Meta-tests: the analyzer run over small committed fixture trees, one
//! per violation class, plus a clean tree that must produce zero findings.
//! Each violating fixture must yield a `file:line: [rule]` diagnostic
//! pointing at the seeded defect.

use adaptivetc_lint::{analyze, Finding, Rule};
use std::path::PathBuf;

fn findings(fixture: &str) -> Vec<Finding> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    analyze(&root).expect("fixture tree is analyzable")
}

/// The one finding with `rule`, asserting no other classes fired.
fn only(fixture: &str, rule: Rule) -> Finding {
    let all = findings(fixture);
    assert!(
        all.iter().all(|f| f.rule == rule),
        "{fixture}: expected only {:?} findings, got: {}",
        rule,
        all.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
    assert_eq!(all.len(), 1, "{fixture}: expected exactly one finding");
    all.into_iter().next().unwrap()
}

#[test]
fn clean_tree_has_zero_findings() {
    let all = findings("clean");
    assert!(
        all.is_empty(),
        "clean fixture produced findings: {}",
        all.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn raw_atomic_outside_facade_is_flagged() {
    let f = only("raw-atomic", Rule::Facade);
    assert_eq!(f.file, "crates/foo/src/lib.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.col, 5, "column of `std` in `use std::sync::atomic...`");
    assert!(f
        .to_string()
        .starts_with("crates/foo/src/lib.rs:2:5: [facade]"));
}

#[test]
fn ordering_without_a_reason_is_flagged() {
    let f = only("bare-ordering", Rule::Ordering);
    assert_eq!(f.file, "crates/foo/src/lib.rs");
    assert_eq!(f.line, 8);
    assert!(f.msg.contains("`bump`"), "symbol in message: {}", f.msg);
    assert!(f.msg.contains("// Relaxed:"), "names the fix: {}", f.msg);
}

#[test]
fn missing_safety_comment_is_flagged() {
    let f = only("missing-safety", Rule::UnsafeHygiene);
    assert_eq!(f.file, "crates/foo/src/lib.rs");
    assert_eq!(f.line, 3);
    assert!(f.msg.contains("`deref`"), "symbol in message: {}", f.msg);
}

#[test]
fn ungated_clock_read_on_hot_path_is_flagged() {
    // One seeded read per file: the engine, the fence-free deque and the
    // join cell.
    let all = findings("ungated-instant");
    let at: Vec<(&str, u32)> = all.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(
        at,
        [
            ("crates/deque/src/fence_free.rs", 5),
            ("crates/runtime/src/engine.rs", 5),
            ("crates/runtime/src/join.rs", 5),
        ]
    );
    for f in &all {
        assert_eq!(f.rule, Rule::TraceGate, "{f}");
        assert!(f.msg.contains("Instant::now"), "message: {}", f.msg);
    }
}
