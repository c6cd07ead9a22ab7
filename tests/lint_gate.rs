//! Tier-1 gate: the concurrency-invariant analyzer must report a clean
//! tree. This is the same engine as `cargo run -p adaptivetc-lint`, run in
//! the test suite so a facade leak, an `Ordering::X` whose adjacent comment
//! does not name `X`, a bare `unsafe` or an ungated hot-path clock read
//! fails `cargo test` with a `file:line` diagnostic — not just CI.

use std::path::Path;

#[test]
fn workspace_passes_the_concurrency_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = adaptivetc_lint::analyze(root).expect("workspace is analyzable");
    assert!(
        findings.is_empty(),
        "adaptivetc-lint found {} violation(s):\n{}\n\
         (if an ordering changed intentionally, say why in a `// X: reason` \
         comment at the site)",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
