//! CLI for the concurrency-invariant analyzer.
//!
//! ```text
//! cargo run -p adaptivetc-lint                        # check; exit 1 on findings
//! cargo run -p adaptivetc-lint -- --orderings-verify  # cross-check ORDERING_VERDICTS.toml
//! cargo run -p adaptivetc-lint -- --root P            # analyze the workspace at P
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut orderings_verify = false;
    let mut root: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--orderings-verify" => orderings_verify = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "adaptivetc-lint: concurrency-invariant static analyzer\n\n\
                     USAGE: adaptivetc-lint [--root PATH] [--orderings-verify]\n\n\
                     Default mode checks facade integrity, the `// X: reason` comment at\n\
                     every `Ordering::X` site, unsafe hygiene and trace discipline; exits 1\n\
                     on findings.\n\
                     --orderings-verify cross-checks ORDERING_VERDICTS.toml (from the\n\
                     crates/check ordering_audit binary) against the tree: every weakenable\n\
                     group must be marked `// X (KEPT): reason` at its sites."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| adaptivetc_lint::find_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "could not locate the workspace root (no Cargo.toml with [workspace]); pass --root"
            );
            return ExitCode::from(2);
        }
    };

    let (mode, result) = if orderings_verify {
        (
            "adaptivetc-lint --orderings-verify",
            adaptivetc_lint::verify_orderings(&root),
        )
    } else {
        ("adaptivetc-lint", adaptivetc_lint::analyze(&root))
    };
    match result {
        Ok(findings) if findings.is_empty() => {
            println!("{mode}: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("{mode}: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("analysis failed: {e}");
            ExitCode::from(2)
        }
    }
}
