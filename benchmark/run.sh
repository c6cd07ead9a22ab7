#!/usr/bin/env bash
# Build the benchmark package, then run it with the given arguments.
# Run from the repository root: `bash benchmark/run.sh [args]`.
set -euo pipefail

manifest="$(dirname "$0")/Cargo.toml"
# cargo resolves a relative CARGO_TARGET_DIR against the current directory.
target="${CARGO_TARGET_DIR:-$(dirname "$0")/target}"

start=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$manifest" 1>&2
build_s=$(echo "$(date +%s.%N) $start" | awk '{printf "%.3f", $1 - $2}')

case "${1:-}" in
  compare|declare|help|--help|-h) exec "$target/release/adaptivetc-benchmark" "$@" ;;
  *) exec "$target/release/adaptivetc-benchmark" --build-s "$build_s" "$@" ;;
esac
