#!/usr/bin/env bash
# Run the tier-1 test binaries N times beside K busy loops; print failures.
#
#   scripts/flake.sh N K
#
# Tier-1 is `cargo test -q` at the root: the default members' unit and
# integration test binaries (doc tests are not binaries and are not run
# here). The script builds them once with `cargo test --no-run`, starts K
# busy-loop processes (0 <= K <= 4) so the tests compete for the CPU as on
# a loaded host, and runs every binary N times, one at a time, from its
# package directory as cargo does. A binary run that takes longer than
# 900 seconds is killed and counted as a failure of the whole binary. The
# busy loops are this script's own children and are killed when it exits
# or is interrupted.
#
# Reports each failure on stderr as it happens, with its round and the
# test's captured output, then one line per test that failed at least
# once, `<failures>/<N> <binary> <test>`, and a summary; exits 1 if
# anything failed.
set -euo pipefail

if [ $# -ne 2 ]; then
  sed -n '2,19p' "$0" >&2
  exit 2
fi
rounds=$1 busy=$2
case $rounds in '' | *[!0-9]* | 0) echo "N must be a positive integer" >&2; exit 2 ;; esac
case $busy in '' | *[!0-9]*) echo "K must be an integer" >&2; exit 2 ;; esac
if [ "$busy" -gt 4 ]; then
  echo "K is at most 4" >&2
  exit 2
fi
limit=900
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# One line per test binary: executable, package directory, and its source
# path from the root (`crates/sim/src/lib.rs`, `tests/sim_golden.rs`).
cargo test --no-run --quiet --message-format=json --manifest-path "$root/Cargo.toml" |
  python3 -c '
import json, os, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m.get("executable") and m["profile"]["test"]:
        label = os.path.relpath(m["target"]["src_path"], sys.argv[1])
        print(m["executable"], os.path.dirname(m["manifest_path"]), label, sep="\t")
' "$root" >"$work/binaries"
count=$(wc -l <"$work/binaries")
echo "$count test binaries, $rounds rounds, $busy busy loops" >&2

for _ in $(seq 1 "$busy"); do
  (while :; do :; done) &
  pids+=($!)
done

: >"$work/failures"
for r in $(seq 1 "$rounds"); do
  while IFS=$'\t' read -r exe dir label; do
    status=0
    (cd "$dir" && CARGO_MANIFEST_DIR="$dir" timeout "$limit" "$exe") \
      >"$work/out" 2>&1 </dev/null || status=$?
    failed=$(sed -n 's/^test \(.*\) \.\.\. FAILED$/\1/p' "$work/out")
    if [ -n "$failed" ]; then
      echo "$failed" | sed "s|^|$label\t|" >>"$work/failures"
    elif [ "$status" -ne 0 ]; then
      failed="(whole binary: exit status $status)"
      printf '%s\t%s\n' "$label" "$failed" >>"$work/failures"
    fi
    if [ -n "$failed" ]; then
      echo "$failed" | sed "s|^|round $r: $label |" >&2
      # The failing tests' captured output (panic messages), or the tail.
      { sed -n '/^---- /,/^failures:$/p' "$work/out" | grep . || tail -n 20 "$work/out"; } |
        head -n 40 | sed 's/^/    /' >&2 || true
    fi
  done <"$work/binaries"
  echo "round $r/$rounds done: $(wc -l <"$work/failures") failures so far" >&2
done

if [ -s "$work/failures" ]; then
  sort "$work/failures" | uniq -c | sort -rn |
    awk -v n="$rounds" '{ c = $1; $1 = ""; printf "%d/%d%s\n", c, n, $0 }'
  echo "FAILED: $(wc -l <"$work/failures") test failures over $rounds rounds of $count binaries beside $busy busy loops"
  exit 1
fi
echo "ok: no failure in $rounds rounds of $count binaries beside $busy busy loops"
