#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload.
#
#   scripts/pairs.sh <parent-binary> <change-binary> <workload> <pairs> [seconds]
#
# Both binaries are `adaptivetc-benchmark` builds (`bash benchmark/run.sh`
# leaves one in benchmark/target/release; build the parent's from a
# `git clone` of the parent commit into its own CARGO_TARGET_DIR). Pair i
# runs both sides with seed SEED0 + i (SEED0 defaults to 0; move it to
# measure on seeds not used while coding), tracing off, the parent first in
# odd pairs and the change first in even ones. Prints, per end-to-end
# metric, each side's median and quartiles over the pairs, and for the
# named metric (default jobs_per_s on the jobs workloads, ratio_to_serial
# elsewhere; set METRIC to choose) how many pairs the change won. `failed`
# is summed per side. Every run's JSON line is kept in $OUT (default: a
# temp directory).
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,16p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=${5:-12}
case $workload in
  jobs_*) metric=${METRIC:-jobs_per_s} ;;
  *) metric=${METRIC:-ratio_to_serial} ;;
esac
seed0=${SEED0:-0}
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"

run() { # side binary seed
  "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 |
    tail -n 1 >>"$out/$1.jsonl"
}

: >"$out/parent.jsonl"
: >"$out/change.jsonl"
for i in $(seq 1 "$pairs"); do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  echo "pair $i/$pairs done" >&2
done

python3 - "$out" "$workload" "$metric" "$seconds" "$seed0" <<'EOF'
import json, sys
out, workload, named, seconds, seed0 = sys.argv[1:6]
HIGHER = {"nodes_per_s", "jobs_per_s"}
sides = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}
pairs = len(sides["parent"])

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

first = int(seed0) + 1
print(f"{workload}: {pairs} alternating pairs of {seconds} s, seeds {first}..{first + pairs - 1}")
print(f"{'metric':<22}{'side':<8}{'median':>14}{'q1':>14}{'q3':>14}{'q3-q1':>12}")
for name in sides["parent"][0]["metrics"]:
    for side, runs in sides.items():
        xs = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = (quantile(xs, q) for q in (0.25, 0.5, 0.75))
        print(f"{name:<22}{side:<8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{q3 - q1:>12.4g}")
p = [r["metrics"][named]["value"] for r in sides["parent"]]
c = [r["metrics"][named]["value"] for r in sides["change"]]
better = (lambda a, b: a > b) if named in HIGHER else (lambda a, b: a < b)
wins = sum(better(x, y) for x, y in zip(c, p))
losses = sum(better(y, x) for x, y in zip(c, p))
mp, mc = quantile(p, 0.5), quantile(c, 0.5)
print(f"{named}: change ahead in {wins}/{pairs} pairs ({losses} behind), "
      f"median {mp:.6g} -> {mc:.6g} ({(mc / mp - 1) * 100:+.1f} %)")
for side, runs in sides.items():
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    print(f"failed ({side}): {failed} of {attempted}")
print(f"runs kept in {out}")
EOF
