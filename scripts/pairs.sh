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
#
# Before each side of each pair a ~200 ms probe measures the box's regime:
# the throughput of two pure-ALU processes over one's (about 2 when two
# cores are free, about 1 when the two share one). A run whose probe reads
# at least 1.5 is in regime "2cpu", else "1cpu"; the probe is kept beside
# the run's JSON line. A pair whose two sides fall in different regimes is
# flagged; with STRICT=1 it is re-run, up to 3 times, until they agree.
# The summary prints per-regime medians next to the pooled ones.
set -euo pipefail

if [ $# -lt 4 ]; then
  sed -n '2,24p' "$0" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 pairs=$4 seconds=${5:-12}
case $workload in
  jobs_*) metric=${METRIC:-jobs_per_s} ;;
  *) metric=${METRIC:-ratio_to_serial} ;;
esac
seed0=${SEED0:-0}
strict=${STRICT:-0}
# The probe reads near 1 or near 2 and rarely between; 1.5 is the midpoint.
split=1.5
retries=3
out=${OUT:-$(mktemp -d)}
mkdir -p "$out"

probe() { # two pure-ALU processes' throughput over one's, ~200 ms
  python3 - <<'EOF'
import subprocess, sys
SPIN = """import time
end = time.perf_counter() + 0.06
n = 0
while time.perf_counter() < end:
    x = 0
    for i in range(2000):
        x += i
    n += 1
print(n)"""
def spin(k):
    ps = [subprocess.Popen([sys.executable, "-c", SPIN], stdout=subprocess.PIPE) for _ in range(k)]
    return sum(int(p.communicate()[0]) for p in ps)
# One process before and after the two, the better reading: the first spin
# of a run also pays for waking the core up.
one = spin(1)
two = spin(2)
print(f"{two / max(one, spin(1)):.3f}")
EOF
}

regime() { # probe value -> regime name
  awk -v p="$1" -v s="$split" 'BEGIN { print (p >= s) ? "2cpu" : "1cpu" }'
}

run() { # side binary seed: one probed run into $out/<side>.try
  local p
  p=$(probe)
  "$2" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 |
    tail -n 1 >"$out/$1.try"
  echo "$p" >"$out/$1.tryprobe"
}

: >"$out/parent.jsonl"
: >"$out/change.jsonl"
: >"$out/parent.probe"
: >"$out/change.probe"
: >"$out/flagged"
for i in $(seq 1 "$pairs"); do
  seed=$((seed0 + i))
  attempt=0
  while :; do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$parent" "$seed"
      run change "$change" "$seed"
    else
      run change "$change" "$seed"
      run parent "$parent" "$seed"
    fi
    rp=$(regime "$(cat "$out/parent.tryprobe")")
    rc=$(regime "$(cat "$out/change.tryprobe")")
    [ "$rp" = "$rc" ] && break
    attempt=$((attempt + 1))
    echo "pair $i: parent in $rp, change in $rc" >&2
    if [ "$strict" != 1 ] || [ "$attempt" -gt "$retries" ]; then
      echo "$i $rp $rc" >>"$out/flagged"
      break
    fi
    echo "pair $i: re-run $attempt/$retries (STRICT=1)" >&2
  done
  for side in parent change; do
    cat "$out/$side.try" >>"$out/$side.jsonl"
    cat "$out/$side.tryprobe" >>"$out/$side.probe"
  done
  echo "pair $i/$pairs done" >&2
done
rm -f "$out"/*.try "$out"/*.tryprobe

python3 - "$out" "$workload" "$metric" "$seconds" "$seed0" "$split" <<'EOF'
import json, sys
out, workload, named, seconds, seed0, split = sys.argv[1:7]
HIGHER = {"nodes_per_s", "jobs_per_s"}
sides = {s: [json.loads(l) for l in open(f"{out}/{s}.jsonl")] for s in ("parent", "change")}
probes = {s: [float(l) for l in open(f"{out}/{s}.probe")] for s in sides}
regime = lambda p: "2cpu" if p >= float(split) else "1cpu"
regimes = {s: [regime(p) for p in probes[s]] for s in sides}
pairs = len(sides["parent"])

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def fmt(xs):
    return f"{quantile(xs, 0.5):.6g} ({len(xs)})" if xs else "-"

first = int(seed0) + 1
print(f"{workload}: {pairs} alternating pairs of {seconds} s, seeds {first}..{first + pairs - 1}")
for side in sides:
    ps = probes[side]
    print(f"probe ({side}): {' '.join(f'{p:.2f}' for p in ps)}; "
          f"{regimes[side].count('2cpu')} runs 2cpu, {regimes[side].count('1cpu')} 1cpu (split {split})")
flagged = [l.split() for l in open(f"{out}/flagged") if l.strip()]
for i, rp, rc in flagged:
    print(f"flagged: pair {i} ran the parent in {rp}, the change in {rc}")
print(f"{'metric':<22}{'side':<8}{'median':>14}{'q1':>14}{'q3':>14}{'q3-q1':>12}"
      f"{'median 1cpu (n)':>20}{'median 2cpu (n)':>20}")
for name in sides["parent"][0]["metrics"]:
    for side, runs in sides.items():
        xs = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = (quantile(xs, q) for q in (0.25, 0.5, 0.75))
        by = {g: [x for x, r in zip(xs, regimes[side]) if r == g] for g in ("1cpu", "2cpu")}
        print(f"{name:<22}{side:<8}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{q3 - q1:>12.4g}"
              f"{fmt(by['1cpu']):>20}{fmt(by['2cpu']):>20}")
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
