#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs each workload ten times with tracing off, each time with another
--seed, and prints for each metric the distance between the first and third
quartile of its ten values (statistics.quantiles(values, n=4)) as a share
of their median, next to the metric's bound from BENCHMARK.json. The aim is
a spread below a third of the bound.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [workload ...]

Run from the repository root. Builds through benchmark/run.sh.
"""
import json
import statistics
import subprocess
import sys


def main():
    args = sys.argv[1:]
    runs, first_seed = 10, 1
    while args and args[0].startswith("--"):
        flag, value = args[0], int(args[1])
        if flag == "--runs":
            runs = value
        elif flag == "--first-seed":
            first_seed = value
        else:
            sys.exit(f"unknown flag {flag}")
        args = args[2:]
    bench = json.load(open("BENCHMARK.json"))
    workloads = args or [w["name"] for w in bench["workloads"]]
    seconds = str(bench["run_seconds"])
    worst = 0.0
    summary = {}
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(first_seed, first_seed + runs):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", seconds, "--trace", "0"]
            out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"{'metric':<22} {'median':>14} {'spread':>8} {'bound':>6}  spread/bound")
        summary[workload] = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            summary[workload][m["name"]] = {"median": med, "spread": spread, "values": xs}
            note = "" if share <= 1 / 3 or m["name"] == "setup_s" else ("  > 1/3" if share <= 1 else "  > BOUND")
            print(f"{m['name']:<22} {med:>14.6g} {spread:>8.4f} {m['bound']:>6.2f}  {share:.2f}{note}")
    with open("benchmark/out/spread.json", "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\nworst spread/bound outside setup_s: {worst:.2f} (aim: at most 0.33)")


if __name__ == "__main__":
    main()
