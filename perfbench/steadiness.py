#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py WORKLOAD FIRST_SEED COUNT

Runs `run.py --workload WORKLOAD --trace 0` for BENCHMARK.json's
run_seconds once per seed (FIRST_SEED, FIRST_SEED+1, ...), then prints
each end-to-end metric's median and its
spread: the distance between the first and third quartile of the runs'
values (statistics.quantiles, n=4) as a share of their median, next to a
third of the metric's bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    workload, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(first, first + count):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", seconds,
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, values[n][-1]) for n in bounds)), flush=True)
    print("%-14s %12s %8s %8s" % ("metric", "median", "spread", "bound/3"))
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        print("%-14s %12.5g %8.4f %8.4f%s" % (
            name, med, spread, bounds[name] / 3,
            "" if spread < bounds[name] / 3 else "  <-- too wide"))


if __name__ == "__main__":
    main()
