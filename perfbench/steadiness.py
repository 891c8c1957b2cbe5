#!/usr/bin/env python3
"""A/A steadiness check: run each workload once per seed and report, per
end-to-end metric, the median, the quartiles and the spread (quartile
distance ÷ median, from `statistics.quantiles(values, n=4)`), next to the
metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--seeds 1-10] [--workload NAME ...]

Run it from the repository root. A spread within a third of the bound
prints `ok`; `setup_s` is exempt from the spread rule (it is held to its
bound only between two sets' medians).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"], f"{workload} seed {seed}: {out.stdout}{out.stderr}"
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({len(values[next(iter(bounds))])} runs)")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "ok" if name == "setup_s" or spread <= bounds[name] / 3 else "WIDE"
            print(f"  {name:18} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  bound {bounds[name]}  {verdict}")
            print("    runs: " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
