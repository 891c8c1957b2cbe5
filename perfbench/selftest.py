#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny input size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload (the ones in
BENCHMARK.json plus serve_fanout), with two seeds, both the end-to-end
command and the traced run must exit 0 and print a last line whose keys,
metric names and units match BENCHMARK.json, with `ok_ratio` 1.0. Last,
the benchmark must fail without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXTRA_WORKLOADS = ["serve_fanout"]


def run(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True,
    )


def check_result(out, expected, label):
    assert out.returncode == 0, f"{label}: exit {out.returncode}\n{out.stdout}{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: {result}"
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(expected), f"{label}: names {sorted(metrics)}"
    for name, metric in metrics.items():
        assert metric["unit"] == expected[name], f"{label}: {name} unit {metric['unit']}"
        assert math.isfinite(metric["value"]), f"{label}: {name} = {metric['value']}"
    return metrics


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS
    for workload in workloads:
        for seed in (1, 2):
            label = f"{workload} seed {seed}"
            metrics = check_result(run(workload, seed, 0), end_to_end, label)
            assert metrics["ok_ratio"]["value"] == 1.0, f"{label}: {metrics['ok_ratio']}"
            check_result(run(workload, seed, 1), per_layer, label + " traced")
            print(f"ok  {label}")

    # Without the repository's crates there is nothing to build.
    bare = os.path.join(ROOT, ".bench_state", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("target"))
    out = run(workloads[0], 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and not out.stdout.strip(), f"bare checkout: {out.returncode} {out.stdout}"
    print("ok  bare checkout fails without a result")


if __name__ == "__main__":
    main()
