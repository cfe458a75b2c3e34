#!/usr/bin/env python3
"""Smoke test of the benchmark.

Runs every workload at minimal length, untraced and traced, from the
repository root, and checks that:

* the last line has exactly the keys `correct`, `attempted`, `failed` and
  `metrics`, with `correct` true and `failed` 0;
* every end-to-end metric named in BENCHMARK.json is emitted untraced, and
  every per-layer metric traced, each with its unit and a numeric value;
* the traced and untraced runs give the same correctness digest;
* perfbench/layers.json maps every per-layer metric, and only to
  workloads that BENCHMARK.json names and to end-to-end metrics that it
  names or that the record reports unbounded (`recorded_only`).

Usage, from the repository root: python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(bench, workload, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}"
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        f"{label}: metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected})}"
    )
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {m['name']} = {got['value']}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        layers = json.load(f)["layers"]

    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"] for m in bench["end_to_end"]}
    mapped = [name for layer in layers for name in layer["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in bench["per_layer"]), "layers.json coverage"

    for workload in workloads:
        untraced_record, untraced = run(bench, workload, 0)
        e2e |= set(untraced_record["recorded_only"])
        check_metrics(untraced, bench["end_to_end"], f"{workload} untraced")
        traced_record, traced = run(bench, workload, 1)
        check_metrics(traced, bench["per_layer"], f"{workload} traced")
        assert untraced_record["digest"] == traced_record["digest"], (
            f"{workload}: traced digest {traced_record['digest']} != untraced {untraced_record['digest']}"
        )
        print(f"ok  {workload}  digest {untraced_record['digest']}", flush=True)

    for layer in layers:
        assert set(layer["moves"]) <= e2e, layer["moves"]
        assert {layer["on"], layer["barely_moves_on"]} <= set(workloads), layer["on"]
    print("smoke test passed")


if __name__ == "__main__":
    sys.exit(main())
