#!/usr/bin/env python3
"""Smoke check: every metric BENCHMARK.json names is emitted with its unit.

    python3 servebench/test_smoke.py [--all]

Runs toy-churn for 1 s with --trace 0 and with --trace 1 (seconds once
the build is warm) and checks that the last output line is the result
object of the benchmark format: exactly the keys correct,
attempted, failed and metrics; a correct run with no failures; and
exactly the end-to-end (trace 0) or per-layer (trace 1) metric names of
BENCHMARK.json, each with its unit and a finite value, the end-to-end
ones nonzero. --all checks the two b3c workloads too (several minutes).
Run from the repository root; exits nonzero on the first failed check.
"""
import json
import math
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def check(workload, trace, expected):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n" + \
        proc.stderr[-2000:]
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, \
        f"{label}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    assert not missing and not extra, \
        f"{label}: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        m = metrics[name]
        assert set(m) == {"value", "unit"}, f"{label}: {name} keys {set(m)}"
        assert m["unit"] == unit, f"{label}: {name} unit {m['unit']} != {unit}"
        assert isinstance(m["value"], (int, float)) and \
            math.isfinite(m["value"]), f"{label}: {name} = {m['value']}"
        if trace == 0:
            assert m["value"] != 0, f"{label}: {name} is 0"
    print(f"ok  {label}: {len(metrics)} metrics")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    chosen = workloads if "--all" in sys.argv[1:] else ["toy-churn"]
    for w in chosen:
        check(w, 0, e2e)
        check(w, 1, layers)


if __name__ == "__main__":
    main()
