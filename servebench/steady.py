#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and report each metric's spread.

    python3 servebench/steady.py [--workload NAME ...] [--runs 10]
                                 [--first-seed 1]

Runs servebench/run.py once per seed (first-seed, first-seed+1, ...) for
every chosen workload (default: all of BENCHMARK.json's), each run as
long as BENCHMARK.json's run_seconds and with --trace 0, then prints
per metric its median, first and third quartiles (statistics.quantiles,
n=4), the quartile spread (Q3-Q1)/median, and (max-min)/median. For the
end-to-end metrics it also prints the bound from BENCHMARK.json and
whether the quartile spread is within a third of it, within it, or over.
The bounds in BENCHMARK.json were set from these numbers. Run from the
repository root.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct="
                         f"{result['correct']} failed={result['failed']}")
    return result, wall


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in a.workload or [w["name"] for w in bench["workloads"]]:
        values, walls = {}, []
        for i in range(a.runs):
            seed = a.first_seed + i
            result, wall = run_once(workload, seed, seconds)
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            brief = " ".join(f"{n}={m['value']:.4g}"
                             for n, m in result["metrics"].items())
            print(f"# {workload} seed {seed}: {wall:.1f} s wall  {brief}",
                  flush=True)
        print(f"\n{workload}: {a.runs} runs, {seconds} s each, "
              f"wall per run {statistics.median(walls):.1f} s (median)")
        print(f"{'metric':34} {'unit':>8} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'rng/med':>8} {'bound':>6}")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                         else (vs[0], vs[0], vs[0]))
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vs) - min(vs)) / med if med else float("nan")
            verdict = ""
            if name in bounds:
                b = bounds[name]
                verdict = (f"{b:6.2f} " + ("ok" if iqr < b / 3 else
                                           "within" if iqr <= b else "OVER"))
            print(f"{name:34} {unit:>8} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{iqr:8.4f} {rng:8.4f} {verdict}")
        print(flush=True)


if __name__ == "__main__":
    main()
