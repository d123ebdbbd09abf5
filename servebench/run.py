#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
library and the servebench binary under .bench_build/servebench (later
calls only rebuild what changed; build output goes to stderr). The
binary's report goes to stdout and its last line is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 1 the
spans are also written to .bench_build/servebench/spans-<workload>-<seed>.json.

Exits nonzero without printing a result when the build fails, the
binary fails or a wrong answer is found.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORKLOADS = ("b3c-ondemand", "b3c-pooled", "toy-churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"servebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected "
             "CMakeLists.txt and src/ at the repository root)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "servebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    cmd = [str(BUILD / "servebench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--git-sha", git_sha()]
    if a.trace:
        cmd += ["--trace-out",
                str(BUILD / f"spans-{a.workload}-{a.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or result is None:
        # Keep the report for diagnosis, but never emit it as a result.
        sys.stderr.write(proc.stdout)
        fail(f"servebench exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
