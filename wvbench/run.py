#!/usr/bin/env python3
"""Builds and runs the weighted-voting benchmark (see README.md).

    python3 wvbench/run.py --workload read_mostly --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
repository's src/ libraries and the harness into .bench_build/ (RelWithDebInfo,
like the main build); later runs only rebuild what changed. The benchmark's
own output goes to stdout and ends with one JSON line; build output goes to
stderr. `--workload all` runs the three workloads one after another and ends
with one JSON line whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wvbench")
BINARY = os.path.join(BUILD, "wvbench")
WORKLOADS = ["read_mostly", "write_contended", "churn_open"]
RUN_TIMEOUT_S = 175


def run_quietly(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    code = subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed with exit code {code}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: the repository's src/ is missing next to wvbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_quietly(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])


def run_workload(args, workload):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", os.path.join(ROOT, ".bench_build",
                                       f"spans-{workload}-trace{args.trace}.json")]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.corrupt_history:
        cmd.append("--corrupt-history")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout or "")
        sys.exit(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S}s")
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", type=float,
                        help="shrink the simulated window (self-test runs tiny workloads)")
    parser.add_argument("--corrupt-history", action="store_true",
                        help="self-test: corrupt one recorded read; the run must fail")
    args = parser.parse_args()

    build()
    if args.workload != "all":
        code, out = run_workload(args, args.workload)
        sys.stdout.write(out)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, out = run_workload(args, workload)
        lines = out.rstrip("\n").split("\n")
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if code != 0:
            sys.exit(f"run.py: {workload} failed with exit code {code}")
        result = json.loads(lines[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
