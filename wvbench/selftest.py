#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 wvbench/selftest.py

Run from the root of a checkout. For every workload it makes a tiny run in
each trace mode and checks that the last stdout line is the result object,
that it names every metric BENCHMARK.json lists for that mode exactly once
with the listed unit, and that the human-readable table prints each metric
exactly once. It then corrupts one read of a recorded history and checks
that the correctness gate trips: non-zero exit and no result line. Exits 0
when every check passes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "1", "--seconds", "1", "--scale", "0.02"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--trace", str(trace), *TINY, *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_output(workload, trace, expected, proc):
    problems = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{name}: value {got.get('value')!r}")
        rows = [l for l in lines[:-1] if l.split()[:1] == [name]]
        if len(rows) != 1 or rows[0].split()[-1] != unit:
            problems.append(f"{name}: printed {len(rows)} time(s) in the table")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failures = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in modes.items():
            problems = check_output(workload, trace, expected, run(workload, trace))
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {len(expected)} metrics {status}")
            for p in problems:
                print(f"  {p}")
            failures += bool(problems)
        proc = run(workload, 0, "--corrupt-history")
        tripped = proc.returncode != 0 and not proc.stdout.strip().endswith("}")
        print(f"{workload} corrupted history: gate {'tripped' if tripped else 'DID NOT TRIP'}")
        failures += not tripped
    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    sys.exit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
