#!/usr/bin/env python3
"""Smoke test of the x2vec benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at toy size (--toy, one second), untraced
and traced, through perfbench/run.py, and checks that each run passes its
correctness checks and prints exactly the metrics BENCHMARK.json names, with
their units and finite values (end-to-end values also nonzero). Exits 1 on
the first failing run.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    problems = []
    if run.returncode != 0:
        problems.append("exit code %d" % run.returncode)
    try:
        result = json.loads(run.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return problems + ["no result line"], run.stderr
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("correctness checks failed")
    if result.get("attempted", 0) < 1:
        problems.append("no ops attempted")
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append("missing metric " + name)
            continue
        value = metrics[name].get("value")
        if metrics[name].get("unit") != unit:
            problems.append("%s has unit %r, expected %r"
                            % (name, metrics[name].get("unit"), unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number" % name)
        elif trace == 0 and value == 0:
            problems.append("%s is 0" % name)
    for name in metrics:
        if name not in expected:
            problems.append("unexpected metric " + name)
    return problems, run.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems, stderr = check_run(workload, trace, expected[trace])
            label = "%s --trace %d" % (workload, trace)
            if problems:
                sys.stderr.write(stderr)
                print("FAIL %s: %s" % (label, "; ".join(problems)))
                return 1
            print("ok   " + label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
