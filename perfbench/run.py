#!/usr/bin/env python3
"""Builds and runs the x2vec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library from
src/) under $CARGO_TARGET_DIR, default .bench_build; later calls only
re-check the build. Build output goes to stderr, so the last line of stdout
is always the binary's result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads: deepwalk_stream, node2vec_ckpt, graph2vec_wl, serve_ivf. See
perfbench/README.md. --toy shrinks every input (the smoke test uses it).
Exit codes: the binary's (0 all checks passed, 1 a check failed), 3 when
the build fails, 4 when the binary's output is malformed or it times out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("deepwalk_stream", "node2vec_ckpt", "graph2vec_wl", "serve_ivf")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The binary is stopped after this long, so a run ends within 180 s.
RUN_TIMEOUT_S = 170


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: src/CMakeLists.txt not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "x2vec_perfbench"])
    for step in steps:
        if subprocess.call(step, cwd=ROOT, stdout=sys.stderr) != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "x2vec_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args()

    target = target_dir()
    binary = build(os.path.join(target, "perfbench"))
    if binary is None:
        return 3
    scratch = os.path.join(target, "scratch", "run-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch]
    if args.toy:
        command.append("--toy")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        sys.stderr.write(run.stdout)
        print("run.py: no result line from the benchmark (exit %d)"
              % run.returncode, file=sys.stderr)
        return 4
    sys.stdout.write("\n".join(lines) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
