#!/usr/bin/env python3
"""Builds and runs the traj2hash serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload unique_lookup --seed 1 --seconds 10 --trace 0

The benchmark is built from the checkout's sources into $CARGO_TARGET_DIR
(default .bench_build), then one process runs the named workload. Its last
line of standard output is the JSON result; build logs go to standard error.
The exit status is 0 only when the build succeeded and every correctness
check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("unique_lookup", "hot_cached", "batch_join", "durable_replicated")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the perfbench target; logs to stderr."""
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt beside perfbench/: not a traj2hash checkout")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(bench_dir, build_dir):
        return 2

    # Per-run files (the durable workload's snapshot and WAL) live in the
    # build directory and are removed afterwards; traced runs leave their
    # spans in <build dir>/traces.
    workdir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir,
           "--trace-dir", os.path.join(build_dir, "traces")]
    # A run spends about --seconds in its windows, plus five setups, input
    # preparation and the oracle checks (under a minute on 4 cores).
    timeout_s = 2 * args.seconds + 140
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=timeout_s).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {timeout_s:g} s and was killed")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
