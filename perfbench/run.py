#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the engine from src/) into .bench_build/; later
calls only check that the build is current. Build output goes to stderr.
The program's output is passed through; its last line is one JSON object
with "correct", "attempted", "failed" and "metrics". The exit code is the
program's, or 1 when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hot_hits", "fresh_delta", "dirty_main", "ingest_merge")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build")
    program = build(root, os.path.join(work, "perfbench"))
    data_dir = os.path.join(work, "data")
    trace_dir = os.path.join(work, "traces")
    os.makedirs(data_dir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)

    command = [program, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data-dir", data_dir,
               "--trace-out",
               os.path.join(trace_dir, f"{args.workload}.spans.tsv")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGGCACHE_")}
    try:
        done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        sys.stdout.write(timeout.stdout or "")
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(os.path.join(data_dir, args.workload), ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if not ok:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited {done.returncode} without a result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
