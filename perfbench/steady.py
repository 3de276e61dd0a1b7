#!/usr/bin/env python3
"""Steadiness helper: run workloads repeatedly and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads hot_hits,dirty_main]
        [--seconds S] [--trace 0|1|2] [--first-seed 1] [--same-seed]
        [--roots A [B]] [--log FILE]

Each root is a checkout holding perfbench/run.py (default: this checkout).
Run i uses seed first-seed + i; with --same-seed every run uses first-seed,
and runs of one seed must then print the same determinism stamp. Within a
run index the workloads alternate, and with two roots (a parent and a change) the order of the roots alternates
from one run index to the next, so slow phases of the host fall on both.
For every workload, metric and root it prints the median, the quartiles,
the quartile spread as a share of the median (the figure BENCHMARK.json's
bounds apply to), and the min/max spread. With two roots it also prints the
ratio of the medians. Results are appended as JSON lines to --log if given.
--trace 2 runs every untraced run again traced and reports the tracing
overhead: the traced run's end-to-end figures over the untraced run's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def bounds(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m.get("bound") for m in spec["end_to_end"]}, spec
    except (OSError, ValueError, KeyError):
        return {}, {}


def run_once(root, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(root, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    stamp = next((l for l in lines if l.startswith("stamp:")), "")
    e2e = {}
    for line in lines:
        if line.startswith("e2e:"):
            for field in line.split()[1:]:
                name, _, value = field.partition("=")
                try:
                    e2e[name] = float(value)
                except ValueError:
                    pass
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    return done.returncode, result, stamp, e2e


def spread(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    scale = abs(median) if median else 1.0
    return median, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0,
                        help="2: untraced and traced, with the overhead")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="use first-seed for every run (stamps must match)")
    parser.add_argument("--roots", nargs="+",
                        default=[os.path.dirname(HERE)])
    parser.add_argument("--log", default="")
    args = parser.parse_args()
    roots = [os.path.abspath(r) for r in args.roots]
    if len(roots) > 2:
        sys.exit("steady.py: at most two roots")
    metric_bounds, spec = bounds(roots[-1])
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec.get("workloads", [])])
    seconds = args.seconds or spec.get("run_seconds", 8)

    modes = [0, 1] if args.trace == 2 else [args.trace]
    values = {}  # (workload, root index, metric) -> [value]
    e2e = {}  # (workload, trace mode, e2e figure) -> [value]
    stamps = {}  # (workload, seed) -> [stamp line]
    failures = 0
    for i in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else i)
        order = list(range(len(roots)))
        if i % 2:
            order.reverse()
        for workload in workloads:
            for r, mode in [(r, m) for r in order for m in modes]:
                code, result, stamp, figures = run_once(
                    roots[r], workload, seed, seconds, mode)
                for name, value in figures.items():
                    e2e.setdefault((workload, mode, name), []).append(value)
                ok = code == 0 and result is not None and result["correct"]
                failures += 0 if ok else 1
                print(f"run {i + 1}/{args.runs} seed={seed} {workload} "
                      f"root={r} trace={mode} exit={code} "
                      f"correct={result['correct'] if result else None}",
                      file=sys.stderr)
                if result is None:
                    continue
                if mode == modes[0]:
                    stamps.setdefault((workload, seed), []).append(stamp)
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, r, name), []).append(
                        metric["value"])
                if args.log:
                    with open(args.log, "a") as log:
                        log.write(json.dumps({"root": r, "trace": mode,
                                              "workload": workload,
                                              "seed": seed, "exit": code,
                                              "result": result, "e2e": figures,
                                              "stamp": stamp}) + "\n")

    print(f"{'workload':<13} {'metric':<34} {'root':>4} {'n':>3} "
          f"{'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}")
    for (workload, r, name), vals in sorted(values.items()):
        median, q1, q3, iqr, rng = spread(vals)
        bound = metric_bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and iqr > bound / 3:
            flag = "  > bound/3"
        print(f"{workload:<13} {name:<34} {r:>4} {len(vals):>3} "
              f"{median:>12.4f} {q1:>12.4f} {q3:>12.4f} {iqr:>8.3f} "
              f"{rng:>9.3f} {bound if bound is not None else '-':>6}{flag}")
        if r == 1 and (workload, 0, name) in values:
            base = statistics.median(values[(workload, 0, name)])
            if base:
                print(f"{'':<13} {name + ' root1/root0':<34} "
                      f"{median / base:>12.4f}")
    # Figures of the e2e: line that BENCHMARK.json does not gate, such as
    # query_p50_us and ops_per_s: their spread, for reference.
    print("ungated e2e figures (untraced runs):")
    for (workload, mode, name), vals in sorted(e2e.items()):
        if mode != 0 or name in metric_bounds or len(vals) < 2:
            continue
        median, q1, q3, iqr, rng = spread(vals)
        print(f"{workload:<13} {name:<34} {len(vals):>3} {median:>12.4f} "
              f"{q1:>12.4f} {q3:>12.4f} {iqr:>8.3f} {rng:>9.3f}")
    if args.trace == 2:
        for workload in workloads:
            for name in ("query_p50_us", "ops_per_s"):
                plain = e2e.get((workload, 0, name))
                traced = e2e.get((workload, 1, name))
                if plain and traced and statistics.median(plain):
                    ratio = statistics.median(traced) / statistics.median(plain)
                    print(f"trace overhead {workload} {name}: traced/untraced "
                          f"= {ratio:.4f}")
    # Determinism: runs with the same seed must print the same stamp. Memory
    # after set-up (anon_after_setup_mb, rss_after_setup_mb) is compared
    # separately, as a spread.
    for (workload, seed), lines in sorted(stamps.items()):
        if len(lines) < 2:
            continue
        exact, memory = set(), {}
        for stamp in lines:
            fields = stamp.split()
            exact.add(" ".join(f for f in fields
                               if "_after_setup_mb=" not in f))
            for f in fields:
                if "_after_setup_mb=" in f:
                    name, _, value = f.partition("=")
                    memory.setdefault(name, []).append(float(value))
        spreads = " ".join(
            f"{name} {(max(v) - min(v)) / max(v) * 100:.3f}%"
            for name, v in sorted(memory.items()))
        print(f"stamp {workload} seed={seed}: {len(lines)} runs, counts "
              f"{'identical' if len(exact) == 1 else 'DIFFER'}; spread of "
              f"{spreads}")
        failures += 0 if len(exact) == 1 else 1
    print(f"failed or incorrect runs, or differing stamps: {failures}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
