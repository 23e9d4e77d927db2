#!/usr/bin/env python3
"""Run one workload of adapta's benchmark and print its result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/ is a cargo workspace of its own) into
$CARGO_TARGET_DIR, by default perfbench/target, and runs the workload in
fresh processes: untraced, in PROCESSES processes that share the
measured seconds; traced, in one. Prints each process's report and,
last, one JSON line with BENCHMARK.json's end-to-end metrics (--trace 0)
or per-layer metrics (--trace 1).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Untraced runs measure in this many processes. Each process gets its own
# address layout, which moved an in-process call's time by up to 40% on a
# 2-vCPU virtual machine, so the call figures are means over processes;
# set-up is their median.
PROCESSES = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    binary = os.path.join(ROOT, target, "release", "adapta-perfbench")
    if not os.path.isfile(binary):
        fail(f"no benchmark binary at {binary}")
    return binary


def run(binary, args, timeout):
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)}: timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        fail(f"{' '.join(args)}: exit code {done.returncode}")
    lines = done.stdout.splitlines()
    try:
        return lines[:-1], json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{' '.join(args)}: no result line")


def main():
    parser = argparse.ArgumentParser(description="Run one workload of adapta's benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        processes, seconds = 1, args.seconds
    else:
        processes, seconds = PROCESSES, args.seconds / PROCESSES
    results = []
    for _ in range(processes):
        measured = common + ["--seconds", str(seconds)] + (["--trace"] if args.trace else [])
        report, result = run(binary, measured, seconds + 120)
        print("\n".join(report))
        results.append(result)
    if args.trace:
        wanted, figures = bench["per_layer"], dict(results[0].get("layers", {}))
    else:
        wanted, figures = bench["end_to_end"], {}
        for name, got in results[0]["e2e"].items():
            values = [r["e2e"][name]["value"] for r in results]
            figures[name] = {"value": statistics.fmean(values), "unit": got["unit"]}
        setups = [r["setup_s"] for r in results]
        figures["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    correct = all(r["correct"] for r in results)
    metrics = {}
    for metric in wanted:
        got = figures.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print(f"perfbench: metric {metric['name']} missing", file=sys.stderr)
            correct = False
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    if not correct:
        fail("output checks FAILED")


if __name__ == "__main__":
    main()
