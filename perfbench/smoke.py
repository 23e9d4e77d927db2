#!/usr/bin/env python3
"""Smoke test of adapta's benchmark.

Usage, from the repository root:

    python3 perfbench/smoke.py [--seconds S] [--seed N]

First checks that perfbench/metrics.json and BENCHMARK.json agree: the
same per-layer metrics, and every "moves" entry names a known workload
and end-to-end figure. Then runs every workload briefly, untraced and
traced, through perfbench/run.py. Each run must exit 0 and end with a
result line that reports correct output, no failed call, and exactly
the metrics BENCHMARK.json lists for that mode, each with its unit. The
text report must print every report-only figure metrics.json names for
the workload. A traced run must read non-zero for each per-layer metric
measured on its workload and, where metrics.json asks, its separately
timed parts must cover the proxy call to within 10%. Exits 1 if any
check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIGURE = re.compile(r"^\s+(\S+)\s+(\S+) (\S+)$", re.M)
COVERAGE = re.compile(r"^coverage: .* cover ([0-9.]+)% of the proxy call", re.M)


def on(workloads, workload):
    return "*" in workloads or workload in workloads


def consistency(bench, spec):
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    listed = {m["name"] for m in bench["per_layer"]}
    if listed != set(spec["per_layer"]):
        problems.append(f"per-layer metrics differ: {sorted(listed ^ set(spec['per_layer']))}")
    e2e = {m["name"] for m in bench["end_to_end"]} | set(spec["report_only"]["end_to_end"])
    for name, entry in spec["per_layer"].items():
        for w in entry["measured_on"]:
            if w != "*" and w not in names:
                problems.append(f"{name}: unknown workload {w}")
        for metric, w in entry["moves"]:
            if metric not in e2e or w not in names:
                problems.append(f"{name}: moves unknown {metric} on {w}")
    return problems


def check(workload, trace, seed, seconds, bench, spec):
    command = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    problems = []
    if done.returncode != 0:
        problems.append(f"exit code {done.returncode}: {done.stderr.strip()[-500:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["no result line"] + problems
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("output checks failed")
    if result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"attempted {result.get('attempted')}, failed {result.get('failed')}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        problems.append(f"metrics {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got}")
    for line in lines:
        if line.startswith("check ") and " pass " not in line:
            problems.append(line)

    printed = {name for name, _, _ in FIGURE.findall(done.stdout)}
    report_only = spec["report_only"]["per_layer" if trace else "end_to_end"]
    for name, workloads in report_only.items():
        if on(workloads, workload) and name not in printed:
            problems.append(f"report lacks {name}")
    if trace:
        for name, entry in spec["per_layer"].items():
            got = metrics.get(name, {}).get("value")
            if on(entry["measured_on"], workload) and got == 0:
                problems.append(f"{name} reads 0 on the workload that measures it")
        if workload in spec["coverage_checked_on"]:
            found = COVERAGE.search(done.stdout)
            if not found or abs(float(found.group(1)) - 100.0) > 10.0:
                problems.append(f"coverage {found.group(1) if found else 'missing'}%")
    return problems


def main():
    parser = argparse.ArgumentParser(description="Smoke-test every benchmark workload.")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metrics.json")) as f:
        spec = json.load(f)
    problems = [f"metrics.json: {p}" for p in consistency(bench, spec)]
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            name = f"{workload} --trace {trace}"
            found = check(workload, trace, args.seed, args.seconds, bench, spec)
            print(f"{name}: {'ok' if not found else 'FAILED'}")
            problems += [f"{name}: {p}" for p in found]
    for p in problems:
        print(f"  {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
