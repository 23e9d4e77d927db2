#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between a revision and the
working tree, in interleaved same-session pairs.

Usage, from the repository root (or through `./ci.sh --bench-compare`):

    python3 scripts/bench_compare.py REV [WORKLOAD ...] [--pairs N] [--seconds S]

Exports REV (with `git archive`) and the working tree (tracked and
untracked files that git does not ignore) into a temporary directory
outside the checkout, builds the benchmark in each copy, then runs
`perfbench/run.py` untraced for each workload (default: every workload
BENCHMARK.json lists) in N pairs. Both sides of a pair use the same
seed (the pair's number); the side that runs first alternates. For each
end-to-end metric it prints each side's median and quartiles and in how
many pairs the working tree read lower, then a verdict read with the
metric's `bound` and `better` from BENCHMARK.json:

- worse: the working tree's median is worse than REV's by more than
  the bound;
- unresolved: REV's own quartile spread is wider than the bound, and
  not every working-tree run beats every REV run;
- gain: the working tree is better in at least 9 of 10 pairs (ties
  count for neither), and its median by more than REV's quartile
  spread;
- within bound: otherwise.

The bound and the spread are relative to REV's median. The checkout
itself, its perfbench/Cargo.lock included, is never written.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fail(message):
    print(f"bench-compare: {message}", file=sys.stderr)
    sys.exit(1)


def export_rev(rev, dest):
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        fail(f"git archive {rev}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def export_work(dest):
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=ROOT, capture_output=True,
                            check=True).stdout
    for path in filter(None, listed.decode().split("\0")):
        source = os.path.join(ROOT, path)
        if not os.path.isfile(source):
            continue  # deleted in the working tree
        target = os.path.join(dest, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        shutil.copy2(source, target)


def build(checkout):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(checkout, "perfbench", "Cargo.toml")]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    if subprocess.run(command, cwd=checkout, env=env).returncode != 0:
        fail(f"build failed in {checkout}")


def run(checkout, workload, seed, seconds):
    command = ["python3", "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        fail(f"{workload} seed {seed} failed in {checkout}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} seed {seed}: incorrect output or failed calls in {checkout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def verdict(base, work, bound, better):
    """The verdict on one metric's paired runs (see the module doc)."""
    sign = 1 if better == "lower" else -1
    scale = abs(statistics.median(base)) or 1.0

    def cost(x, y):
        """How much worse x reads than y, relative to REV's median."""
        return sign * (x - y) / scale

    q1, q3 = quartiles(base)
    spread = (q3 - q1) / scale
    if cost(statistics.median(work), statistics.median(base)) > bound:
        return "worse"
    if spread > bound and not all(cost(w, b) < 0 for w in work for b in base):
        return "unresolved"
    wins = sum(cost(w, b) < 0 for w, b in zip(work, base))
    if wins * 10 >= 9 * len(base) and cost(statistics.median(base), statistics.median(work)) > spread:
        return "gain"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    metrics = list(specs)
    scratch = tempfile.mkdtemp(prefix="adapta-bench-compare-")
    try:
        base, work = os.path.join(scratch, "base"), os.path.join(scratch, "work")
        export_rev(args.rev, base)
        export_work(work)
        for checkout in (base, work):
            build(checkout)
        for workload in workloads:
            runs = {"base": [], "work": []}
            for pair in range(args.pairs):
                sides = [("base", base), ("work", work)]
                if pair % 2:
                    sides.reverse()
                for side, checkout in sides:
                    runs[side].append(run(checkout, workload, pair + 1, seconds))
                print(f"{workload} pair {pair + 1}: " + ", ".join(
                    f"{m} {runs['base'][-1][m]:.4g} -> {runs['work'][-1][m]:.4g}"
                    for m in metrics), flush=True)
            print(f"== {workload}: {args.rev} -> working tree, {args.pairs} pairs, "
                  f"{seconds:g} s each: median [quartiles], working tree lower in k of n")
            for m in metrics:
                b = [r[m] for r in runs["base"]]
                w = [r[m] for r in runs["work"]]
                lower = sum(x < y for x, y in zip(w, b))
                (bq1, bq3), (wq1, wq3) = quartiles(b), quartiles(w)
                print(f"  {m:16} {statistics.median(b):10.4g} [{bq1:.4g}, {bq3:.4g}]"
                      f" -> {statistics.median(w):10.4g} [{wq1:.4g}, {wq3:.4g}]"
                      f"  lower in {lower} of {len(b)}")
                print(f"  {'':16} {verdict(b, w, specs[m]['bound'], specs[m]['better'])}",
                      flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
