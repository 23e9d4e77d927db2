#!/usr/bin/env python3
"""Non-test line counts of the workspace, at a git revision and in the
working tree.

    python3 scripts/loc.py <rev>        (or ./ci.sh --loc <rev>)

A counted file is a workspace `.rs` file (under `crates/`, `vendor/` or
the root package's `src/`) outside any `tests/`, `benches/` or
`examples/` directory. Each file counts every line before its first
`#[cfg(test)]` that is followed by a `mod` item; a file without one
counts whole. The revision is read with `git archive` into a temporary
directory, so the checkout is never touched.

Prints the count per crate and in total for both sides, then every file
whose count differs. Advisory: it measures, it gates nothing.
"""

import os
import re
import subprocess
import sys
import tarfile
import tempfile

ROOTS = ("crates", "vendor", "src")
SKIPPED_DIRS = {"tests", "benches", "examples", "target"}
CFG_TEST = re.compile(r"^\s*#\[cfg\(test\)\]\s*$")
MOD_ITEM = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s")


def non_test_lines(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if not CFG_TEST.match(line):
            continue
        following = next((l for l in lines[i + 1 :] if l.strip()), "")
        if MOD_ITEM.match(following):
            return i
    return len(lines)


def crate_of(rel):
    parts = rel.split("/")
    return "adapta (root)" if parts[0] == "src" else "/".join(parts[:2])


def count(tree):
    """{relative path: non-test lines} for every counted file under `tree`."""
    counts = {}
    for root in ROOTS:
        top = os.path.join(tree, root)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
            for name in filenames:
                if name.endswith(".rs"):
                    path = os.path.join(dirpath, name)
                    counts[os.path.relpath(path, tree)] = non_test_lines(path)
    return counts


def count_rev(repo, rev):
    with tempfile.TemporaryDirectory(prefix="loc-") as tmp:
        archive = os.path.join(tmp, "rev.tar")
        with open(archive, "wb") as out:
            done = subprocess.run(
                ["git", "-C", repo, "archive", "--format=tar", rev, "--", *ROOTS],
                stdout=out,
                stderr=subprocess.PIPE,
                text=True,
            )
        if done.returncode != 0:
            reason = done.stderr.strip().splitlines()
            sys.exit(f"loc.py: cannot read `{rev}`: {reason[0] if reason else 'git archive failed'}")
        tree = os.path.join(tmp, "tree")
        with tarfile.open(archive) as tar:
            tar.extractall(tree, filter="data")
        return count(tree)


def by_crate(counts):
    crates = {}
    for rel, n in counts.items():
        crates[crate_of(rel)] = crates.get(crate_of(rel), 0) + n
    return crates


def main():
    usage = "usage: scripts/loc.py <rev>"
    if len(sys.argv) == 2 and sys.argv[1] in ("-h", "--help"):
        print(usage)
        return
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        sys.exit(usage)
    rev = sys.argv[1]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    old, new = count_rev(repo, rev), count(repo)
    old_crates, new_crates = by_crate(old), by_crate(new)
    width = max(len(c) for c in (*old_crates, *new_crates, "total"))
    print(f"{'crate':<{width}} {rev:>10} {'tree':>10} {'change':>8}")
    for crate in sorted(set(old_crates) | set(new_crates)):
        a, b = old_crates.get(crate, 0), new_crates.get(crate, 0)
        print(f"{crate:<{width}} {a:>10} {b:>10} {b - a:>+8}")
    a, b = sum(old.values()), sum(new.values())
    print(f"{'total':<{width}} {a:>10} {b:>10} {b - a:>+8}")
    changed = sorted(f for f in set(old) | set(new) if old.get(f) != new.get(f))
    if changed:
        print(f"\nfiles whose count changed ({rev} -> tree):")
        for f in changed:
            a, b = old.get(f, 0), new.get(f, 0)
            print(f"  {f}: {a} -> {b} ({b - a:+d})")


if __name__ == "__main__":
    main()
