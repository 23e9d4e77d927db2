#!/usr/bin/env bash
# Local CI: the same gate the GitHub Actions workflow runs.
#
# The gate's `cargo test --workspace` also checks the golden experiment
# outputs: crates/bench/tests/golden.rs runs each virtual-time
# experiment binary (E1, E2, E3, E6, E7, E9) and compares its stdout
# with results/<bin>.txt. A changed golden file is a result, not a
# fixture to refresh: regenerate it from the binary and record the
# change and its reason in CHANGES.md.
#
# The gate builds and tests with `--locked`: a manifest change that
# leaves Cargo.lock stale fails it instead of being re-resolved
# silently. Commit the regenerated Cargo.lock with the manifest.
#
# `./ci.sh --stress` instead runs the concurrency-sensitive tests with
# 10x the iteration counts and high test-thread parallelism, to shake
# out transport races that a single quick run can miss, then the wire
# codec's property tests with 2000 cases each (the server decodes
# remote bytes in place, borrowing from the frame), then the
# timing-sensitive balancer suite 20 times in the debug profile the
# gate uses, then the TCP client's leader/followers tests
# (crates/orb/tests/caller_reads.rs) 20 times, since they race
# deadlines against the hand-off from one reading caller to the next,
# then the TCP server's leader/followers tests
# (crates/orb/tests/server_leads.rs) 20 times, since they race a
# connection's threads for the lead, its thread cap and its queue, then
# the two-caller breaker test of tests/balancer.rs 20 times on its own,
# since its callers race one replica's health record, read without a
# lock, through open, half-open probe and close, then
# the script isolate's cross-thread tests (crates/bridge/tests/
# cross_thread.rs) 20 times, since one interpreter moves between the
# threads that take turns entering it, then the drain wake-up tests
# (crates/orb/tests/drain_wake.rs) 20 times, since a finished dispatch
# races the shutdown that starts draining, and a lost wake-up shows
# only as a slow drain, then the background-job tests (tests/idle.rs)
# 20 times, since they read the scheduler's per-thread context-switch
# counters of idle jobs and time how soon a dropped job's thread ends.
# The stress run is advisory (a separate non-blocking CI job), not
# part of the gate.
#
# `./ci.sh --chaos` runs the fault-injection suite (tests/chaos.rs) and
# the E11 chaos experiment. Also advisory/non-blocking in CI.
#
# `./ci.sh --sandbox` runs the hostile-code suite (tests/sandbox.rs),
# the script crate's sandbox property tests, the monitor crate's tests
# (install quotas, quarantine, installer isolation and released stored
# values) and the E12 overload experiment. Also advisory/non-blocking
# in CI.
#
# `./ci.sh --lint` runs just the style gate (rustfmt, clippy with
# warnings denied, and rustdoc with warnings denied, which catches doc
# links left pointing at renamed, deleted or private items) — the fast
# pre-push check, and its own CI job so style failures are reported
# separately from build/test failures.
#
# `./ci.sh --balancer` runs the replica-set/adaptive-routing suite
# (tests/balancer.rs) and a smoke-scale E13 experiment (emitting
# BENCH_exp_balancer.json). Advisory/non-blocking in CI.
#
# `./ci.sh --bench-smoke` runs every benchmark workload briefly,
# untraced and traced, and checks each one's outputs (perfbench/smoke.py).
# Advisory/non-blocking in CI.
#
# `./ci.sh --bench-compare <rev> [workload...]` compares the benchmark's
# end-to-end metrics between <rev> and the working tree: both are
# exported and built in a temporary directory outside the checkout (so
# perfbench/Cargo.lock is never rewritten), then each workload runs in
# interleaved pairs, the side that runs first alternating, and every
# metric is printed as median, quartiles and "lower in k of n", with a
# verdict (worse, unresolved, gain or within bound) read with the
# metric's bound from BENCHMARK.json (scripts/bench_compare.py; 20
# pairs of BENCHMARK.json's run length, about eight minutes a
# workload). Advisory, not part of the gate.
#
# `./ci.sh --loc <rev>` prints the non-test line counts per crate and
# in total at <rev> and in the working tree, then every file whose
# count changed (scripts/loc.py: workspace `.rs` files outside
# tests/, benches/ and examples/, each cut at its first `#[cfg(test)]`
# module; <rev> is read with `git archive`). Advisory, not part of the
# gate.
set -euo pipefail
cd "$(dirname "$0")"

if [[ "${1:-}" == "--lint" ]]; then
    echo "==> lint: cargo fmt --check"
    cargo fmt --all --check
    echo "==> lint: cargo clippy -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> lint: cargo doc -D warnings"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
    echo "Lint run green."
    exit 0
fi

if [[ "${1:-}" == "--bench-smoke" ]]; then
    echo "==> bench-smoke: every workload's output checks"
    python3 perfbench/smoke.py
    echo "Bench smoke run green."
    exit 0
fi

if [[ "${1:-}" == "--bench-compare" ]]; then
    if [[ -z "${2:-}" ]]; then
        echo "usage: ./ci.sh --bench-compare <rev> [workload...]" >&2
        exit 2
    fi
    echo "==> bench-compare: $2 against the working tree"
    python3 scripts/bench_compare.py "${@:2}"
    exit 0
fi

if [[ "${1:-}" == "--loc" ]]; then
    if [[ -z "${2:-}" ]]; then
        echo "usage: ./ci.sh --loc <rev>" >&2
        exit 2
    fi
    python3 scripts/loc.py "$2"
    exit 0
fi

if [[ "${1:-}" == "--balancer" ]]; then
    echo "==> balancer: replica sets, routing policies, load feedback"
    cargo test -q --test balancer
    cargo test -q -p adapta-balancer
    echo "==> balancer: experiment E13"
    BALANCER_CALLS="${BALANCER_CALLS:-80}" cargo run -q -p adapta-bench --release --bin exp_balancer
    echo "Balancer run green."
    exit 0
fi

if [[ "${1:-}" == "--sandbox" ]]; then
    echo "==> sandbox: hostile remote code, quarantine, admission control"
    cargo test -q --test sandbox
    echo "==> sandbox: script resource-budget property tests"
    cargo test -q -p adapta-script --test sandbox_props
    echo "==> sandbox: monitor quotas, quarantine, isolation and leaks"
    cargo test -q -p adapta-monitor
    echo "==> sandbox: experiment E12"
    OVERLOAD_CALLS="${OVERLOAD_CALLS:-40}" cargo run -q -p adapta-bench --release --bin exp_overload
    echo "Sandbox run green."
    exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
    echo "==> chaos: fault injection, recovery policy, graceful shutdown"
    cargo test -q --test chaos
    echo "==> chaos: experiment E11"
    CHAOS_CALLS="${CHAOS_CALLS:-120}" cargo run -q -p adapta-bench --release --bin exp_chaos
    echo "Chaos run green."
    exit 0
fi

if [[ "${1:-}" == "--stress" ]]; then
    echo "==> stress: transport + concurrency tests (STRESS_ITERS=10)"
    export STRESS_ITERS=10
    export RUST_TEST_THREADS=16
    cargo test -q --test concurrency -- --test-threads 16
    cargo test -q -p adapta-orb transport -- --test-threads 16
    cargo test -q --test adaptation -- --test-threads 16
    unset STRESS_ITERS RUST_TEST_THREADS
    echo "==> stress: wire codec property tests (PROPTEST_CASES=2000)"
    PROPTEST_CASES=2000 cargo test -q -p adapta-orb --test proptest_marshal
    echo "==> stress: balancer suite, 20 debug runs"
    for _ in $(seq 20); do
        cargo test -q --test balancer
    done
    echo "==> stress: TCP callers reading their own replies, 20 runs"
    for _ in $(seq 20); do
        cargo test -q -p adapta-orb --test caller_reads
    done
    echo "==> stress: TCP server threads serving what they read, 20 runs"
    for _ in $(seq 20); do
        cargo test -q -p adapta-orb --test server_leads
    done
    echo "==> stress: two callers through one balanced proxy's breaker, 20 runs"
    for _ in $(seq 20); do
        cargo test -q --test balancer two_callers_share_a_breaker
    done
    echo "==> stress: one script isolate entered from many threads, 20 runs"
    for _ in $(seq 20); do
        cargo test -q -p adapta-bridge --test cross_thread
    done
    echo "==> stress: the last dispatch wakes a drain at once, 20 runs"
    for _ in $(seq 20); do
        cargo test -q -p adapta-orb --test drain_wake
    done
    echo "==> stress: idle jobs sleep, dropped jobs end at once, 20 runs"
    for _ in $(seq 20); do
        cargo test -q --test idle
    done
    echo "Stress run green."
    exit 0
fi

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release --locked"
cargo build --release --workspace --locked

echo "==> cargo test --locked"
cargo test --workspace -q --locked

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI green."
