#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, the tier-1 build + test
# suite, the benchmark package's own tests, the declarative scenario
# suite, and the perf-regression bench gate.
#
# Exit-code contract (what a red run means):
#   0    every step passed
#   124  a test step exceeded its hard wall-clock cap
#        ($SKYUP_CI_TEST_TIMEOUT, default 900 s). The guardrail suite
#        deliberately injects stalls and unbounded-looking budgets, so a
#        hang must fail loudly instead of wedging CI.
#   1    any other step failed; `set -e` aborts at the first failing
#        step and this script exits with that step's status. In
#        particular scripts/bench_gate.sh exits 1 only after
#        $SKYUP_GATE_ATTEMPTS full re-runs, so a bench-gate red is a
#        reproducible regression, not first-attempt scheduler noise.
#        The scenario-suite step surfaces `skyup test`'s own contract:
#        1 = a scenario failed (the step prints which, with the
#        mismatches), 2 = all passed but some were skipped — the
#        committed corpus must never skip, so both turn CI red.
#
# Everything runs with --offline so an unreachable registry can never
# fail the build (the workspace has zero external dependencies).
#
# The step list is deliberately deduplicated: `cargo test --workspace`
# already runs every unit, integration (chaos, CLI contract, serve
# smoke, serve property suites), and doc test in the workspace, so no
# test binary is invoked twice, and the full-scale bench gate subsumes
# the old tiny-scale bench smokes (both bench binaries self-assert
# bit-identity before reporting timings).
#
# Each step's wall-clock is recorded; a plain-text timing summary is
# printed at the end (also on failure, covering the steps that ran) and
# appended to $GITHUB_STEP_SUMMARY when GitHub Actions sets it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Hard wall-clock cap per test command (seconds).
TEST_TIMEOUT="${SKYUP_CI_TEST_TIMEOUT:-900}"

# Scratch output of the kernel-bench smoke; removed on every exit path.
KERNEL_BENCH_OUT="$(mktemp)"

STEP_NAMES=()
STEP_SECS=()

# step <name> <command...> — announces the step, runs it, records its
# wall-clock seconds for the summary. `set -e` still aborts the script
# on the first failing step.
step() {
    local name="$1"
    shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    STEP_NAMES+=("$name")
    STEP_SECS+=("$((SECONDS - t0))")
}

print_timings() {
    [ "${#STEP_NAMES[@]}" -gt 0 ] || return 0
    echo
    echo "step timing summary:"
    local i
    for i in "${!STEP_NAMES[@]}"; do
        printf '  %-64s %4ss\n' "${STEP_NAMES[$i]}" "${STEP_SECS[$i]}"
    done
    if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
        {
            echo "### CI step timings"
            echo
            echo "| step | seconds |"
            echo "| --- | ---: |"
            for i in "${!STEP_NAMES[@]}"; do
                echo "| ${STEP_NAMES[$i]} | ${STEP_SECS[$i]} |"
            done
        } >>"$GITHUB_STEP_SUMMARY"
    fi
}

on_exit() {
    rm -f "$KERNEL_BENCH_OUT"
    print_timings
}
trap on_exit EXIT

step "cargo fmt --check" \
    cargo fmt --all -- --check

# Every `unsafe` block and impl carries a `// SAFETY:` comment that
# says why it is sound.
step "cargo clippy (workspace, deny warnings, documented unsafe)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings \
    -D clippy::undocumented_unsafe_blocks

# The release build below runs with this pin in effect; losing the
# declaration would silently float the MSRV to whatever toolchain CI
# happens to have installed.
step "MSRV pin declared" \
    grep -q '^rust-version = ' Cargo.toml

step "tier-1: cargo build --release (MSRV-pinned, std-only)" \
    cargo build --offline --release

step "tier-1 + workspace tests (unit, chaos, CLI contract, serve smoke, property suites)" \
    timeout "$TEST_TIMEOUT" cargo test --offline -q --workspace

# Runs again outside the workspace sweep, under its own much tighter
# wall-clock cap: the harness SIGKILLs real server processes and
# restarts them against the surviving WAL, and a recovery bug whose
# failure mode is a hang (replay loop, torn-tail misparse, a child
# that never prints its listen line) must turn CI red in seconds, not
# eat the whole suite budget.
step "kill-crash durability harness (dedicated hard cap)" \
    timeout "${SKYUP_CI_CRASH_TIMEOUT:-120}" cargo test --offline -q --test crash_recovery

# Spawns two real shard server processes and a real coordinator, drives
# mixed mutations/queries over TCP, and asserts every gathered answer
# byte-identical to a single-engine oracle plus the scatter/gather
# counter invariants. Like the crash harness, its failure mode is a
# wedged child process (a shard that never flips, a coordinator blocked
# on a dead socket), so it gets its own tight wall-clock cap.
step "multi-shard smoke (2 shards + coordinator, dedicated hard cap)" \
    timeout "${SKYUP_CI_SHARD_TIMEOUT:-120}" cargo test --offline -q --test shard_smoke

# perfbench/ is a workspace of its own, so the workspace sweep above
# never runs its tests: stream and CSV generator determinism, and the
# one-write TCP_NODELAY contract of the benchmark's client. Its build
# goes under target/ so nothing under perfbench/ changes; --locked keeps
# its lockfile as committed. The cap covers a cold build of the bench.
step "perfbench tests (own workspace, dedicated hard cap)" \
    env CARGO_TARGET_DIR=target/perfbench \
    timeout 600 cargo test --offline --locked -q --manifest-path perfbench/Cargo.toml

# The committed regression corpus: every scenario under scenarios/ runs
# through ingestion, the serving engine, and the expected-answer
# comparator. `skyup test` exits 0 only when every scenario PASSes
# (1 = a failure, 2 = a skip — both red here). The cap bounds the whole
# suite: scenarios spawn no child processes without --serve, so a hang
# is an engine bug, not slow machinery.
step "scenario suite (committed corpus, declarative regression vehicle)" \
    timeout "${SKYUP_CI_SCENARIO_TIMEOUT:-120}" \
    cargo run --offline --release -q --bin skyup -- test --suite scenarios/

# The dominance-kernel bench at a tiny scale, under its own hard cap.
# No baseline comparison here (wall-clock at smoke scale is noise) —
# the value is the binary's self-asserts: every variant's dominator
# lists bit-identical to the scalar oracle, the zone-map conservation
# law blocks + skipped == total, and a live pruning path on the skewed
# dataset. These are machine-independent, so this step runs even when
# the timing gate below is skipped. The report lands in a mktemp file
# cleaned up by the EXIT trap.
step "kernel bench smoke (tiny scale, self-asserting)" \
    env SKYUP_BENCH_OUT="$KERNEL_BENCH_OUT" SKYUP_SCALE=0.002 \
    timeout "${SKYUP_CI_KERNEL_TIMEOUT:-120}" \
    cargo run --offline --release -q -p skyup-bench --bin kernel_bench

# Regenerates the serving, probe-executor, and dominance-kernel
# reports at the committed scale and gates wall-clock (one-sided, 25%
# tolerance) plus the exact
# machine-independent invariants: bit-identity, cache/batch counters,
# and the telemetry accounting on the serve report (trace count == requests served, histogram bucket
# conservation, exact per-class trace counts). Set
# SKYUP_CI_SKIP_BENCH_GATE=1 to skip on hardware too noisy for timing
# checks.
bench_gate() {
    if [ "${SKYUP_CI_SKIP_BENCH_GATE:-0}" = 1 ]; then
        echo "skipped (SKYUP_CI_SKIP_BENCH_GATE=1)"
    else
        scripts/bench_gate.sh
    fi
}
step "bench gate: perf regression vs committed baselines" \
    bench_gate

echo "CI OK"
