#!/usr/bin/env bash
# Full local CI gate: build, tests, socket smoke, lints, formatting.
#
# Stages run in order and fail fast: the first failing command aborts the
# script and the ERR trap prints which named stage died, so a long log
# always ends with the culprit.
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STAGE="(startup)"
stage() {
    CURRENT_STAGE="$1"
    echo "==== stage: $CURRENT_STAGE ===="
}
trap 'echo "FAILED in stage: $CURRENT_STAGE" >&2' ERR

stage "no stub serializer"
# obs::json is the workspace's one text codec. The offline stand-ins it
# replaced serialized a placeholder and could not deserialize at all;
# this keeps them (or anything that would pull them back) from drifting
# into a manifest, the lock file or a source file.
if grep -rIl --include='*.rs' --include='Cargo.toml' --include='Cargo.lock' serde \
    Cargo.toml Cargo.lock crates src tests examples vendor; then
    echo "the files above mention serde: use obs::json" >&2
    exit 1
fi

stage "one event queue"
# kernel/queue.rs owns the pending-event structure: one insert per
# representation, and Sim has one drain loop over it. This keeps a second
# insert or drain path (or a heap held outside the queue) from drifting
# back into the kernel.
if grep -rnE 'fn enqueue_partitioned|fn drain_batched_' crates/simnet/src ||
    grep -rn 'BinaryHeap<HeapEntry>' crates/simnet/src |
    grep -v '^crates/simnet/src/kernel/queue\.rs:'; then
    echo "the lines above duplicate kernel/queue.rs: go through EventQueue" >&2
    exit 1
fi

stage "no parallel drain"
# The kernel drains on one thread (DESIGN.md §14 has the measurement that
# deleted the parallel mode). This keeps the mode, its environment
# variable, its pinned-script and observer entry points and its module
# from drifting back. benchmark/ is not searched: its README still names
# the mode, and a PR may not edit it.
gone='DrainMode::Sharded|SIMNET_THREADS|fn at_on|fn mark_observer|mod shard'
if grep -rnE "$gone" crates src tests examples scripts .github | grep -vF "$gone"; then
    echo "the lines above bring back the deleted parallel drain" >&2
    exit 1
fi

stage "build"
cargo build --release

stage "tests"
# The root manifest's `default-members` makes bare `cargo test -q` the
# whole workspace, so the chaos fault-injection scenarios (visapp
# `chaos_*` tests) and the digest-contract test run here.
cargo test -q

stage "compress byte identity (release)"
# `bwt::forward` is held byte for byte to the sorter it replaced, which
# lives on as the oracle in crates/compress/tests/bwt_reference.rs. The
# oracle sorts a doubled 100 kB block ~18 times over; optimized, the
# full-block cases take a second instead of a minute. --release also
# runs the codec arithmetic with overflow checks off, as it ships.
cargo test -q -p compress --release

stage "10k load digest (release)"
# The 10 000-session row of BENCH_load.json (the `load_steady` benchmark
# workload): digest, peak queue depth, request, image and event counts.
# About a second optimized, so it is pinned here on every run, by name:
# its 100 000-session sibling takes half a minute and runs inside the
# opt-in bench gate below.
cargo test -q --release -p adapt-bench --test digest_contract \
    bench_load_10k_digest_is_pinned -- --ignored --exact

stage "arbiter smoke"
# Saturation smoke: a 200-application arbiter storm must hold the
# arbiter invariant oracles (tier-ordered shedding, no eviction without
# a policing violation) and reproduce its pinned digest.
cargo build --release -q -p adapt-bench
d="$(./target/release/arbiter_smoke)"
if [ "$d" != "ddaebe899ee15c20" ]; then
    echo "arbiter_smoke: digest $d != pinned ddaebe899ee15c20" >&2
    exit 1
fi
echo "arbiter_smoke: digest $d matches the pinned one"

stage "socket smoke"
# Real-socket transport smoke: one adaptive session replayed over
# loopback TCP (and UDS where available; a UDS bind failure is a skip,
# not an error) must make exactly the same adaptive decisions as the
# pure-simnet run. The decision digest it prints is pinned by
# crates/bench/tests/digest_contract.rs (simnet and TCP twin).
./target/release/socket_smoke

stage "control-plane smoke"
# Live-reconfiguration smoke: the preference_flip example asserts the
# control plane end to end — an empty command schedule leaves the event
# stream byte-identical across reruns, a mid-run Command::Set flips the
# scheduler's choice in the same run with a matching audit event, and a
# pinned knob refuses the Set.
cargo run --release -q --example preference_flip

stage "clippy"
# The pre-obs shims (Trace::events/take/render, Trace::set_enabled,
# StatsHandle::with_mut, AdaptiveRuntime::configure/events,
# FaultPlan::loss/...) are deleted;
# -D deprecated keeps any future soft-deprecated entry point out of the
# workspace's own code from day one.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --workspace --all-targets -- -D deprecated

stage "rustdoc"
# Rustdoc is part of the API surface: broken intra-doc links and bad
# doc examples fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

stage "fmt"
cargo fmt --check

# Simulation-test canary: the adapt-dst suite compiled with the planted
# dedup bug must find it, shrink it, and replay the committed repro.
# Opt-in because it rebuilds the workspace under a different cfg.
if [ "${CI_DST_CANARY:-0}" = "1" ]; then
    stage "dst canary"
    RUSTFLAGS="--cfg dst_canary" cargo test -q --release -p adapt-dst
fi

# Model-drift canary: the adapt-dst suite compiled with the planted
# latency spike must make the refine engine alarm, the explorer must
# capture and shrink the incident, and the committed model_drift repro
# must replay bit-for-bit (digest-pinned) under every drain mode.
if [ "${CI_DST_DRIFT:-0}" = "1" ]; then
    stage "dst drift canary"
    RUSTFLAGS="--cfg dst_drift" cargo test -q --release -p adapt-dst
fi

# Coverage floor: opt-in, requires cargo-llvm-cov. The --workspace scope
# picks up every crates/* member automatically, adapt-transport included.
if [ "${CI_COV:-0}" = "1" ]; then
    stage "coverage floor"
    cargo llvm-cov --workspace -q --fail-under-lines "$(cat scripts/coverage_floor.txt)"
fi

# Benchmark regression gate: opt-in because it rebuilds and re-runs
# every BENCH_*.json generator and the 100 000-session load row (about
# half a minute optimized; its digest and counts are pinned by the test).
if [ "${CI_BENCH:-0}" = "1" ]; then
    stage "bench gate"
    cargo test -q --release -p adapt-bench --test digest_contract \
        bench_load_100k_digest_is_pinned -- --ignored --exact
    scripts/bench_gate.sh
fi

echo "==== all stages passed ===="
