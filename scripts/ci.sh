#!/usr/bin/env bash
# Full local CI gate: build, tests, pinned release rows, lints, formatting.
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

stage "build"
cargo build --release

stage "benchmark build"
# benchmark/ is a workspace of its own, so no other stage compiles it: a
# library item it calls that loses its `pub` fails here, not in a
# benchmark run. The check may rewrite the stale benchmark/Cargo.lock.
cargo check --release --offline --manifest-path benchmark/Cargo.toml

stage "tests"
# The root manifest's `default-members` makes bare `cargo test -q` the
# whole workspace, so the chaos fault-injection scenarios (visapp
# `chaos_*` tests), the digest-contract test and the deleted-stays-deleted
# table (tests/deleted_stays_deleted.rs) run here.
cargo test -q

stage "compress and plasma byte identity (release)"
# Three kernels are held byte for byte to the code they replaced, which
# lives on as test oracles: `bwt::forward` against the old sorter
# (crates/compress/tests/bwt_reference.rs), `lzw::compress` against the
# HashMap encoder (crates/compress/tests/lzw_reference.rs) and
# `image::plasma` / `image::photo` against the per-pixel loop
# (crates/wavelet/tests/plasma_reference.rs). Two builds that run on
# worker threads are held to serial ones: bzip blocks against a serial
# loop over the stage functions (crates/compress/tests/bzip_blocks.rs)
# and `ImageStore::generate` against serial `Pyramid::build(&photo(..))`
# (crates/visapp/tests/store_identity.rs). The BWT oracle sorts a
# doubled 100 kB block ~18 times over; optimized, the full-block cases
# take a second instead of a minute. --release also runs the arithmetic
# with overflow checks off, as it ships.
cargo test -q -p compress --release
cargo test -q -p wavelet --release
cargo test -q -p visapp --release --test store_identity

stage "pinned release rows"
# The `#[ignore]`d tests of adapt-bench, optimized: the 10k- and
# 100k-session load rows, the 500-session collapse row (the
# `session_collapse` benchmark digest), 1 000 explorer trials per fault
# space, and the wall-clock floors of tests/overhead_floors.rs. One test
# thread keeps the floors off a core the 100k row is using.
cargo test -q --release -p adapt-bench -- --ignored --test-threads=1

stage "control-plane smoke"
# Live-reconfiguration smoke: the preference_flip example asserts the
# control plane end to end — an empty command schedule leaves the event
# stream byte-identical across reruns, and a mid-run Command::Set flips
# the scheduler's choice in the same run with a matching config_set
# audit event and a decide event stamped with preference version 1.
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

echo "==== all stages passed ===="
