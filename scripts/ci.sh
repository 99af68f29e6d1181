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
# kernel/queue.rs owns the pending-event structure: one insert, one
# representation, and Sim has one drain loop over it. This keeps a second
# insert or drain path (or a heap held outside the queue) from drifting
# back into the kernel.
if grep -rnE 'fn enqueue_partitioned|fn drain_batched_' crates/simnet/src ||
    grep -rn 'BinaryHeap' crates/simnet/src |
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

stage "no shadow benchmark"
# benchmark/ (BENCHMARK.json) is the one source of performance numbers and
# the tests are the one place a deterministic number is pinned. This keeps
# the deleted second system from drifting back: root BENCH_*.json
# baselines, their tolerance gate and comparer, the opt-in switch that ran
# them, and the two stub crates that served only it.
if compgen -G 'BENCH_*.json' >/dev/null; then
    ls BENCH_*.json >&2
    echo "the files above are shadow baselines: pin the number in a test" >&2
    exit 1
fi
gone='bench_gate|bench_compare|criterion|parking_lot|CI_BENCH'
if grep -rnE "$gone" Cargo.toml Cargo.lock crates src tests examples scripts vendor .github |
    grep -vF "$gone"; then
    echo "the lines above bring back the deleted shadow benchmark system" >&2
    exit 1
fi

stage "no rand"
# Every seeded draw goes through obs::det::SplitMix64, the one stream the
# pinned digests are a function of. This keeps the deleted `rand` stub (or
# the real crate, whose stream may change between versions) from drifting
# back into vendor/, a manifest, the lock file or a source file.
if [ -d vendor/rand ]; then
    echo "vendor/rand is back: draw from obs::det::SplitMix64" >&2
    exit 1
fi
gone='\buse rand\b|\brand::'
if grep -rnE --include=Cargo.toml '^[[:space:]]*rand[[:space:]]*[.=]' Cargo.toml crates vendor ||
    grep -nxF 'name = "rand"' Cargo.lock ||
    grep -rnE --include='*.rs' "$gone" crates src tests examples vendor | grep -vF "$gone"; then
    echo "the lines above bring back rand: draw from obs::det::SplitMix64" >&2
    exit 1
fi

stage "no unsafe"
# Library code is safe Rust and the compiler checks it: every crate root
# carries #![forbid(unsafe_code)]. The one `unsafe` left is the counting
# allocator of the zero-allocation audit, a test binary.
if grep -rnw --include='*.rs' unsafe crates src tests examples vendor |
    grep -v '^crates/obs/tests/zero_alloc\.rs:'; then
    echo "the lines above use unsafe outside the zero-allocation audit" >&2
    exit 1
fi
for root in crates/*/src/lib.rs src/lib.rs; do
    if ! grep -qxF '#![forbid(unsafe_code)]' "$root"; then
        echo "$root lacks #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

stage "one kernel record"
# The kernel records what a caller reads and publishes each event once:
# bus events are built directly (no typed TraceEvent mirror), an actor
# keeps its CPU time, its memory in use and one inbound timestamp (no
# transfer log, no snapshot record, no byte, message, wall-time or peak
# counters, no pending-usage buffer), paging is the sandbox's model alone,
# and the sandbox intercepts a handler's actions in one call. This keeps
# the deleted names from drifting back into source.
gone='TraceEvent|TRANSFER_LOG_CAP|transfers_since|set_mem_limit|set_mem_penalty_k|Snapshot\b|my_snapshot|snapshot_of|record_sent|drain_usage|pending_usage|compute_wall_us|sleep_wall_us|msgs_sent|mem_peak|push_action'
if grep -rnE --include='*.rs' "$gone" crates src tests examples | grep -vF "$gone"; then
    echo "the lines above bring back a deleted kernel record" >&2
    exit 1
fi

stage "one link model"
# The kernel drains one queue representation and keeps one FIFO record
# per directed host pair (link, loss, jitter, down window); the reference
# heap and the linear-scan predictor live in test code under other names.
# This keeps the deleted heap drain, fair-share link mode, shadow link
# maps, cross-drain oracle and public scan predictor from drifting back.
gone='DrainMode::Heap|LinkMode|FlowSched|FlowNext|set_link_mode|flow_scheds|down_links|DrainDivergence|predict_scan'
if grep -rnE --include='*.rs' "$gone" crates src tests examples | grep -vF "$gone"; then
    echo "the lines above bring back a deleted queue representation or link model" >&2
    exit 1
fi

stage "one decision path"
# A scheduler decision prices its candidates through the database's
# candidate view, on flat metric rows (DESIGN.md §9). This keeps the
# deleted per-probe memo of whole reports out of library source, and the
# report-shaped `PerfDb::predict` out of the scheduler.
if grep -rnE 'fn memoized|Vec<Option<QosReport>>' crates/*/src ||
    grep -nF '.predict(' crates/core/src/scheduler.rs; then
    echo "the lines above bring back a second decision path" >&2
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

echo "==== all stages passed ===="
