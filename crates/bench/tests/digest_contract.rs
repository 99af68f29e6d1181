//! The committed digests are behavioural contracts. The opt-in
//! `CI_BENCH=1` gate regenerates whole BENCH files; this test pins the
//! cheap rows of each in tier-1, through the same option builders the
//! bench binaries use, so a refactor that moves one bit fails `cargo
//! test` rather than a nightly. The 10k- and 100k-session load rows are
//! `#[ignore]`d here and run optimized by `scripts/ci.sh`: the 10k row by
//! its own per-push stage, the 100k row inside the opt-in bench gate.

use std::sync::Arc;

use adapt_bench::socket::{decision_digest, smoke_session};
use simnet::{DrainMode, ExplorePlan};
use visapp::{decision_sequence, model_db, run_load, socket_mirror_hook, MirrorBackend};

#[test]
fn bench_load_digests_are_pinned() {
    // BENCH_load.json, `deterministic.sweep[].{digest, peak_queue_depth}`
    // (the digest folds in `events` but deliberately not the peak).
    let pinned = [
        (1usize, 0xdfcd_20c7_ac69_2672_u64, 4usize),
        (10, 0x7361_551e_1ed7_e8fb, 19),
        (100, 0xa2bc_bcf4_6c88_c4ce, 114),
        (1000, 0x7401_5125_6f48_9eaf, 1064),
    ];
    let db = Arc::new(model_db(&adapt_bench::load::bench_opts(1)));
    for (sessions, digest, peak) in pinned {
        let report = run_load(&adapt_bench::load::bench_opts(sessions), &db);
        let got = report.digest();
        assert_eq!(got, digest, "{sessions} sessions: {got:016x}");
        assert_eq!(report.peak_queue_depth, peak, "{sessions} sessions");
    }
}

/// One large `bench_opts` row: digest, events, requests, images, peak.
fn assert_load_row(sessions: usize, pinned: (u64, u64, u64, u64, usize)) {
    let opts = adapt_bench::load::bench_opts(sessions);
    let report = run_load(&opts, &Arc::new(model_db(&adapt_bench::load::bench_opts(1))));
    let got = (
        report.digest(),
        report.events_handled,
        report.requests_total,
        report.images_total,
        report.peak_queue_depth,
    );
    assert_eq!(got, pinned, "{sessions} sessions: digest {:016x}", got.0);
}

/// The 10k row is the `load_steady` benchmark workload. About a second
/// in release, a minute unoptimized: `scripts/ci.sh` runs it by name with
/// `--release -- --ignored --exact`.
#[test]
#[ignore = "10k sessions: run in release by scripts/ci.sh"]
fn bench_load_10k_digest_is_pinned() {
    assert_load_row(10_000, (0x08a1_b3eb_58e2_2b63, 660_676, 60_002, 20_000, 10_401));
}

/// The scale point of the sweep: half a minute in release, so it runs
/// only inside the opt-in bench gate (`CI_BENCH=1`).
#[test]
#[ignore = "100k sessions: run in release by the CI_BENCH=1 bench gate"]
fn bench_load_100k_digest_is_pinned() {
    assert_load_row(100_000, (0x7971_3b82_d76c_eb2b, 6_606_024, 600_002, 200_000, 104_001));
}

#[test]
fn kernel_storm_counts_are_pinned_in_every_sequential_mode() {
    // BENCH_load.json, `timing.kernel_storm.{events, peak_queue_depth}`.
    for mode in [DrainMode::Heap, DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))] {
        let r = adapt_bench::load::kernel_storm(1000, 64, 10, mode);
        assert_eq!(r.events, 641_000, "{mode:?}");
        assert_eq!(r.peak_queue_depth, 64_000, "{mode:?}");
    }
}

#[test]
fn bench_arbiter_digests_are_pinned() {
    // BENCH_arbiter.json, `deterministic.sweep[].digest`.
    let pinned = [
        (8usize, 0xd43d_c384_96de_7923_u64),
        (16, 0x4f94_0ae2_03e1_782a),
        (32, 0xa73b_3fa9_88b8_b84b),
        (64, 0xd0be_727a_2d3f_a055),
        (128, 0x3c3f_4d40_915f_5bc9),
        (256, 0x1e2b_724b_6146_3973),
    ];
    let opts = adapt_bench::arbiter::bench_opts;
    let db = Arc::new(model_db(&opts(8).load_opts()));
    for (apps, digest) in pinned {
        let got = arbiter::run_storm(&opts(apps), &db).digest();
        assert_eq!(got, digest, "{apps} apps: {got:016x}");
    }
}

#[test]
fn socket_smoke_decision_digest_is_pinned_and_matches_its_simnet_twin() {
    // What `socket_smoke` prints.
    const PINNED: u64 = 0x0e1a_884c_0669_1ccc;
    let stock = smoke_session(None);
    let got = decision_digest(&decision_sequence(&stock.stats));
    assert_eq!(got, PINNED, "simnet: {got:016x}");

    let (hook, handle) = match socket_mirror_hook(MirrorBackend::Tcp) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("tcp twin skipped: {e}");
            return;
        }
    };
    let wired = smoke_session(Some(hook));
    handle.finish();
    let got = decision_digest(&decision_sequence(&wired.stats));
    assert_eq!(got, PINNED, "tcp: {got:016x}");
    assert_eq!(wired.end, stock.end);
}
