//! The committed digests are behavioural contracts. The opt-in
//! `CI_BENCH=1` gate regenerates whole BENCH files; this test pins the
//! cheap rows of each in tier-1, through the same option builders the
//! bench binaries use, so a refactor that moves one bit fails `cargo
//! test` rather than a nightly. The 10k-session load row is `#[ignore]`d
//! here and run optimized by its own `scripts/ci.sh` stage.

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

/// The 10k row is the `load_steady` benchmark workload. About a second
/// in release, a minute unoptimized: `scripts/ci.sh` runs it with
/// `--release -- --ignored`.
#[test]
#[ignore = "10k sessions: run in release by scripts/ci.sh"]
fn bench_load_10k_digest_is_pinned() {
    let opts = adapt_bench::load::bench_opts(10_000);
    let report = run_load(&opts, &Arc::new(model_db(&adapt_bench::load::bench_opts(1))));
    let got = report.digest();
    assert_eq!(got, 0x08a1_b3eb_58e2_2b63, "{got:016x}");
    assert_eq!(report.peak_queue_depth, 10_401);
    assert_eq!(report.requests_total, 60_002);
    assert_eq!(report.events_handled, 660_676);
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
    ];
    let opts = |apps| adapt_bench::arbiter::bench_opts(apps, DrainMode::Batched);
    let db = Arc::new(model_db(&opts(8).load_opts()));
    for (apps, digest) in pinned {
        let got = arbiter::run_storm(&opts(apps), &db).digest();
        assert_eq!(got, digest, "{apps} apps: {got:016x}");
    }
}

#[test]
fn socket_smoke_decision_digest_is_pinned_and_matches_its_simnet_twin() {
    // What `socket_smoke` prints (and CI compares across SIMNET_THREADS).
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
