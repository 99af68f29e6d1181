//! The committed digests are behavioural contracts, and this file is
//! where the workload-level ones live: each row is pinned through the
//! option builders (`adapt_bench::{load, arbiter, socket}`) that define
//! it, so a refactor that moves one bit fails `cargo test`. The cheap rows
//! run in tier-1. The 10k- and 100k-session load rows, the 500-session
//! collapse row, the Figure 7 row and the 1 000-trial explorer rows are
//! `#[ignore]`d;
//! `scripts/ci.sh` runs them optimized with
//! `cargo test -q --release -p adapt-bench -- --ignored --test-threads=1`.

use std::sync::Arc;

use adapt_bench::figs::adaptation::{fig7a, fig7b, fig7cd, history, ExperimentResult};
use adapt_bench::figs::experiment_scenario;
use adapt_bench::socket::{decision_digest, smoke_session};
use adapt_core::PreferenceList;
use adapt_dst::{Explorer, ExplorerOpts, FaultSpace, TrialContext};
use arbiter::StormOpts;
use obs::det::{Fnv64, SplitMix64};
use sandbox::{LimitSchedule, Limits};
use simnet::{DrainMode, ExplorePlan, SimTime};
use visapp::{
    build_db, decision_sequence, model_db, run_adaptive_shared, run_load, socket_mirror_hook,
    MirrorBackend, RunStats, Scenario,
};

/// One `bench_opts` load row: digest, events, requests, images, peak
/// queue depth and adaptation ticks. The digest folds every session's
/// rounds, images, switches, bytes and finish time plus the end time and
/// the event count, but neither the peak nor the ticks, so both are
/// pinned beside it.
fn assert_load_row(sessions: usize, pinned: (u64, u64, u64, u64, usize, u64)) {
    let opts = adapt_bench::load::bench_opts(sessions);
    let report = run_load(&opts, &Arc::new(model_db(&adapt_bench::load::bench_opts(1))));
    let ticks =
        report.obs.lookup("runtime.tick").map_or(0, |id| report.obs.histogram_stats(id).count);
    let got = (
        report.digest(),
        report.events_handled,
        report.requests_total,
        report.images_total,
        report.peak_queue_depth,
        ticks,
    );
    assert_eq!(got, pinned, "{sessions} sessions: digest {:016x}", got.0);
}

#[test]
fn bench_load_digests_are_pinned() {
    assert_load_row(1, (0xdfcd_20c7_ac69_2672, 138, 8, 2, 4, 48));
    assert_load_row(10, (0x7361_551e_1ed7_e8fb, 1_717, 62, 20, 19, 1_173));
    assert_load_row(100, (0xa2bc_bcf4_6c88_c4ce, 55_426, 602, 200, 114, 51_045));
    assert_load_row(1_000, (0x7401_5125_6f48_9eaf, 247_076, 6_002, 2_000, 1_064, 210_466));
    // The one database every row shares (one `Arc`, however many sessions).
    assert_eq!(model_db(&adapt_bench::load::bench_opts(1)).approx_bytes(), 106_728);
}

/// The 10k row is the `load_steady` benchmark workload. About a second
/// in release, a minute unoptimized.
#[test]
#[ignore = "10k sessions: run in release by scripts/ci.sh"]
fn bench_load_10k_digest_is_pinned() {
    assert_load_row(10_000, (0x08a1_b3eb_58e2_2b63, 660_676, 60_002, 20_000, 10_401, 355_270));
}

/// The scale point of the sweep: half a minute and 1.4 GB in release.
#[test]
#[ignore = "100k sessions: run in release by scripts/ci.sh"]
fn bench_load_100k_digest_is_pinned() {
    assert_load_row(
        100_000,
        (0x7971_3b82_d76c_eb2b, 6_606_024, 600_002, 200_000, 104_001, 3_551_935),
    );
}

/// The first `sessions` sessions of the `session_collapse` benchmark
/// workload at seed 7, digested as it digests them: adaptive sessions on
/// the paper's 2 s monitor window (`Scenario::default()`) whose bandwidth
/// collapses to 30–60 kB/s at 0.6–1.6 s and recovers 9 s later. Each
/// folds its finish time, image and round counts, wire bytes and every
/// configuration switch (time and key), so it holds what the monitor's
/// triggers decided over a long window.
fn collapse_digest(sessions: usize) -> u64 {
    const HIGH_BPS: f64 = 500_000.0;
    let sc = Scenario { n_images: 20, img_size: 256, levels: 4, seed: 7, ..Scenario::default() };
    let store = sc.build_store();
    let bandwidths = [30_000.0, 60_000.0, 125_000.0, 250_000.0, 500_000.0];
    let db = Arc::new(build_db(&sc, &store, &[0.25, 0.5, 1.0], &bandwidths, 1));
    let prefs = PreferenceList::parse_directive("resolution>=4, minimize:transmit_time")
        .expect("well-formed preference directive");
    let mut rng = SplitMix64::new(7 ^ 0x5E55_10C0);
    let mut h = Fnv64::new();
    for _ in 0..sessions {
        let at = SimTime::from_us(rng.range(600_000, 1_600_000));
        let low_bps = 30_000.0 + rng.next_f64() * 30_000.0;
        let schedule = LimitSchedule::new()
            .at(at, Limits::net(low_bps))
            .at(at + 9_000_000, Limits::net(HIGH_BPS));
        let limits = Limits::net(HIGH_BPS);
        let out =
            run_adaptive_shared(&sc, &store, db.clone(), prefs.clone(), limits, Some(schedule));
        let stats = &out.stats;
        h.write_u64(stats.finished_at.map_or(u64::MAX, |t| t.as_us()));
        h.write_u64(stats.images.len() as u64);
        h.write_u64(stats.rounds.len() as u64);
        h.write_u64(stats.total_wire_bytes());
        for (t, config) in &stats.config_history {
            h.write_u64(t.as_us());
            config.key().bytes().for_each(|b| h.write_u64(b.into()));
        }
    }
    h.finish()
}

#[test]
fn collapse_sessions_digest_is_pinned() {
    let got = collapse_digest(20);
    assert_eq!(got, 0xf8d0_2944_7bbc_77b7, "{got:016x}");
}

/// All 500 sessions of one `session_collapse` repetition: the benchmark's
/// own digest. A second or two optimized, set-up included.
#[test]
#[ignore = "500 sessions: run in release by scripts/ci.sh"]
fn collapse_500_sessions_digest_is_pinned() {
    let got = collapse_digest(500);
    assert_eq!(got, 0x562f_8327_5af9_4b0d, "{got:016x}");
}

/// One Figure 7 experiment: its database's record count, the adaptive
/// run's configuration history, and the finish times of the adaptive run
/// and of its two static twins, in seconds at one decimal.
fn assert_experiment(res: ExperimentResult, records: usize, pinned: &[&str], totals: [&str; 3]) {
    assert_eq!(res.db_records, records);
    assert_eq!(history(&res.adaptive), pinned);
    let runs = [&res.adaptive, &res.static_runs[0].1, &res.static_runs[1].1];
    let total =
        |s: &&RunStats| format!("{:.1}", s.finished_at.expect("every run finishes").as_secs_f64());
    assert_eq!(runs.iter().map(total).collect::<Vec<_>>(), totals);
}

/// Figure 7's three experiments as `figures fig7a`, `fig7b` and `fig7cd`
/// run them. Half a second optimized.
#[test]
#[ignore = "three 15-image experiments at 512 px: run in release by scripts/ci.sh"]
fn figure7_histories_and_totals_are_pinned() {
    let sc = experiment_scenario();
    let store = sc.build_store();
    let (threads, at) = (obs::det::cores(), SimTime::from_secs(3));
    assert_experiment(
        fig7a(&sc, &store, 1.0, 500_000.0, 50_000.0, at, threads),
        60,
        &[
            "0.0s c=1,dR=128,l=4",
            "0.1s c=1,dR=256,l=4",
            "2.8s c=1,dR=128,l=4",
            "10.5s c=2,dR=256,l=4",
        ],
        ["45.5", "49.9", "48.9"],
    );
    assert_experiment(
        fig7b(&sc, &store, 500_000.0, 0.9, 0.4, at, threads),
        60,
        &["0.0s c=1,dR=64,l=4", "5.5s c=1,dR=64,l=3"],
        ["9.4", "14.6", "2.0"],
    );
    assert_experiment(
        fig7cd(&sc, &store, 500_000.0, 0.9, 0.4, at, threads),
        60,
        &["0.0s c=1,dR=128,l=4", "6.0s c=1,dR=64,l=4"],
        ["15.6", "14.6", "16.2"],
    );
}

#[test]
fn kernel_storm_counts_are_pinned_in_every_sequential_mode() {
    // 1 000 aligned actors x 64 timers x 10 rounds.
    for mode in [DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))] {
        let r = adapt_bench::load::kernel_storm(1000, 64, 10, mode);
        assert_eq!(r.events, 641_000, "{mode:?}");
        assert_eq!(r.peak_queue_depth, 64_000, "{mode:?}");
    }
}

#[test]
fn bench_arbiter_digests_are_pinned() {
    // The offered-load sweep at 4 hosts: per point the storm digest (every
    // app's fate, every admission and policing counter, the end time and
    // the event count), then whole-run and busy-period utilization and
    // the p99 response of tiers 0 (gold), 1 and 2, in seconds, at four
    // decimals. No point opens the overload breaker.
    #[rustfmt::skip]
    let pinned = [
        (8usize, 0xd43d_c384_96de_7923_u64, ["0.1233", "0.0000", "0.0813", "0.1277", "0.1530"]),
        (16,     0x4f94_0ae2_03e1_782a,     ["0.2549", "0.9219", "0.0813", "0.1532", "0.1559"]),
        (32,     0xa73b_3fa9_88b8_b84b,     ["0.4057", "0.9101", "0.0813", "0.1560", "0.2061"]),
        (64,     0xd0be_727a_2d3f_a055,     ["0.6569", "0.9227", "0.1533", "0.1552", "0.1585"]),
        (128,    0x3c3f_4d40_915f_5bc9,     ["0.6831", "0.9205", "0.2048", "0.2714", "0.2550"]),
        (256,    0x1e2b_724b_6146_3973,     ["0.7272", "0.9213", "0.2039", "0.2944", "0.3052"]),
    ];
    let opts = adapt_bench::arbiter::bench_opts;
    let db = Arc::new(model_db(&opts(8).load_opts()));
    for (apps, digest, shape) in pinned {
        let r = arbiter::run_storm(&opts(apps), &db);
        let got = r.digest();
        assert_eq!(got, digest, "{apps} apps: {got:016x}");
        assert_eq!((r.overload_opens, r.overload_closes), (0, 0), "{apps} apps");
        let p99 = |tier| r.p99_response_s.iter().find(|(t, _)| *t == tier).map(|(_, s)| *s);
        let p99s = [0, 1, 2].map(|tier| p99(tier).expect("every tier finishes an app"));
        let got = [r.utilization, r.busy_utilization].into_iter().chain(p99s);
        assert_eq!(got.map(|v| format!("{v:.4}")).collect::<Vec<_>>(), shape, "{apps} apps");
        // The acceptance shape: gold stays responsive at every point, and
        // the cluster is at least 80 % busy at the knee.
        assert!(p99s[0] < 5.0, "gold p99 {}s at {apps} apps", p99s[0]);
        if apps == 256 {
            assert!(r.busy_utilization >= 0.8, "knee busy utilization {}", r.busy_utilization);
        }
    }
}

/// The saturation storm: 200 apps on 4 hosts, a dip to 40 % capacity at
/// 0.5–0.6 s and one rogue in five, enough to queue, backfill, open the
/// overload breaker, shed, recover and walk the whole policing ladder.
/// It must hold the arbiter oracles (tier-ordered shedding, no eviction
/// without a policing violation) and reproduce its digest.
#[test]
fn arbiter_saturation_storm_holds_the_oracles_and_its_digest() {
    let opts = StormOpts::new(200)
        .with_seed(0xC1)
        .with_cluster_hosts(4)
        .with_rogue_every(5)
        .with_dips(vec![(500_000, 600_000, 0.4)]);
    let report = arbiter::run_storm(&opts, &Arc::new(model_db(&opts.load_opts())));
    let violations = adapt_dst::check_arbiter(&report.obs);
    assert!(violations.is_empty(), "{violations:?}");
    let got = report.digest();
    assert_eq!(got, 0xddae_be89_9ee1_5c20, "{got:016x}");
}

#[test]
fn socket_smoke_decision_digest_is_pinned_and_matches_its_simnet_twin() {
    // One bandwidth-collapse session on pure simnet, then with every
    // message round-tripped through each real socket backend: the kernel
    // owns virtual time, so any divergence is codec or framing
    // infidelity. A backend that cannot bind here is skipped.
    const PINNED: u64 = 0x0e1a_884c_0669_1ccc;
    let stock = smoke_session(None);
    let reference = decision_sequence(&stock.stats);
    assert!(reference.len() >= 2, "the scenario must exercise runtime adaptation");
    let got = decision_digest(&reference);
    assert_eq!(got, PINNED, "simnet: {got:016x}");

    for backend in [MirrorBackend::Tcp, MirrorBackend::Uds] {
        let (hook, handle) = match socket_mirror_hook(backend) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{} twin skipped: {e}", backend.name());
                continue;
            }
        };
        let wired = smoke_session(Some(hook));
        handle.finish();
        assert_eq!(decision_sequence(&wired.stats), reference, "{}", backend.name());
        assert_eq!(wired.end, stock.end, "{}", backend.name());
    }
}

/// The explorer as the nightly sweep runs it, minus shrinking: the
/// default master seed, the first `trials` trials of each fault space
/// (default, knob commands, refine drift), every trial checked by every
/// oracle. A correct build violates nothing.
fn assert_explorer_digests(trials: u64, pinned: [u64; 3]) {
    let ctx = TrialContext::new();
    let spaces = [FaultSpace::default(), FaultSpace::knobs(), FaultSpace::drift()];
    for ((axis, space), digest) in ["default", "knob", "drift"].into_iter().zip(spaces).zip(pinned)
    {
        let opts = ExplorerOpts {
            trials,
            space,
            shrink: false,
            max_failures: usize::MAX,
            ..ExplorerOpts::default()
        };
        let report = Explorer::new(opts).run(&ctx);
        let failures: Vec<String> =
            report.failures.iter().map(|f| f.violation.to_string()).collect();
        assert!(failures.is_empty(), "{axis} axis: {failures:?}");
        assert_eq!(report.trials_run, trials, "{axis} axis");
        assert_eq!(report.digest, digest, "{axis} axis: {:016x}", report.digest);
    }
}

/// A prefix of each axis: two seconds unoptimized.
#[test]
fn dst_explorer_prefix_digests_are_pinned() {
    assert_explorer_digests(
        64,
        [0xed36_ea0a_23d6_4233, 0xcda6_b38e_ec14_4c30, 0x8c82_0e56_1010_0bb8],
    );
}

/// A thousand trials per axis: four seconds optimized.
#[test]
#[ignore = "3 000 explorer trials: run in release by scripts/ci.sh"]
fn dst_explorer_digests_are_pinned() {
    assert_explorer_digests(
        1_000,
        [0x80db_c9ef_39a5_46bc, 0x14a0_06df_b36d_df4c, 0xe7e0_6211_7f0e_37b5],
    );
}
