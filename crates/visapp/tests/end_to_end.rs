//! End-to-end tests of the active visualization application on the
//! simulated platform: correctness of the full transfer pipeline, profile
//! database construction, and small-scale run-time adaptation.

use std::sync::Arc;

use adapt_core::{Constraint, Objective, PredictMode, Preference, PreferenceList};

use compress::Method;
use sandbox::{LimitSchedule, Limits};
use simnet::SimTime;
use visapp::{
    build_db, client_cpu_key, client_net_key, run_adaptive_shared, run_static, Scenario, VizConfig,
    PROFILE_INPUT,
};

fn small_scenario() -> Scenario {
    Scenario { verify: true, ..Scenario::small() }
}

#[test]
fn static_download_completes_and_reconstructs_exactly() {
    let sc = small_scenario();
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    let out = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    // The client's internal assertion verified pixel-exact reconstruction.
    assert_eq!(out.stats.images.len(), 2);
    assert!(out.stats.finished_at.is_some());
    // cover_radius 32, dR 16 -> 2 rounds per image.
    assert_eq!(out.stats.rounds.len(), 4);
    assert!(out.end > SimTime::ZERO);
}

#[test]
fn all_methods_reconstruct_exactly() {
    let sc = small_scenario();
    let store = sc.build_store();
    for method in [Method::Raw, Method::Lzw, Method::Bzip] {
        let cfg = VizConfig { dr: 32, level: 3, method };
        let out = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
        assert_eq!(out.stats.images.len(), 2, "{method}");
    }
}

#[test]
fn lower_resolution_is_faster_and_smaller() {
    let sc = Scenario { verify: true, ..Scenario::small() };
    let store = sc.build_store();
    let hi = run_static(
        &sc,
        &store,
        VizConfig { dr: 32, level: 3, method: Method::Lzw },
        Limits::unconstrained(),
        None,
    );
    let lo = run_static(
        &sc,
        &store,
        VizConfig { dr: 32, level: 2, method: Method::Lzw },
        Limits::unconstrained(),
        None,
    );
    assert!(lo.stats.total_wire_bytes() < hi.stats.total_wire_bytes());
    assert!(lo.stats.avg_transmit_secs() < hi.stats.avg_transmit_secs());
}

#[test]
fn cpu_cap_slows_the_client() {
    let sc = Scenario::small();
    let store = sc.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Lzw };
    let fast = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    let slow = run_static(&sc, &store, cfg, Limits::cpu(0.1), None);
    assert!(
        slow.stats.avg_transmit_secs() > 1.5 * fast.stats.avg_transmit_secs(),
        "slow {} vs fast {}",
        slow.stats.avg_transmit_secs(),
        fast.stats.avg_transmit_secs()
    );
}

#[test]
fn bandwidth_cap_slows_the_client() {
    let sc = Scenario::small();
    let store = sc.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Lzw };
    let fast = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    let slow = run_static(&sc, &store, cfg, Limits::net(20_000.0), None);
    assert!(slow.stats.avg_transmit_secs() > 2.0 * fast.stats.avg_transmit_secs());
}

#[test]
fn bigger_fovea_fewer_rounds_longer_response() {
    let sc = Scenario::small();
    let store = sc.build_store();
    // Throttle so per-round time is dominated by shaped bandwidth.
    let limits = Limits::net(50_000.0);
    let small_dr =
        run_static(&sc, &store, VizConfig { dr: 8, level: 3, method: Method::Lzw }, limits, None);
    let big_dr =
        run_static(&sc, &store, VizConfig { dr: 32, level: 3, method: Method::Lzw }, limits, None);
    assert!(big_dr.stats.rounds.len() < small_dr.stats.rounds.len());
    assert!(big_dr.stats.avg_response_secs() > small_dr.stats.avg_response_secs());
    // Total transmission: big fovea has less per-round overhead.
    assert!(big_dr.stats.avg_transmit_secs() <= small_dr.stats.avg_transmit_secs());
}

#[test]
fn compression_crossover_in_profiles() {
    // Build a small database and check the Figure 6(a) shape: at high
    // bandwidth LZW yields lower transmit time; at very low bandwidth
    // Bzip does.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[1.0], &[5_000.0, 400_000.0], 2);
    let lzw = adapt_core::Configuration::new(&[("dR", 16), ("c", 1), ("l", 3)]);
    let bzip = adapt_core::Configuration::new(&[("dR", 16), ("c", 2), ("l", 3)]);
    let t = |cfg: &adapt_core::Configuration, bw: f64| {
        let mut r = adapt_core::ResourceVector::default();
        r.set(client_cpu_key(), 1.0);
        r.set(client_net_key(), bw);
        db.predict(cfg, PROFILE_INPUT, &r, PredictMode::Interpolate)
            .unwrap()
            .get("transmit_time")
            .unwrap()
    };
    assert!(
        t(&lzw, 400_000.0) < t(&bzip, 400_000.0),
        "lzw {} vs bzip {} at 400 KB/s",
        t(&lzw, 400_000.0),
        t(&bzip, 400_000.0)
    );
    assert!(
        t(&bzip, 5_000.0) < t(&lzw, 5_000.0),
        "bzip {} vs lzw {} at 5 KB/s",
        t(&bzip, 5_000.0),
        t(&lzw, 5_000.0)
    );
}

/// Predict a metric from a database (test helper).
fn predict(
    db: &adapt_core::PerfDb,
    config: &adapt_core::Configuration,
    cpu: f64,
    net: f64,
    metric: &str,
) -> f64 {
    let mut r = adapt_core::ResourceVector::default();
    r.set(client_cpu_key(), cpu);
    r.set(client_net_key(), net);
    db.predict(config, PROFILE_INPUT, &r, PredictMode::Interpolate).unwrap().get(metric).unwrap()
}

#[test]
fn adaptive_client_switches_compression_on_bandwidth_drop() {
    // Miniature Experiment 1: bandwidth starts high, collapses mid-run;
    // the adaptive client must start with LZW and switch to Bzip. The
    // client CPU share is low so compression CPU cost matters even at
    // this tiny image scale.
    let sc = Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2);
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ));
    // Sanity on the profile shape before running the experiment.
    let lzw = adapt_core::Configuration::new(&[("dR", 32), ("c", 1), ("l", 3)]);
    let bzip = adapt_core::Configuration::new(&[("dR", 32), ("c", 2), ("l", 3)]);
    assert!(
        predict(&db, &lzw, 0.05, 60_000.0, "transmit_time")
            < predict(&db, &bzip, 0.05, 60_000.0, "transmit_time"),
        "lzw must win at 60 KB/s"
    );
    assert!(
        predict(&db, &bzip, 0.05, 2_000.0, "transmit_time")
            < predict(&db, &lzw, 0.05, 2_000.0, "transmit_time"),
        "bzip must win at 2 KB/s"
    );
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let schedule =
        LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));
    let out = run_adaptive_shared(&sc, &store, Arc::new(db), prefs, start, Some(schedule));
    let hist = &out.stats.config_history;
    assert_eq!(hist[0].1.get("c"), Some(Method::Lzw.code()), "starts with lzw");
    let last = &hist.last().unwrap().1;
    assert_eq!(last.get("c"), Some(Method::Bzip.code()), "ends with bzip; history {hist:?}");
    assert_eq!(out.stats.images.len(), 30, "all images delivered despite the drop");
}

#[test]
fn adaptive_client_degrades_resolution_under_deadline() {
    // Miniature Experiment 2: keep per-image transmit under a deadline
    // while maximizing resolution; a CPU collapse forces level 3 -> 2.
    let sc = Scenario {
        n_images: 60,
        img_size: 64,
        levels: 3,
        monitor_window_us: 250_000,
        trigger_gap_us: 100_000,
        ..Scenario::default()
    };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[0.05, 0.3, 1.0], &[100_000.0], 2);
    // Deadline between the fine level's transmit time at full and at 5%
    // CPU: initially satisfiable, violated after the drop.
    let fine = adapt_core::Configuration::new(&[("dR", 32), ("c", 1), ("l", 3)]);
    let t_full = predict(&db, &fine, 1.0, 100_000.0, "transmit_time");
    let t_low = predict(&db, &fine, 0.05, 100_000.0, "transmit_time");
    assert!(t_low > t_full);
    let deadline = (t_full + t_low) / 2.0;
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", deadline)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let schedule =
        LimitSchedule::new().at(SimTime::from_ms(300), Limits::cpu(0.05).with_net(100_000.0));
    let out = run_adaptive_shared(
        &sc,
        &store,
        Arc::new(db),
        prefs,
        Limits::cpu(1.0).with_net(100_000.0),
        Some(schedule),
    );
    let hist = &out.stats.config_history;
    assert_eq!(hist[0].1.get("l"), Some(3), "starts at the finest level");
    let final_l = hist.last().unwrap().1.get("l");
    assert_eq!(final_l, Some(2), "degrades resolution under CPU pressure: {hist:?}");
    assert_eq!(out.stats.images.len(), 60);
}

#[test]
fn profile_store_cache_is_reused_across_runs() {
    let sc = Scenario { n_images: 1, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Bzip };
    run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    let after_first = store.cache_len();
    run_static(&sc, &store, cfg, Limits::cpu(0.5), None);
    assert_eq!(store.cache_len(), after_first, "identical payloads memoized");
}

#[test]
fn deterministic_replay() {
    let sc = Scenario::small();
    let store: Arc<_> = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    let a = run_static(&sc, &store, cfg, Limits::cpu(0.7), None);
    let b = run_static(&sc, &store, cfg, Limits::cpu(0.7), None);
    assert_eq!(a.end, b.end);
    assert_eq!(a.stats.total_wire_bytes(), b.stats.total_wire_bytes());
    assert_eq!(a.stats.avg_response_secs(), b.stats.avg_response_secs());
}

#[test]
fn memory_pressure_slows_the_fine_level_more() {
    // Extension beyond the paper's CPU/network axes: the client's working
    // set scales with the viewing resolution, so a tight memory limit
    // slows the fine level (paging) while the coarse level still fits.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    // Working set at l=3: 64*64*5 + 32K = 52 KB; at l=2: 37 KB.
    // A 40 KB limit makes the fine level page (33% overcommit) while the
    // coarse level fits. CPU throttled so client compute is visible.
    let tight = Limits::cpu(0.3).with_mem(40 * 1024);
    let roomy = Limits::cpu(0.3).with_mem(1 << 20);
    let fine_cfg = VizConfig { dr: 32, level: 3, method: Method::Lzw };
    let fine_tight = run_static(&sc, &store, fine_cfg, tight, None);
    let fine_roomy = run_static(&sc, &store, fine_cfg, roomy, None);
    assert!(
        fine_tight.stats.avg_transmit_secs() > 1.05 * fine_roomy.stats.avg_transmit_secs(),
        "paging must slow the fine level: {} vs {}",
        fine_tight.stats.avg_transmit_secs(),
        fine_roomy.stats.avg_transmit_secs()
    );
    // The coarse level fits under the same limit: no slowdown.
    let coarse_cfg = VizConfig { dr: 32, level: 2, method: Method::Lzw };
    let coarse_tight = run_static(&sc, &store, coarse_cfg, tight, None);
    let coarse_roomy = run_static(&sc, &store, coarse_cfg, roomy, None);
    assert!(
        coarse_tight.stats.avg_transmit_secs() < 1.02 * coarse_roomy.stats.avg_transmit_secs(),
        "coarse level fits: {} vs {}",
        coarse_tight.stats.avg_transmit_secs(),
        coarse_roomy.stats.avg_transmit_secs()
    );
}

#[test]
fn memory_axis_profiles_into_the_database() {
    // profile_point maps a client.memory resource onto the sandbox's
    // memory limit, so the database can model the memory axis too.
    let sc = Scenario { n_images: 1, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let config = adapt_core::Configuration::new(&[("dR", 32), ("c", 1), ("l", 3)]);
    let t_at = |mem: f64| {
        let mut r = adapt_core::ResourceVector::default();
        r.set(client_cpu_key(), 1.0);
        r.set(client_net_key(), 200_000.0);
        r.set(visapp::client_mem_key(), mem);
        visapp::profile_point(&sc, &store, &config, &r).get("transmit_time").unwrap()
    };
    let tight = t_at(40.0 * 1024.0);
    let roomy = t_at(1024.0 * 1024.0);
    assert!(tight > roomy, "tight {tight} must exceed roomy {roomy}");
}

#[test]
fn policing_reduces_tenant_interference() {
    // Two CPU-heavy clients on one host. With 45% CPU reservations each,
    // the CPU axis is isolated and only shared server/link queueing
    // remains; unpoliced, they additionally fight for the CPU. The policed
    // slowdown factor must therefore be strictly smaller.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Bzip };
    let policed = Limits::cpu(0.45);
    let alone_policed = run_static(&sc, &store, cfg, policed, None);
    let both_policed = visapp::run_competing(&sc, &store, &[(cfg, policed), (cfg, policed)]);
    let alone_free = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    let both_free = visapp::run_competing(
        &sc,
        &store,
        &[(cfg, Limits::unconstrained()), (cfg, Limits::unconstrained())],
    );
    let slow = |both: &[visapp::RunStats], alone: &visapp::RunOutcome| -> f64 {
        both.iter().map(|s| s.avg_transmit_secs()).sum::<f64>()
            / (both.len() as f64 * alone.stats.avg_transmit_secs())
    };
    let s_policed = slow(&both_policed, &alone_policed);
    let s_free = slow(&both_free, &alone_free);
    for (i, stats) in both_policed.iter().enumerate() {
        assert_eq!(stats.images.len(), 2, "client {i} completed");
    }
    assert!(
        s_policed < s_free,
        "policing must reduce interference: policed {s_policed:.2}x vs unpoliced {s_free:.2}x"
    );
    assert!(s_policed < 1.8, "residual (server/link) interference only: {s_policed:.2}x");
}

#[test]
fn unpoliced_tenants_interfere_on_cpu() {
    // The counterfactual: both clients unconstrained on one host — they
    // contend for the CPU and the shared server, so each is slower than
    // when running alone.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    // CPU-heavy configuration (bzip decompression) to make contention show.
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Bzip };
    let alone = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    let both = visapp::run_competing(
        &sc,
        &store,
        &[(cfg, Limits::unconstrained()), (cfg, Limits::unconstrained())],
    );
    for stats in &both {
        assert!(
            stats.avg_transmit_secs() > 1.2 * alone.stats.avg_transmit_secs(),
            "contention must slow unpoliced tenants: {} vs {}",
            stats.avg_transmit_secs(),
            alone.stats.avg_transmit_secs()
        );
    }
}

#[test]
fn competing_process_slows_an_unpoliced_client() {
    // A kernel-scheduled competing process (weight 1.0) starts at t=0 and
    // halves the unconstrained client's CPU; images get slower even though
    // no sandbox limit changed.
    let sc_quiet = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let sc_loud = Scenario {
        competing_load: vec![visapp::LoadSpec {
            start_us: 0,
            weight: 1.0,
            duration_us: 60_000_000,
        }],
        ..sc_quiet.clone()
    };
    let store = sc_quiet.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Bzip };
    let quiet = run_static(&sc_quiet, &store, cfg, Limits::unconstrained(), None);
    let loud = run_static(&sc_loud, &store, cfg, Limits::unconstrained(), None);
    // Only the client-CPU portion of the pipeline is contended (the server
    // and network are unaffected), so the slowdown is real but moderate.
    assert!(
        loud.stats.avg_transmit_secs() > 1.08 * quiet.stats.avg_transmit_secs(),
        "contention must slow the client: {} vs {}",
        loud.stats.avg_transmit_secs(),
        quiet.stats.avg_transmit_secs()
    );
}

#[test]
fn adaptive_session_honours_the_server_bandwidth_cap() {
    // One runner body: the server's sandbox cap applies to an adaptive
    // session exactly as it does to a static one.
    let sc = Scenario { n_images: 4, img_size: 128, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let db = Arc::new(build_db(&sc, &store, &[1.0], &[1_000_000.0], 2));
    // Full resolution, so each image is many times the cap's burst.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ));
    let transmit = |sc: &Scenario| {
        // The client's own link share is generous, so the server's cap is
        // what binds.
        let start = Limits::cpu(1.0).with_net(1_000_000.0);
        run_adaptive_shared(sc, &store, db.clone(), prefs.clone(), start, None)
            .stats
            .avg_transmit_secs()
    };
    let uncapped = transmit(&sc);
    let capped = transmit(&Scenario { server_net_cap: Some(50_000.0), ..sc.clone() });
    assert!(capped > uncapped, "50 kB/s server cap must slow replies: {capped} vs {uncapped}");
}

#[test]
fn competing_load_slows_a_run_competing_client() {
    let quiet = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let loud = Scenario {
        competing_load: vec![visapp::LoadSpec {
            start_us: 0,
            weight: 4.0,
            duration_us: 600_000_000,
        }],
        ..quiet.clone()
    };
    let store = quiet.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Bzip };
    let finish = |sc: &Scenario| {
        let stats = visapp::run_competing(sc, &store, &[(cfg, Limits::unconstrained())]);
        stats[0].finished_at.expect("client finished")
    };
    assert!(finish(&loud) > finish(&quiet), "the load on the client host must cost CPU time");
}

#[test]
fn adaptation_reacts_to_genuine_contention_not_just_cap_changes() {
    // The paper's motivating situation: another application starts on the
    // client's machine. No sandbox limit changes — the monitoring agent
    // must *infer* the reduced share from the application's own progress
    // and trigger a resolution downgrade to hold the deadline.
    let sc = Scenario {
        n_images: 60,
        img_size: 64,
        levels: 3,
        monitor_window_us: 250_000,
        trigger_gap_us: 100_000,
        competing_load: vec![visapp::LoadSpec {
            start_us: 400_000,
            weight: 9.0, // the intruder takes ~90% of the CPU
            duration_us: 600_000_000,
        }],
        ..Scenario::default()
    };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[0.05, 0.3, 1.0], &[100_000.0], 2);
    let fine = adapt_core::Configuration::new(&[("dR", 32), ("c", 1), ("l", 3)]);
    let t_full = predict(&db, &fine, 1.0, 100_000.0, "transmit_time");
    let t_low = predict(&db, &fine, 0.1, 100_000.0, "transmit_time");
    assert!(t_low > t_full);
    let deadline = (t_full + t_low) / 2.0;
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", deadline)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    // NOTE: no LimitSchedule — the only disturbance is the competing load.
    let out = run_adaptive_shared(
        &sc,
        &store,
        Arc::new(db),
        prefs,
        Limits::cpu(1.0).with_net(100_000.0),
        None,
    );
    let hist = &out.stats.config_history;
    assert_eq!(hist[0].1.get("l"), Some(3), "starts at the finest level");
    assert_eq!(
        hist.last().unwrap().1.get("l"),
        Some(2),
        "contention must force a downgrade: {hist:?}"
    );
    assert_eq!(out.stats.images.len(), 60, "workload still completes");
}

#[test]
fn sensitivity_refinement_densifies_steep_regions() {
    // A coarse bandwidth grid spans the steep 1/bandwidth region; the
    // refinement must add midpoints there, improving interpolation where
    // the curve bends — the sensitivity tool the paper's prototype lacked.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let base = build_db(&sc, &store, &[1.0], &[4_000.0, 64_000.0], 2);
    let refined = visapp::build_db_refined(&sc, &store, &[1.0], &[4_000.0, 64_000.0], 0.25, 2);
    assert!(
        refined.len() > base.len(),
        "refinement must add samples: {} vs {}",
        refined.len(),
        base.len()
    );
    let cfg = adapt_core::Configuration::new(&[("dR", 32), ("c", 1), ("l", 3)]);
    let vals = refined.axis_values(&cfg, PROFILE_INPUT, &client_net_key());
    assert!(vals.len() > 2, "new bandwidth samples: {vals:?}");
    // The refined prediction mid-interval is closer to ground truth.
    let q = {
        let mut r = adapt_core::ResourceVector::default();
        r.set(client_cpu_key(), 1.0);
        r.set(client_net_key(), 16_000.0);
        r
    };
    let truth = visapp::profile_point(&sc, &store, &cfg, &q).get("transmit_time").unwrap();
    let e_base = (predict(&base, &cfg, 1.0, 16_000.0, "transmit_time") - truth).abs();
    let e_ref = (predict(&refined, &cfg, 1.0, 16_000.0, "transmit_time") - truth).abs();
    assert!(
        e_ref <= e_base,
        "refined error {e_ref} must not exceed coarse error {e_base} (truth {truth})"
    );
}

#[test]
fn lossy_link_recovers_via_retransmission() {
    // Failure injection: 20% of messages vanish in each direction. With a
    // retransmission timeout the download still completes pixel-exactly
    // (the client verifies reconstruction internally).
    let sc = Scenario {
        n_images: 3,
        img_size: 64,
        levels: 3,
        verify: true,
        link_loss: Some((0.20, 777)),
        request_timeout_us: Some(200_000),
        ..Scenario::default()
    };
    let store = sc.build_store();
    let cfg = VizConfig { dr: 8, level: 3, method: Method::Lzw };
    let out = run_static(&sc, &store, cfg, Limits::unconstrained(), None);
    assert_eq!(out.stats.images.len(), 3, "all images delivered despite loss");
    assert!(out.stats.retries > 0, "losses must have forced retransmissions");
    // The lossless twin needs no retries and is faster.
    let clean = run_static(
        &Scenario { link_loss: None, ..sc.clone() },
        &store,
        cfg,
        Limits::unconstrained(),
        None,
    );
    assert_eq!(clean.stats.retries, 0);
    assert!(clean.stats.avg_transmit_secs() < out.stats.avg_transmit_secs());
}

#[test]
fn duplicate_replies_from_retransmission_races_are_ignored() {
    // A generous loss rate with a *tight* timeout provokes retransmissions
    // that race with slow (but not lost) replies; duplicates must not
    // corrupt the round accounting or the reconstruction.
    let sc = Scenario {
        n_images: 2,
        img_size: 64,
        levels: 3,
        verify: true,
        link_loss: Some((0.10, 42)),
        // Tighter than a round's natural duration -> guaranteed races.
        request_timeout_us: Some(30_000),
        ..Scenario::default()
    };
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Raw };
    let out = run_static(&sc, &store, cfg, Limits::net(100_000.0), None);
    assert_eq!(out.stats.images.len(), 2);
    // Exactly ceil(32/16) = 2 recorded rounds per image, duplicates or not.
    assert_eq!(out.stats.rounds.len(), 4);
}

#[test]
fn remote_monitoring_reports_reach_the_client_runtime() {
    // Distributed monitoring (§6.1): the sandboxed server's monitoring
    // agent periodically reports its CPU availability to connected
    // clients, whose runtime folds it into the resource estimate — when
    // the specification says to watch that resource.
    use adapt_core::{
        AdaptiveRuntime, Objective, Preference, PreferenceList, ResourceScheduler, ResourceVector,
        TaskSpec,
    };
    use sandbox::{LimitsHandle, SandboxStats, Sandboxed};
    use simnet::Sim;
    use std::sync::Arc;

    let sc = Scenario { n_images: 4, img_size: 64, levels: 3, ..Scenario::default() };
    let store: Arc<visapp::ImageStore> = sc.build_store();
    let db = build_db(&sc, &store, &[1.0], &[100_000.0], 2);

    // Extend the spec so the monitor also watches server.cpu.
    let mut spec = visapp::viz_spec(&sc);
    spec.tasks.add_task(
        TaskSpec::new("server_side").with_resources(&[adapt_core::ResourceKey::cpu("server")]),
    );
    spec.validate().unwrap();

    let prefs =
        PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));
    let scheduler = ResourceScheduler::new(db, prefs, PROFILE_INPUT);
    let start = ResourceVector::new(&[(client_cpu_key(), 1.0), (client_net_key(), 100_000.0)]);
    let runtime = AdaptiveRuntime::try_configure(spec, scheduler, 1_000_000, &start).unwrap();
    assert!(runtime.monitor.watched().contains(&adapt_core::ResourceKey::cpu("server")));
    let initial = visapp::VizConfig::from_configuration(runtime.current());

    // Manual deployment: sandboxed server (30% CPU) with a reporter.
    let mut sim = Sim::new();
    let hc = sim.add_host("client", 1.0, 1 << 30);
    let hs = sim.add_host("server", 1.0, 1 << 30);
    sim.set_link(hc, hs, 12_500_000.0, 100);
    let server_stats = SandboxStats::new(1_000_000);
    let server = visapp::Server::new(store.clone()).with_reporter(visapp::Reporter {
        period_us: 20_000,
        stats: server_stats.clone(),
        component: "server".into(),
    });
    let server_id = sim.spawn(
        hs,
        Box::new(Sandboxed::new(server, LimitsHandle::new(Limits::cpu(0.3)), server_stats)),
    );

    let client_stats = SandboxStats::new(1_000_000);
    let adapt = visapp::AdaptSetup {
        runtime,
        sandbox_stats: client_stats.clone(),
        cpu_key: client_cpu_key(),
        net_key: client_net_key(),
        period_us: adapt_core::MONITOR_PERIOD_US,
    };
    let stats = visapp::StatsHandle::new();
    let probe = stats.clone();
    let opts = visapp::ClientOpts::new(server_id)
        .with_n_images(sc.n_images)
        .with_initial(initial)
        .with_user(visapp::UserModel::center(sc.img_size, sc.img_size))
        .with_geometry(store.cover_radius(), store.dims(), store.levels());
    let client = visapp::Client::new(opts, stats.clone(), Some(adapt));
    sim.spawn(
        hc,
        Box::new(Sandboxed::new(client, LimitsHandle::new(Limits::unconstrained()), client_stats)),
    );
    sim.run_until_idle();
    let final_stats = probe.take();
    assert_eq!(final_stats.images.len(), 4, "workload completed");
    // The remote reports reached the client's monitoring agent: its final
    // estimate includes server.cpu near the server's 30% sandbox share.
    let estimate = final_stats.final_estimate.clone().expect("adaptive run records an estimate");
    let server_cpu = estimate
        .get(&adapt_core::ResourceKey::cpu("server"))
        .expect("server.cpu observed via remote reports");
    assert!(
        (server_cpu - 0.3).abs() < 0.1,
        "estimated server share {server_cpu} should be near 0.3"
    );
    // And the throttled server indeed slowed the run.
    let unthrottled = run_static(&sc, &store, initial, Limits::unconstrained(), None);
    assert!(
        final_stats.avg_transmit_secs() > unthrottled.stats.avg_transmit_secs(),
        "sandboxed server must slow replies"
    );
}

#[test]
fn fair_share_links_equalize_competing_clients() {
    // Two identical clients saturating a narrow link. Under FIFO one
    // client's big reply can monopolize the wire; under fluid fair sharing
    // both make simultaneous progress and finish close together.
    use simnet::LinkMode;
    let base = Scenario {
        n_images: 2,
        img_size: 64,
        levels: 3,
        link_bps: 50_000.0, // narrow shared link
        ..Scenario::default()
    };
    let store = base.build_store();
    let cfg = VizConfig { dr: 32, level: 3, method: Method::Raw };
    let pair = [(cfg, Limits::unconstrained()), (cfg, Limits::unconstrained())];
    for mode in [LinkMode::Fifo, LinkMode::FairShare] {
        let sc = Scenario { link_mode: mode, ..base.clone() };
        let stats = visapp::run_competing(&sc, &store, &pair);
        for (i, s) in stats.iter().enumerate() {
            assert_eq!(s.images.len(), 2, "{mode:?} client {i}");
        }
        let ends: Vec<f64> = stats.iter().map(|s| s.finished_at.unwrap().as_secs_f64()).collect();
        let spread = (ends[0] - ends[1]).abs() / ends[0].max(ends[1]);
        if mode == LinkMode::FairShare {
            assert!(spread < 0.25, "fair share keeps clients together: {ends:?}");
        }
    }
}
