//! The online-refinement loop, end to end at the application layer: a
//! planted link skew drifts the live environment away from the profiled
//! model; the refine engine must detect it, re-profile only the stale
//! slices, and hot-swap them so later epochs price accurately — while a
//! drift-free storm must leave the database untouched and the session
//! byte-identical to a refine-disabled run.

use std::sync::Arc;

use adapt_core::RefineEngine;
use sandbox::Limits;
use visapp::drift::{run_drift_storm, skewed, storm_prefs, DriftStormOpts};
use visapp::scenario::{build_db, run_adaptive_shared, Scenario, PROFILE_INPUT};

fn storm_scenario() -> Scenario {
    Scenario {
        n_images: 8,
        img_size: 64,
        levels: 3,
        // A slow-ish profiled link so the planted skew dominates noise.
        link_bps: 200_000.0,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    }
}

#[test]
fn drift_storm_detects_reprofiles_and_recovers() {
    let sc = storm_scenario();
    let opts = DriftStormOpts::default();
    let report = run_drift_storm(&sc, &opts);

    // Epoch 0 is clean: the model was profiled against exactly this
    // environment, so no alarm fires before the skew begins.
    assert!(report.epochs[0].alarms.is_empty(), "clean epoch must not alarm");
    assert!(report.epochs[0].swaps.is_empty());

    // The skewed epoch is detected, and detection happens IN the first
    // skewed epoch (latency 0 epochs) with the planted 8x skew.
    let x1000 = |r: Option<f64>| (r.expect("a residual") * 1000.0).round() as u64;
    let detected = Some((opts.from_epoch, 325_128));
    assert_eq!(report.detection, detected, "detected in the first skewed epoch");
    assert!(report.residual_at_detection.unwrap() > opts.threshold);
    assert_eq!(x1000(report.residual_at_detection), 712, "residual at detection, /1000");

    // Detection triggered a targeted re-profile: one hot-swap batch per
    // alarming epoch, one stale slice and one grid point per batch.
    let slices: usize = report.epochs.iter().map(|e| e.swaps.len()).sum();
    assert_eq!((report.rebuilds, slices, report.points_reprofiled), (4, 4, 4));

    // The re-profiled model matches the skewed world: the final epoch's
    // worst residual is back inside the threshold.
    let last = report.epochs.last().unwrap();
    assert!(last.alarms.is_empty(), "post-swap epoch must be quiet");
    assert!(
        last.worst_residual.unwrap() < opts.threshold,
        "post-swap residual {:?} must sit inside the threshold",
        last.worst_residual
    );
    assert_eq!(x1000(report.residual_final), 12, "final residual, /1000");

    // What closing the loop bought: the worst mean transmit time of an
    // epoch still priced against a stale slice, against the final epoch.
    let stale = report
        .epochs
        .iter()
        .filter(|e| !e.alarms.is_empty())
        .map(|e| e.avg_transmit_secs)
        .fold(0.0_f64, f64::max);
    let us = |secs: f64| (secs * 1e6).round() as u64;
    assert_eq!((us(stale), us(last.avg_transmit_secs)), (234_319, 107_841));
}

#[test]
fn no_drift_fast_path_is_invisible() {
    // Same storm machinery, but the skew never begins: the engine
    // ingests every epoch yet must never rebuild, and the session it
    // watched must be byte-identical to one with no engine at all.
    let sc = storm_scenario();
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[1.0], &[sc.link_bps], 2);
    let db = Arc::new(db);
    let start = Limits::cpu(1.0).with_net(sc.link_bps);

    // Refine-disabled reference run.
    let reference = run_adaptive_shared(&sc, &store, Arc::clone(&db), storm_prefs(), start, None);

    // Refine-enabled run: identical scenario, engine ingests the bus.
    let mut engine = RefineEngine::new(obs::Adaptive::new(Arc::clone(&db)), PROFILE_INPUT);
    let watched = run_adaptive_shared(&sc, &store, engine.db(), storm_prefs(), start, None);
    engine.set_obs(&watched.obs);
    let alarms = engine.ingest_run(&watched.obs);

    assert!(alarms.is_empty(), "no planted drift, no alarms");
    assert_eq!(engine.rebuilds(), 0, "fast path: zero database rebuilds");
    assert!(Arc::ptr_eq(&engine.db(), &db), "fast path: the database Arc is untouched");

    // Session digest: identical decision history, identical stats.
    assert_eq!(
        format!("{:?}", reference.stats.config_history),
        format!("{:?}", watched.stats.config_history),
        "refine must not perturb the decision sequence"
    );
    assert_eq!(reference.end.as_us(), watched.end.as_us());
    assert_eq!(
        reference.stats.avg_transmit_secs().to_bits(),
        watched.stats.avg_transmit_secs().to_bits(),
        "bit-identical transmit aggregate"
    );
    assert_eq!(
        reference.stats.avg_response_secs().to_bits(),
        watched.stats.avg_response_secs().to_bits(),
        "bit-identical response aggregate"
    );
}

#[test]
fn skewed_scenario_only_touches_the_link() {
    let sc = storm_scenario();
    let sk = skewed(&sc, 4.0);
    assert!((sk.link_bps - sc.link_bps / 4.0).abs() < 1e-9);
    assert_eq!(sk.n_images, sc.n_images);
    assert_eq!(sk.seed, sc.seed);
}
