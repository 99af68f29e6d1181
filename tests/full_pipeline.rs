//! Cross-crate integration: the complete framework pipeline from
//! annotation source to run-time switch, using the real simulated
//! application as the profiling subject. Everything routes through
//! `adaptive_framework::prelude`, and run-time behaviour is asserted off
//! the obs event bus — the same surface production consumers read.

use std::sync::Arc;

use adaptive_framework::prelude::*;

#[test]
fn annotations_to_database_to_decision() {
    // 1. Parse the paper's annotation source.
    let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
    let template = spec.perf_db_template();
    assert_eq!(template.axes.len(), 2, "client.cpu and client.network");
    assert_eq!(template.configurations.len(), 12);

    // 2. Profile the real application over a small grid.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[0.3, 1.0], &[20_000.0, 200_000.0], 2);
    assert_eq!(db.len(), 12 * 4);

    // 3. The database answers interpolated queries for every configuration.
    let q = ResourceVector::new(&[(client_cpu_key(), 0.6), (client_net_key(), 80_000.0)]);
    for config in db.configs(PROFILE_INPUT) {
        let p =
            db.predict(&config, PROFILE_INPUT, &q, PredictMode::Interpolate).expect("prediction");
        assert!(p.get("transmit_time").unwrap() > 0.0);
        assert!(p.get("resolution").unwrap() >= 2.0);
    }

    // 4. The scheduler picks a configuration; prefer resolution under a
    //    deadline, fall back to fastest.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", 1.0)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let sched = ResourceScheduler::new(db, prefs, PROFILE_INPUT);
    let d = sched.choose(&q).expect("satisfiable");
    assert!(d.predicted.get("transmit_time").unwrap() <= 1.0);
    assert_eq!(d.preference_rank, 0);
    assert!(!d.validity.ranges.is_empty());
}

#[test]
fn database_persists_to_disk_and_reloads() {
    let sc = Scenario { n_images: 1, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let config = Configuration::new(&[("dR", 16), ("c", 1), ("l", 3)]);
    let point = ResourceVector::new(&[(client_cpu_key(), 0.5), (client_net_key(), 50_000.0)]);
    let metrics = profile_point(&sc, &store, &config, &point);
    // The analytic model database every load bench shares, plus one
    // record of really profiled (irregular) values.
    let mut db = model_db(&LoadGenOpts::default());
    db.add(PerfRecord {
        config: config.clone(),
        resources: point.clone(),
        input: "profiled".into(),
        metrics: metrics.clone(),
    });

    let path = std::env::temp_dir().join("adaptive_framework_perfdb_test.json");
    std::fs::write(&path, db.to_json()).unwrap();
    let loaded = PerfDb::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded.records(), db.records());
    let p = loaded.predict(&config, "profiled", &point, PredictMode::Interpolate).unwrap();
    assert_eq!(p, metrics);
    // Bit-identical predictions at every lattice point, in both modes.
    let bits = |db: &PerfDb, r: &PerfRecord, mode| -> Vec<u64> {
        let p = db.predict(&r.config, &r.input, &r.resources, mode).expect("a sampled point");
        p.iter().map(|(_, v)| v.to_bits()).collect()
    };
    for r in db.records() {
        for mode in [PredictMode::Interpolate, PredictMode::Nearest] {
            assert_eq!(
                bits(&loaded, r, mode),
                bits(&db, r, mode),
                "{} at {}",
                r.config,
                r.resources
            );
        }
    }
}

#[test]
fn steering_negotiation_full_cycle() {
    let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
    let initial = Configuration::new(&[("dR", 80), ("c", 1), ("l", 4)]);
    let mut steering = SteeringAgent::new(initial.clone());

    // A request outside the control space is NAKed at the boundary.
    steering.request(ReconfigureRequest {
        config: Configuration::new(&[("dR", 999), ("c", 1), ("l", 4)]),
        validity: ValidityRegion::unbounded(),
    });
    match steering.at_boundary(SimTime::from_secs(1), &spec) {
        BoundaryOutcome::Rejected { .. } => {}
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(steering.current(), &initial, "rejected switch leaves config unchanged");

    // A valid compression change switches and yields the notify action.
    steering.request(ReconfigureRequest {
        config: Configuration::new(&[("dR", 80), ("c", 2), ("l", 4)]),
        validity: ValidityRegion::unbounded(),
    });
    match steering.at_boundary(SimTime::from_secs(2), &spec) {
        BoundaryOutcome::Switched(ev) => {
            assert_eq!(ev.actions.len(), 1, "transition on c notifies the server");
        }
        other => panic!("expected switch, got {other:?}"),
    }
    assert_eq!(steering.history().len(), 2);
}

#[test]
fn profile_runs_are_deterministic_across_thread_counts() {
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let db1 = build_db(&sc, &store, &[0.5], &[50_000.0], 1);
    let db4 = build_db(&sc, &store, &[0.5], &[50_000.0], 4);
    assert_eq!(db1.records(), db4.records());
}

#[test]
fn adaptive_run_reports_through_the_obs_bus() {
    // A small adaptive run; every behavioural claim below is asserted
    // from bus events selected by the shared filter presets, then
    // cross-checked against the raw stats record.
    let sc = Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &[0.05], &[2_000.0, 60_000.0], 2);
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let out = run_adaptive_shared(
        &sc,
        &store,
        Arc::new(db),
        prefs,
        Limits::cpu(0.05).with_net(60_000.0),
        None,
    );

    // The scheduler reported at least one decision, and every decision
    // carries the fields downstream oracles key on.
    let decisions = out.obs.events_filtered(&EventFilter::decisions());
    assert!(!decisions.is_empty(), "adaptive run must publish scheduler decisions");
    for d in &decisions {
        assert!(d.str_field("config").is_some(), "decide event names its configuration");
        assert!(d.u64_field("rank").is_some(), "decide event carries its preference rank");
    }

    // Application integrity events mirror the raw stats record exactly:
    // one `round` event per applied round, breaker quiet on a fault-free
    // run.
    let integrity = out.obs.events_filtered(
        &EventFilter::any().source(Source::App).kind("round").kind("breaker_open"),
    );
    let rounds = integrity.iter().filter(|e| e.kind == "round").count();
    assert_eq!(rounds, out.stats.rounds.len(), "one bus event per applied round");
    assert_eq!(
        integrity.iter().filter(|e| e.kind == "breaker_open").count(),
        0,
        "no faults, no breaker trips"
    );

    // Completion is visible on the bus and agrees with the stats record.
    let finished =
        out.obs.events_filtered(&EventFilter::any().source(Source::App).kind("finished"));
    assert_eq!(finished.len(), 1, "exactly one finished event");
    assert_eq!(
        SimTime::from_us(finished[0].at_us),
        out.stats.finished_at.expect("run completed"),
        "bus and stats agree on the completion time"
    );
    assert_eq!(out.stats.images.len(), 2, "all images delivered");
}
