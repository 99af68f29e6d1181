//! Quality-side ablations for the framework's design choices: each test
//! disables one mechanism and shows what breaks. The cost side is timed by
//! `benchmark/` (`core.perfdb.predict_ns`, `core.monitor.check_ns`,
//! `core.scheduler.choose_us`; DESIGN.md §5 maps each row).

#![allow(clippy::type_complexity)]

use adapt_core::{
    Configuration, MonitoringAgent, Objective, PerfDb, PerfRecord, PredictMode, Preference,
    PreferenceList, QosReport, ResourceKey, ResourceScheduler, ResourceVector, Sense,
    ValidityRegion,
};
use simnet::SimTime;

// Shared with crates/core/tests/properties.rs; this file calls its
// selection alone and leaves the other entry points unused.
#[allow(dead_code)]
#[path = "../../core/tests/support/decision_oracle.rs"]
mod decision_oracle;

#[path = "../../core/tests/support/nearest.rs"]
mod nearest;

fn cpu() -> ResourceKey {
    ResourceKey::cpu("client")
}

fn net() -> ResourceKey {
    ResourceKey::net("client")
}

/// Two configurations whose curves cross between grid points:
/// t1 = 2e6/net + 5, t2 = 4e5/net + 20 (crossover at 106.7 KB/s).
fn crossover_db(grid: &[f64]) -> PerfDb {
    let mut db = PerfDb::new();
    let curves: [(i64, fn(f64) -> f64); 2] = [(1, |n| 2e6 / n + 5.0), (2, |n| 4e5 / n + 20.0)];
    for (c, f) in curves {
        for &nv in grid {
            db.add(PerfRecord {
                config: Configuration::new(&[("c", c)]),
                resources: ResourceVector::new(&[(net(), nv)]),
                input: "w".into(),
                metrics: QosReport::new(&[("t", f(nv))]),
            });
        }
    }
    db
}

#[test]
fn interpolation_beats_nearest_between_grid_points() {
    // On a 4-point grid, piecewise-linear interpolation locates the
    // crossover (106.7 KB/s) accurately; nearest-record snapping picks
    // the wrong side for queries between samples. This is the paper's
    // §7.1 limitation — their prototype used discrete lookup only. The
    // scheduler interpolates; the decision oracle prices the same choice
    // on the prototype's lookup.
    let grid = [50_000.0, 100_000.0, 200_000.0, 400_000.0];
    let prefs = PreferenceList::single(Preference::new(vec![], Objective::minimize("t")));
    let truth = |c: i64, n: f64| {
        if c == 1 {
            2e6 / n + 5.0
        } else {
            4e5 / n + 20.0
        }
    };
    let db = crossover_db(&grid);
    let sched = ResourceScheduler::new(db.clone(), prefs.clone(), "w");
    let mut nearest_oracle = decision_oracle::Oracle::new(&db, "w", nearest::nearest);
    let mut interp_regret = 0.0;
    let mut nearest_regret = 0.0;
    for &q in &[80_000.0, 130_000.0, 160_000.0, 300_000.0] {
        let r = ResourceVector::new(&[(net(), q)]);
        let best_t = truth(1, q).min(truth(2, q));
        let interp = sched.choose(&r).expect("choice").config;
        let (near, _, _) = nearest_oracle.select(&prefs, &r, &[]).expect("choice");
        interp_regret += truth(interp.expect("c"), q) - best_t;
        nearest_regret += truth(near.expect("c"), q) - best_t;
    }
    assert!(
        interp_regret < nearest_regret,
        "interpolation regret {interp_regret} must beat nearest {nearest_regret}"
    );
    assert!(interp_regret < 1e-6, "interpolation picks optimally on this grid");
}

#[test]
fn hysteresis_damps_boundary_thrash() {
    // Estimates jitter +-4% around the validity boundary. Without
    // hysteresis the monitor triggers repeatedly; with 10% hysteresis it
    // stays quiet (the §7.5 remark on unnecessary adaptations).
    let run = |hysteresis: f64| -> usize {
        let mut m = MonitoringAgent::new(vec![cpu()], 200_000);
        m.hysteresis = hysteresis;
        m.min_trigger_gap_us = 100_000;
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        let mut triggers = 0;
        for i in 0..200u64 {
            let t = SimTime::from_ms(10 * i);
            let jitter = if i % 2 == 0 { 0.48 } else { 0.52 };
            m.observe(t, &cpu(), jitter);
            if m.check(t).is_some() {
                triggers += 1;
            }
        }
        triggers
    };
    let without = run(0.0);
    let with = run(0.10);
    assert!(without >= 3, "no hysteresis: repeated triggers (got {without})");
    assert_eq!(with, 0, "10% hysteresis absorbs the jitter");
}

#[test]
fn pruning_preserves_scheduler_decisions() {
    // Add a configuration dominated everywhere; pruning must remove it
    // without changing any decision.
    let mut db = crossover_db(&[50_000.0, 400_000.0]);
    for &nv in &[50_000.0, 400_000.0] {
        db.add(PerfRecord {
            config: Configuration::new(&[("c", 3)]),
            resources: ResourceVector::new(&[(net(), nv)]),
            input: "w".into(),
            metrics: QosReport::new(&[("t", 2e6 / nv + 50.0)]),
        });
    }
    let prefs = PreferenceList::single(Preference::new(vec![], Objective::minimize("t")));
    let before = ResourceScheduler::new(db.clone(), prefs.clone(), "w");
    let removed = db.prune_dominated("t", Sense::LowerIsBetter, 0.0);
    assert_eq!(removed.len(), 1);
    assert_eq!(removed[0].get("c"), Some(3));
    let after = ResourceScheduler::new(db, prefs, "w");
    for &q in &[30_000.0, 80_000.0, 200_000.0, 500_000.0] {
        let r = ResourceVector::new(&[(net(), q)]);
        assert_eq!(
            before.choose(&r).unwrap().config,
            after.choose(&r).unwrap().config,
            "decision changed at {q}"
        );
    }
}

#[test]
fn merging_similar_configs_bounds_prediction_error() {
    // Config 4 behaves within 1% of config 1; merging drops one of them
    // while keeping predictions within the merge tolerance.
    let mut db = crossover_db(&[50_000.0, 400_000.0]);
    for &nv in &[50_000.0, 400_000.0] {
        db.add(PerfRecord {
            config: Configuration::new(&[("c", 4)]),
            resources: ResourceVector::new(&[(net(), nv)]),
            input: "w".into(),
            metrics: QosReport::new(&[("t", (2e6 / nv + 5.0) * 1.01)]),
        });
    }
    let q = ResourceVector::new(&[(net(), 150_000.0)]);
    let before = db
        .predict(&Configuration::new(&[("c", 1)]), "w", &q, PredictMode::Interpolate)
        .unwrap()
        .get("t")
        .unwrap();
    let merged = db.merge_similar(0.02);
    assert_eq!(merged.len(), 1, "c=1 and c=4 merge");
    // The survivor (lexicographically smaller key: c=1) still predicts.
    let after = db
        .predict(&Configuration::new(&[("c", 1)]), "w", &q, PredictMode::Interpolate)
        .unwrap()
        .get("t")
        .unwrap();
    assert!((before - after).abs() / before < 0.02);
    assert_eq!(db.configs("w").len(), 2);
}

#[test]
fn rate_limited_triggering_bounds_scheduler_invocations() {
    // The monitoring agent reports "only when resource availability falls
    // out of a range", rate-limited — even under a persistent violation
    // the scheduler is invoked at most once per gap.
    let mut m = MonitoringAgent::new(vec![cpu()], 200_000);
    m.min_trigger_gap_us = 500_000;
    m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
    let mut triggers = 0;
    for i in 0..500u64 {
        let t = SimTime::from_ms(10 * i);
        m.observe(t, &cpu(), 0.1);
        if m.check(t).is_some() {
            triggers += 1;
        }
    }
    // 5 seconds of persistent violation at a 0.5 s gap -> at most ~10.
    assert!(triggers <= 10, "{triggers} triggers");
    assert!(triggers >= 8, "{triggers} triggers");
}
