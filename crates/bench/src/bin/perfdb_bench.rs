//! Before/after throughput measurement for the perfdb query index and the
//! memoized scheduler, written as machine-readable JSON (BENCH_perfdb.json).
//!
//! "Before" is the pre-index implementation: `PerfDb::predict_scan` (the
//! linear-scan reference kept inside the crate) and a faithful replica of
//! the unmemoized scheduler decision path (candidate list recomputed per
//! probe, every prediction rescanning the record list). "After" is the
//! shipping indexed + memoized path. The database is the acceptance
//! configuration: 4 configurations x 2 resource axes x 9 samples per axis
//! (324 records).
//!
//! Usage: `perfdb_bench [output.json]` (default `BENCH_perfdb.json`).

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use adapt_core::{
    Configuration, Objective, PerfDb, PerfRecord, PredictMode, Preference, PreferenceList,
    QosReport, ResourceKey, ResourceScheduler, ResourceVector, ValidityRegion,
};
use obs::json::Json;

const CONFIGS: i64 = 4;
const SAMPLES: usize = 9;

fn cpu() -> ResourceKey {
    ResourceKey::cpu("client")
}

fn net() -> ResourceKey {
    ResourceKey::net("client")
}

/// 4 configurations over a 9x9 (cpu, net) grid with pairwise crossovers:
/// higher-numbered configs spend more cpu to send fewer bytes.
fn bench_db() -> PerfDb {
    let mut db = PerfDb::new();
    for ci in 0..CONFIGS {
        for s in 1..=SAMPLES {
            for n in 1..=SAMPLES {
                let share = s as f64 / SAMPLES as f64;
                let bw = n as f64 * 100_000.0;
                db.add(PerfRecord {
                    config: Configuration::new(&[("c", ci)]),
                    resources: ResourceVector::new(&[(cpu(), share), (net(), bw)]),
                    input: "img".into(),
                    metrics: QosReport::new(&[(
                        "transmit_time",
                        (ci + 1) as f64 / share + 2e6 / ((ci + 1) as f64 * bw),
                    )]),
                });
            }
        }
    }
    db
}

/// Measured throughput of `f` in calls/second: warm up, calibrate an
/// iteration count that runs long enough to be stable, then time it.
fn ops_per_sec(mut f: impl FnMut()) -> f64 {
    for _ in 0..20 {
        f();
    }
    let cal = Instant::now();
    let mut calibration = 0u64;
    while cal.elapsed().as_millis() < 60 {
        f();
        calibration += 1;
    }
    let iters = calibration.max(3);
    let timed = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / timed.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// Faithful replica of the pre-index scheduler decision path: candidate list
// recomputed from the record list per probe, predictions via the reference
// linear scan, no memoization.
// ---------------------------------------------------------------------------

fn configs_unindexed(db: &PerfDb, input: &str) -> Vec<Configuration> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for r in db.records() {
        if r.input == input && seen.insert(r.config.key()) {
            out.push(r.config.clone());
        }
    }
    out
}

fn is_choice_at_unindexed(
    db: &PerfDb,
    input: &str,
    config: &Configuration,
    pref: &Preference,
    probe: &ResourceVector,
) -> bool {
    let Some(mine) = db.predict_scan(config, input, probe, PredictMode::Interpolate) else {
        return false;
    };
    if !pref.satisfied_by(&mine) {
        return false;
    }
    for other in configs_unindexed(db, input) {
        if &other == config {
            continue;
        }
        if let Some(pred) = db.predict_scan(&other, input, probe, PredictMode::Interpolate) {
            if pref.satisfied_by(&pred) && pref.objective.better(&pred, &mine) {
                return false;
            }
        }
    }
    true
}

fn validity_region_unindexed(
    db: &PerfDb,
    input: &str,
    config: &Configuration,
    pref: &Preference,
    around: &ResourceVector,
) -> ValidityRegion {
    let mut region = ValidityRegion::new();
    for axis in db.axes(config, input) {
        let Some(center) = around.get(&axis) else { continue };
        let samples = db.axis_values(config, input, &axis);
        if samples.is_empty() {
            continue;
        }
        let satisfies = |v: f64| -> bool {
            let mut probe = around.clone();
            probe.set(axis.clone(), v);
            is_choice_at_unindexed(db, input, config, pref, &probe)
        };
        let mut lo = center;
        for &v in samples.iter().rev().filter(|&&v| v <= center) {
            if satisfies(v) {
                lo = v;
            } else {
                break;
            }
        }
        let mut hi = center;
        for &v in samples.iter().filter(|&&v| v >= center) {
            if satisfies(v) {
                hi = v;
            } else {
                break;
            }
        }
        let (min_s, max_s) = (*samples.first().unwrap(), *samples.last().unwrap());
        let lo_bound = if (lo - min_s).abs() < 1e-12 { 0.0 } else { lo };
        let hi_bound = if (hi - max_s).abs() < 1e-12 { f64::INFINITY } else { hi };
        region = region.with_range(axis, lo_bound.min(center), hi_bound.max(center));
    }
    region
}

fn choose_unindexed(
    db: &PerfDb,
    prefs: &PreferenceList,
    input: &str,
    resources: &ResourceVector,
) -> Option<(Configuration, QosReport, ValidityRegion)> {
    let candidates = configs_unindexed(db, input);
    if candidates.is_empty() {
        return None;
    }
    for pref in &prefs.prefs {
        let mut best: Option<(Configuration, QosReport)> = None;
        for c in &candidates {
            let Some(pred) = db.predict_scan(c, input, resources, PredictMode::Interpolate) else {
                continue;
            };
            if !pref.satisfied_by(&pred) {
                continue;
            }
            let better = match &best {
                None => true,
                Some((_, b)) => pref.objective.better(&pred, b),
            };
            if better {
                best = Some((c.clone(), pred));
            }
        }
        if let Some((config, predicted)) = best {
            let validity = validity_region_unindexed(db, input, &config, pref, resources);
            return Some((config, predicted, validity));
        }
    }
    None
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_perfdb.json".to_string());
    let db = bench_db();
    let cfg = Configuration::new(&[("c", 1)]);
    let q = ResourceVector::new(&[(cpu(), 0.62), (net(), 350_000.0)]);
    let prefs =
        PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));

    // Sanity: the indexed and scan paths agree before we time them.
    let a = db.predict(&cfg, "img", &q, PredictMode::Interpolate).unwrap();
    let b = db.predict_scan(&cfg, "img", &q, PredictMode::Interpolate).unwrap();
    assert!(
        (a.get("transmit_time").unwrap() - b.get("transmit_time").unwrap()).abs() < 1e-9,
        "indexed and scan predictions diverge"
    );

    let interp_after = ops_per_sec(|| {
        black_box(db.predict(&cfg, "img", &q, PredictMode::Interpolate));
    });
    let interp_before = ops_per_sec(|| {
        black_box(db.predict_scan(&cfg, "img", &q, PredictMode::Interpolate));
    });
    let nearest_after = ops_per_sec(|| {
        black_box(db.predict(&cfg, "img", &q, PredictMode::Nearest));
    });
    let nearest_before = ops_per_sec(|| {
        black_box(db.predict_scan(&cfg, "img", &q, PredictMode::Nearest));
    });

    let sched = ResourceScheduler::new(db.clone(), prefs.clone(), "img");
    let d_after = sched.choose(&q).expect("indexed choose");
    let d_before = choose_unindexed(&db, &prefs, "img", &q).expect("unindexed choose");
    assert_eq!(d_after.config, d_before.0, "indexed and scan schedulers diverge");
    assert_eq!(d_after.validity.ranges, d_before.2.ranges, "validity regions diverge");

    let choose_after = ops_per_sec(|| {
        black_box(sched.choose(&q));
    });
    let choose_before = ops_per_sec(|| {
        black_box(choose_unindexed(&db, &prefs, "img", &q));
    });
    let region_after = ops_per_sec(|| {
        black_box(sched.validity_region(&d_after.config, &sched.prefs().prefs[0], &q));
    });
    let region_before = ops_per_sec(|| {
        black_box(validity_region_unindexed(&db, "img", &d_after.config, &prefs.prefs[0], &q));
    });

    let entry = |before: f64, after: f64| {
        Json::obj([
            ("before_ops_per_sec", before.into()),
            ("after_ops_per_sec", after.into()),
            ("speedup", (after / before).into()),
        ])
    };
    let database = Json::obj([
        ("configs", CONFIGS.into()),
        ("axes", Json::U64(2)),
        ("samples_per_axis", Json::U64(SAMPLES as u64)),
        ("records", Json::U64(db.len() as u64)),
    ]);
    let benches = Json::obj([
        ("perfdb_interpolate", entry(interp_before, interp_after)),
        ("perfdb_nearest", entry(nearest_before, nearest_after)),
        ("scheduler_choose", entry(choose_before, choose_after)),
        ("validity_region", entry(region_before, region_after)),
    ]);
    let report = Json::obj([("database", database), ("benches", benches)]);
    let text = format!("{report:#}");
    std::fs::write(&out_path, &text).expect("write benchmark report");
    println!("{text}");
    eprintln!("wrote {out_path}");
}
