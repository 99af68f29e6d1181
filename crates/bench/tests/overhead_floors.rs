//! Wall-clock floors: the hot-path costs this repository claims, each as
//! a throughput ratio measured within one process. A check runs its two
//! sides alternately, keeps the fastest of `RUNS` runs of each (noise
//! only ever slows a run down) and asserts the ratio of the two bests.
//! Each floor is 80 % of the ratio measured when the claim was made. The
//! two `Adaptive` checks read a scalar, which is stored as bits in one
//! `AtomicU64`; their ratios were 0.7546 and 1.0058 when the claim was
//! made, with the value behind a boxed pointer:
//!
//! | check | measured | floor |
//! |---|---|---|
//! | `Adaptive::get` against a plain read | 0.65–0.84 (median 0.78) | 0.60 |
//! | a never-mutated `Adaptive` against a mutated one | 0.95–1.01 | 0.80 |
//! | `choose` against the whole-report decision oracle | 4.92–7.78 (median 6.04) | 3.9 |
//! | `PerfDb::predict` against the linear-scan oracle | 7.85–16.66 (median 12.68) | 6.2 |
//!
//! The decision check runs 192 decisions per round on `visapp::model_db`
//! (12 configurations, three preference profiles, an 8 x 8 grid of
//! points) and takes its floor from the lowest of 13 measured ratios.
//! The prediction check predicts each of the 12 configurations at the
//! same 64 points, 20 rounds per run, and takes its floor from the lowest
//! of 13 measured ratios.
//!
//! Timing means nothing unoptimized or beside another busy test, so every
//! check is `#[ignore]`d; run them with
//! `cargo test -q --release -p adapt-bench -- --ignored --test-threads=1`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use adapt_core::{
    Configuration, PerfDb, PerfRecord, PredictMode, Preference, PreferenceList, QosReport,
    ResourceKey, ResourceScheduler, ResourceVector, ValidityRegion,
};
use obs::Adaptive;
use visapp::{client_cpu_key, client_net_key, model_db, LoadGenOpts, QosProfile, PROFILE_INPUT};

// Shared with crates/core/tests/properties.rs; this file times one entry
// point of it and leaves the others unused.
#[allow(dead_code)]
#[path = "../../core/tests/support/decision_oracle.rs"]
mod decision_oracle;

#[path = "../../core/tests/support/scan_oracle.rs"]
mod scan_oracle;

/// Runs per side.
const RUNS: usize = 5;
/// Reads per `Adaptive` run.
const READS: u64 = 20_000_000;

fn time(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Throughput of `side` relative to `base`, best run against best run,
/// asserted at `floor`.
fn assert_floor(
    check: &str,
    floor: f64,
    mut side: impl FnMut() -> Duration,
    mut base: impl FnMut() -> Duration,
) {
    if cfg!(debug_assertions) {
        panic!("wall-clock floors hold only optimized: add --release");
    }
    let (mut best_side, mut best_base) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        best_side = best_side.min(side());
        best_base = best_base.min(base());
    }
    let ratio = best_base.as_secs_f64() / best_side.as_secs_f64();
    eprintln!("{check}: {ratio:.3} (floor {floor})");
    assert!(ratio >= floor, "{check}: {ratio:.3} is below the {floor} floor");
}

/// An 8 x 8 grid of client CPU shares and link bandwidths, from a
/// starved client to one with the whole link.
fn grid_points(opts: &LoadGenOpts) -> Vec<ResourceVector> {
    (0..8)
        .flat_map(|i| {
            (0..8).map(move |j| {
                let cpu = 0.2 + 0.125 * i as f64;
                let net = opts.link_bps * (0.05 + 0.2 * j as f64);
                ResourceVector::new(&[(client_cpu_key(), cpu), (client_net_key(), net)])
            })
        })
        .collect()
}

/// Sum `READS` values through `read`.
fn reads(read: impl Fn() -> u64) -> Duration {
    time(|| {
        let mut acc = 0u64;
        for _ in 0..READS {
            acc = acc.wrapping_add(black_box(read()));
        }
        black_box(acc);
    })
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn adaptive_get_keeps_pace_with_a_plain_read() {
    let plain = 7u64;
    let handle = Adaptive::new(7u64);
    handle.set(7); // mutated once: the steady state of a live knob
    assert_floor(
        "Adaptive::get against a plain read",
        0.60,
        || reads(|| black_box(&handle).get()),
        || reads(|| *black_box(&plain)),
    );
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn an_idle_control_plane_costs_a_read_nothing() {
    let idle = Adaptive::new(7u64);
    let mutated = Adaptive::new(7u64);
    mutated.set(7);
    assert_floor(
        "never-mutated against mutated Adaptive::get",
        0.80,
        || reads(|| black_box(&idle).get()),
        || reads(|| black_box(&mutated).get()),
    );
    assert_eq!(idle.version(), 0, "the idle handle was never mutated");
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn a_decision_on_rows_outpaces_the_whole_report_oracle() {
    let opts = LoadGenOpts::new(1);
    let db = model_db(&opts);
    let points = grid_points(&opts);
    let cases: Vec<(ResourceScheduler, PreferenceList)> =
        [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput]
            .map(|p| {
                let sched = ResourceScheduler::new(db.clone(), p.preferences(), PROFILE_INPUT);
                (sched, p.preferences())
            })
            .into();
    for (sched, prefs) in &cases {
        for v in &points {
            let oracle = decision_oracle::Oracle::new(&db, PROFILE_INPUT, PredictMode::Interpolate)
                .choose_excluding(prefs, v, &[])
                .map(|((config, _, _), region)| (config, region));
            assert_eq!(sched.choose(v).map(|d| (d.config, d.validity)), oracle, "at {v}");
        }
    }
    const ROUNDS: usize = 10;
    assert_floor(
        "choose against the whole-report oracle",
        3.9,
        || {
            time(|| {
                for _ in 0..ROUNDS {
                    for (sched, _) in &cases {
                        for v in &points {
                            black_box(sched.choose(v));
                        }
                    }
                }
            })
        },
        || {
            time(|| {
                for _ in 0..ROUNDS {
                    for (_, prefs) in &cases {
                        for v in &points {
                            let mut oracle = decision_oracle::Oracle::new(
                                &db,
                                PROFILE_INPUT,
                                PredictMode::Interpolate,
                            );
                            black_box(oracle.choose_excluding(prefs, v, &[]));
                        }
                    }
                }
            })
        },
    );
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn an_indexed_prediction_outpaces_the_linear_scan() {
    let opts = LoadGenOpts::new(1);
    let db = model_db(&opts);
    let points = grid_points(&opts);
    let configs = db.configs(PROFILE_INPUT);
    assert_eq!(configs.len(), 12);
    let mode = PredictMode::Interpolate;
    for c in &configs {
        for v in &points {
            let scan = scan_oracle::predict(&db, c, PROFILE_INPUT, v, mode);
            assert_eq!(db.predict(c, PROFILE_INPUT, v, mode), scan, "{c:?} at {v}");
        }
    }
    const ROUNDS: usize = 20;
    let predict_all = |predict: &dyn Fn(&Configuration, &ResourceVector) -> Option<QosReport>| {
        time(|| {
            for _ in 0..ROUNDS {
                for c in &configs {
                    for v in &points {
                        black_box(predict(c, v));
                    }
                }
            }
        })
    };
    assert_floor(
        "PerfDb::predict against the linear-scan oracle",
        6.2,
        || predict_all(&|c, v| db.predict(c, PROFILE_INPUT, v, mode)),
        || predict_all(&|c, v| scan_oracle::predict(&db, c, PROFILE_INPUT, v, mode)),
    );
}
