//! The performance model's held-out error (§5): how far `PerfDb::predict`
//! lands from a measured run at resource points the profile never
//! sampled. The database is `session_collapse`'s: a 256 px store at seed
//! 7 profiled on its CPU-share x bandwidth grid. Truth is
//! `profile_point` at 42 points between and past the grid's samples, for
//! every configuration. The mean bounds the model's accuracy, and the
//! p90 sits below the refine engine's drift threshold, so a healthy
//! model never reads as drifted. The same table prices the decisions the
//! model makes: their mean regret is bounded too.

use std::sync::Arc;

use adapt_core::{PredictMode, PreferenceList, ResourceScheduler, ResourceVector};
use obs::det::{cores, par_map};
use visapp::drift::DRIFT_THRESHOLD;
use visapp::{
    build_db, client_cpu_key, client_net_key, profile_point, viz_spec, QosProfile, Scenario,
    PROFILE_INPUT,
};

/// `session_collapse`'s profiling grid.
const GRID_CPU: [f64; 3] = [0.25, 0.5, 1.0];
const GRID_BW: [f64; 5] = [30_000.0, 60_000.0, 125_000.0, 250_000.0, 500_000.0];

/// Held-out points: between the grid's samples and past both ends.
const HELD_CPU: [f64; 6] = [0.15, 0.3, 0.4, 0.6, 0.7, 0.85];
const HELD_BW: [f64; 7] = [20e3, 45e3, 90e3, 190e3, 375e3, 550e3, 700e3];

#[test]
fn held_out_error_is_bounded_and_below_the_drift_threshold() {
    // Two images, as every profiling run downloads.
    let sc = Scenario { n_images: 2, img_size: 256, levels: 4, seed: 7, ..Scenario::default() };
    let store = sc.build_store();
    let db = build_db(&sc, &store, &GRID_CPU, &GRID_BW, cores());
    let configs = viz_spec(&sc).configurations();
    assert_eq!(configs.len(), 12);
    let runs: Vec<(ResourceVector, usize)> = HELD_CPU
        .iter()
        .flat_map(|&cpu| HELD_BW.iter().map(move |&bw| (cpu, bw)))
        .flat_map(|(cpu, bw)| {
            let mut at = ResourceVector::default();
            at.set(client_cpu_key(), cpu);
            at.set(client_net_key(), bw);
            (0..configs.len()).map(move |c| (at.clone(), c))
        })
        .collect();
    assert_eq!(runs.len(), 42 * 12);
    let truth = par_map(&runs, cores(), |(at, c)| profile_point(&sc, &store, &configs[*c], at));
    let mut errors: Vec<f64> = Vec::new();
    for ((at, c), measured) in runs.iter().zip(&truth) {
        let predicted = db.predict(&configs[*c], PROFILE_INPUT, at, PredictMode::Interpolate);
        let predicted = predicted.expect("every configuration is profiled");
        for metric in ["transmit_time", "response_time"] {
            let (p, m) = (predicted.get(metric).unwrap(), measured.get(metric).unwrap());
            assert!(m > 0.0, "{metric} measured {m} at {at:?}");
            errors.push((p - m).abs() / m);
        }
    }
    errors.sort_by(f64::total_cmp);
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let p90 = errors[errors.len() * 9 / 10];
    assert!(mean < 0.2, "mean relative error {mean:.3} (p90 {p90:.3})");
    assert!(
        p90 < DRIFT_THRESHOLD,
        "p90 relative error {p90:.3} reaches the drift threshold {DRIFT_THRESHOLD}"
    );

    // Decision regret: at each held-out point, each preference list
    // picks a configuration from the model. The truth answers the first
    // preference rank that some configuration meets in measurement, with
    // its objective-best configuration. A pick that breaks one of that
    // rank's constraints has regret 1, any other the relative loss on
    // its objective.
    let directive = |text: &str| PreferenceList::parse_directive(text).expect("a directive");
    let lists = [
        directive("resolution>=4, minimize:transmit_time"),
        QosProfile::Quality.preferences(),
        QosProfile::Interactive.preferences(),
        QosProfile::Throughput.preferences(),
        directive("minimize:response_time"),
    ];
    let db = Arc::new(db);
    let mut regrets: Vec<f64> = Vec::new();
    for prefs in lists {
        let sched = ResourceScheduler::new_shared(Arc::clone(&db), prefs.clone(), PROFILE_INPUT);
        for (point, measured) in runs.chunks(configs.len()).zip(truth.chunks(configs.len())) {
            let pick = sched.select(&point[0].0).expect("a rank without constraints").config;
            let pick = &measured[configs.iter().position(|c| *c == pick).expect("profiled")];
            let rank = prefs.prefs.iter().find(|p| measured.iter().any(|m| p.satisfied_by(m)));
            let rank = rank.expect("a rank without constraints");
            let met = measured.iter().filter(|m| rank.satisfied_by(m));
            let best = met.reduce(|a, b| if rank.objective.better(b, a) { b } else { a });
            let objective = |m: &adapt_core::QosReport| m.get(&rank.objective.metric).unwrap();
            let best = objective(best.expect("a met rank"));
            regrets.push(if rank.satisfied_by(pick) {
                (objective(pick) - best).abs() / best.abs()
            } else {
                1.0
            });
        }
    }
    assert_eq!(regrets.len(), 5 * 42);
    let regret = regrets.iter().sum::<f64>() / regrets.len() as f64;
    let wrong = regrets.iter().filter(|&&r| r > 0.0).count();
    // It reads 0.0433, with 20 of the 210 picks losing something; the
    // bound is that value plus a tolerance of 0.0017 (4 %).
    assert!(regret < 0.045, "mean regret {regret:.4}: {wrong} of 210 picks lose something");
}
