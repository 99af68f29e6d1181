//! Figure 7: the three run-time adaptation experiments of §7.
//!
//! Each experiment runs the adaptive application against a scripted
//! resource change and compares it with the two relevant non-adaptive
//! configurations, exactly as the paper plots (thick adaptive line vs two
//! thin static lines).
//!
//! QoS thresholds (Experiment 2's deadline, Experiment 3's response
//! bound) are *auto-calibrated from the performance database*: the paper
//! chose 10 s / 1 s for its hardware; we choose the midpoint between the
//! profiled values of the two regimes so the experiment expresses the
//! same situation — "initially satisfiable with the preferred setting,
//! violated after the resource drop" — at our scaled magnitudes.

use std::sync::Arc;

use adapt_core::{
    Configuration, Constraint, Objective, PerfDb, PredictMode, Preference, PreferenceList,
    ResourceVector,
};
use compress::Method;
use sandbox::{LimitSchedule, Limits};
use simnet::SimTime;
use visapp::{
    build_db, client_cpu_key, client_net_key, run_adaptive_shared, run_static, ImageStore,
    RunStats, Scenario, VizConfig, PROFILE_INPUT,
};

/// The output of one adaptation experiment.
pub struct ExperimentResult {
    pub adaptive: RunStats,
    pub static_runs: Vec<(String, RunStats)>,
    pub db_records: usize,
    /// The calibrated QoS threshold, when the experiment uses one.
    pub threshold: Option<f64>,
}

impl ExperimentResult {
    /// Final compression / level / fovea of the adaptive run.
    pub fn final_config(&self) -> &Configuration {
        &self.adaptive.config_history.last().expect("history never empty").1
    }

    pub fn initial_config(&self) -> &Configuration {
        &self.adaptive.config_history.first().expect("history never empty").1
    }
}

fn predict(db: &PerfDb, config: &Configuration, cpu: f64, net: f64, metric: &str) -> f64 {
    let mut r = ResourceVector::default();
    r.set(client_cpu_key(), cpu);
    r.set(client_net_key(), net);
    db.predict(config, PROFILE_INPUT, &r, PredictMode::Interpolate)
        .unwrap_or_else(|| panic!("no prediction for {config}"))
        .get(metric)
        .unwrap_or_else(|| panic!("metric {metric} missing for {config}"))
}

/// Experiment 1 (Figure 7a): minimize image transmission time while the
/// network bandwidth drops from `hi_bps` to `lo_bps` at `switch_at`.
/// The adaptive client should start with LZW and switch to Bzip.
pub fn fig7a(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    cpu_share: f64,
    hi_bps: f64,
    lo_bps: f64,
    switch_at: SimTime,
    threads: usize,
) -> ExperimentResult {
    let db = build_db(
        sc,
        store,
        &[cpu_share],
        &[lo_bps / 2.0, lo_bps, (lo_bps * hi_bps).sqrt(), hi_bps, hi_bps * 2.0],
        threads,
    );
    let db_records = db.len();
    // As in the paper's Experiment 1, the image quality is not traded
    // away: resolution stays at the finest level and only the compression
    // method (and fovea size) may change.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", sc.levels as f64)],
        Objective::minimize("transmit_time"),
    ));
    let schedule = || LimitSchedule::new().at(switch_at, Limits::cpu(cpu_share).with_net(lo_bps));
    let start = Limits::cpu(cpu_share).with_net(hi_bps);
    let adaptive =
        run_adaptive_shared(sc, store, Arc::new(db), prefs, start, Some(schedule())).stats;
    let dr = sc.img_size / 2; // the scheduler's typical pick
    let mut static_runs = Vec::new();
    for method in [Method::Lzw, Method::Bzip] {
        let cfg = VizConfig { dr, level: sc.levels, method };
        let out = run_static(sc, store, cfg, start, Some(schedule()));
        static_runs.push((method.name().to_string(), out.stats));
    }
    ExperimentResult { adaptive, static_runs, db_records, threshold: None }
}

/// Experiment 2 (Figure 7b): transmit each image within a deadline while
/// maximizing resolution; CPU share drops `hi_share -> lo_share` at
/// `switch_at`, bandwidth fixed. The adaptive client should degrade from
/// the finest level to the next one.
pub fn fig7b(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    fixed_bps: f64,
    hi_share: f64,
    lo_share: f64,
    switch_at: SimTime,
    threads: usize,
) -> ExperimentResult {
    let db = build_db(
        sc,
        store,
        &[lo_share / 2.0, lo_share, (lo_share + hi_share) / 2.0, hi_share, 1.0],
        &[fixed_bps],
        threads,
    );
    let db_records = db.len();
    let (l_lo, l_hi) = sc.level_values();
    let dr = (sc.img_size / 2) as i64;
    let cfg_hi = Configuration::new(&[("dR", dr), ("c", Method::Lzw.code()), ("l", l_hi)]);
    // Calibrate the deadline: satisfiable at the high share with the fine
    // level, violated at the low share (midpoint of the two predictions).
    let t_hi = predict(&db, &cfg_hi, hi_share, fixed_bps, "transmit_time");
    let t_lo_share = predict(&db, &cfg_hi, lo_share, fixed_bps, "transmit_time");
    assert!(t_lo_share > t_hi, "CPU drop must slow the fine level ({t_hi} -> {t_lo_share})");
    let deadline = (t_hi + t_lo_share) / 2.0;
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", deadline)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let schedule = || LimitSchedule::new().at(switch_at, Limits::cpu(lo_share).with_net(fixed_bps));
    let start = Limits::cpu(hi_share).with_net(fixed_bps);
    let adaptive =
        run_adaptive_shared(sc, store, Arc::new(db), prefs, start, Some(schedule())).stats;
    let mut static_runs = Vec::new();
    for (label, level) in [(format!("level {l_hi}"), l_hi), (format!("level {l_lo}"), l_lo)] {
        let cfg = VizConfig { dr: dr as usize, level: level as usize, method: Method::Lzw };
        let out = run_static(sc, store, cfg, start, Some(schedule()));
        static_runs.push((label, out.stats));
    }
    ExperimentResult { adaptive, static_runs, db_records, threshold: Some(deadline) }
}

/// Experiment 3 (Figures 7c/7d): keep per-round response time below a
/// bound while minimizing transmission time; CPU share drops at
/// `switch_at`. The adaptive client should shrink the fovea increment.
pub fn fig7cd(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    fixed_bps: f64,
    hi_share: f64,
    lo_share: f64,
    switch_at: SimTime,
    threads: usize,
) -> ExperimentResult {
    let db = build_db(
        sc,
        store,
        &[lo_share / 2.0, lo_share, (lo_share + hi_share) / 2.0, hi_share, 1.0],
        &[fixed_bps],
        threads,
    );
    let db_records = db.len();
    let drs = sc.dr_values();
    let (dr_small, dr_big) = (drs[0], drs[2]);
    let level = sc.levels as i64;
    // The initial choice under a pure minimize-transmit objective is one
    // of the larger fovea increments; calibrate the response bound against
    // *that* configuration so the bound holds at the high share and breaks
    // at the low share — the paper's Experiment 3 situation (fovea 320
    // satisfies 1 s initially, violates it at 40% CPU).
    let cfg_init = [drs[1], dr_big]
        .iter()
        .map(|&dr| Configuration::new(&[("dR", dr), ("c", Method::Lzw.code()), ("l", level)]))
        .min_by(|a, b| {
            let ta = predict(&db, a, hi_share, fixed_bps, "transmit_time");
            let tb = predict(&db, b, hi_share, fixed_bps, "transmit_time");
            ta.partial_cmp(&tb).unwrap()
        })
        .expect("nonempty");
    let r_hi = predict(&db, &cfg_init, hi_share, fixed_bps, "response_time");
    let r_lo = predict(&db, &cfg_init, lo_share, fixed_bps, "response_time");
    assert!(r_lo > r_hi, "CPU drop must slow responses ({r_hi} -> {r_lo})");
    let bound = (r_hi + r_lo) / 2.0;
    let prefs = PreferenceList::single(Preference::new(
        vec![
            Constraint::at_most("response_time", bound),
            Constraint::at_least("resolution", level as f64),
        ],
        Objective::minimize("transmit_time"),
    ))
    .then(Preference::new(
        vec![Constraint::at_least("resolution", level as f64)],
        Objective::minimize("response_time"),
    ));
    let schedule = || LimitSchedule::new().at(switch_at, Limits::cpu(lo_share).with_net(fixed_bps));
    let start = Limits::cpu(hi_share).with_net(fixed_bps);
    let adaptive =
        run_adaptive_shared(sc, store, Arc::new(db), prefs, start, Some(schedule())).stats;
    let mut static_runs = Vec::new();
    for dr in [dr_big, dr_small] {
        let cfg = VizConfig { dr: dr as usize, level: level as usize, method: Method::Lzw };
        let out = run_static(sc, store, cfg, start, Some(schedule()));
        static_runs.push((format!("dR={dr}"), out.stats));
    }
    ExperimentResult { adaptive, static_runs, db_records, threshold: Some(bound) }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Miniature experiment scenario: tiny images, scaled monitoring time
    /// constants (detection takes ~0.5-1 s instead of 2-4 s).
    fn exp_scenario(n_images: usize) -> Scenario {
        Scenario {
            n_images,
            img_size: 64,
            levels: 3,
            seed: 2000,
            monitor_window_us: 400_000,
            trigger_gap_us: 150_000,
            ..Scenario::default()
        }
    }

    #[test]
    fn experiment1_switches_and_beats_static_lzw() {
        let sc = exp_scenario(40);
        let store = sc.build_store();
        // Low CPU share so compression cost matters at this tiny scale.
        let res = fig7a(&sc, &store, 0.05, 60_000.0, 2_000.0, SimTime::from_secs(2), 2);
        assert_eq!(res.initial_config().get("c"), Some(Method::Lzw.code()));
        assert_eq!(
            res.final_config().get("c"),
            Some(Method::Bzip.code()),
            "history {:?}",
            res.adaptive.config_history
        );
        let adaptive_total = res.adaptive.finished_at.unwrap().as_secs_f64();
        let lzw_total = res.static_runs[0].1.finished_at.unwrap().as_secs_f64();
        assert!(
            adaptive_total < lzw_total,
            "adaptive {adaptive_total} should beat static lzw {lzw_total}"
        );
    }

    #[test]
    fn experiment2_degrades_resolution() {
        let sc = exp_scenario(60);
        let store = sc.build_store();
        let res = fig7b(&sc, &store, 100_000.0, 1.0, 0.05, SimTime::from_ms(300), 2);
        let (l_lo, l_hi) = sc.level_values();
        assert_eq!(res.initial_config().get("l"), Some(l_hi));
        assert_eq!(
            res.final_config().get("l"),
            Some(l_lo),
            "history {:?}",
            res.adaptive.config_history
        );
        // After adaptation, late images respect the deadline.
        let deadline = res.threshold.unwrap();
        for img in res.adaptive.images.iter().rev().take(3) {
            assert!(
                img.transmit_secs() <= deadline * 1.1,
                "late image {} vs deadline {deadline}",
                img.transmit_secs()
            );
        }
    }

    #[test]
    fn experiment3_shrinks_fovea() {
        let sc = exp_scenario(40);
        let store = sc.build_store();
        let res = fig7cd(&sc, &store, 100_000.0, 1.0, 0.1, SimTime::from_ms(500), 2);
        let drs = sc.dr_values();
        let initial_dr = res.initial_config().get("dR").unwrap();
        assert!(
            initial_dr > drs[0],
            "starts with a large fovea; history {:?}",
            res.adaptive.config_history
        );
        let final_dr = res.final_config().get("dR").unwrap();
        assert!(final_dr < initial_dr, "fovea shrinks: {:?}", res.adaptive.config_history);
        // The bound constrains the *average* response (as in the paper:
        // "keeping average response time ... below one second"), so check
        // the mean over the post-switch tail.
        let bound = res.threshold.unwrap();
        let tail: Vec<f64> =
            res.adaptive.rounds.iter().rev().take(6).map(|r| r.response_secs()).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean <= bound * 1.1, "late mean response {mean} vs bound {bound}");
    }
}
