//! Extension experiments beyond the paper's evaluation:
//!
//! - **extmem**: the memory axis. The paper's testbed supports memory
//!   limits but its experiments "keep memory resources at a fixed level"
//!   (§7.1); here we sweep the limit and show the paging cliff, plus how
//!   resolution degradation shrinks the working set below it.
//! - **extload**: genuine contention. The paper's experiments vary the
//!   sandbox's own limits; here a *competing process* starts on the
//!   client's host (kernel-scheduled), and the monitoring agent must
//!   infer the reduced share purely from application progress.

use std::sync::Arc;

use adapt_core::{Configuration, Constraint, Objective, Preference, PreferenceList};
use compress::Method;
use sandbox::Limits;
use visapp::{
    build_db, run_adaptive_shared, run_static, ImageStore, LoadSpec, RunStats, Scenario, VizConfig,
};

use crate::figs::profiles::Series;

/// Transmission time vs memory limit, one series per resolution level.
pub fn extmem(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    mem_limits: &[u64],
    share: f64,
) -> Vec<Series> {
    let psc = Scenario { n_images: 2, verify: false, ..sc.clone() };
    let (l_lo, l_hi) = sc.level_values();
    [l_lo, l_hi]
        .iter()
        .map(|&level| {
            let points = mem_limits
                .iter()
                .map(|&mem| {
                    let cfg = VizConfig {
                        dr: (sc.img_size / 2),
                        level: level as usize,
                        method: Method::Lzw,
                    };
                    let limits = Limits::cpu(share).with_net(500_000.0).with_mem(mem);
                    let out = run_static(&psc, store, cfg, limits, None);
                    (mem as f64, out.stats.avg_transmit_secs())
                })
                .collect();
            Series { label: format!("level {level}"), points }
        })
        .collect()
}

/// The contention experiment: an intruder process with `weight` starts at
/// `start_secs`; the adaptive client (deadline preference) must downgrade
/// resolution. Returns `(adaptive, static fine-level)` stats and the
/// calibrated deadline.
pub fn extload(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    weight: f64,
    start_secs: f64,
    threads: usize,
) -> (RunStats, RunStats, f64) {
    let loaded = Scenario {
        competing_load: vec![LoadSpec {
            start_us: (start_secs * 1e6) as u64,
            weight,
            duration_us: 3_600_000_000,
        }],
        ..sc.clone()
    };
    // Share the intruder leaves the client: 1 / (1 + weight).
    let residual = 1.0 / (1.0 + weight);
    let db = build_db(
        sc,
        store,
        &[residual * 0.5, residual, (1.0 + residual) / 2.0, 1.0],
        &[500_000.0],
        threads,
    );
    let (l_lo, l_hi) = sc.level_values();
    let dr = (sc.img_size / 2) as i64;
    let cfg_hi = Configuration::new(&[("dR", dr), ("c", Method::Lzw.code()), ("l", l_hi)]);
    let predict = |cpu: f64| {
        let mut r = adapt_core::ResourceVector::default();
        r.set(visapp::client_cpu_key(), cpu);
        r.set(visapp::client_net_key(), 500_000.0);
        db.predict(&cfg_hi, visapp::PROFILE_INPUT, &r, adapt_core::PredictMode::Interpolate)
            .expect("prediction")
            .get("transmit_time")
            .unwrap()
    };
    let deadline = (predict(1.0) + predict(residual)) / 2.0;
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", deadline)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let adaptive = run_adaptive_shared(
        &loaded,
        store,
        Arc::new(db),
        prefs,
        Limits::cpu(1.0).with_net(500_000.0),
        None,
    )
    .stats;
    let static_fine = run_static(
        &loaded,
        store,
        VizConfig { dr: dr as usize, level: l_hi as usize, method: Method::Lzw },
        Limits::cpu(1.0).with_net(500_000.0),
        None,
    )
    .stats;
    let _ = l_lo;
    (adaptive, static_fine, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs::test_scenario;

    #[test]
    fn extmem_shows_the_paging_cliff_and_the_resolution_escape() {
        let sc = test_scenario(); // 128px, levels 3
        let store = sc.build_store();
        // Working sets: l=3 ~ 112K, l=2 ~ 52K (view*5 + 32K).
        let series = extmem(&sc, &store, &[64 * 1024, 160 * 1024], 0.5);
        let (lo, hi) = (&series[0], &series[1]);
        // The fine level pages under the tight limit and recovers with room.
        assert!(
            hi.at(64.0 * 1024.0) > 1.2 * hi.at(160.0 * 1024.0),
            "fine level must page under 64K: {:?}",
            hi.points
        );
        // The coarse level fits both limits.
        assert!(lo.at(64.0 * 1024.0) < 1.05 * lo.at(160.0 * 1024.0), "{:?}", lo.points);
        // Under the tight limit, degrading resolution escapes the paging.
        assert!(lo.at(64.0 * 1024.0) < hi.at(64.0 * 1024.0));
    }

    #[test]
    fn extload_downgrades_under_real_contention() {
        let sc = Scenario {
            n_images: 40,
            img_size: 64,
            levels: 3,
            seed: 2000,
            monitor_window_us: 300_000,
            trigger_gap_us: 120_000,
            ..Scenario::default()
        };
        let store = sc.build_store();
        let (adaptive, static_fine, deadline) = extload(&sc, &store, 9.0, 0.4, 2);
        let (l_lo, l_hi) = sc.level_values();
        let hist = &adaptive.config_history;
        assert_eq!(hist[0].1.get("l"), Some(l_hi));
        assert_eq!(hist.last().unwrap().1.get("l"), Some(l_lo), "{hist:?}");
        // The static fine level blows the deadline after the intruder starts.
        let late_static = static_fine.images.last().unwrap().transmit_secs();
        assert!(late_static > deadline, "static {late_static} vs deadline {deadline}");
        // The adaptive run's late images meet it.
        let late_adaptive = adaptive.images.last().unwrap().transmit_secs();
        assert!(late_adaptive <= deadline * 1.1, "adaptive {late_adaptive} vs {deadline}");
    }
}
