//! Drift-storm harness: plant a model/environment mismatch and drive the
//! online refinement loop (`adapt_core::refine`) end to end.
//!
//! The storm runs the adaptive client in *epochs* against one shared
//! performance database. From [`SKEW_FROM_EPOCH`] on, the live
//! link is skewed to a fraction of the bandwidth the database was
//! profiled at — the environment has silently changed, the model hasn't
//! (§7.1: "the representative data stored in the performance database may
//! become inaccurate over time"). After each epoch the refine engine
//! folds the run's obs bus; once residuals drift past the threshold for a
//! sustained streak it re-profiles the stale slices *against the skewed
//! environment* and hot-swaps them, so later epochs price against a model
//! that matches reality again.
//!
//! Everything is deterministic: epochs are seeded simulations, the
//! residual fold is a pure function of each epoch's bus, and re-profiling
//! sweeps fixed grid points. Two storms of the same scenario produce
//! identical reports.

use adapt_core::refine::{DriftAlarm, RefineEngine, SwapReport};
use adapt_core::{Objective, Preference, PreferenceList};
use sandbox::Limits;

use crate::scenario::{build_db, profile_runner, run_adaptive_shared, Scenario, PROFILE_INPUT};

/// Total adaptive epochs to run. Convergence is one refreshed slice per
/// skewed epoch at worst (refreshing a slice makes the remaining stale
/// ones look better, so the client chases them one by one): with the 2x2
/// (compression x level) config space of the small scenarios, 6 epochs
/// always reach the quiet steady state.
const EPOCHS: usize = 6;
/// First epoch (0-based) whose live link is skewed.
pub const SKEW_FROM_EPOCH: usize = 1;
/// Live link bandwidth divisor from [`SKEW_FROM_EPOCH`] on (8.0 = the link
/// silently drops to an eighth of what the database was profiled at).
const SKEW: f64 = 8.0;
/// Sustained-drift EWMA threshold (`RefineEngine::set_threshold`).
pub const DRIFT_THRESHOLD: f64 = 0.5;
/// Consecutive over-threshold samples before alarming
/// (`RefineEngine::set_min_streak`).
const MIN_STREAK: u64 = 3;
/// Profiling parallelism for the initial build and re-profiles.
const THREADS: usize = 2;

/// What one epoch did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Whether the live link was skewed this epoch.
    pub skewed: bool,
    /// Drift alarms the engine raised from this epoch's bus.
    pub alarms: Vec<DriftAlarm>,
    /// Slices re-profiled and hot-swapped after this epoch.
    pub swaps: Vec<SwapReport>,
    /// Mean per-image transmit time observed this epoch.
    pub avg_transmit_secs: f64,
    /// Worst EWMA residual across all cells after folding this epoch
    /// (`None` until any cell has samples).
    pub worst_residual: Option<f64>,
    /// Simulation end time of the epoch.
    pub end_us: u64,
}

/// The whole storm, summarized for tests and the bench harness.
#[derive(Debug, Clone)]
pub struct DriftStormReport {
    pub epochs: Vec<EpochReport>,
    /// First detection: `(epoch, at_us)` of the first drift alarm.
    pub detection: Option<(usize, u64)>,
    /// Database rebuilds the engine published (hot-swap batches).
    pub rebuilds: u64,
    /// Total grid points re-profiled across all swaps.
    pub points_reprofiled: usize,
    /// Worst residual in the epoch that first alarmed (detection
    /// evidence) and in the final epoch (post-swap accuracy).
    pub residual_at_detection: Option<f64>,
    pub residual_final: Option<f64>,
}

/// `sc` with its live link scaled down by `skew` — the planted
/// environment change the profiled model knows nothing about.
pub fn skewed(sc: &Scenario, skew: f64) -> Scenario {
    Scenario { link_bps: sc.link_bps / skew.max(1.0), ..sc.clone() }
}

/// The storm's preference list: minimize transmit time, unconstrained.
pub fn storm_prefs() -> PreferenceList {
    PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")))
}

/// Run a drift storm: profile `sc` honestly, then run `EPOCHS` adaptive
/// epochs, skewing the live link from [`SKEW_FROM_EPOCH`] on, with the
/// refine engine ingesting every epoch's bus and re-profiling on
/// sustained drift.
pub fn run_drift_storm(sc: &Scenario) -> DriftStormReport {
    let store = sc.build_store();
    // The model: profiled against the *unskewed* scenario at one resource
    // point (full CPU, the nominal link). Epochs start from these limits,
    // so predictions are exact until the environment shifts underneath.
    let db = build_db(sc, &store, &[1.0], &[sc.link_bps], THREADS);
    let mut engine = RefineEngine::from_db(db, PROFILE_INPUT);
    engine.set_threshold(DRIFT_THRESHOLD);
    engine.set_min_streak(MIN_STREAK);

    let start = Limits::cpu(1.0).with_net(sc.link_bps);
    let mut epochs = Vec::new();
    let mut detection = None;
    let mut points_reprofiled = 0;
    let mut residual_at_detection = None;
    for epoch in 0..EPOCHS {
        let is_skewed = epoch >= SKEW_FROM_EPOCH;
        let live = if is_skewed { skewed(sc, SKEW) } else { sc.clone() };
        let out = run_adaptive_shared(&live, &store, engine.db(), storm_prefs(), start, None);
        // Route this epoch's refine.* audit events onto the epoch's bus.
        engine.set_obs(&out.obs);
        let alarms = engine.ingest_run(&out.obs);
        let worst_residual = engine
            .residuals()
            .into_iter()
            .map(|(_, _, r)| r)
            .fold(None, |acc: Option<f64>, r| Some(acc.map_or(r, |a| a.max(r))));
        if detection.is_none() {
            if let Some(first) = alarms.first() {
                detection = Some((epoch, first.at_us));
                residual_at_detection = worst_residual;
            }
        }
        let swaps = if alarms.is_empty() {
            Vec::new()
        } else {
            // Re-profile against the environment as it is NOW (skewed):
            // that is the whole point — the refreshed slice models the
            // world, not the stale profile.
            engine.reprofile(out.end.as_us(), &profile_runner(&live, &store))
        };
        points_reprofiled += swaps.iter().map(|s| s.points).sum::<usize>();
        epochs.push(EpochReport {
            epoch,
            skewed: is_skewed,
            alarms,
            swaps,
            avg_transmit_secs: out.stats.avg_transmit_secs(),
            worst_residual,
            end_us: out.end.as_us(),
        });
    }
    let residual_final = epochs.last().and_then(|e| e.worst_residual);
    DriftStormReport {
        epochs,
        detection,
        rebuilds: engine.rebuilds(),
        points_reprofiled,
        residual_at_detection,
        residual_final,
    }
}
