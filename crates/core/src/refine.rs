//! Online model refinement: residual tracking against the performance
//! database, drift alarms, and targeted re-profiling of stale slices.
//!
//! The paper's database is profiled once, offline (§5), but §7.1 already
//! concedes the model must track the environment: "the representative
//! data stored in the performance database may become inaccurate over
//! time". This module closes that loop:
//!
//! 1. every scheduler decision publishes the database's *predicted*
//!    transmit/response time on the obs bus (`decide` events);
//! 2. every live round/image publishes its *measured* time (`round` /
//!    `image` events);
//! 3. [`RefineEngine::ingest_run`] folds the bus in publication order,
//!    maintaining one EWMA residual cell per `(configuration, metric)`
//!    of the engine's workload input — deterministic accounting: the bus
//!    of a seeded run is deterministic, the fold is a pure function of
//!    it, so two replays of the same seed produce bit-identical residual
//!    state;
//! 4. sustained drift — a streak of `refine.min_streak` consecutive
//!    over-threshold residuals whose EWMA also exceeds the live
//!    `refine.drift_threshold` knob — raises a [`DriftAlarm`] and marks
//!    the slice stale (`refine.drift` audit event);
//! 5. [`RefineEngine::reprofile`] re-runs the profiler for *only* the
//!    stale `(config, input)` slices, at exactly the resource points the
//!    slice already samples, and hot-swaps the replacement records in
//!    via [`PerfDb::swap_slice`] under the database's existing
//!    dirty-flag rebuild (`refine.swap` audit events). The refreshed
//!    database is published atomically through the scheduler's
//!    [`Adaptive`] handle: in-flight decisions keep their snapshot,
//!    the next decision prices against the refreshed model and is
//!    stamped with the bumped `db_version`.
//!
//! Streaks reset at each `decide` event for the re-priced configuration:
//! a transient residual spike between a resource shift and the monitor's
//! reaction is the *monitor's* lag, not model drift, and the scheduler's
//! re-decision re-prices it. Only residuals that stay wrong across
//! re-decisions accumulate toward an alarm.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use obs::{Adaptive, ConfigRegistry, Event, EventFilter, Obs, Source};

use crate::perfdb::{PerfDb, PerfRecord};
use crate::profiler::ProfileRunner;

/// Default sustained-drift threshold: EWMA relative residual above 25%.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;
/// Default streak length: this many consecutive over-threshold samples
/// (without an intervening re-decision of the slice) before alarming.
pub(crate) const DEFAULT_MIN_STREAK: u64 = 8;
/// Default EWMA weight for the newest residual sample.
pub(crate) const DEFAULT_ALPHA: f64 = 0.3;

/// One sustained-drift detection.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftAlarm {
    /// Simulation time of the sample that crossed the streak gate.
    pub at_us: u64,
    /// Key of the drifted configuration (the stale slice).
    pub config: String,
    /// Which QoS metric drifted (`"transmit_time"` or `"response_time"`).
    pub metric: &'static str,
    /// The EWMA relative residual at detection.
    pub residual: f64,
    /// Residual samples folded into this cell before the alarm.
    pub samples: u64,
}

/// Result of re-profiling one stale slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReport {
    /// Key of the re-profiled configuration.
    pub config: String,
    /// Resource points re-sampled (== records replaced into the slice).
    pub points: usize,
    /// Records the swap removed (the stale slice's size).
    pub removed: usize,
}

/// Per-`(config, metric)` residual accounting.
#[derive(Debug, Clone, Default)]
struct Cell {
    ewma: f64,
    samples: u64,
    /// Consecutive over-threshold samples since the last re-decision.
    streak: u64,
}

/// Latest database predictions for one configuration, read off `decide`
/// events.
#[derive(Debug, Clone, Copy, Default)]
struct Predicted {
    transmit: Option<f64>,
    response: Option<f64>,
}

/// Pre-registered counters so per-sample accounting stays allocation-free.
#[derive(Debug, Clone)]
struct RefineObs {
    obs: Obs,
    samples: obs::MetricId,
    alarms: obs::MetricId,
    swaps: obs::MetricId,
    rebuilds: obs::MetricId,
}

/// The online refinement engine for one workload input.
///
/// Holds its database behind an [`Adaptive`] handle: a re-profile
/// publishes the refreshed database with one `Adaptive::set`, so every
/// clone of the handle sees the old model or the new one, never a mix.
#[derive(Debug)]
pub struct RefineEngine {
    db: Adaptive<Arc<PerfDb>>,
    input: String,
    /// Live-tunable sustained-drift threshold (`refine.drift_threshold`).
    threshold: Adaptive<f64>,
    /// Live-tunable streak gate (`refine.min_streak`).
    min_streak: Adaptive<u64>,
    /// EWMA weight of the newest sample.
    alpha: f64,
    cells: BTreeMap<(String, &'static str), Cell>,
    stale: BTreeSet<String>,
    /// Database rebuilds published (one per `reprofile` batch that
    /// actually swapped at least one slice).
    rebuilds: u64,
    obs: Option<RefineObs>,
}

impl RefineEngine {
    /// Build an engine over a shared database handle; its clones see every
    /// hot-swap the engine publishes.
    pub fn new(db: Adaptive<Arc<PerfDb>>, input: &str) -> Self {
        RefineEngine {
            db,
            input: input.into(),
            threshold: Adaptive::new(DEFAULT_DRIFT_THRESHOLD),
            min_streak: Adaptive::new(DEFAULT_MIN_STREAK),
            alpha: DEFAULT_ALPHA,
            cells: BTreeMap::new(),
            stale: BTreeSet::new(),
            rebuilds: 0,
            obs: None,
        }
    }

    /// Convenience: wrap an owned database in a fresh handle.
    pub fn from_db(db: PerfDb, input: &str) -> Self {
        Self::new(Adaptive::new(Arc::new(db)), input)
    }

    /// Override the sustained-drift threshold (same cell the
    /// `refine.drift_threshold` knob mutates).
    pub fn set_threshold(&self, threshold: f64) {
        self.threshold.set(threshold);
    }

    /// Override the streak gate (same cell the `refine.min_streak` knob
    /// mutates).
    pub fn set_min_streak(&self, n: u64) {
        self.min_streak.set(n.max(1));
    }

    /// Publish `refine.*` audit events and counters into `obs`.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = Some(RefineObs {
            obs: obs.clone(),
            samples: obs.counter("refine.samples"),
            alarms: obs.counter("refine.alarms"),
            swaps: obs.counter("refine.swaps"),
            rebuilds: obs.counter("refine.rebuilds"),
        });
    }

    /// Builder form of [`set_obs`](RefineEngine::set_obs).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Register the engine's live-tunable knobs on a control-plane
    /// registry: `refine.drift_threshold` (the sustained-drift EWMA
    /// threshold) and `refine.min_streak` (the consecutive-sample gate).
    pub fn register_knobs(&self, registry: &ConfigRegistry) {
        registry.register_knob("refine.drift_threshold", self.threshold.clone());
        registry.register_knob("refine.min_streak", self.min_streak.clone());
    }

    /// A snapshot of the engine's current database.
    pub fn db(&self) -> Arc<PerfDb> {
        self.db.get()
    }

    /// Configurations currently flagged stale, in sorted key order.
    pub fn stale(&self) -> Vec<String> {
        self.stale.iter().cloned().collect()
    }

    /// The EWMA residual of one `(config, metric)` cell, if any samples
    /// were folded into it.
    pub fn residual(&self, config: &str, metric: &'static str) -> Option<f64> {
        self.cells.get(&(config.to_string(), metric)).filter(|c| c.samples > 0).map(|c| c.ewma)
    }

    /// A snapshot of every cell's EWMA residual as `(config, metric,
    /// ewma)`, in sorted `(config, metric)` order (cells with no samples
    /// are skipped).
    pub fn residuals(&self) -> Vec<(String, &'static str, f64)> {
        self.cells
            .iter()
            .filter(|(_, c)| c.samples > 0)
            .map(|((cfg, metric), c)| (cfg.clone(), *metric, c.ewma))
            .collect()
    }

    /// Database rebuilds this engine has published (0 on the no-drift
    /// fast path: residuals inside the threshold never touch the
    /// database).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Fold one finished run's obs bus into the residual cells, in
    /// publication order. Returns the drift alarms raised by this run
    /// (already-stale slices do not re-alarm).
    ///
    /// A lossy bus (`events_dropped() > 0`) is not folded at all: with a
    /// gap in the stream, a missed `decide` event could misattribute
    /// residuals, so the engine refuses to alarm on partial evidence —
    /// the same discipline as the `config_audit_complete` oracle.
    pub fn ingest_run(&mut self, run: &Obs) -> Vec<DriftAlarm> {
        if run.events_dropped() > 0 {
            return Vec::new();
        }
        let mut alarms = Vec::new();
        // Latest decide-time predictions per configuration, and the
        // configuration actually active at each instant (config events).
        let mut predicted: BTreeMap<String, Predicted> = BTreeMap::new();
        let mut active: Option<String> = None;
        // Only the kinds matched below: the kernel's packed events are
        // skipped unbuilt.
        let read = EventFilter::any()
            .source(Source::Scheduler)
            .source(Source::App)
            .kind("decide")
            .kind("config")
            .kind("round")
            .kind("image");
        for ev in run.events_filtered(&read) {
            match (ev.source, ev.kind) {
                (Source::Scheduler, "decide") => {
                    let Some(config) = ev.str_field("config").map(str::to_string) else {
                        continue;
                    };
                    predicted.insert(
                        config.clone(),
                        Predicted {
                            transmit: ev.f64_field("predicted_transmit"),
                            response: ev.f64_field("predicted_response"),
                        },
                    );
                    // Re-priced: transient residuals accrued under the
                    // previous estimate stop counting toward a streak.
                    self.reset_streaks(&config);
                }
                (Source::App, "config") => {
                    active = ev.str_field("config").map(str::to_string);
                }
                (Source::App, "round") => {
                    let (Some(config), Some(measured)) =
                        (active.clone(), ev.f64_field("response_secs"))
                    else {
                        continue;
                    };
                    let pred = predicted.get(&config).and_then(|p| p.response);
                    if let Some(pred) = pred {
                        if let Some(a) =
                            self.sample(ev.at_us, config, "response_time", measured, pred)
                        {
                            alarms.push(a);
                        }
                    }
                }
                (Source::App, "image") => {
                    let (Some(config), Some(measured)) =
                        (active.clone(), ev.f64_field("transmit_secs"))
                    else {
                        continue;
                    };
                    let pred = predicted.get(&config).and_then(|p| p.transmit);
                    if let Some(pred) = pred {
                        if let Some(a) =
                            self.sample(ev.at_us, config, "transmit_time", measured, pred)
                        {
                            alarms.push(a);
                        }
                    }
                }
                _ => {}
            }
        }
        alarms
    }

    fn reset_streaks(&mut self, config: &str) {
        for ((c, _), cell) in self.cells.iter_mut() {
            if c == config {
                cell.streak = 0;
            }
        }
    }

    /// Fold one measurement into its cell; returns an alarm when the
    /// sustained-drift gate trips for a not-yet-stale slice.
    fn sample(
        &mut self,
        at_us: u64,
        config: String,
        metric: &'static str,
        measured: f64,
        pred: f64,
    ) -> Option<DriftAlarm> {
        let threshold = self.threshold.get();
        let min_streak = self.min_streak.get().max(1);
        let r = (measured - pred).abs() / pred.abs().max(1e-9);
        let cell = self.cells.entry((config.clone(), metric)).or_default();
        cell.ewma =
            if cell.samples == 0 { r } else { self.alpha * r + (1.0 - self.alpha) * cell.ewma };
        cell.samples += 1;
        cell.streak = if r > threshold { cell.streak + 1 } else { 0 };
        if let Some(o) = &self.obs {
            o.obs.inc(o.samples, 1);
        }
        if cell.streak < min_streak || cell.ewma <= threshold || self.stale.contains(&config) {
            return None;
        }
        let alarm = DriftAlarm {
            at_us,
            config: config.clone(),
            metric,
            residual: cell.ewma,
            samples: cell.samples,
        };
        self.stale.insert(config);
        if let Some(o) = &self.obs {
            o.obs.inc(o.alarms, 1);
            o.obs.publish(
                Event::new(at_us, Source::Refine, "drift")
                    .with("config", alarm.config.as_str())
                    .with("metric", metric)
                    .with("residual_x1000", (alarm.residual * 1000.0) as u64)
                    .with("samples", alarm.samples),
            );
        }
        Some(alarm)
    }

    /// Re-profile every stale slice at exactly the resource points it
    /// already samples, and publish the refreshed database through the
    /// shared handle as ONE atomic hot-swap (one `db_version` bump per
    /// batch, however many slices it refreshed).
    ///
    /// Ordering guarantees: slices are re-profiled in sorted config-key
    /// order; the swap is prepared on a private clone, so concurrent
    /// readers only ever observe the pre-batch or post-batch database;
    /// the clone's query index is dropped by [`PerfDb::swap_slice`]'s
    /// invalidate, so the first post-swap query rebuilds it lazily, the
    /// same dirty-flag path as profiling-time `add`.
    ///
    /// `at_us` stamps the `refine.swap` audit events (the caller knows
    /// when in simulated time the re-profile logically happened).
    pub fn reprofile(&mut self, at_us: u64, runner: &dyn ProfileRunner) -> Vec<SwapReport> {
        if self.stale.is_empty() {
            return Vec::new();
        }
        let snapshot = self.db();
        let mut next = (*snapshot).clone();
        let mut reports = Vec::new();
        let stale = std::mem::take(&mut self.stale);
        for key in &stale {
            let Some(config) = snapshot.configs(&self.input).into_iter().find(|c| &c.key() == key)
            else {
                continue;
            };
            let points: Vec<_> = snapshot
                .records_for(&config, &self.input)
                .iter()
                .map(|r| r.resources.clone())
                .collect();
            let recs: Vec<PerfRecord> = points
                .iter()
                .map(|p| PerfRecord {
                    config: config.clone(),
                    resources: p.clone(),
                    input: self.input.clone(),
                    metrics: runner.run(&config, p, &self.input),
                })
                .collect();
            let (removed, added) = next.swap_slice(&config, &self.input, recs);
            let report = SwapReport { config: key.clone(), points: added, removed };
            if let Some(o) = &self.obs {
                o.obs.inc(o.swaps, 1);
                o.obs.publish(
                    Event::new(at_us, Source::Refine, "swap")
                        .with("config", report.config.as_str())
                        .with("points", report.points)
                        .with("removed", report.removed),
                );
            }
            // The refreshed slice's residual history measured the *old*
            // model; start the refreshed model's accounting clean.
            self.cells.retain(|(c, _), _| c != key);
            reports.push(report);
        }
        if !reports.is_empty() {
            self.db.set(Arc::new(next));
            self.rebuilds += 1;
            if let Some(o) = &self.obs {
                o.obs.inc(o.rebuilds, 1);
            }
        }
        reports
    }

    /// Drop all residual state and stale flags (fresh accounting epoch).
    pub fn reset(&mut self) {
        self.cells.clear();
        self.stale.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{ResourceKey, ResourceVector};
    use crate::param::Configuration;
    use crate::qos::QosReport;

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn db_with(transmit: f64) -> PerfDb {
        let mut db = PerfDb::new();
        for &share in &[0.5, 1.0] {
            db.add(PerfRecord {
                config: Configuration::new(&[("c", 1)]),
                resources: ResourceVector::new(&[(cpu(), share)]),
                input: "img".into(),
                metrics: QosReport::new(&[
                    ("transmit_time", transmit / share),
                    ("response_time", transmit / (10.0 * share)),
                ]),
            });
        }
        db
    }

    /// A bus with one decide, one config activation, and `n` rounds that
    /// each measured `measured` seconds against a 1.0 s prediction.
    fn bus(n: usize, measured: f64) -> Obs {
        let obs = Obs::new();
        obs.publish(
            Event::new(0, Source::Scheduler, "decide")
                .with("config", "c=1")
                .with("rank", 0u64)
                .with("predicted_transmit", 1.0)
                .with("predicted_response", 1.0),
        );
        obs.publish(Event::new(0, Source::App, "config").with("config", "c=1"));
        for i in 0..n {
            obs.publish(
                Event::new(1_000 * (i as u64 + 1), Source::App, "round")
                    .with("image", 0u64)
                    .with("round", i as u64)
                    .with("wire_round", i as u64)
                    .with("response_secs", measured),
            );
        }
        obs
    }

    #[test]
    fn quiet_run_raises_no_alarm_and_no_rebuild() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        let alarms = eng.ingest_run(&bus(50, 1.05));
        assert!(alarms.is_empty(), "5% residual is inside the 25% threshold");
        assert_eq!(eng.rebuilds(), 0);
        assert!(eng.stale().is_empty());
        let r = eng.residual("c=1", "response_time").unwrap();
        assert!((r - 0.05).abs() < 1e-9, "EWMA of a constant is the constant: {r}");
    }

    #[test]
    fn sustained_drift_alarms_once() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        let alarms = eng.ingest_run(&bus(50, 2.0));
        assert_eq!(alarms.len(), 1, "stale slice alarms once, not per sample");
        let a = &alarms[0];
        assert_eq!(a.config, "c=1");
        assert_eq!(a.metric, "response_time");
        assert!(a.residual > 0.25);
        assert_eq!(a.samples, DEFAULT_MIN_STREAK, "alarm exactly at the streak gate");
        assert_eq!(eng.stale(), vec!["c=1".to_string()]);
    }

    #[test]
    fn short_spikes_below_streak_gate_stay_quiet() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        // Alternate clean and wild samples: the streak never reaches the
        // gate even though single-sample residuals are huge.
        let obs = Obs::new();
        obs.publish(
            Event::new(0, Source::Scheduler, "decide")
                .with("config", "c=1")
                .with("predicted_response", 1.0),
        );
        obs.publish(Event::new(0, Source::App, "config").with("config", "c=1"));
        for i in 0..40u64 {
            let measured = if i % 3 == 0 { 5.0 } else { 1.0 };
            obs.publish(
                Event::new(1_000 * (i + 1), Source::App, "round").with("response_secs", measured),
            );
        }
        assert!(eng.ingest_run(&obs).is_empty());
    }

    #[test]
    fn redecision_resets_the_streak() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        let obs = Obs::new();
        let decide = |at: u64| {
            Event::new(at, Source::Scheduler, "decide")
                .with("config", "c=1")
                .with("predicted_response", 1.0)
        };
        obs.publish(decide(0));
        obs.publish(Event::new(0, Source::App, "config").with("config", "c=1"));
        // 6 bad samples, a re-decision, 6 more bad samples: no streak
        // ever reaches the 8-sample gate.
        for i in 0..6u64 {
            obs.publish(Event::new(1_000 + i, Source::App, "round").with("response_secs", 3.0));
        }
        obs.publish(decide(10_000));
        for i in 0..6u64 {
            obs.publish(Event::new(11_000 + i, Source::App, "round").with("response_secs", 3.0));
        }
        assert!(eng.ingest_run(&obs).is_empty(), "re-decisions absolve transient residuals");
        // Without the re-decision the same samples alarm.
        let mut eng2 = RefineEngine::from_db(db_with(1.0), "img");
        assert_eq!(eng2.ingest_run(&bus(12, 3.0)).len(), 1);
    }

    #[test]
    fn reprofile_swaps_only_the_stale_slice_and_bumps_the_shared_handle() {
        // Two configs profiled; only c=1 drifts.
        let mut db = db_with(1.0);
        for &share in &[0.5, 1.0] {
            db.add(PerfRecord {
                config: Configuration::new(&[("c", 2)]),
                resources: ResourceVector::new(&[(cpu(), share)]),
                input: "img".into(),
                metrics: QosReport::new(&[
                    ("transmit_time", 9.0 / share),
                    ("response_time", 0.9 / share),
                ]),
            });
        }
        let mut eng = RefineEngine::from_db(db, "img");
        eng.ingest_run(&bus(20, 2.0));
        assert_eq!(eng.stale(), vec!["c=1".to_string()]);

        // Re-profile: the environment now really does take 2.0 s.
        let runner = |_c: &Configuration, r: &ResourceVector, _i: &str| {
            let share = r.get(&cpu()).unwrap();
            QosReport::new(&[("transmit_time", 2.0 / share), ("response_time", 2.0 / share)])
        };
        let old_db = Arc::downgrade(&eng.db());
        let in_flight = eng.db();
        let reports = eng.reprofile(123, &runner);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0], SwapReport { config: "c=1".into(), points: 2, removed: 2 });
        assert_eq!(eng.rebuilds(), 1);
        assert!(eng.stale().is_empty());

        // The replaced model lives exactly as long as its last snapshot.
        assert!(old_db.upgrade().is_some(), "an in-flight decision keeps its snapshot");
        drop(in_flight);
        assert!(old_db.upgrade().is_none(), "the swap freed the old model");

        // Clones of the handle see the refreshed slice.
        assert_eq!(eng.db.version(), 1);
        let refreshed = eng
            .db()
            .predict(
                &Configuration::new(&[("c", 1)]),
                "img",
                &ResourceVector::new(&[(cpu(), 1.0)]),
                crate::perfdb::PredictMode::Interpolate,
            )
            .unwrap();
        assert!((refreshed.get("response_time").unwrap() - 2.0).abs() < 1e-9);
        // The untouched slice is untouched.
        let other = eng
            .db()
            .predict(
                &Configuration::new(&[("c", 2)]),
                "img",
                &ResourceVector::new(&[(cpu(), 1.0)]),
                crate::perfdb::PredictMode::Interpolate,
            )
            .unwrap();
        assert!((other.get("transmit_time").unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn reprofile_without_stale_slices_is_free() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        let runner = |_: &Configuration, _: &ResourceVector, _: &str| -> QosReport {
            panic!("no slice is stale; the runner must not run")
        };
        assert!(eng.reprofile(0, &runner).is_empty());
        assert_eq!(eng.rebuilds(), 0);
        assert_eq!(eng.db.version(), 0, "no hot-swap published");
    }

    #[test]
    fn knobs_mutate_live_gates() {
        let mut eng = RefineEngine::from_db(db_with(1.0), "img");
        let registry = ConfigRegistry::new();
        eng.register_knobs(&registry);
        // Raise the threshold above the planted 100% residual: quiet.
        registry.set("refine.drift_threshold", obs::ConfigValue::F64(1.5)).unwrap();
        assert!(eng.ingest_run(&bus(30, 2.0)).is_empty(), "100% residual under a 150% threshold");
        // Restore the threshold but shorten the streak gate: the same
        // stream alarms earlier than the default gate would.
        registry.set("refine.drift_threshold", obs::ConfigValue::F64(0.25)).unwrap();
        registry.set("refine.min_streak", obs::ConfigValue::U64(3)).unwrap();
        eng.reset();
        let alarms = eng.ingest_run(&bus(30, 2.0));
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].samples, 3, "knob-shortened streak gate trips at 3 samples");
    }

    #[test]
    fn refine_events_land_on_the_bus() {
        let audit = Obs::new();
        let mut eng = RefineEngine::from_db(db_with(1.0), "img").with_obs(&audit);
        eng.ingest_run(&bus(20, 2.0));
        let runner = |_c: &Configuration, r: &ResourceVector, _i: &str| {
            let share = r.get(&cpu()).unwrap();
            QosReport::new(&[("transmit_time", 2.0 / share), ("response_time", 2.0 / share)])
        };
        eng.reprofile(777, &runner);
        let refine = audit.events_filtered(&EventFilter::refine_audit());
        let kinds: Vec<&str> = refine.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["drift", "swap"]);
        assert_eq!(refine[0].str_field("config"), Some("c=1"));
        assert!(refine[0].u64_field("residual_x1000").unwrap() > 250);
        assert_eq!(refine[1].at_us, 777);
        assert_eq!(refine[1].u64_field("points"), Some(2));
        let c = |name: &str| audit.counter_value(audit.lookup(name).unwrap());
        assert_eq!(c("refine.alarms"), 1);
        assert_eq!(c("refine.swaps"), 1);
        assert_eq!(c("refine.rebuilds"), 1);
        assert_eq!(c("refine.samples"), 20);
    }
}
