//! The integrated run-time adaptation subsystem: monitoring agent +
//! resource scheduler + steering agent (§6, Figure 1).
//!
//! An application embeds an [`AdaptiveRuntime`]:
//!
//! 1. feed resource observations with [`AdaptiveRuntime::observe`] (from
//!    sandbox progress estimates or its own measurements);
//! 2. call [`AdaptiveRuntime::tick`] periodically (the monitoring agent's
//!    10 ms cadence) — when the active configuration's validity region is
//!    violated, the scheduler picks a new configuration and hands it to
//!    the steering agent;
//! 3. call [`AdaptiveRuntime::at_boundary`] at task boundaries — the only
//!    points where the switch takes effect; returned transition actions
//!    (e.g. "notify the server") are the application's to execute.

use obs::{MetricId, Obs, Source};
use simnet::SimTime;

use crate::env::{ResourceKey, ResourceVector};
use crate::error::{Error, Result};
use crate::monitor::{MonitoringAgent, Trigger};
use crate::param::Configuration;
use crate::qos::QosReport;
use crate::scheduler::{Decision, ResourceScheduler};
use crate::spec::TunableSpec;
use crate::steering::{BoundaryOutcome, ReconfigureRequest, SteeringAgent, SwitchEvent};

/// Record of one adaptation-relevant event, for experiment logs.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationEvent {
    /// The monitor detected the validity region was violated.
    Triggered { at: SimTime, estimate: ResourceVector },
    /// The scheduler proposed a new configuration. `pref_version` is the
    /// preference-list version the decision was computed under (0 = the
    /// preferences were never mutated); it correlates decisions with the
    /// control plane's `config_set` audit events after a mid-run flip.
    /// `db_version` is likewise the performance-database refine version
    /// (0 = never hot-swapped; see `crate::refine`).
    Decided {
        at: SimTime,
        config: Configuration,
        predicted: QosReport,
        rank: usize,
        pref_version: u64,
        db_version: u64,
    },
    /// The scheduler found no satisfying configuration.
    NoCandidate { at: SimTime },
    /// No configuration satisfied any preference: the runtime fell back to
    /// the least-violating one and entered degraded operation.
    Degraded { at: SimTime, config: Configuration },
    /// A recovery probe found a satisfying configuration again.
    Recovered { at: SimTime },
    /// The steering agent completed a switch.
    Switched { at: SimTime, old: Configuration, new: Configuration },
    /// A proposed configuration was rejected by a guard (negotiation).
    Nak { at: SimTime, config: Configuration, reason: String },
    /// A pending switch was deferred by the anti-oscillation dwell guard;
    /// it stays queued and applies at the first boundary past `until`.
    /// Also the audit record for a config change commanded during a dwell
    /// window: the control plane's `Set` takes effect immediately on the
    /// scheduler, but the resulting switch waits for the dwell.
    Deferred { at: SimTime, until: SimTime },
}

impl AdaptationEvent {
    /// Convert to a structured bus event ([`obs::Event`]), tagged with the
    /// agent that produced it: the monitor triggers, the scheduler decides,
    /// the steering agent switches/naks/degrades.
    pub fn to_obs(&self) -> obs::Event {
        match self {
            AdaptationEvent::Triggered { at, estimate } => {
                obs::Event::new(at.as_us(), Source::Monitor, "trigger")
                    .with("estimate", estimate.to_string())
            }
            AdaptationEvent::Decided { at, config, predicted, rank, pref_version, db_version } => {
                let mut ev = obs::Event::new(at.as_us(), Source::Scheduler, "decide")
                    .with("config", config.key())
                    .with("rank", *rank);
                // The database's predicted QoS for the chosen config: the
                // baseline the refine engine holds each live measurement
                // against when tracking model drift.
                if let Some(t) = predicted.get("transmit_time") {
                    ev = ev.with("predicted_transmit", t);
                }
                if let Some(r) = predicted.get("response_time") {
                    ev = ev.with("predicted_response", r);
                }
                // Only annotate decisions made after a live preference
                // flip or a refine hot-swap: never-mutated runs keep
                // byte-identical streams.
                if *pref_version > 0 {
                    ev = ev.with("pref_version", *pref_version);
                }
                if *db_version > 0 {
                    ev = ev.with("db_version", *db_version);
                }
                ev
            }
            AdaptationEvent::NoCandidate { at } => {
                obs::Event::new(at.as_us(), Source::Scheduler, "no_candidate")
            }
            AdaptationEvent::Degraded { at, config } => {
                obs::Event::new(at.as_us(), Source::Steering, "degrade")
                    .with("config", config.key())
            }
            AdaptationEvent::Recovered { at } => {
                obs::Event::new(at.as_us(), Source::Steering, "recover")
            }
            AdaptationEvent::Switched { at, old, new } => {
                obs::Event::new(at.as_us(), Source::Steering, "switch")
                    .with("old", old.key())
                    .with("new", new.key())
            }
            AdaptationEvent::Nak { at, config, reason } => {
                obs::Event::new(at.as_us(), Source::Steering, "nak")
                    .with("config", config.key())
                    .with("reason", reason.as_str())
            }
            AdaptationEvent::Deferred { at, until } => {
                obs::Event::new(at.as_us(), Source::Steering, "defer")
                    .with("until_us", until.as_us())
            }
        }
    }
}

/// The integrated adaptation runtime for one application instance.
pub struct AdaptiveRuntime {
    pub spec: TunableSpec,
    pub monitor: MonitoringAgent,
    pub scheduler: ResourceScheduler,
    steering: SteeringAgent,
    /// Raised before a bus was attached; `set_obs` publishes and empties it.
    events: Vec<AdaptationEvent>,
    /// Upper bound on guard-negotiation retries per boundary.
    pub max_negotiations: usize,
    /// While degraded (running a best-effort configuration), how often to
    /// re-consult the scheduler for a satisfying choice.
    pub recovery_probe_gap_us: u64,
    degraded: bool,
    last_probe: Option<SimTime>,
    /// Deadline of the last emitted `Deferred` event, so a dwell window
    /// logs one deferral instead of one per boundary.
    last_defer_until: Option<SimTime>,
    obs_ctx: Option<RuntimeObs>,
}

/// Pre-registered metric targets so the 10 ms tick stays allocation-free.
struct RuntimeObs {
    obs: Obs,
    ticks: MetricId,
    /// Per-tick adaptation-loop latency (`"runtime.tick"` histogram):
    /// monitor check + scheduler decision + steering enqueue, the figure
    /// the scale-out load harness aggregates across sessions.
    tick_span: MetricId,
}

impl AdaptiveRuntime {
    /// Build the runtime and choose the *initial* configuration for the
    /// given starting resources (the paper's "automatic configuration in
    /// diverse distributed environments"). Fails with
    /// [`Error::NoSatisfiableConfig`] when no preference is satisfiable at
    /// startup.
    pub fn try_configure(
        spec: TunableSpec,
        scheduler: ResourceScheduler,
        window_us: u64,
        initial_resources: &ResourceVector,
    ) -> Result<AdaptiveRuntime> {
        let decision = scheduler.choose(initial_resources).ok_or(Error::NoSatisfiableConfig)?;
        Ok(Self::with_decision(spec, scheduler, window_us, initial_resources, decision))
    }

    /// Build the runtime around an initial `decision` the caller already
    /// holds: everything [`try_configure`](Self::try_configure) does after
    /// its `choose`. `decision` must be what `scheduler.choose(
    /// initial_resources)` returns. A fresh scheduler's decision is a pure
    /// function of `(db, prefs, input, resources)`, so sessions that share
    /// those (a session class, see `visapp::SessionClass`) compute it once
    /// and hand each runtime a clone.
    pub fn with_decision(
        spec: TunableSpec,
        scheduler: ResourceScheduler,
        window_us: u64,
        initial_resources: &ResourceVector,
        decision: Decision,
    ) -> AdaptiveRuntime {
        let watched = spec.tasks.monitored_resources(&decision.config);
        let watched =
            if watched.is_empty() { initial_resources.keys().cloned().collect() } else { watched };
        let mut monitor = MonitoringAgent::new(watched, window_us);
        monitor.set_validity(decision.validity.clone());
        let mut rt = AdaptiveRuntime {
            spec,
            monitor,
            scheduler,
            steering: SteeringAgent::new(decision.config.clone()),
            events: Vec::new(),
            max_negotiations: 4,
            recovery_probe_gap_us: 500_000,
            degraded: false,
            last_probe: None,
            last_defer_until: None,
            obs_ctx: None,
        };
        rt.push_event(AdaptationEvent::Decided {
            at: SimTime::ZERO,
            config: decision.config,
            predicted: decision.predicted,
            rank: decision.preference_rank,
            pref_version: decision.pref_version,
            db_version: decision.db_version,
        });
        rt
    }

    /// Publish all adaptation telemetry into `obs`: every
    /// [`AdaptationEvent`] as a structured bus event (those raised before
    /// attachment are published now; the runtime keeps no copy afterwards),
    /// tick counts on the `"monitor.ticks"` counter, and scheduler/database
    /// decision latencies as histograms.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.scheduler.set_obs(obs);
        for ev in self.events.drain(..) {
            obs.publish(ev.to_obs());
        }
        self.obs_ctx = Some(RuntimeObs {
            obs: obs.clone(),
            ticks: obs.counter("monitor.ticks"),
            tick_span: obs.histogram("runtime.tick"),
        });
    }

    /// Builder form of [`set_obs`](AdaptiveRuntime::set_obs).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.set_obs(obs);
        self
    }

    fn push_event(&mut self, ev: AdaptationEvent) {
        match &self.obs_ctx {
            Some(o) => o.obs.publish(ev.to_obs()),
            None => self.events.push(ev),
        }
    }

    pub fn current(&self) -> &Configuration {
        self.steering.current()
    }

    pub fn history(&self) -> &[(SimTime, Configuration)] {
        self.steering.history()
    }

    /// True while the active configuration is a best-effort fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Oracle accessor: the configuration keys the scheduler may legally
    /// name in a `decide` event — exactly the configurations profiled for
    /// its workload input. Invariant checkers (`adapt-dst`) validate every
    /// decision on the bus against this set.
    pub fn decision_config_keys(&self) -> std::collections::BTreeSet<String> {
        self.scheduler.config_keys()
    }

    /// Oracle accessor: the number of preference levels. Every `decide`
    /// event's `rank` field must be strictly below this.
    pub fn preference_depth(&self) -> usize {
        self.scheduler.preference_depth()
    }

    /// Minimum time between applied switches (anti-oscillation dwell).
    pub fn set_min_dwell(&mut self, us: u64) {
        self.steering.set_min_dwell_us(us);
    }

    pub fn min_dwell(&self) -> u64 {
        self.steering.min_dwell_us()
    }

    /// Register this runtime's live-tunable knobs on a control-plane
    /// registry: `steering.min_dwell_us` (the anti-oscillation dwell) and
    /// `scheduler.prefs` (the user preference list, in the textual
    /// directive grammar). A `Command::Set` dispatched to either takes
    /// effect at the next tick/boundary without pausing the run.
    pub fn register_knobs(&self, registry: &obs::ConfigRegistry) {
        registry.register_knob("steering.min_dwell_us", self.steering.min_dwell_handle());
        registry.register_knob(
            "scheduler.prefs",
            crate::qos::PrefsKnob::new(self.scheduler.prefs_handle()),
        );
    }

    /// Feed one resource observation into the monitoring agent.
    pub fn observe(&mut self, t: SimTime, key: &ResourceKey, value: f64) {
        self.monitor.observe(t, key, value);
    }

    /// Periodic monitor check. When triggered, consults the scheduler and
    /// queues a reconfiguration with the steering agent. Returns the
    /// trigger if one fired.
    pub fn tick(&mut self, t: SimTime) -> Option<Trigger> {
        // The span guard must not borrow `self` (the tick body mutates
        // it), so it closes over a clone of the Obs handle (an `Arc`
        // refcount bump, no allocation).
        let span_obs = self.obs_ctx.as_ref().map(|o| (o.obs.clone(), o.tick_span));
        let _span = span_obs.as_ref().map(|(obs, id)| obs.span(*id));
        if let Some(o) = &self.obs_ctx {
            o.obs.inc(o.ticks, 1);
        }
        if self.degraded {
            self.probe_recovery(t);
        }
        let trigger = self.monitor.check(t)?;
        self.push_event(AdaptationEvent::Triggered { at: t, estimate: trigger.estimate.clone() });
        // A stale trigger's fresh estimate omits (or may entirely lack) the
        // expired resources; decide on the last-known view instead so the
        // scheduler still has a complete vector to price configurations at.
        let estimate =
            if trigger.is_stale() { self.monitor.estimate() } else { trigger.estimate.clone() };
        match self.scheduler.choose(&estimate) {
            Some(d) => {
                if self.degraded {
                    self.degraded = false;
                    self.push_event(AdaptationEvent::Recovered { at: t });
                }
                self.queue_decision(t, d);
            }
            None => {
                self.push_event(AdaptationEvent::NoCandidate { at: t });
                // Best-effort fallback chain: run the least-violating
                // configuration rather than freezing on one whose validity
                // region is already violated, and keep probing for
                // recovery (the fallback's validity is unbounded, so the
                // monitor alone would never re-trigger).
                if let Some(d) = self.scheduler.choose_least_violating(&estimate, &[]) {
                    if !self.degraded {
                        self.push_event(AdaptationEvent::Degraded {
                            at: t,
                            config: d.config.clone(),
                        });
                    }
                    self.degraded = true;
                    self.last_probe = Some(t);
                    self.queue_decision(t, d);
                }
            }
        }
        Some(trigger)
    }

    /// While degraded, periodically re-consult the scheduler with the
    /// freshest estimate; on success queue the satisfying configuration.
    fn probe_recovery(&mut self, t: SimTime) {
        let due = match self.last_probe {
            None => true,
            Some(p) => t.since(p) >= self.recovery_probe_gap_us,
        };
        if !due {
            return;
        }
        self.last_probe = Some(t);
        let estimate = self.monitor.estimate_at(t);
        if estimate.is_empty() {
            return;
        }
        if let Some(d) = self.scheduler.choose(&estimate) {
            self.degraded = false;
            self.push_event(AdaptationEvent::Recovered { at: t });
            self.queue_decision(t, d);
        }
    }

    fn queue_decision(&mut self, t: SimTime, d: Decision) {
        let same = &d.config == self.steering.current();
        self.push_event(AdaptationEvent::Decided {
            at: t,
            config: d.config.clone(),
            predicted: d.predicted,
            rank: d.preference_rank,
            pref_version: d.pref_version,
            db_version: d.db_version,
        });
        if same {
            // Same choice under the new conditions: refresh the validity
            // region so the monitor stops re-triggering on it.
            self.monitor.set_validity(d.validity);
            return;
        }
        self.steering.request(ReconfigureRequest { config: d.config, validity: d.validity });
    }

    /// Task-boundary hook. Applies a pending switch (with guard
    /// negotiation, up to `max_negotiations` alternatives) and returns the
    /// switch event whose `actions` the application must execute.
    pub fn at_boundary(&mut self, t: SimTime) -> Option<SwitchEvent> {
        let mut excluded: Vec<Configuration> = Vec::new();
        for _ in 0..=self.max_negotiations {
            match self.steering.at_boundary(t, &self.spec) {
                BoundaryOutcome::NoChange => return None,
                BoundaryOutcome::Deferred { until } => {
                    // One audit record per dwell window, not per boundary.
                    if self.last_defer_until != Some(until) {
                        self.last_defer_until = Some(until);
                        self.push_event(AdaptationEvent::Deferred { at: t, until });
                    }
                    return None;
                }
                BoundaryOutcome::Switched(ev) => {
                    self.monitor.set_validity(ev.validity.clone());
                    let watched = self.spec.tasks.monitored_resources(&ev.new);
                    if !watched.is_empty() {
                        self.monitor.set_watched(watched);
                    }
                    self.push_event(AdaptationEvent::Switched {
                        at: t,
                        old: ev.old.clone(),
                        new: ev.new.clone(),
                    });
                    return Some(ev);
                }
                BoundaryOutcome::Rejected { config, reason } => {
                    self.push_event(AdaptationEvent::Nak { at: t, config: config.clone(), reason });
                    excluded.push(config);
                    // Negotiate: ask the scheduler for the next best
                    // candidate under the latest estimate.
                    let estimate = self.monitor.estimate();
                    match self.scheduler.choose_excluding(&estimate, &excluded) {
                        Some(d) if &d.config != self.steering.current() => {
                            self.push_event(AdaptationEvent::Decided {
                                at: t,
                                config: d.config.clone(),
                                predicted: d.predicted,
                                rank: d.preference_rank,
                                pref_version: d.pref_version,
                                db_version: d.db_version,
                            });
                            self.steering.request(ReconfigureRequest {
                                config: d.config,
                                validity: d.validity,
                            });
                        }
                        _ => return None,
                    }
                }
            }
        }
        None
    }

    /// Number of completed switches (excluding the initial configuration).
    pub fn switch_count(&self) -> usize {
        self.steering.history().len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::env::ResourceKey;
    use crate::perfdb::{PerfDb, PerfRecord};
    use crate::qos::{Objective, Preference, PreferenceList};

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn net() -> ResourceKey {
        ResourceKey::net("client")
    }

    /// Figure-6(a)-shaped database over the real active-viz control space:
    /// transmit time depends on c and net/cpu; dR and l held at defaults
    /// contribute mildly so the space stays 12 configurations.
    fn db() -> PerfDb {
        let mut db = PerfDb::new();
        let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
        for config in spec.configurations() {
            let c = config.expect("c");
            let l = config.expect("l") as f64;
            let dr = config.expect("dR") as f64;
            for &cpu_v in &[0.25, 0.5, 1.0] {
                for &net_v in &[50_000.0, 500_000.0, 1_000_000.0] {
                    let data = 1e6 * (l - 2.0); // more resolution, more bytes
                    let t = if c == 1 {
                        data / net_v + 5.0 * (l - 2.0) / cpu_v
                    } else {
                        0.2 * data / net_v + 15.0 * (l - 2.0) / cpu_v
                    } + 100.0 / dr;
                    db.add(PerfRecord {
                        config: config.clone(),
                        resources: ResourceVector::new(&[(cpu(), cpu_v), (net(), net_v)]),
                        input: "img".into(),
                        metrics: QosReport::new(&[
                            ("transmit_time", t),
                            ("response_time", dr / 320.0 / cpu_v),
                            ("resolution", l),
                        ]),
                    });
                }
            }
        }
        db
    }

    fn runtime() -> AdaptiveRuntime {
        let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
        let prefs =
            PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));
        let sched = ResourceScheduler::new(db(), prefs, "img");
        let start = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        AdaptiveRuntime::try_configure(spec, sched, 1_000_000, &start).unwrap()
    }

    #[test]
    fn initial_configuration_is_lzw_low_resolution() {
        let rt = runtime();
        // Minimizing transmit time with no constraints: l=3 (less data),
        // lzw (fast at 1 MB/s), dR=320 (fewer rounds).
        assert_eq!(rt.current().get("c"), Some(1));
        assert_eq!(rt.current().get("l"), Some(3));
        assert_eq!(rt.current().get("dR"), Some(320));
        assert!(rt.monitor.watched().contains(&cpu()));
        assert!(rt.monitor.watched().contains(&net()));
    }

    #[test]
    fn bandwidth_drop_triggers_switch_to_bzip() {
        let mut rt = runtime();
        let t0 = SimTime::from_secs(1);
        // Steady state: observations match the initial conditions.
        for i in 0..50 {
            rt.observe(t0 + i * 10_000, &cpu(), 1.0);
            rt.observe(t0 + i * 10_000, &net(), 1_000_000.0);
        }
        assert!(rt.tick(SimTime::from_secs(2)).is_none(), "no trigger in range");
        assert!(rt.at_boundary(SimTime::from_secs(2)).is_none());
        // Bandwidth collapses to 50 KB/s.
        let t1 = SimTime::from_secs(25);
        for i in 0..200 {
            rt.observe(t1 + i * 10_000, &cpu(), 1.0);
            rt.observe(t1 + i * 10_000, &net(), 50_000.0);
        }
        let trig = rt.tick(SimTime::from_secs(28));
        assert!(trig.is_some(), "violation must trigger");
        let ev = rt.at_boundary(SimTime::from_secs(28)).expect("switch at boundary");
        assert_eq!(ev.new.get("c"), Some(2), "switches to bzip at low bandwidth");
        // The transition body says to notify the server.
        assert_eq!(ev.actions.len(), 1);
        assert_eq!(rt.switch_count(), 1);
    }

    #[test]
    fn stable_resources_cause_no_switches() {
        let mut rt = runtime();
        for s in 1..30 {
            let t = SimTime::from_secs(s);
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), 1_000_000.0);
            rt.tick(t);
            rt.at_boundary(t);
        }
        assert_eq!(rt.switch_count(), 0);
    }

    #[test]
    fn same_choice_refreshes_validity_without_switch() {
        let mut rt = runtime();
        // Small bandwidth wiggle that still keeps lzw optimal but crosses
        // the sampled validity boundary estimate: 400 KB/s.
        for i in 0..200 {
            rt.observe(SimTime::from_secs(10) + i * 10_000, &cpu(), 1.0);
            rt.observe(SimTime::from_secs(10) + i * 10_000, &net(), 400_000.0);
        }
        rt.tick(SimTime::from_secs(13));
        let before = rt.switch_count();
        rt.at_boundary(SimTime::from_secs(13));
        assert_eq!(rt.switch_count(), before, "lzw remains optimal at 400 KB/s");
        assert_eq!(rt.current().get("c"), Some(1));
    }

    #[test]
    fn dwell_limits_reconfigurations_under_flapping() {
        let mut rt = runtime();
        rt.set_min_dwell(5_000_000);
        // Bandwidth flaps between 1 MB/s and 50 KB/s every 2 s for 20 s —
        // slow enough for the 1 s window mean to settle at each level, so
        // without the dwell guard every flap would re-trigger a switch.
        for i in 0..2000u64 {
            let t = SimTime::from_ms(10 * i);
            let low_phase = (i / 200) % 2 == 1;
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), if low_phase { 50_000.0 } else { 1_000_000.0 });
            rt.tick(t);
            rt.at_boundary(t);
        }
        let windows = 20_000_000u64.div_ceil(rt.min_dwell()) as usize;
        assert!(
            rt.switch_count() <= windows + 1,
            "flapping caused {} switches, more than one per {}-us dwell window",
            rt.switch_count(),
            rt.min_dwell()
        );
        assert!(rt.switch_count() >= 2, "adaptation must still happen across dwell windows");
    }

    #[test]
    fn event_log_records_the_story() {
        let obs = Obs::new();
        // Attached *after* try_configure: the initial Decided event must be
        // backfilled onto the bus.
        let mut rt = runtime().with_obs(&obs);
        for i in 0..200 {
            rt.observe(SimTime::from_secs(25) + i * 10_000, &cpu(), 1.0);
            rt.observe(SimTime::from_secs(25) + i * 10_000, &net(), 50_000.0);
        }
        rt.tick(SimTime::from_secs(28));
        rt.at_boundary(SimTime::from_secs(28));
        let kinds: Vec<&'static str> = obs.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["decide", "trigger", "decide", "switch"]);
        assert!(rt.events.is_empty(), "the bus is the only copy once attached");
        // Never-mutated preferences: no decide event carries a
        // pref_version field, so legacy event streams stay byte-identical.
        for ev in obs.events_filtered(&obs::EventFilter::decisions()) {
            assert_eq!(ev.u64_field("pref_version"), None);
        }
    }

    #[test]
    fn live_preference_flip_changes_the_next_decision() {
        use crate::qos::Constraint;
        let obs = Obs::new();
        let mut rt = runtime().with_obs(&obs);
        // Transmit-time minimization picks low resolution (l=3).
        assert_eq!(rt.current().get("l"), Some(3));

        // Mid-run, the control plane rewrites the preference list through
        // the registered knob: now maximize resolution (bounded transmit
        // time), as an operator would via `Command::Set`.
        let registry = obs::ConfigRegistry::new();
        rt.register_knobs(&registry);
        let (_old, version) = registry
            .set(
                "scheduler.prefs",
                obs::ConfigValue::Str(
                    "transmit_time<=60,maximize:resolution then minimize:transmit_time".into(),
                ),
            )
            .unwrap();
        assert_eq!(version, 1);

        // Nudge conditions so the monitor re-triggers, then let the
        // runtime decide under the flipped preferences.
        for i in 0..200 {
            rt.observe(SimTime::from_secs(25) + i * 10_000, &cpu(), 1.0);
            rt.observe(SimTime::from_secs(25) + i * 10_000, &net(), 50_000.0);
        }
        rt.tick(SimTime::from_secs(28));
        rt.at_boundary(SimTime::from_secs(28));
        assert_eq!(rt.current().get("l"), Some(4), "flip re-ranked resolution above speed");
        // The post-flip decide event is version-stamped for correlation
        // with the control plane's config_set audit record.
        let decides = obs.events_filtered(&obs::EventFilter::decisions());
        assert_eq!(decides.last().unwrap().u64_field("pref_version"), Some(1));
        // Sanity: the directive grammar expressed a real constraint.
        assert_eq!(
            rt.scheduler.prefs().prefs[0].constraints,
            vec![Constraint::at_most("transmit_time", 60.0)]
        );
    }

    #[test]
    fn dwell_deferral_is_audited_once_per_window() {
        let obs = Obs::new();
        let mut rt = runtime().with_obs(&obs);
        rt.set_min_dwell(5_000_000);
        // First switch: bandwidth collapse.
        for i in 0..200 {
            rt.observe(SimTime::from_secs(2) + i * 10_000, &cpu(), 1.0);
            rt.observe(SimTime::from_secs(2) + i * 10_000, &net(), 50_000.0);
        }
        rt.tick(SimTime::from_secs(5));
        assert!(rt.at_boundary(SimTime::from_secs(5)).is_some());
        // Flap back immediately: the queued switch is dwell-deferred.
        for i in 0..200 {
            rt.observe(SimTime::from_secs(5) + i * 10_000, &cpu(), 1.0);
            rt.observe(SimTime::from_secs(5) + i * 10_000, &net(), 1_000_000.0);
        }
        rt.tick(SimTime::from_secs(7));
        assert!(rt.at_boundary(SimTime::from_secs(7)).is_none());
        assert!(rt.at_boundary(SimTime::from_ms(7_100)).is_none());
        let defers = obs.events_filtered(&obs::EventFilter::any().kind("defer"));
        assert_eq!(defers.len(), 1, "one audit record per dwell window");
        assert_eq!(defers[0].u64_field("until_us"), Some(10_000_000));
        // Past the dwell the deferred switch applies.
        assert!(rt.at_boundary(SimTime::from_secs(11)).is_some());
    }

    #[test]
    fn ticks_counter_tracks_monitor_cadence() {
        let obs = Obs::new();
        let mut rt = runtime().with_obs(&obs);
        for s in 1..=10 {
            let t = SimTime::from_secs(s);
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), 1_000_000.0);
            rt.tick(t);
        }
        let ticks = obs.lookup("monitor.ticks").expect("counter registered by set_obs");
        assert_eq!(obs.counter_value(ticks), 10);
    }
}

#[cfg(test)]
mod negotiation_tests {
    use super::*;
    use crate::dsl;
    use crate::env::ResourceKey;
    use crate::perfdb::{PerfDb, PerfRecord};
    use crate::qos::{Objective, Preference, PreferenceList, QosReport};
    use crate::task::Guard;

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn net() -> ResourceKey {
        ResourceKey::net("client")
    }

    /// Database where, at low bandwidth, bzip-with-big-fovea is best,
    /// bzip-with-medium-fovea second, and lzw configurations trail.
    fn db() -> PerfDb {
        let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
        let mut db = PerfDb::new();
        for config in spec.configurations() {
            let c = config.expect("c");
            let dr = config.expect("dR") as f64;
            let l = config.expect("l") as f64;
            for &net_v in &[50_000.0, 1_000_000.0] {
                let bytes = 1e6 * (l - 2.0) * if c == 2 { 0.4 } else { 1.0 };
                let t = bytes / net_v + if c == 2 { 8.0 } else { 1.0 } + 100.0 / dr;
                db.add(PerfRecord {
                    config: config.clone(),
                    resources: ResourceVector::new(&[(cpu(), 1.0), (net(), net_v)]),
                    input: "img".into(),
                    metrics: QosReport::new(&[("transmit_time", t), ("resolution", l)]),
                });
            }
        }
        db
    }

    #[test]
    fn guard_nak_negotiates_to_the_next_best_configuration() {
        // A transition guard forbids switching into bzip (c == 2): the
        // steering agent NAKs the scheduler's first choice and the runtime
        // must fall back to the best *reachable* configuration.
        let mut spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
        spec.transitions[0].guard = Guard::Eq("c".into(), 1);
        let prefs =
            PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")));
        let sched = ResourceScheduler::new(db(), prefs, "img");
        let start = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let obs = Obs::new();
        let mut rt =
            AdaptiveRuntime::try_configure(spec, sched, 1_000_000, &start).unwrap().with_obs(&obs);
        assert_eq!(rt.current().get("c"), Some(1), "starts with lzw at high bandwidth");

        // Bandwidth collapses: the raw optimum is a bzip configuration,
        // but the guard blocks it.
        for i in 0..300 {
            let t = SimTime::from_ms(10 * i);
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), 50_000.0);
        }
        rt.tick(SimTime::from_secs(3)).expect("trigger");
        let switched = rt.at_boundary(SimTime::from_secs(3));
        let naks = obs.events().iter().filter(|e| e.kind == "nak").count();
        assert!(naks >= 1, "the guard must have rejected at least one proposal");
        match switched {
            Some(ev) => {
                assert_eq!(ev.new.get("c"), Some(1), "negotiated config respects the guard");
                assert_ne!(&ev.new, &ev.old, "still switched to a better lzw variant");
            }
            None => {
                // Acceptable alternative: every better candidate was a
                // guarded bzip config, so the current one is kept.
                assert_eq!(rt.current().get("c"), Some(1));
            }
        }
        // Either way: the active configuration never violates the guard.
        assert_eq!(rt.current().get("c"), Some(1));
    }

    #[test]
    fn no_candidate_degrades_to_least_violating_and_recovers() {
        let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
        // Impossible constraint at low bandwidth; satisfiable at high.
        let prefs = PreferenceList::single(Preference::new(
            vec![crate::qos::Constraint::at_most("transmit_time", 3.0)],
            Objective::maximize("resolution"),
        ));
        let sched = ResourceScheduler::new(db(), prefs, "img");
        let start = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let obs = Obs::new();
        let mut rt =
            AdaptiveRuntime::try_configure(spec, sched, 1_000_000, &start).unwrap().with_obs(&obs);
        for i in 0..300 {
            let t = SimTime::from_ms(10 * i);
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), 50_000.0);
        }
        rt.tick(SimTime::from_secs(3));
        rt.at_boundary(SimTime::from_secs(3));
        assert!(obs.events().iter().any(|e| e.kind == "no_candidate"));
        assert!(obs.events().iter().any(|e| e.kind == "degrade"));
        assert!(rt.is_degraded(), "runs the least-violating fallback");
        // Bandwidth recovers: a recovery probe finds a satisfying choice
        // and the runtime leaves degraded mode at the next boundary.
        for i in 0..300 {
            let t = SimTime::from_secs(4) + 10_000 * i;
            rt.observe(t, &cpu(), 1.0);
            rt.observe(t, &net(), 1_000_000.0);
        }
        rt.tick(SimTime::from_secs(7));
        rt.at_boundary(SimTime::from_secs(7));
        assert!(!rt.is_degraded(), "left degraded mode after recovery");
        assert!(obs.events().iter().any(|e| e.kind == "recover"));
    }
}
