//! Scenario-to-trial adapter: run one sampled [`TrialPlan`] through the
//! full adaptive application and evaluate every oracle on the outcome.
//!
//! The expensive inputs — image store, profiled performance database,
//! preference list — depend only on the base geometry, not on the plan,
//! so one [`TrialContext`] is built per explorer run and shared by every
//! trial (the database behind one `Arc`).

use std::collections::BTreeSet;
use std::sync::Arc;

use adapt_core::{Constraint, Objective, PerfDb, Preference, PreferenceList, RefineEngine};
use arbiter::{AppState, StormOpts};
use sandbox::{LimitSchedule, Limits};
use simnet::det::Fnv64;
use simnet::{DrainMode, ExplorePlan, SimTime};
use visapp::{
    build_db, model_db, run_session, BreakerOpts, Driver, ImageStore, RunOutcome, Scenario,
    PROFILE_INPUT,
};

use crate::oracle::{self, DecisionContext, Violation};
use crate::space::TrialPlan;

/// Wall-clock bound on one trial, simulation seconds. Crash-without-
/// restart trials never drain on their own (breaker probes re-arm
/// forever), so every trial runs under a horizon.
pub const TRIAL_HORIZON_SECS: u64 = 60;

/// Entries in the knob-mutation command menu ([`knob_commands`]).
pub const KNOB_MENU_LEN: u64 = 7;

/// One-way link latency planted on `--cfg dst_drift` builds for
/// drift-armed plans (`drift_threshold_x1000 > 0`), microseconds: the
/// live path silently balloons from the 100us the performance database
/// was profiled at to 75ms. Latency is invisible to the resource vector
/// (which carries CPU/net-rate/memory), so the scheduler keeps querying
/// the database at the nominal operating point and predictions stay
/// stale — a genuine *model* drift, which the refine engine must catch.
/// On normal builds the same plans run unplanted and must replay clean.
pub const DRIFT_LATENCY_US: u64 = 75_000;

/// Consecutive over-threshold residual samples before a drift-armed
/// trial's refine engine alarms. Fixed (not a plan axis) so detection
/// latency is a property of the engine, not of the sample.
pub const DRIFT_MIN_STREAK: u64 = 3;

/// Decode a plan's knob triples `(at_ms, kind, magnitude_pct)` into the
/// operator-command schedule the trial scenario dispatches. The menu
/// covers every control surface the single-app trial registers —
/// steering dwell, scheduler preferences, retry backoff, breaker
/// thresholds, a breaker reset — plus one deliberately-unknown key whose
/// rejection must still be audited. `kind` is taken modulo the menu
/// length and every magnitude maps into the knob's accepted range, so
/// any integer triple decodes to a command the registry admits (only the
/// unknown-key entry is refused, by design).
pub fn knob_commands(plan: &TrialPlan) -> Vec<visapp::CommandAt> {
    use obs::Command;
    plan.knobs
        .iter()
        .map(|&(at_ms, kind, mag)| {
            let mag = mag.min(100);
            let cmd = match kind % KNOB_MENU_LEN {
                // Steering dwell: 0..=1s. Zero disables the dwell floor.
                0 => Command::set("steering.min_dwell_us", mag * 10_000),
                // Preference flip; both shapes keep an unconstrained
                // objective reachable so the scheduler always decides
                // within the preference depth the oracle allows.
                1 => Command::set(
                    "scheduler.prefs",
                    if mag < 50 {
                        "minimize:transmit_time"
                    } else {
                        "resolution>=3,minimize:transmit_time then minimize:transmit_time"
                    },
                ),
                // Retry multiplier: 1.0..=4.0 (the knob rejects < 1).
                2 => Command::set("client.retry.multiplier", 1.0 + mag as f64 * 0.03),
                // Breaker trip threshold: 1..=11 consecutive failures.
                3 => Command::set("client.breaker.failure_threshold", 1 + mag / 10),
                // Breaker recovery window: 10ms..=1.01s.
                4 => Command::set("client.breaker.recovery_timeout_us", (mag + 1) * 10_000),
                5 => Command::ResetBreaker { key: "client.breaker".into() },
                // Unknown key: must be refused and audited, never panic.
                _ => Command::set("no.such.knob", mag),
            };
            (at_ms.max(1) * 1_000, "dst".to_string(), cmd)
        })
        .collect()
}

/// Everything a trial run produced that the explorer cares about.
#[derive(Debug, Clone)]
pub struct TrialOutcome {
    /// Order-sensitive digest of the observable behaviour (events, stats,
    /// end time). Equal digests mean indistinguishable runs.
    pub digest: u64,
    /// First violation of each oracle kind, in oracle order.
    pub violations: Vec<Violation>,
    /// Images the client completed before the horizon.
    pub images_done: u64,
    /// Rounds the client applied.
    pub rounds: u64,
    /// Simulation end time, microseconds.
    pub end_us: u64,
}

/// Applications per overload-axis storm trial.
const STORM_APPS: usize = 16;

/// Cluster hosts per overload-axis storm trial.
const STORM_HOSTS: usize = 2;

/// Shared, plan-independent trial infrastructure.
pub struct TrialContext {
    base: Scenario,
    store: Arc<ImageStore>,
    db: Arc<PerfDb>,
    prefs: PreferenceList,
    decisions: DecisionContext,
    /// Shared pricing database for overload-axis storm trials (analytic
    /// model over the storm's link geometry; plan-independent).
    storm_db: Arc<PerfDb>,
}

impl TrialContext {
    /// Build the shared context: generate the store and profile the
    /// performance database once (single-threaded so record order — and
    /// therefore scheduler tie-breaks — never depends on thread timing).
    pub fn new() -> Self {
        let base = Scenario {
            n_images: 4,
            img_size: 64,
            levels: 3,
            monitor_window_us: 500_000,
            trigger_gap_us: 200_000,
            request_timeout_us: Some(250_000),
            breaker: Some(BreakerOpts {
                failure_threshold: 3,
                recovery_timeout_us: 400_000,
                degraded: None,
            }),
            ..Scenario::default()
        };
        let store = base.build_store();
        let db = Arc::new(build_db(&base, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 1));
        // Minimizing *per-round* response time steers the scheduler toward
        // small fovea increments, so images take several request/reply
        // rounds. Multi-round images are what give late duplicate replies
        // a window to race the dedup guard — with one round per image the
        // image-id check alone would mask a broken round check.
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_least("resolution", 3.0)],
            Objective::minimize("response_time"),
        ))
        .then(Preference::new(vec![], Objective::minimize("response_time")));
        let valid_configs: BTreeSet<String> =
            db.configs(PROFILE_INPUT).iter().map(|c| c.key()).collect();
        let preference_depth = 2;
        let storm_db = Arc::new(model_db(&Self::base_storm_opts(0).load_opts()));
        TrialContext {
            base,
            store,
            db,
            prefs,
            decisions: DecisionContext { valid_configs, preference_depth },
            storm_db,
        }
    }

    /// The fixed storm geometry overload trials run under (the seed is
    /// the only per-plan parameter besides the injected windows).
    fn base_storm_opts(seed: u64) -> StormOpts {
        StormOpts::new(STORM_APPS).with_seed(seed).with_cluster_hosts(STORM_HOSTS)
    }

    /// The decision-validity oracle's context (database keys, preference
    /// depth).
    pub fn decision_context(&self) -> &DecisionContext {
        &self.decisions
    }

    /// The concrete scenario a plan runs under a given drain mode.
    pub fn scenario(&self, plan: &TrialPlan, drain_mode: DrainMode) -> Scenario {
        #[allow(unused_mut)]
        let mut sc = Scenario {
            n_images: plan.n_images as usize,
            request_timeout_us: Some(plan.timeout_ms.max(1) * 1_000),
            fault_plan: plan.fault_plan(),
            drain_mode,
            commands: knob_commands(plan),
            ..self.base.clone()
        };
        // The planted environment change: only live runs see the latency
        // spike — the profiled database (built in `new`) keeps modelling
        // the nominal path, which is exactly the mismatch the refine
        // engine exists to catch.
        #[cfg(dst_drift)]
        if plan.drift_threshold_x1000 > 0 {
            sc.link_latency_us += DRIFT_LATENCY_US;
        }
        sc
    }

    /// Run one trial under the plan's own explore drain mode.
    pub fn run(&self, plan: &TrialPlan) -> TrialOutcome {
        let explore = DrainMode::Explore(
            ExplorePlan::new(plan.schedule_seed).with_timer_skew_us(plan.timer_skew_us),
        );
        self.run_with_drain(plan, explore)
    }

    /// Run one trial under an explicit drain mode (the cross-drain oracle
    /// replays the same plan under `Heap` and `Batched` and compares
    /// digests). Plans carrying overload windows run the multi-app
    /// arbiter storm; everything else runs the single-app scenario.
    pub fn run_with_drain(&self, plan: &TrialPlan, drain_mode: DrainMode) -> TrialOutcome {
        if plan.has_overload() {
            return self.run_storm_trial(plan, drain_mode);
        }
        let sc = self.scenario(plan, drain_mode);
        // Bandwidth collapses mid-run and later recovers: the adaptation
        // loop must react (decisions, switches), and the collapse itself
        // delays replies past the request timeout, racing retransmissions
        // against late originals — exactly the schedule the dedup guard
        // exists for.
        let schedule = LimitSchedule::new()
            .at(SimTime::from_secs(1), Limits::cpu(0.05).with_net(2_000.0))
            .at(SimTime::from_secs(3), Limits::cpu(0.05).with_net(60_000.0));
        let out = run_session(
            &sc,
            &self.store,
            Driver::Adaptive(self.db.clone(), self.prefs.clone()),
            Limits::cpu(0.05).with_net(60_000.0),
            Some(schedule),
            Some(SimTime::from_secs(TRIAL_HORIZON_SECS)),
            None,
        );
        let digest = digest_outcome(&out);
        // Drift-armed plans fold the run through the refine engine
        // *before* the oracles so its `refine.drift` audit events land on
        // the bus the `model_drift` oracle reads. Detection only: the
        // trial never re-profiles, it just witnesses the alarm.
        if plan.drift_threshold_x1000 > 0 {
            let mut engine = RefineEngine::new(obs::Adaptive::new(self.db.clone()), PROFILE_INPUT);
            engine.set_threshold(plan.drift_threshold_x1000 as f64 / 1000.0);
            engine.set_min_streak(DRIFT_MIN_STREAK);
            engine.set_obs(&out.obs);
            engine.ingest_run(&out.obs);
        }
        let violations = oracle::check_all(&out.obs, &self.decisions);
        TrialOutcome {
            digest,
            violations,
            images_done: out.stats.images.len() as u64,
            rounds: out.stats.rounds.len() as u64,
            end_us: out.end.as_us(),
        }
    }

    /// Run one overload-axis trial: a saturating multi-application storm
    /// with the plan's arrival surges and capacity dips, checked by the
    /// arbiter oracles (tier-ordered shedding, no clean evictions).
    fn run_storm_trial(&self, plan: &TrialPlan, drain_mode: DrainMode) -> TrialOutcome {
        let opts = Self::base_storm_opts(plan.trial_seed)
            .with_surges(
                plan.surges
                    .iter()
                    .map(|&(s, e, fx10)| (s * 1_000, (e - s) * 1_000, fx10 as f64 / 10.0))
                    .collect(),
            )
            .with_dips(
                plan.dips
                    .iter()
                    .map(|&(s, e, pct)| (s * 1_000, (e - s) * 1_000, pct as f64 / 100.0))
                    .collect(),
            )
            .with_drain_mode(drain_mode);
        let report = arbiter::run_storm(&opts, &self.storm_db);
        TrialOutcome {
            digest: report.digest(),
            violations: oracle::check_arbiter(&report.obs),
            images_done: report.count(AppState::Done) as u64,
            rounds: report.events_handled,
            end_us: report.end.as_us(),
        }
    }
}

impl Default for TrialContext {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a 64 over the integer-observable behaviour of a run: applied
/// rounds, image completions, configuration history, resilience counters
/// and the end time. Floats are deliberately excluded so the digest is
/// exact.
pub fn digest_outcome(out: &RunOutcome) -> u64 {
    let mut h = Fnv64::new();
    let rounds = obs::EventFilter::any().source(obs::Source::App).kind("round");
    for ev in out.obs.events_filtered(&rounds) {
        h.write_u64(ev.at_us);
        h.write_u64(ev.u64_field("image").unwrap_or(u64::MAX));
        h.write_u64(ev.u64_field("round").unwrap_or(u64::MAX));
        h.write_u64(ev.u64_field("wire_round").unwrap_or(u64::MAX));
    }
    for img in &out.stats.images {
        h.write_u64(img.finished.as_us());
        h.write_u64(img.image_id as u64);
        h.write_u64(img.rounds as u64);
    }
    for (t, cfg) in &out.stats.config_history {
        h.write_u64(t.as_us());
        h.write_str(&cfg.key());
    }
    h.write_u64(out.stats.retries);
    h.write_u64(out.stats.timeouts);
    h.write_u64(out.stats.breaker_opens);
    h.write_u64(out.stats.breaker_closes);
    h.write_u64(out.stats.dup_replies_dropped);
    h.write_u64(out.end.as_us());
    h.finish()
}
