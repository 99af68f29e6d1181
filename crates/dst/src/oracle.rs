//! Invariant oracles evaluated over the observability bus.
//!
//! Each oracle reads one slice of the event stream a finished trial left
//! on its [`obs::Obs`] bus and returns the first violation it finds.
//! Oracles are pure functions of the bus (plus static context for
//! decision validity), so they run identically on a live trial and on a
//! replayed repro.

use std::collections::{BTreeSet, HashSet};
use std::fmt;

use obs::{EventFilter, Obs};

/// One invariant violation. `kind()` is the stable machine name used by
/// the shrinker (a candidate counts as "still failing" only if the same
/// kind reappears) and by repro files.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The same wire reply was applied more than once
    /// (`(image, wire_round)` repeated in the App `round` stream).
    DuplicateApply { image: u64, wire_round: u64 },
    /// The circuit-breaker event stream is illegal: a close without a
    /// matching earlier open.
    BreakerIllegal { at_us: u64, opens: u64, closes: u64 },
    /// Steering degrade/recover events out of order (recover first, or
    /// two of the same in a row).
    DegradeOrder { at_us: u64, kind_seen: String },
    /// The scheduler decided on a configuration outside the performance
    /// database, or at a preference rank deeper than the list.
    InvalidDecision { at_us: u64, config: String, rank: u64 },
    /// Overload shedding took a victim from a tier more important than
    /// the least-important tier still running — shedding must drain the
    /// lowest-priority (numerically highest) occupied tier first.
    ShedOrder { at_us: u64, app: u64, tier: u64, running_tier: u64 },
    /// The arbiter evicted an app that was never flagged for a contract
    /// violation — eviction is the end of the policing ladder, never a
    /// first resort.
    EvictWithoutViolation { at_us: u64, app: u64 },
    /// The control plane's audit trail is incomplete or malformed: an
    /// audit event is missing a required field, a per-key config version
    /// failed to increase, or a decision was stamped with a preference
    /// version no audited mutation ever produced.
    ConfigAuditIncomplete { at_us: u64, detail: String },
    /// The refine engine raised a sustained-drift alarm: measured QoS
    /// drifted past the threshold away from the performance database's
    /// predictions for a configuration slice. On a correct build with an
    /// honest profile this never happens; the `dst_drift` canary plants
    /// the live latency spike that makes it fire.
    ModelDrift { at_us: u64, config: String, residual_x1000: u64 },
}

impl Violation {
    /// Stable machine-readable name of the violated invariant.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::DuplicateApply { .. } => "duplicate_apply",
            Violation::BreakerIllegal { .. } => "breaker_illegal",
            Violation::DegradeOrder { .. } => "degrade_order",
            Violation::InvalidDecision { .. } => "invalid_decision",
            Violation::ShedOrder { .. } => "shed_order",
            Violation::EvictWithoutViolation { .. } => "evict_without_violation",
            Violation::ConfigAuditIncomplete { .. } => "config_audit_incomplete",
            Violation::ModelDrift { .. } => "model_drift",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateApply { image, wire_round } => {
                write!(f, "duplicate_apply: image {image} wire round {wire_round} applied twice")
            }
            Violation::BreakerIllegal { at_us, opens, closes } => write!(
                f,
                "breaker_illegal: close at t={at_us}us with {opens} opens / {closes} closes"
            ),
            Violation::DegradeOrder { at_us, kind_seen } => {
                write!(f, "degrade_order: unexpected '{kind_seen}' at t={at_us}us")
            }
            Violation::InvalidDecision { at_us, config, rank } => {
                write!(f, "invalid_decision: config '{config}' rank {rank} at t={at_us}us")
            }
            Violation::ShedOrder { at_us, app, tier, running_tier } => write!(
                f,
                "shed_order: app {app} (tier {tier}) shed at t={at_us}us while tier \
                 {running_tier} was still running"
            ),
            Violation::EvictWithoutViolation { at_us, app } => {
                write!(f, "evict_without_violation: app {app} evicted at t={at_us}us clean")
            }
            Violation::ConfigAuditIncomplete { at_us, detail } => {
                write!(f, "config_audit_incomplete: {detail} at t={at_us}us")
            }
            Violation::ModelDrift { at_us, config, residual_x1000 } => write!(
                f,
                "model_drift: config '{config}' residual {residual_x1000}/1000 at t={at_us}us"
            ),
        }
    }
}

/// Static context the decision-validity oracle needs: what the
/// performance database and preference list actually contain.
#[derive(Debug, Clone)]
pub struct DecisionContext {
    /// `Configuration::key()` of every configuration in the database.
    pub valid_configs: BTreeSet<String>,
    /// Length of the preference list (valid ranks are `0..depth`).
    pub preference_depth: u64,
}

/// No reply is ever *applied* twice: each `(image, wire_round)` pair
/// appears at most once in the App `round` event stream. A re-applied
/// duplicate repeats the pair even though the client's sequential round
/// counter keeps incrementing.
pub(crate) fn no_duplicate_apply(obs: &Obs) -> Option<Violation> {
    let filter = EventFilter::any().source(obs::Source::App).kind("round");
    let mut seen = HashSet::new();
    for ev in obs.events_filtered(&filter) {
        let image = ev.u64_field("image")?;
        let wire_round = ev.u64_field("wire_round")?;
        if !seen.insert((image, wire_round)) {
            return Some(Violation::DuplicateApply { image, wire_round });
        }
    }
    None
}

/// The circuit-breaker event stream is prefix-legal: at every prefix,
/// closes never exceed opens. Consecutive opens are legal (a failed
/// half-open probe re-opens without an intervening close); a close with
/// no outstanding open is not.
pub(crate) fn breaker_legal(obs: &Obs) -> Option<Violation> {
    let filter =
        EventFilter::any().source(obs::Source::App).kind("breaker_open").kind("breaker_close");
    let (mut opens, mut closes) = (0u64, 0u64);
    for ev in obs.events_filtered(&filter) {
        match ev.kind {
            "breaker_open" => opens += 1,
            "breaker_close" => {
                closes += 1;
                if closes > opens {
                    return Some(Violation::BreakerIllegal { at_us: ev.at_us, opens, closes });
                }
            }
            _ => {}
        }
    }
    None
}

/// Steering degrade/recover strictly alternate, starting with degrade:
/// the runtime only recovers from a degraded state and only degrades from
/// a non-degraded one.
pub(crate) fn degrade_recover_order(obs: &Obs) -> Option<Violation> {
    let mut degraded = false;
    for ev in obs.events_filtered(&EventFilter::degrade_recover()) {
        match ev.kind {
            "degrade" if degraded => {
                return Some(Violation::DegradeOrder {
                    at_us: ev.at_us,
                    kind_seen: "degrade".into(),
                })
            }
            "recover" if !degraded => {
                return Some(Violation::DegradeOrder {
                    at_us: ev.at_us,
                    kind_seen: "recover".into(),
                })
            }
            "degrade" => degraded = true,
            "recover" => degraded = false,
            _ => {}
        }
    }
    None
}

/// Every scheduler decision names a configuration the performance
/// database actually holds, at a rank within the preference list.
pub(crate) fn decisions_valid(obs: &Obs, ctx: &DecisionContext) -> Option<Violation> {
    for ev in obs.events_filtered(&EventFilter::decisions()) {
        let config = ev.str_field("config").unwrap_or("<missing>").to_string();
        let rank = ev.u64_field("rank").unwrap_or(u64::MAX);
        if !ctx.valid_configs.contains(&config) || rank >= ctx.preference_depth {
            return Some(Violation::InvalidDecision { at_us: ev.at_us, config, rank });
        }
    }
    None
}

/// Overload shedding drains the least-important occupied tier first:
/// replaying the arbiter event stream (admit/demote/recover grow the
/// running set, done/evict/shed remove from it), every `shed` victim's
/// tier must be >= every tier still running at that instant. Tiers are
/// numeric priority — 0 (gold) is most important and shed last.
pub(crate) fn shed_order_respects_tiers(obs: &Obs) -> Option<Violation> {
    let filter = EventFilter::any().source(obs::Source::Arbiter);
    let mut running: std::collections::BTreeMap<u64, u64> = Default::default();
    for ev in obs.events_filtered(&filter) {
        let app = || ev.u64_field("app");
        match ev.kind {
            "admit" | "demote" | "recover" => {
                if let (Some(app), Some(tier)) = (app(), ev.u64_field("tier")) {
                    running.insert(app, tier);
                }
            }
            "done" | "evict" => {
                if let Some(app) = app() {
                    running.remove(&app);
                }
            }
            "shed" => {
                let app = app()?;
                let tier = ev.u64_field("tier")?;
                let running_tier = running.values().copied().max().unwrap_or(tier);
                if tier < running_tier {
                    return Some(Violation::ShedOrder { at_us: ev.at_us, app, tier, running_tier });
                }
                running.remove(&app);
            }
            _ => {}
        }
    }
    None
}

/// Eviction is the end of the policing ladder: every `evict` event must
/// be preceded by at least one `violation` event for the same app.
pub(crate) fn no_evict_without_violation(obs: &Obs) -> Option<Violation> {
    let filter = EventFilter::any().source(obs::Source::Arbiter);
    let mut flagged = HashSet::new();
    for ev in obs.events_filtered(&filter) {
        match ev.kind {
            "violation" => {
                if let Some(app) = ev.u64_field("app") {
                    flagged.insert(app);
                }
            }
            "evict" => {
                let app = ev.u64_field("app")?;
                if !flagged.contains(&app) {
                    return Some(Violation::EvictWithoutViolation { at_us: ev.at_us, app });
                }
            }
            _ => {}
        }
    }
    None
}

/// The control plane's audit contract holds end to end:
///
/// 1. every `config_set` audit carries `key` and a `version` that
///    strictly increases per key (versions come from the underlying
///    `Adaptive` cell, so a repeat or regression means a lost mutation);
/// 2. every `config_reject` audit names the `key` and a `reason`;
/// 3. every scheduler decision stamped with a non-zero `pref_version`
///    traces back to an *earlier* audited `config_set` of
///    `scheduler.prefs` that produced exactly that version — a decision
///    influenced by an unaudited mutation is the violation this oracle
///    exists to catch.
///
/// On runs with an empty command schedule the stream holds no control
/// events and no version-stamped decisions, so the oracle passes
/// vacuously. Skipped (conservatively) if the event ring overflowed,
/// since an audit may then have been evicted rather than never emitted.
pub(crate) fn config_audit_complete(obs: &Obs) -> Option<Violation> {
    if obs.events_dropped() > 0 {
        return None;
    }
    let mut versions: std::collections::HashMap<String, u64> = Default::default();
    let mut prefs_versions = HashSet::new();
    let bad = |at_us: u64, detail: String| Some(Violation::ConfigAuditIncomplete { at_us, detail });
    // Only the kinds matched below: the kernel's packed events are
    // skipped unbuilt.
    let read = EventFilter::any()
        .source(obs::Source::Control)
        .source(obs::Source::Scheduler)
        .kind("config_set")
        .kind("config_reject")
        .kind("decide");
    for ev in obs.events_filtered(&read) {
        match (ev.source, ev.kind) {
            (obs::Source::Control, "config_set") => {
                let Some(key) = ev.str_field("key") else {
                    return bad(ev.at_us, "config_set audit without a key".into());
                };
                let Some(version) = ev.u64_field("version") else {
                    return bad(ev.at_us, format!("config_set of '{key}' without a version"));
                };
                let last = versions.get(key).copied().unwrap_or(0);
                if version <= last {
                    return bad(
                        ev.at_us,
                        format!("config_set of '{key}' version {version} after {last}"),
                    );
                }
                versions.insert(key.to_string(), version);
                if key == "scheduler.prefs" {
                    prefs_versions.insert(version);
                }
            }
            (obs::Source::Control, "config_reject")
                if ev.str_field("key").is_none() || ev.str_field("reason").is_none() =>
            {
                return bad(ev.at_us, "config_reject audit without key/reason".into());
            }
            (obs::Source::Scheduler, "decide") => {
                if let Some(v) = ev.u64_field("pref_version") {
                    if v > 0 && !prefs_versions.contains(&v) {
                        return bad(
                            ev.at_us,
                            format!("decision under unaudited preference version {v}"),
                        );
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The performance model tracks reality: the refine engine never raises
/// a sustained-drift alarm. Trials arm the engine post-run (see
/// [`crate::trial::TrialContext::run_with_drain`]), so its `refine.drift`
/// audit events sit on the same bus this oracle scans. Trials that never
/// armed refinement publish no refine events and pass vacuously.
pub(crate) fn no_model_drift(obs: &Obs) -> Option<Violation> {
    let filter = EventFilter::any().source(obs::Source::Refine).kind("drift");
    obs.events_filtered(&filter).into_iter().next().map(|ev| Violation::ModelDrift {
        at_us: ev.at_us,
        config: ev.str_field("config").unwrap_or_default().to_string(),
        residual_x1000: ev.u64_field("residual_x1000").unwrap_or(0),
    })
}

/// Run the arbiter-storm oracles, collecting the first violation of each
/// kind. Used by overload trials, whose event stream lives on
/// `Source::Arbiter` rather than the single-app sources.
pub fn check_arbiter(obs: &Obs) -> Vec<Violation> {
    [shed_order_respects_tiers(obs), no_evict_without_violation(obs)]
        .into_iter()
        .flatten()
        .collect()
}

/// Run every bus oracle, collecting the first violation of each kind.
pub(crate) fn check_all(obs: &Obs, ctx: &DecisionContext) -> Vec<Violation> {
    [
        no_duplicate_apply(obs),
        breaker_legal(obs),
        degrade_recover_order(obs),
        decisions_valid(obs, ctx),
        config_audit_complete(obs),
        no_model_drift(obs),
    ]
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{Event, Source};

    fn ctx() -> DecisionContext {
        DecisionContext {
            valid_configs: ["dR=16:c=1:l=3".to_string()].into_iter().collect(),
            preference_depth: 2,
        }
    }

    fn round(obs: &Obs, at: u64, image: u64, wire_round: u64) {
        obs.publish(
            Event::new(at, Source::App, "round")
                .with("image", image)
                .with("round", wire_round)
                .with("wire_round", wire_round),
        );
    }

    #[test]
    fn clean_stream_passes_all_oracles() {
        let obs = Obs::new();
        round(&obs, 10, 0, 0);
        round(&obs, 20, 0, 1);
        obs.publish(Event::new(5, Source::App, "breaker_open"));
        obs.publish(Event::new(6, Source::App, "breaker_close"));
        obs.publish(Event::new(7, Source::Steering, "degrade"));
        obs.publish(Event::new(8, Source::Steering, "recover"));
        obs.publish(
            Event::new(9, Source::Scheduler, "decide")
                .with("config", "dR=16:c=1:l=3")
                .with("rank", 0u64),
        );
        assert!(check_all(&obs, &ctx()).is_empty());
    }

    #[test]
    fn duplicate_wire_round_is_caught() {
        let obs = Obs::new();
        round(&obs, 10, 0, 0);
        round(&obs, 20, 0, 0);
        let v = no_duplicate_apply(&obs).expect("must flag");
        assert_eq!(v.kind(), "duplicate_apply");
    }

    #[test]
    fn breaker_close_without_open_is_illegal() {
        let obs = Obs::new();
        obs.publish(Event::new(5, Source::App, "breaker_close"));
        assert_eq!(breaker_legal(&obs).expect("must flag").kind(), "breaker_illegal");
        // Re-open after a failed half-open probe is legal.
        let obs = Obs::new();
        obs.publish(Event::new(1, Source::App, "breaker_open"));
        obs.publish(Event::new(2, Source::App, "breaker_open"));
        obs.publish(Event::new(3, Source::App, "breaker_close"));
        assert!(breaker_legal(&obs).is_none());
    }

    #[test]
    fn recover_before_degrade_is_flagged() {
        let obs = Obs::new();
        obs.publish(Event::new(5, Source::Steering, "recover"));
        assert_eq!(degrade_recover_order(&obs).expect("must flag").kind(), "degrade_order");
        let obs = Obs::new();
        obs.publish(Event::new(5, Source::Steering, "degrade"));
        obs.publish(Event::new(6, Source::Steering, "degrade"));
        assert_eq!(degrade_recover_order(&obs).expect("must flag").kind(), "degrade_order");
    }

    fn arb(obs: &Obs, at: u64, kind: &'static str, app: u64, tier: u64) {
        obs.publish(Event::new(at, Source::Arbiter, kind).with("app", app).with("tier", tier));
    }

    #[test]
    fn tier_ordered_shedding_passes() {
        let obs = Obs::new();
        arb(&obs, 1, "admit", 0, 0);
        arb(&obs, 2, "admit", 1, 2);
        arb(&obs, 3, "admit", 2, 1);
        // Bronze first, then silver, then gold: legal.
        arb(&obs, 10, "shed", 1, 2);
        arb(&obs, 11, "shed", 2, 1);
        arb(&obs, 12, "shed", 0, 0);
        arb(&obs, 20, "recover", 0, 0);
        arb(&obs, 30, "done", 0, 0);
        assert!(check_arbiter(&obs).is_empty());
    }

    #[test]
    fn shedding_gold_past_running_bronze_is_flagged() {
        let obs = Obs::new();
        arb(&obs, 1, "admit", 0, 0);
        arb(&obs, 2, "admit", 1, 2);
        arb(&obs, 10, "shed", 0, 0);
        let v = shed_order_respects_tiers(&obs).expect("must flag");
        assert_eq!(v.kind(), "shed_order");
        assert!(matches!(v, Violation::ShedOrder { app: 0, tier: 0, running_tier: 2, .. }));
    }

    #[test]
    fn demotion_moves_an_app_into_the_shed_frontier() {
        let obs = Obs::new();
        arb(&obs, 1, "admit", 0, 0);
        arb(&obs, 2, "admit", 1, 1);
        // App 0 is demoted to bronze; shedding it before the silver app
        // is now legal.
        arb(&obs, 5, "demote", 0, 2);
        arb(&obs, 10, "shed", 0, 2);
        assert!(shed_order_respects_tiers(&obs).is_none());
    }

    #[test]
    fn clean_evict_is_flagged_and_policed_evict_passes() {
        let obs = Obs::new();
        arb(&obs, 1, "admit", 3, 1);
        arb(&obs, 9, "evict", 3, 1);
        let v = no_evict_without_violation(&obs).expect("must flag");
        assert_eq!(v.kind(), "evict_without_violation");

        let obs = Obs::new();
        arb(&obs, 1, "admit", 3, 1);
        obs.publish(Event::new(5, Source::Arbiter, "violation").with("app", 3u64));
        arb(&obs, 9, "evict", 3, 1);
        assert!(no_evict_without_violation(&obs).is_none());
    }

    fn set_audit(obs: &Obs, at: u64, key: &'static str, version: u64) {
        obs.publish(
            Event::new(at, Source::Control, "config_set").with("key", key).with("version", version),
        );
    }

    #[test]
    fn complete_audit_trail_passes() {
        let obs = Obs::new();
        set_audit(&obs, 10, "scheduler.prefs", 1);
        set_audit(&obs, 20, "client.retry.multiplier", 1);
        set_audit(&obs, 30, "scheduler.prefs", 2);
        obs.publish(
            Event::new(15, Source::Control, "config_reject")
                .with("key", "no.such.knob")
                .with("reason", "unknown_key"),
        );
        obs.publish(Event::new(40, Source::Scheduler, "decide").with("pref_version", 2u64));
        assert!(config_audit_complete(&obs).is_none());
        // Unstamped decisions (version 0 is never emitted) are fine too.
        obs.publish(Event::new(50, Source::Scheduler, "decide"));
        assert!(config_audit_complete(&obs).is_none());
    }

    #[test]
    fn version_regression_is_flagged() {
        let obs = Obs::new();
        set_audit(&obs, 10, "scheduler.prefs", 2);
        set_audit(&obs, 20, "scheduler.prefs", 2);
        let v = config_audit_complete(&obs).expect("must flag");
        assert_eq!(v.kind(), "config_audit_incomplete");
    }

    #[test]
    fn unaudited_preference_version_is_flagged() {
        // A decision stamped with a version no audit produced: the
        // mutation bypassed the router.
        let obs = Obs::new();
        set_audit(&obs, 10, "scheduler.prefs", 1);
        obs.publish(Event::new(40, Source::Scheduler, "decide").with("pref_version", 2u64));
        let v = config_audit_complete(&obs).expect("must flag");
        assert!(matches!(v, Violation::ConfigAuditIncomplete { at_us: 40, .. }));
        // The audit arriving only *after* the decision is equally a gap.
        let obs = Obs::new();
        obs.publish(Event::new(40, Source::Scheduler, "decide").with("pref_version", 1u64));
        set_audit(&obs, 50, "scheduler.prefs", 1);
        assert!(config_audit_complete(&obs).is_some());
    }

    #[test]
    fn malformed_audit_events_are_flagged() {
        let obs = Obs::new();
        obs.publish(Event::new(10, Source::Control, "config_set").with("version", 1u64));
        assert_eq!(
            config_audit_complete(&obs).expect("must flag").kind(),
            "config_audit_incomplete"
        );
        let obs = Obs::new();
        obs.publish(Event::new(10, Source::Control, "config_reject").with("key", "k"));
        assert!(config_audit_complete(&obs).is_some());
    }

    #[test]
    fn decision_outside_db_or_depth_is_flagged() {
        let obs = Obs::new();
        obs.publish(
            Event::new(9, Source::Scheduler, "decide").with("config", "bogus").with("rank", 0u64),
        );
        assert_eq!(decisions_valid(&obs, &ctx()).expect("must flag").kind(), "invalid_decision");
        let obs = Obs::new();
        obs.publish(
            Event::new(9, Source::Scheduler, "decide")
                .with("config", "dR=16:c=1:l=3")
                .with("rank", 7u64),
        );
        assert!(decisions_valid(&obs, &ctx()).is_some());
    }
}
