//! The steering agent: applies configuration switches at safe points.
//!
//! §6.3: "the steering agent receives control messages either from the
//! resource scheduler or from other distributed instances of the
//! application. These messages specify new values for control parameters
//! as well as the resource conditions under which these new settings are
//! valid. ... The new setting only takes effect at the beginning of a task
//! boundary, or at the transition points specified by the language
//! annotation. At these points, the steering agent sends an
//! acknowledgement to the resource scheduler; because of guards associated
//! with these transitions, additional negotiation may be required."

use obs::Adaptive;
use simnet::SimTime;

use crate::monitor::ValidityRegion;
use crate::param::Configuration;
use crate::spec::TunableSpec;
use crate::task::TransitionAction;

/// A pending reconfiguration request (the scheduler's control message).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigureRequest {
    pub config: Configuration,
    pub validity: ValidityRegion,
}

/// The outcome of reaching a task boundary / transition point.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundaryOutcome {
    /// No pending request, or the pending config equals the current one.
    NoChange,
    /// A switch is pending but the minimum dwell time since the last
    /// switch has not elapsed; the request stays queued (anti-oscillation
    /// guard for flapping resources).
    Deferred {
        /// Earliest time the pending switch may take effect.
        until: SimTime,
    },
    /// The switch happened; actions are the transition bodies to execute
    /// (the acknowledgement to the scheduler).
    Switched(SwitchEvent),
    /// A guard rejected the new configuration (negotiation: the scheduler
    /// should propose an alternative, excluding this one).
    Rejected { config: Configuration, reason: String },
}

/// A completed configuration switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchEvent {
    pub at: SimTime,
    pub old: Configuration,
    pub new: Configuration,
    /// Transition bodies the application must execute (e.g. notify the
    /// server of the new compression method).
    pub actions: Vec<TransitionAction>,
    pub validity: ValidityRegion,
}

/// The steering agent.
#[derive(Debug)]
pub struct SteeringAgent {
    current: Configuration,
    pending: Option<ReconfigureRequest>,
    history: Vec<(SimTime, Configuration)>,
    /// Minimum time a configuration must stay active before the next
    /// switch is applied (0 disables). Damps oscillation when a resource
    /// flaps across a validity boundary faster than switches settle.
    /// Live-tunable: the handle can be registered as the
    /// `steering.min_dwell_us` config knob and mutated mid-run.
    min_dwell: Adaptive<u64>,
}

impl SteeringAgent {
    pub fn new(initial: Configuration) -> Self {
        SteeringAgent {
            current: initial.clone(),
            pending: None,
            history: vec![(SimTime::ZERO, initial)],
            min_dwell: Adaptive::new(0),
        }
    }

    /// Current minimum dwell time in microseconds (0 = disabled).
    pub fn min_dwell_us(&self) -> u64 {
        self.min_dwell.get()
    }

    /// The live-tunable dwell handle, for registering as a config knob.
    pub(crate) fn min_dwell_handle(&self) -> Adaptive<u64> {
        self.min_dwell.clone()
    }

    pub fn current(&self) -> &Configuration {
        &self.current
    }

    /// `(time, configuration)` switch history, initial configuration first.
    pub fn history(&self) -> &[(SimTime, Configuration)] {
        &self.history
    }

    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Receive a control message; supersedes any earlier pending request.
    pub fn request(&mut self, req: ReconfigureRequest) {
        self.pending = Some(req);
    }

    /// Called by the application at a task boundary / transition point:
    /// the only places a new configuration may take effect.
    pub fn at_boundary(&mut self, t: SimTime, spec: &TunableSpec) -> BoundaryOutcome {
        // Dwell guard: a *completed* switch (history beyond the initial
        // configuration) pins the current config for `min_dwell_us`. The
        // request stays pending — later, possibly superseded, it applies
        // at the first boundary past the dwell.
        let dwell = self.min_dwell.get();
        if dwell > 0 && self.history.len() > 1 {
            if let Some(req) = &self.pending {
                if req.config != self.current {
                    let last = self.history[self.history.len() - 1].0;
                    if t.since(last) < dwell {
                        return BoundaryOutcome::Deferred { until: last + dwell };
                    }
                }
            }
        }
        let Some(req) = self.pending.take() else {
            return BoundaryOutcome::NoChange;
        };
        if req.config == self.current {
            return BoundaryOutcome::NoChange;
        }
        // Validate against the control space.
        if let Err(e) = spec.control.validate(&req.config) {
            return BoundaryOutcome::Rejected { config: req.config, reason: e };
        }
        // The new configuration must activate at least one task (guards).
        if spec.tasks.tasks.is_empty() {
            // Spec-less operation: allow.
        } else if spec.tasks.active_tasks(&req.config).is_empty() {
            return BoundaryOutcome::Rejected {
                config: req.config,
                reason: "no task guard admits the new configuration".into(),
            };
        }
        // Collect triggered transition bodies; a triggered-but-guard-failed
        // transition blocks the switch (the guard "determines whether
        // transitions from/to a specific task configuration are possible").
        let mut actions = Vec::new();
        // Here `req.config != self.current` already holds, so a transition
        // with no `on` parameters always fires.
        for tr in &spec.transitions {
            let param_changed = tr.on_params.is_empty()
                || tr.on_params.iter().any(|p| self.current.get(p) != req.config.get(p));
            if !param_changed {
                continue;
            }
            if !tr.guard.eval(&req.config) {
                return BoundaryOutcome::Rejected {
                    config: req.config,
                    reason: "transition guard rejected the new configuration".into(),
                };
            }
            actions.extend(tr.actions.iter().cloned());
        }
        let old = std::mem::replace(&mut self.current, req.config.clone());
        self.history.push((t, req.config));
        BoundaryOutcome::Switched(SwitchEvent {
            at: t,
            old,
            new: self.current.clone(),
            actions,
            validity: req.validity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::task::Guard;

    fn spec() -> TunableSpec {
        dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap()
    }

    fn cfg(dr: i64, c: i64, l: i64) -> Configuration {
        Configuration::new(&[("dR", dr), ("c", c), ("l", l)])
    }

    fn req(config: Configuration) -> ReconfigureRequest {
        ReconfigureRequest { config, validity: ValidityRegion::unbounded() }
    }

    #[test]
    fn no_pending_no_change() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        assert_eq!(s.at_boundary(SimTime::ZERO, &spec()), BoundaryOutcome::NoChange);
    }

    #[test]
    fn switch_happens_only_at_boundary() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(80, 2, 4)));
        // Still the old configuration until a boundary is reached.
        assert_eq!(s.current(), &cfg(80, 1, 4));
        assert!(s.has_pending());
        let out = s.at_boundary(SimTime::from_secs(3), &spec());
        match out {
            BoundaryOutcome::Switched(ev) => {
                assert_eq!(ev.old, cfg(80, 1, 4));
                assert_eq!(ev.new, cfg(80, 2, 4));
                assert_eq!(ev.at, SimTime::from_secs(3));
                // The `transition on c` body fires: notify the server.
                assert_eq!(ev.actions.len(), 1);
            }
            other => panic!("expected switch, got {other:?}"),
        }
        assert_eq!(s.current(), &cfg(80, 2, 4));
        assert_eq!(s.history().len(), 2);
    }

    #[test]
    fn same_config_is_no_change() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(80, 1, 4)));
        assert_eq!(s.at_boundary(SimTime::ZERO, &spec()), BoundaryOutcome::NoChange);
    }

    #[test]
    fn unchanged_param_fires_no_transition() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(160, 1, 4))); // only dR changes
        match s.at_boundary(SimTime::ZERO, &spec()) {
            BoundaryOutcome::Switched(ev) => assert!(ev.actions.is_empty()),
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_rejected() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(99, 1, 4))); // dR=99 not in domain
        match s.at_boundary(SimTime::ZERO, &spec()) {
            BoundaryOutcome::Rejected { reason, .. } => {
                assert!(reason.contains("outside domain"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(s.current(), &cfg(80, 1, 4), "current unchanged after NAK");
    }

    #[test]
    fn task_guard_rejection() {
        let mut sp = spec();
        sp.tasks.tasks[0].guard = Guard::Ge("l".into(), 4);
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(80, 1, 3)));
        match s.at_boundary(SimTime::ZERO, &sp) {
            BoundaryOutcome::Rejected { reason, .. } => {
                assert!(reason.contains("no task guard"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn transition_guard_rejection_enables_negotiation() {
        let mut sp = spec();
        sp.transitions[0].guard = Guard::Eq("c".into(), 1); // only allow c=1 targets
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(80, 2, 4)));
        match s.at_boundary(SimTime::ZERO, &sp) {
            BoundaryOutcome::Rejected { config, reason } => {
                assert_eq!(config, cfg(80, 2, 4));
                assert!(reason.contains("transition guard"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Scheduler retries with a different config: dR change is allowed.
        s.request(req(cfg(160, 1, 4)));
        assert!(matches!(s.at_boundary(SimTime::ZERO, &sp), BoundaryOutcome::Switched(_)));
    }

    #[test]
    fn dwell_defers_rapid_second_switch() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.min_dwell.set(1_000_000);
        assert_eq!(s.min_dwell_us(), 1_000_000);
        s.request(req(cfg(80, 2, 4)));
        // First switch is never dwell-blocked (only the initial config is
        // in history).
        assert!(matches!(
            s.at_boundary(SimTime::from_ms(100), &spec()),
            BoundaryOutcome::Switched(_)
        ));
        // Flap straight back: deferred until the dwell elapses.
        s.request(req(cfg(80, 1, 4)));
        match s.at_boundary(SimTime::from_ms(600), &spec()) {
            BoundaryOutcome::Deferred { until } => {
                assert_eq!(until, SimTime::from_ms(1100));
            }
            other => panic!("expected deferral, got {other:?}"),
        }
        assert!(s.has_pending(), "request stays queued through the dwell");
        assert_eq!(s.current(), &cfg(80, 2, 4));
        // Past the dwell the queued request applies.
        assert!(matches!(
            s.at_boundary(SimTime::from_ms(1200), &spec()),
            BoundaryOutcome::Switched(_)
        ));
        assert_eq!(s.current(), &cfg(80, 1, 4));
    }

    #[test]
    fn later_request_supersedes_earlier() {
        let mut s = SteeringAgent::new(cfg(80, 1, 4));
        s.request(req(cfg(160, 1, 4)));
        s.request(req(cfg(320, 1, 4)));
        match s.at_boundary(SimTime::ZERO, &spec()) {
            BoundaryOutcome::Switched(ev) => assert_eq!(ev.new, cfg(320, 1, 4)),
            other => panic!("{other:?}"),
        }
    }
}
