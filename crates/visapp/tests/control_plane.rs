//! Control-plane integration: operator commands landing on a *running*
//! client whose circuit breaker is open.
//!
//! Both tests drive the chaos dead-server scenario — the server crashes
//! early and never restarts, so the breaker opens and (organically)
//! never re-closes; half-open probes fail forever at `recovery_timeout`
//! cadence. That steady probe loop is exactly the deterministic poll
//! point the control plane relies on, which makes the scenario the
//! sharpest place to exercise `Command::Set` and `Command::ResetBreaker`
//! against an open breaker.

use compress::Method;
use obs::{Command, EventFilter};
use sandbox::Limits;
use simnet::{FaultPlan, SimTime};
use visapp::{
    run_session, BreakerOpts, Driver, RetryPolicy, RunOutcome, Scenario, VizConfig, SERVER_HOST,
};

/// A server that dies at 50 ms and never comes back, with a breaker that
/// probes every 200 ms. Without operator intervention the run cannot
/// finish and the breaker never re-closes.
fn dead_server_scenario() -> Scenario {
    Scenario {
        n_images: 8,
        img_size: 64,
        levels: 3,
        seed: 7,
        link_bps: 150_000.0,
        link_latency_us: 2_000,
        request_timeout_us: Some(40_000),
        retry: RetryPolicy {
            multiplier: 2.0,
            max_timeout_us: 300_000,
            jitter_frac: 0.1,
            seed: 0x9d,
        },
        breaker: Some(BreakerOpts {
            failure_threshold: 3,
            recovery_timeout_us: 200_000,
            degraded: None,
        }),
        fault_plan: Some(FaultPlan::new(0x9d).with_crash(SERVER_HOST, SimTime::from_ms(50), None)),
        ..Scenario::default()
    }
}

fn run(sc: &Scenario) -> RunOutcome {
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    let horizon = Some(SimTime::from_secs(5));
    run_session(sc, &store, Driver::Fixed(cfg), Limits::unconstrained(), None, horizon, None)
}

/// `Command::Set` on the breaker's recovery timeout while the breaker is
/// open takes effect at the next probe poll: stretching the window from
/// 200 ms to 60 s mid-outage silences the probe loop for the rest of the
/// horizon, measurably cutting retries versus the untouched baseline.
#[test]
fn set_during_open_breaker_retunes_the_probe_cadence() {
    let sc = dead_server_scenario();
    let base = run(&sc);
    assert!(base.stats.finished_at.is_none(), "cannot finish against a dead server");
    assert!(base.stats.breaker_opens >= 1, "breaker must open against a dead server");
    assert!(base.stats.retries > 4, "probe loop should keep retrying in the baseline");

    let mut sc_quiet = sc.clone();
    sc_quiet.commands = vec![(
        1_000_000,
        "operator".into(),
        Command::set("client.breaker.recovery_timeout_us", 60_000_000u64),
    )];
    let quiet = run(&sc_quiet);

    let audits = quiet.obs.events_filtered(&EventFilter::control_audit());
    assert!(
        audits.iter().any(|e| e.kind == "config_set"
            && e.str_field("key") == Some("client.breaker.recovery_timeout_us")),
        "the live Set must be audited; got {audits:?}"
    );
    assert!(
        quiet.stats.retries < base.stats.retries,
        "stretching the recovery window mid-open must suppress later probes \
         (baseline {} retries, retuned {})",
        base.stats.retries,
        quiet.stats.retries
    );
    assert_eq!(quiet.stats.breaker_closes, 0, "a dead server offers nothing to re-close");

    // The schedule is part of the run's identity: replaying it is exact.
    let replay = run(&sc_quiet);
    assert_eq!(
        quiet.obs.render(),
        replay.obs.render(),
        "a command schedule must replay byte-identically"
    );
}

/// `Command::ResetBreaker` force-closes an open breaker at the next
/// deterministic poll point (the probe timer), the client resumes
/// transmitting immediately — and, the server still being dead, the
/// breaker trips again. The baseline never records a close at all.
#[test]
fn reset_breaker_closes_an_open_breaker_and_resumes_the_client() {
    let sc = dead_server_scenario();
    let base = run(&sc);
    assert_eq!(base.stats.breaker_closes, 0, "no organic close against a dead server");

    let mut sc_reset = sc.clone();
    sc_reset.commands =
        vec![(1_000_000, "sre".into(), Command::ResetBreaker { key: "client.breaker".into() })];
    let reset = run(&sc_reset);

    let audits = reset.obs.events_filtered(&EventFilter::control_audit());
    assert!(
        audits
            .iter()
            .any(|e| e.kind == "breaker_reset" && e.str_field("key") == Some("client.breaker")),
        "the reset must be audited; got {audits:?}"
    );
    assert!(
        reset.stats.breaker_closes >= 1,
        "the operator reset must close the open breaker at the next poll"
    );
    assert!(
        reset.stats.breaker_opens >= 2,
        "post-reset transmission against the still-dead server must re-trip the breaker"
    );
    assert!(reset.stats.finished_at.is_none(), "a reset cannot resurrect a dead server");
}
