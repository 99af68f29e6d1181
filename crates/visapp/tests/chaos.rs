//! Chaos tests: the resilient client/server pair under seeded fault
//! injection (`simnet::FaultPlan`). All `chaos_`-prefixed so CI can run
//! them as a dedicated smoke stage (`cargo test -p visapp chaos_`).
//!
//! The acceptance scenario: 30% bidirectional packet loss, a 500 ms
//! link-down window, and a server crash/restart — the run must complete
//! end-to-end, apply no reply twice, trip and re-close the circuit
//! breaker, degrade to the lowest-cost configuration and return, and do
//! all of it bit-identically across repeated runs (same seeds).

use compress::Method;
use proptest::prelude::*;
use sandbox::Limits;
use simnet::{FaultPlan, SimTime};
use visapp::{
    run_static, BreakerOpts, RetryPolicy, RunStats, Scenario, VizConfig, CLIENT_HOST, SERVER_HOST,
};

/// The acceptance scenario over `n_images` images: lossy link + down
/// window + server restart.
fn chaos_scenario(seed: u64, n_images: usize) -> Scenario {
    Scenario {
        n_images,
        img_size: 64,
        levels: 3,
        seed: 7,
        // A slow modem-class link so the workload spans the fault windows.
        link_bps: 150_000.0,
        link_latency_us: 2_000,
        request_timeout_us: Some(40_000),
        retry: RetryPolicy { multiplier: 2.0, max_timeout_us: 300_000, jitter_frac: 0.1, seed },
        breaker: Some(BreakerOpts {
            failure_threshold: 3,
            recovery_timeout_us: 100_000,
            degraded: None,
        }),
        fault_plan: Some(
            FaultPlan::new(seed)
                .with_loss(CLIENT_HOST, SERVER_HOST, 0.30)
                .with_link_down(
                    CLIENT_HOST,
                    SERVER_HOST,
                    SimTime::from_ms(400),
                    SimTime::from_ms(900),
                )
                .with_crash(SERVER_HOST, SimTime::from_ms(1_200), Some(SimTime::from_ms(1_500))),
        ),
        ..Scenario::default()
    }
}

fn run_chaos(sc: &Scenario) -> RunStats {
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    run_static(sc, &store, cfg, Limits::unconstrained(), None).stats
}

/// Everything observable about a run, for exact replay comparison.
fn fingerprint(s: &RunStats) -> Vec<String> {
    let mut fp = Vec::new();
    for r in &s.rounds {
        fp.push(format!(
            "round {}:{} {}..{} wire={} raw={}",
            r.image_id, r.round, r.started, r.finished, r.wire_bytes, r.raw_bytes
        ));
    }
    for i in &s.images {
        fp.push(format!("image {} {}..{}", i.image_id, i.started, i.finished));
    }
    for (t, c) in &s.config_history {
        fp.push(format!("config {t} {c}"));
    }
    fp.push(format!(
        "retries={} timeouts={} opens={} closes={} dups={} finished={:?}",
        s.retries,
        s.timeouts,
        s.breaker_opens,
        s.breaker_closes,
        s.dup_replies_dropped,
        s.finished_at
    ));
    fp
}

#[test]
fn chaos_acceptance_scenario_completes_with_breaker_cycle() {
    let sc = chaos_scenario(0xc4a05, 8);
    let stats = run_chaos(&sc);

    // 1. The workload completes end-to-end despite loss, the down window,
    //    and the server restart.
    assert!(stats.finished_at.is_some(), "run did not finish");
    assert_eq!(stats.images.len(), sc.n_images, "all images delivered");

    // 2. Exactly-once application: every (image, round) pair appears once.
    let mut seen = std::collections::BTreeSet::new();
    for r in &stats.rounds {
        assert!(
            seen.insert((r.image_id, r.round)),
            "round {:?} applied twice",
            (r.image_id, r.round)
        );
    }

    // 3. The link was genuinely bad: retransmissions happened, and
    //    duplicate replies arrived and were dropped, never applied.
    assert!(stats.timeouts > 0, "no timeouts — faults not injected?");
    assert!(stats.retries > 0, "no retries");

    // 4. The breaker tripped during the outage and re-closed after it.
    assert!(stats.breaker_opens >= 1, "breaker never opened");
    assert!(stats.breaker_closes >= 1, "breaker never re-closed");

    // 5. Degradation is visible in the configuration history: the
    //    lowest-cost configuration (coarsest level, whole-fovea dR) was
    //    entered and later left (restored).
    let degraded_entries =
        stats.config_history.iter().filter(|(_, c)| c.get("l") == Some(1)).count();
    assert!(degraded_entries >= 1, "no degraded configuration in history");
    let (_, last_cfg) = stats.config_history.last().expect("history non-empty");
    assert_eq!(last_cfg.get("l"), Some(3), "configuration restored after recovery");
}

#[test]
fn chaos_acceptance_scenario_is_deterministic() {
    // Two runs from identical seeds are observably identical, event for
    // event — the bedrock of fault reproduction.
    let a = fingerprint(&run_chaos(&chaos_scenario(0xc4a05, 8)));
    let b = fingerprint(&run_chaos(&chaos_scenario(0xc4a05, 8)));
    assert_eq!(a, b, "identical seeds must replay identically");
    // And a different fault seed perturbs the run (the plan is live).
    let c = fingerprint(&run_chaos(&chaos_scenario(0xc4a06, 8)));
    assert_ne!(a, c, "different fault seed left no trace on the run");
}

#[test]
fn chaos_twelve_image_run_is_pinned() {
    // The run `examples/chaos.rs` walks through: the acceptance faults
    // over 12 images, long enough to span every fault window.
    let stats = run_chaos(&chaos_scenario(0xc4a05, 12));
    let got = (
        stats.finished_at.map(|t| t.as_us()),
        stats.images.len(),
        stats.rounds.len(),
        stats.config_history.len() - 1,
        (stats.retries, stats.timeouts),
        (stats.breaker_opens, stats.breaker_closes),
        stats.dup_replies_dropped,
    );
    // Finish time, images, rounds, switches, (retries, timeouts),
    // (breaker opens, closes), duplicate replies dropped.
    assert_eq!(got, (Some(6_471_202), 12, 24, 14, (48, 48), (11, 7), 2));
    // Each of the 7 trips degrades to the lowest-cost configuration and
    // each re-close restores the saved one, from the first trip (the loss
    // alone, before the link-down window) to the last restore.
    for (i, (_, config)) in stats.config_history.iter().enumerate() {
        let want = if i % 2 == 0 { "c=1,dR=16,l=3" } else { "c=1,dR=32,l=1" };
        assert_eq!(config.key(), want, "history entry {i}");
    }
    let at = |i: usize| stats.config_history[i].0.as_us();
    assert_eq!((at(1), at(14)), (255_746, 6_196_334));
}

#[test]
fn chaos_crash_without_restart_strands_no_resources() {
    // A server that dies and never comes back: the client cannot finish,
    // but the simulation must still drain (no live-lock) because the
    // breaker stops the retransmission loop while open and probes are
    // the only remaining activity... which themselves stop once the sim
    // runs out of scheduled events. We bound the run with an event limit
    // via the breaker: no restart => the run ends un-finished.
    let mut sc = chaos_scenario(0x9d, 8);
    sc.fault_plan = Some(FaultPlan::new(0x9d).with_crash(SERVER_HOST, SimTime::from_ms(50), None));
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    // Probes re-arm forever against a dead server; cap simulated activity
    // by giving the breaker a long recovery timeout and the run a small
    // workload, then stop the sim by bounding wall progress: the client
    // probes at recovery_timeout cadence, so after the crash the sim's
    // event queue never empties. Use run_until for a bounded horizon.
    let outcome = visapp::run_session(
        &sc,
        &store,
        visapp::Driver::Fixed(cfg),
        Limits::unconstrained(),
        None,
        Some(SimTime::from_secs(5)),
        None,
    );
    let stats = outcome.stats;
    assert!(stats.finished_at.is_none(), "cannot finish against a dead server");
    assert!(stats.breaker_opens >= 1, "breaker must open against a dead server");
    assert_eq!(stats.breaker_closes, 0, "nothing to re-close");
}

proptest! {
    /// Under any seeded loss rate below 100%, the client either finishes
    /// with every round applied exactly once, or (with a breaker) is
    /// still making probe progress — dedup holds either way.
    #[test]
    fn chaos_dedup_holds_under_any_loss(seed in 0u64..48, loss_pct in 5u64..80) {
        let sc = Scenario {
            n_images: 2,
            img_size: 64,
            levels: 3,
            seed: 3,
            link_bps: 500_000.0,
            link_latency_us: 500,
            request_timeout_us: Some(30_000),
            retry: RetryPolicy {
                multiplier: 2.0,
                max_timeout_us: 200_000,
                jitter_frac: 0.1,
                seed,
            },
            breaker: Some(BreakerOpts {
                failure_threshold: 4,
                recovery_timeout_us: 50_000,
                degraded: None,
            }),
            fault_plan: Some(
                FaultPlan::new(seed).with_loss(CLIENT_HOST, SERVER_HOST, loss_pct as f64 / 100.0),
            ),
            ..Scenario::default()
        };
        let stats = run_chaos(&sc);
        // Loss < 100% plus retries: the run always completes.
        prop_assert!(stats.finished_at.is_some());
        // Exactly-once: no (image, round) pair applied twice.
        let mut seen = std::collections::BTreeSet::new();
        for r in &stats.rounds {
            prop_assert!(seen.insert((r.image_id, r.round)));
        }
        // All rounds of all images accounted for.
        prop_assert_eq!(stats.images.len(), 2);
    }
}
