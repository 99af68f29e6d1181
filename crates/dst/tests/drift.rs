//! The incident-to-repro feedback loop for model drift.
//!
//! On a correct build, drift-armed plans (refine engine folding the run,
//! `model_drift` oracle watching its alarms) replay clean: the profile
//! was honest, residuals stay small, the fast path is invisible. On the
//! drift-canary build (`--cfg dst_drift`) the planted latency spike makes
//! predictions stale; the explorer must detect the alarm, capture the
//! plan, shrink it, and emit a digest-pinned repro that round-trips
//! through JSON and replays the identical incident.

use adapt_dst::{FaultSpace, TrialContext};

#[cfg(not(any(dst_canary, dst_drift)))]
#[test]
fn drift_armed_plans_replay_clean_on_a_correct_build() {
    // The no-false-positive guarantee: arming the refine engine over an
    // honest profile never trips the drift oracle (nor any other), even
    // with schedule perturbation and workload variation in play. Gated
    // off both canary builds: a planted defect is allowed to trip *its*
    // oracle under the perturbed schedules drift plans carry.
    let ctx = TrialContext::new();
    for seed in [1, 7, 42] {
        let plan = FaultSpace::drift().sample(seed);
        assert!(plan.drift_threshold_x1000 > 0);
        let out = ctx.run(&plan);
        assert!(
            out.violations.is_empty(),
            "seed {seed}: honest model must not drift: {:?}",
            out.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}

#[cfg(not(dst_drift))]
#[test]
fn drift_armed_trials_leave_the_digest_unchanged() {
    // Arming refinement is post-run observation only: the same plan with
    // the axis zeroed produces a bit-identical trial.
    let ctx = TrialContext::new();
    let armed = FaultSpace::drift().sample(11);
    let disarmed = adapt_dst::TrialPlan { drift_threshold_x1000: 0, ..armed.clone() };
    assert_eq!(ctx.run(&armed).digest, ctx.run(&disarmed).digest);
}

#[cfg(dst_drift)]
#[test]
fn explorer_captures_shrinks_and_digest_pins_the_planted_drift() {
    use adapt_dst::{Explorer, ExplorerOpts, Repro};

    let ctx = TrialContext::new();
    let report = Explorer::new(ExplorerOpts {
        master_seed: 0xD21F7_5EED,
        trials: 6,
        space: FaultSpace::drift(),
        shrink: true,
        shrink_budget: 24,
        max_failures: 1,
        ..Default::default()
    })
    .run(&ctx);

    assert!(report.found_violation(), "planted latency spike must be detected");
    let failure = &report.failures[0];
    assert_eq!(failure.violation.kind(), "model_drift");

    // The repro is self-contained: it round-trips through JSON, carries a
    // non-zero pinned digest, and replays the identical incident.
    let repro = failure.repro();
    let parsed = Repro::from_json(&repro.to_json()).expect("repro round-trips");
    assert_eq!(parsed, repro);
    assert_ne!(repro.digest, 0);
    let replay = ctx.run(&repro.plan);
    assert!(replay.violations.iter().any(|v| v.kind() == "model_drift"));
    assert_eq!(replay.digest, repro.digest, "replay is bit-for-bit the captured incident");

    // Shrinking kept the violation while stripping incidental structure.
    if let Some(shrunk) = &failure.shrunk {
        assert!(shrunk.plan.weight() <= failure.plan.weight());
    }
}
