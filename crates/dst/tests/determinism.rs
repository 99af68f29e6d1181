//! The explorer's determinism contract: the same options over the same
//! context produce byte-identical reports, and the kernel's explore
//! drain mode is a pure function of its plan.

use adapt_dst::{Explorer, ExplorerOpts, FaultSpace, TrialContext};

fn small_opts(master_seed: u64) -> ExplorerOpts {
    ExplorerOpts {
        master_seed,
        trials: 12,
        space: FaultSpace::default(),
        shrink: false,
        shrink_budget: 0,
        max_failures: 4,
    }
}

#[test]
fn same_seed_same_digest() {
    let ctx = TrialContext::new();
    let a = Explorer::new(small_opts(0xA11CE)).run(&ctx);
    let b = Explorer::new(small_opts(0xA11CE)).run(&ctx);
    assert_eq!(a.trials_run, b.trials_run);
    assert_eq!(a.digest, b.digest, "same master seed must replay identically");
    assert_eq!(a.failures.len(), b.failures.len());
}

#[test]
fn different_seeds_reach_different_schedules() {
    let ctx = TrialContext::new();
    let a = Explorer::new(small_opts(1)).run(&ctx);
    let b = Explorer::new(small_opts(2)).run(&ctx);
    assert_ne!(a.digest, b.digest, "different master seeds must explore different trials");
}

// The correctness contract on the real (non-canary) build: no sampled
// trial violates any invariant. Under the canary build duplicates are
// expected, so this only runs on the real guard.
#[cfg(not(dst_canary))]
#[test]
fn sampled_trials_hold_all_invariants() {
    let ctx = TrialContext::new();
    let report = Explorer::new(small_opts(0xBEEF)).run(&ctx);
    assert!(
        report.failures.is_empty(),
        "violations on a correct build: {:?}",
        report.failures.iter().map(|f| f.violation.to_string()).collect::<Vec<_>>()
    );
}

// Pipeline validation on the canary build: the explorer must find the
// seeded dedup bug and shrink it without losing the violation.
#[cfg(dst_canary)]
#[test]
fn explorer_finds_and_shrinks_the_canary() {
    let ctx = TrialContext::new();
    let opts = ExplorerOpts {
        master_seed: 0xBEEF,
        trials: 12,
        shrink: true,
        shrink_budget: 48,
        max_failures: 1,
        ..Default::default()
    };
    let report = Explorer::new(opts).run(&ctx);
    let failure = report.failures.first().expect("canary build must produce a violation");
    assert_eq!(failure.violation.kind(), "duplicate_apply");
    let shrunk = failure.shrunk.as_ref().expect("shrinking was enabled");
    assert!(shrunk.plan.weight() <= failure.plan.weight(), "shrinking never grows the plan");
    let replay = ctx.run(&shrunk.plan);
    assert!(
        replay.violations.iter().any(|v| v.kind() == "duplicate_apply"),
        "the shrunken plan must still reproduce the violation"
    );
}
