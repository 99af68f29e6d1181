//! The overload axis end-to-end: explorer trials sampled from
//! [`FaultSpace::overload`] run the multi-application arbiter storm,
//! hold the arbiter oracles (tier-ordered shedding, no clean
//! evictions), and stay deterministic.

use adapt_dst::{Explorer, ExplorerOpts, FaultSpace, TrialContext};

fn overload_opts(master_seed: u64) -> ExplorerOpts {
    ExplorerOpts {
        master_seed,
        trials: 6,
        space: FaultSpace::overload(),
        shrink: false,
        shrink_budget: 0,
        max_failures: 2,
    }
}

#[test]
fn overload_trials_hold_arbiter_oracles() {
    let ctx = TrialContext::new();
    let report = Explorer::new(overload_opts(0x0E44_10AD)).run(&ctx);
    assert_eq!(report.trials_run, 6);
    assert!(
        report.failures.is_empty(),
        "arbiter oracle violations under overload: {:?}",
        report.failures.iter().map(|f| f.violation.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn overload_exploration_is_deterministic() {
    let ctx = TrialContext::new();
    let a = Explorer::new(overload_opts(0xD1D1)).run(&ctx);
    let b = Explorer::new(overload_opts(0xD1D1)).run(&ctx);
    assert_eq!(a.digest, b.digest, "same seed over the overload space must replay identically");
    assert_ne!(
        a.digest,
        Explorer::new(overload_opts(0x5EED)).run(&ctx).digest,
        "different master seeds explore different storms"
    );
}

#[test]
fn overload_shrinking_keeps_windows_load_bearing() {
    // Dropping every surge and dip turns an overload plan into the
    // single-app scenario, where arbiter-kind violations cannot occur —
    // so a shrink of an arbiter violation must retain at least one
    // window. Exercise the reduction path directly on a synthetic
    // "failure" whose kind can never re-occur: the shrinker must fall
    // back to the original plan.
    let ctx = TrialContext::new();
    let plan = FaultSpace::overload().sample(42);
    let shrunk = adapt_dst::shrink_plan(&ctx, &plan, "shed_order", 4);
    assert_eq!(shrunk.steps, 0, "a clean build accepts no reduction of a non-reproducing kind");
    assert_eq!(shrunk.plan, plan);
    assert!(shrunk.trials_run <= 4);
}
