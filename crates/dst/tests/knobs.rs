//! The knob-mutation axis end-to-end: explorer trials sampled from
//! [`FaultSpace::knobs`] dispatch seeded live control-plane commands —
//! preference flips, retry/breaker retuning, breaker resets, and one
//! deliberately-unknown key — while the usual faults play out, and every
//! oracle (the control-plane audit one included) must hold.

use adapt_dst::{knob_commands, Explorer, ExplorerOpts, FaultSpace, TrialContext};

fn knob_opts(master_seed: u64) -> ExplorerOpts {
    ExplorerOpts {
        master_seed,
        trials: 10,
        space: FaultSpace::knobs(),
        cross_check_every: 5,
        shrink: false,
        shrink_budget: 0,
        max_failures: 4,
    }
}

// Gated off the canary builds: a planted defect is *supposed* to trip
// its oracle, and knob plans carry the network faults that expose the
// dedup canary.
#[cfg(not(any(dst_canary, dst_drift)))]
#[test]
fn knob_trials_hold_all_oracles() {
    let ctx = TrialContext::new();
    let report = Explorer::new(knob_opts(0x4A0B_5EED)).run(&ctx);
    assert_eq!(report.trials_run, 10);
    assert!(
        report.failures.is_empty(),
        "oracle violations under live knob mutation: {:?}",
        report.failures.iter().map(|f| f.violation.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn knob_exploration_is_deterministic() {
    let ctx = TrialContext::new();
    let a = Explorer::new(knob_opts(0xD0D0)).run(&ctx);
    let b = Explorer::new(knob_opts(0xD0D0)).run(&ctx);
    assert_eq!(a.digest, b.digest, "same seed over the knob space must replay identically");
    assert_ne!(
        a.digest,
        Explorer::new(knob_opts(0x5EED)).run(&ctx).digest,
        "different master seeds explore different command schedules"
    );
}

#[test]
fn knob_commands_change_observable_behaviour() {
    // A knob plan and its command-stripped twin share the identical fault
    // prefix (RNG-neutral draws), so any digest difference is the live
    // command taking effect. Find a seed whose commands land early enough
    // to matter and assert divergence.
    let ctx = TrialContext::new();
    let space = FaultSpace::knobs();
    let mut diverged = false;
    for seed in 0..16 {
        let plan = space.sample(seed);
        assert!(!plan.knobs.is_empty());
        let stripped = adapt_dst::TrialPlan { knobs: Vec::new(), ..plan.clone() };
        let with = ctx.run(&plan);
        let without = ctx.run(&stripped);
        assert!(with.violations.is_empty(), "knob trial violated: {:?}", with.violations);
        assert!(without.violations.is_empty());
        if with.digest != without.digest {
            diverged = true;
            break;
        }
    }
    assert!(diverged, "no sampled command schedule left any trace on 16 trials");
}

#[test]
fn every_menu_entry_decodes_to_a_dispatchable_command() {
    // All (kind, magnitude) corners decode without panicking and produce
    // schedules at strictly positive times.
    let plan = adapt_dst::TrialPlan {
        knobs: (0..2 * adapt_dst::KNOB_MENU_LEN)
            .flat_map(|kind| [(0, kind, 0), (500, kind, 50), (4_000, kind, 100)])
            .collect(),
        ..FaultSpace::quiet().sample(1)
    };
    let cmds = knob_commands(&plan);
    assert_eq!(cmds.len(), plan.knobs.len());
    for (at_us, who, _) in &cmds {
        assert!(*at_us >= 1_000, "at_ms saturates to >= 1ms");
        assert_eq!(who, "dst");
    }
}
