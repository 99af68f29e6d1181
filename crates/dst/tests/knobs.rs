//! The knob-mutation axis end-to-end: explorer trials sampled from
//! [`FaultSpace::knobs`] dispatch seeded live control-plane commands —
//! preference flips, retry/breaker retuning, breaker resets, and one
//! deliberately-unknown key — while the usual faults play out, and every
//! oracle (the control-plane audit one included) must hold.

use std::sync::Arc;

use adapt_core::{Constraint, Objective, Preference, PreferenceList};
use adapt_dst::{knob_commands, Explorer, ExplorerOpts, FaultSpace, TrialContext, KNOB_MENU_LEN};
use obs::{Command, EventFilter};
use sandbox::Limits;
use simnet::{DrainMode, SimTime};
use visapp::{build_db, run_session, Driver, Scenario};

fn knob_opts(master_seed: u64) -> ExplorerOpts {
    ExplorerOpts {
        master_seed,
        trials: 10,
        space: FaultSpace::knobs(),
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

/// The knob menu and the knobs a trial registers cannot drift apart.
/// Against the trial scenario (breaker armed, adaptive driver) every menu
/// entry but the unknown key is accepted and audited, the unknown key is
/// refused as `unknown_key`, and so are the two retry knobs the menu never
/// set, which a trial no longer registers.
#[test]
fn every_menu_entry_lands_on_a_registered_knob() {
    let ctx = TrialContext::new();
    let plan = adapt_dst::TrialPlan {
        knobs: (0..KNOB_MENU_LEN).map(|kind| (100 * (kind + 1), kind, 50)).collect(),
        ..FaultSpace::quiet().sample(1)
    };
    let mut sc = ctx.scenario(&plan, DrainMode::Batched);
    assert!(sc.breaker.is_some(), "the knob axis runs with a breaker armed");
    let retired = ["client.retry.max_timeout_us", "client.retry.jitter_frac"];
    sc.commands.extend(retired.map(|key| (900_000, "dst".to_string(), Command::set(key, 1u64))));

    // The database and preferences the trial context profiles for itself.
    let store = sc.build_store();
    let profiled = Scenario { commands: Vec::new(), fault_plan: None, ..sc.clone() };
    let db = Arc::new(build_db(&profiled, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 1));
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("response_time"),
    ))
    .then(Preference::new(vec![], Objective::minimize("response_time")));
    let out = run_session(
        &sc,
        &store,
        Driver::Adaptive(db, prefs),
        Limits::cpu(0.05).with_net(60_000.0),
        None,
        Some(SimTime::from_secs(60)),
        None,
    );

    let want: Vec<(&str, String, Option<&str>)> = sc
        .commands
        .iter()
        .map(|(_, _, cmd)| match cmd {
            Command::Set { key, .. }
                if key == "no.such.knob" || retired.contains(&key.as_str()) =>
            {
                ("config_reject", key.clone(), Some("unknown_key"))
            }
            Command::Set { key, .. } => ("config_set", key.clone(), None),
            Command::ResetBreaker { key } => ("breaker_reset", key.clone(), None),
        })
        .collect();
    let audit = out.obs.events_filtered(&EventFilter::control_audit());
    let got: Vec<(&str, String, Option<&str>)> = audit
        .iter()
        .map(|e| {
            (e.kind, e.str_field("key").expect("audited key").to_string(), e.str_field("reason"))
        })
        .collect();
    assert_eq!(got, want);
    let set: std::collections::BTreeSet<&str> =
        want.iter().filter(|w| w.0 == "config_set").map(|w| w.1.as_str()).collect();
    assert_eq!(set.len(), 5, "the menu sets five distinct knobs: {set:?}");
}
