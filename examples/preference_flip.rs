//! Live control plane: an operator retunes a *running* adaptive
//! application through the typed command router — no restart, no pause.
//!
//! ```text
//! cargo run --release --example preference_flip
//! ```
//!
//! Three runs of the same bandwidth-collapse experiment (the miniature
//! Experiment 1 from the paper):
//!
//! 1. **Baseline** — empty command schedule. The control plane is wired
//!    up but never used; the run must be byte-identical to a rerun
//!    (determinism) and must publish zero control audit events.
//! 2. **Flip** — at t=1s, `Command::Set` rewrites `scheduler.prefs` from
//!    "resolution >= 3, minimize transmit time" to an unconstrained
//!    "minimize transmit time". When bandwidth collapses at t=2s the
//!    re-decision runs under the *new* preferences and picks the coarse
//!    level the baseline was forbidden to choose — the chosen
//!    configuration changes in the same run, with a matching `config_set`
//!    audit event and a version-stamped `decide` event.
//! 3. **Pin** — an SRE pins `scheduler.prefs` first; the later `Set` is
//!    refused (audited as `config_reject`/`pinned`) and the run keeps the
//!    original preferences.

use std::sync::Arc;

use adaptive_framework::prelude::*;

fn scenario() -> Scenario {
    Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    }
}

fn main() {
    let sc = scenario();
    let store = sc.build_store();
    let db = Arc::new(build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2));
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ));
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let drop_bw =
        || LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));
    let run = |sc: &Scenario| {
        run_adaptive_shared(sc, &store, db.clone(), prefs.clone(), start, Some(drop_bw()))
    };
    let final_level =
        |out: &RunOutcome| out.stats.config_history.last().expect("config history").1.expect("l");

    // -- 1. Baseline: the idle control plane is free and invisible -------
    let base = run(&sc);
    assert!(
        base.obs.events_filtered(&EventFilter::control_audit()).is_empty(),
        "empty command schedule must publish no control audit events"
    );
    let rerun = run(&sc);
    assert_eq!(
        base.obs.render(),
        rerun.obs.render(),
        "an unused control plane must leave the event stream byte-identical across reruns"
    );
    assert_eq!(final_level(&base), 3, "resolution >= 3 pins the fine level");
    println!(
        "baseline: final level {} | {} events, 0 control audits, rerun byte-identical",
        final_level(&base),
        base.obs.events().len()
    );

    // -- 2. Flip: Set scheduler.prefs mid-run ----------------------------
    let mut sc_flip = sc.clone();
    sc_flip.commands = vec![(
        1_000_000,
        "operator".into(),
        Command::set("scheduler.prefs", "minimize:transmit_time"),
    )];
    let flip = run(&sc_flip);
    let audits = flip.obs.events_filtered(&EventFilter::control_audit());
    assert!(
        audits
            .iter()
            .any(|e| e.kind == "config_set" && e.str_field("key") == Some("scheduler.prefs")),
        "the Set must be audited; got {audits:?}"
    );
    assert_eq!(
        final_level(&flip),
        2,
        "unconstrained transmit-time minimization must pick the coarse level after the collapse"
    );
    let decides = flip.obs.events_filtered(&EventFilter::decisions());
    assert_eq!(
        decides.last().expect("post-flip decision").u64_field("pref_version"),
        Some(1),
        "post-flip decisions are stamped with the preference version"
    );
    println!(
        "flip:     final level {} (baseline {}), audit: {:?}",
        final_level(&flip),
        final_level(&base),
        audits[0]
    );

    // -- 3. Pin: the steering loop respects operator pins ----------------
    let mut sc_pin = sc.clone();
    sc_pin.commands = vec![
        (500_000, "sre".into(), Command::PinConfig { key: "scheduler.prefs".into() }),
        (1_000_000, "operator".into(), Command::set("scheduler.prefs", "minimize:transmit_time")),
    ];
    let pin = run(&sc_pin);
    let audits = pin.obs.events_filtered(&EventFilter::control_audit());
    assert!(
        audits.iter().any(|e| e.kind == "config_reject" && e.str_field("reason") == Some("pinned")),
        "the pinned Set must be refused and audited; got {audits:?}"
    );
    assert_eq!(final_level(&pin), 3, "pinned preferences keep the fine level");
    println!("pin:      final level {} — Set refused while pinned", final_level(&pin));
    println!("\npreference flip complete.");
}
