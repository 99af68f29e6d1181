//! The socket-smoke session the digest-contract test replays on pure
//! simnet and through every real socket backend: one adaptive
//! bandwidth-collapse run (LZW at 60 KB/s, the link drops to 2 KB/s at
//! t = 2 s, the client must switch to Bzip), optionally with every
//! message detoured through a [`simnet::WireHook`].

use std::sync::Arc;

use adapt_core::{Constraint, Objective, Preference, PreferenceList};
use obs::det::Fnv64;
use sandbox::{LimitSchedule, Limits};
use simnet::{SimTime, WireHook};
use visapp::{build_db, run_session, Driver, RunOutcome, Scenario};

/// Run the smoke session on pure simnet (`wire = None`) or through `wire`.
/// Every input is rebuilt from constants, so two calls differ only in the
/// hook.
pub fn smoke_session(wire: Option<WireHook>) -> RunOutcome {
    let sc = Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    };
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ));
    let store = sc.build_store();
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let schedule =
        LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));
    let db = Arc::new(build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2));
    run_session(&sc, &store, Driver::Adaptive(db, prefs), start, Some(schedule), None, wire)
}

/// FNV-1a over the decision lines, newline-terminated: the digest
/// `tests/digest_contract.rs` pins.
pub fn decision_digest(lines: &[String]) -> u64 {
    let mut h = Fnv64::new();
    for line in lines {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}
