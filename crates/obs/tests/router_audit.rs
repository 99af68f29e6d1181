//! The control plane's audit trail at volume: every dispatched mutation
//! lands, bumps the knob's version once and leaves exactly one audit
//! event, and a run of 50 000 dispatches fits the bus ring without a drop.

use obs::{Adaptive, Command, CommandRouter, ConfigRegistry, EventFilter, Obs};

#[test]
fn fifty_thousand_dispatches_leave_fifty_thousand_audit_events() {
    const DISPATCHES: u64 = 50_000;
    let obs = Obs::new();
    let registry = ConfigRegistry::new();
    let knob = Adaptive::new(0u64);
    registry.register_knob("bench.counter", knob.clone());
    let router = CommandRouter::new(registry).with_obs(&obs);
    for i in 0..DISPATCHES {
        router
            .dispatch(i, "bench", Command::set("bench.counter", i + 1))
            .expect("set on a registered u64 knob");
    }
    assert_eq!(knob.load(), DISPATCHES, "every dispatch landed");
    assert_eq!(knob.version(), DISPATCHES, "one version per mutation");
    let audit = obs.events_filtered(&EventFilter::control_audit());
    assert_eq!(audit.len() as u64, DISPATCHES, "one audit event per mutation");
    assert_eq!(obs.events_dropped(), 0, "the ring kept every event");
}
