//! The socket-session proof: a full spec → profile → schedule → steer
//! adaptive round where every message crosses a real loopback socket,
//! asserted to make *exactly* the same adaptive decisions as the pure
//! simnet run of the same seed.
//!
//! The wire hook serializes each transmitted message with `VizCodec`,
//! frames it, round-trips it through a kernel TCP (or UDS) connection,
//! and delivers the reconstructed bytes back to the simulation. Since
//! the kernel owns virtual time, any divergence in the decision sequence
//! can only come from codec or framing infidelity — so sequence equality
//! is a bit-level correctness proof for the socket backend.

use std::sync::Arc;

use adapt_core::{Constraint, Objective, Preference, PreferenceList};
use compress::Method;
use sandbox::{LimitSchedule, Limits};
use simnet::SimTime;
use visapp::{
    build_db, decision_sequence, run_session, socket_mirror_hook, Driver, MirrorBackend, Scenario,
};

/// The miniature bandwidth-collapse experiment: starts on LZW at
/// 60 KB/s, net drops to 2 KB/s at t=2s, adaptive client must switch to
/// Bzip. Same inputs as the committed simnet end-to-end test.
fn drop_scenario() -> Scenario {
    Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    }
}

fn drop_prefs() -> PreferenceList {
    PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", 3.0)],
        Objective::minimize("transmit_time"),
    ))
}

fn drop_limits() -> (Limits, LimitSchedule) {
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let schedule =
        LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));
    (start, schedule)
}

fn check_backend(backend: MirrorBackend) {
    let sc = drop_scenario();
    let store = sc.build_store();
    let (start, schedule) = drop_limits();

    // Reference run: pure simnet.
    let db = Arc::new(build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 2));
    let run = |wire| {
        let driver = Driver::Adaptive(db.clone(), drop_prefs());
        run_session(&sc, &store, driver, start, Some(schedule.clone()), None, wire)
    };
    let stock = run(None);

    // Wired run: identical inputs, every message over a real socket.
    let (hook, handle) = match socket_mirror_hook(backend) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("skipping {} socket session: {e}", backend.name());
            return;
        }
    };
    let wired = run(Some(hook));
    let report = handle.finish();

    // The whole point: byte-serialization through the socket must not
    // perturb a single adaptive decision.
    assert_eq!(
        decision_sequence(&stock.stats),
        decision_sequence(&wired.stats),
        "socket transport diverged from the simnet decision sequence"
    );
    assert_eq!(stock.stats.images.len(), wired.stats.images.len());
    assert_eq!(stock.stats.rounds.len(), wired.stats.rounds.len());
    assert_eq!(stock.stats.finished_at, wired.stats.finished_at);
    assert_eq!(stock.end, wired.end, "virtual end time must match exactly");

    // And the run itself must exercise adaptation: lzw first, bzip last.
    let hist = &wired.stats.config_history;
    assert_eq!(hist[0].1.get("c"), Some(Method::Lzw.code()), "starts with lzw");
    assert_eq!(hist.last().unwrap().1.get("c"), Some(Method::Bzip.code()), "ends with bzip");
    assert!(hist.len() >= 2, "at least one runtime steering decision");

    // Traffic sanity: the session genuinely crossed the wire.
    assert_eq!(report.messages, report.echoed, "every message echoed exactly once");
    assert!(report.messages > 0 && report.wire_bytes > 0, "report: {report:?}");
    eprintln!(
        "{} session: {} messages, {} wire bytes, {} decisions",
        report.backend,
        report.messages,
        report.wire_bytes,
        hist.len()
    );
}

#[test]
fn adaptive_session_over_tcp_matches_simnet_decisions() {
    check_backend(MirrorBackend::Tcp);
}

#[test]
#[cfg(unix)]
fn adaptive_session_over_uds_matches_simnet_decisions_or_skips() {
    check_backend(MirrorBackend::Uds);
}
