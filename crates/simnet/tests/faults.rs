//! Fault-injection integration tests: deterministic loss, jitter, down
//! windows, partitions, and host crash/restart, all visible on the obs
//! event bus.

use std::sync::Arc;
use std::sync::Mutex;

use obs::{Event, EventFilter, Obs, Source};
use simnet::{dur, Actor, ActorId, Ctx, DropReason, FaultPlan, HostId, Message, Sim, SimTime};

/// All kernel events published to `obs`, in bus order.
fn simnet_events(obs: &Obs) -> Vec<Arc<Event>> {
    obs.events_filtered(&EventFilter::any().source(Source::Simnet))
}

/// How many `msg_dropped` events carry `reason`.
fn drops(evs: &[Arc<Event>], reason: DropReason) -> usize {
    evs.iter()
        .filter(|e| e.kind == "msg_dropped" && e.str_field("reason") == Some(reason.name()))
        .count()
}

/// Is there an event of `kind` at `t`?
fn has_at(evs: &[Arc<Event>], kind: &str, t: SimTime) -> bool {
    evs.iter().any(|e| e.kind == kind && e.at_us == t.as_us())
}

fn has(evs: &[Arc<Event>], kind: &str) -> bool {
    evs.iter().any(|e| e.kind == kind)
}

/// Sends one message to `dst` every `period_us`, counting replies.
struct Pinger {
    dst: ActorId,
    period_us: u64,
    sent: Arc<Mutex<u32>>,
    got: Arc<Mutex<u32>>,
    rounds: u32,
}

impl Actor for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period_us, 1);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        if *self.sent.lock().unwrap() < self.rounds {
            *self.sent.lock().unwrap() += 1;
            ctx.send_now(self.dst, Message::signal(7, 1000));
            ctx.set_timer(self.period_us, 1);
        }
    }
    fn on_message(&mut self, _from: ActorId, _msg: Message, _ctx: &mut Ctx<'_>) {
        *self.got.lock().unwrap() += 1;
    }
}

/// Echoes every message back to its sender.
struct Echo;
impl Actor for Echo {
    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        ctx.send(from, Message::signal(msg.tag, msg.wire_bytes));
    }
}

fn ping_setup(rounds: u32) -> (Sim, HostId, HostId, Arc<Mutex<u32>>, Arc<Mutex<u32>>) {
    let mut sim = Sim::new();
    let ha = sim.add_host("a", 1.0, 1 << 30);
    let hb = sim.add_host("b", 1.0, 1 << 30);
    sim.set_link(ha, hb, 1_000_000.0, 100);
    let echo = sim.spawn(hb, Box::new(Echo));
    let sent = Arc::new(Mutex::new(0));
    let got = Arc::new(Mutex::new(0));
    sim.spawn(
        ha,
        Box::new(Pinger {
            dst: echo,
            period_us: dur::ms(10),
            sent: sent.clone(),
            got: got.clone(),
            rounds,
        }),
    );
    (sim, ha, hb, sent, got)
}

#[test]
fn down_window_drops_and_recovers() {
    let (mut sim, ha, hb, sent, got) = ping_setup(20);
    let obs = Obs::new();
    sim.attach_obs(&obs);
    FaultPlan::new(1)
        .with_link_down(ha, hb, SimTime::from_ms(45), SimTime::from_ms(105))
        .install(&mut sim);
    sim.run_until_idle();
    assert_eq!(*sent.lock().unwrap(), 20);
    // Pings at 50..=100 ms fall in the window: 6 of 20 lost.
    assert_eq!(*got.lock().unwrap(), 14);
    let evs = simnet_events(&obs);
    assert_eq!(drops(&evs, DropReason::LinkDown), 6);
    assert!(has_at(&evs, "link_down", SimTime::from_ms(45)));
    assert!(has_at(&evs, "link_up", SimTime::from_ms(105)));
}

#[test]
fn loss_is_traced_and_deterministic() {
    let run = || {
        let (mut sim, ha, hb, _, got) = ping_setup(50);
        let obs = Obs::new();
        sim.attach_obs(&obs);
        FaultPlan::new(42).with_loss(ha, hb, 0.5).install(&mut sim);
        sim.run_until_idle();
        let g = *got.lock().unwrap();
        (g, simnet_events(&obs))
    };
    let (got1, trace1) = run();
    let (got2, trace2) = run();
    assert_eq!(got1, got2, "identical plans must give identical outcomes");
    assert_eq!(trace1, trace2, "traces must be bit-identical");
    assert!(drops(&trace1, DropReason::Loss) > 0, "50% loss must drop something");
    assert!(got1 < 50, "some round trips must fail");
}

#[test]
fn jitter_delays_but_delivers_everything() {
    let deliveries = |seed: u64| {
        let (mut sim, ha, hb, _, got) = ping_setup(20);
        let obs = Obs::new();
        sim.attach_obs(&obs);
        FaultPlan::new(seed).with_jitter(ha, hb, 5_000).install(&mut sim);
        sim.run_until_idle();
        assert_eq!(*got.lock().unwrap(), 20, "jitter must not lose messages");
        simnet_events(&obs)
            .iter()
            .filter(|e| e.kind == "msg_delivered")
            .map(|e| e.at_us)
            .collect::<Vec<_>>()
    };
    let d1 = deliveries(9);
    let d2 = deliveries(9);
    assert_eq!(d1, d2, "jitter must be deterministic for a fixed seed");
    let d3 = deliveries(10);
    assert_ne!(d1, d3, "different seeds should produce different schedules");
}

#[test]
fn partition_cuts_cross_links_only() {
    let mut sim = Sim::new();
    let ha = sim.add_host("a", 1.0, 1 << 30);
    let hb = sim.add_host("b", 1.0, 1 << 30);
    let hc = sim.add_host("c", 1.0, 1 << 30);
    FaultPlan::new(0)
        .with_partition(&[ha], &[hb, hc], SimTime::from_ms(1), SimTime::from_ms(2))
        .install(&mut sim);
    sim.run_until(SimTime::from_us(1500));
    assert!(sim.is_link_down(ha, hb));
    assert!(sim.is_link_down(hb, ha));
    assert!(sim.is_link_down(ha, hc));
    assert!(!sim.is_link_down(hb, hc), "links within a group stay up");
    sim.run_until_idle();
    assert!(!sim.is_link_down(ha, hb), "partition heals");
}

/// Every link setter on one directed pair, and on a host's link to itself:
/// loss, jitter and a down window on `a <-> b`, the link replaced and
/// re-rated mid-run (faults survive both), and loss, jitter and a down
/// window on `a -> a` (local messages draw loss and jitter but ignore the
/// window). Pinned: the kernel events per kind and an FNV-1a digest of the
/// rendered bus.
#[test]
fn link_setters_compose_on_one_pair_and_are_pinned() {
    let mut sim = Sim::new();
    let obs = Obs::new();
    sim.attach_obs(&obs);
    let ha = sim.add_host("a", 1.0, 1 << 30);
    let hb = sim.add_host("b", 1.0, 1 << 30);
    sim.set_link(ha, hb, 1_000_000.0, 100);
    let counters = || (Arc::new(Mutex::new(0)), Arc::new(Mutex::new(0)));
    let ((rsent, rgot), (lsent, lgot)) = (counters(), counters());
    let remote = sim.spawn(hb, Box::new(Echo));
    let local = sim.spawn(ha, Box::new(Echo));
    for (dst, sent, got) in [(remote, &rsent, &rgot), (local, &lsent, &lgot)] {
        let (sent, got) = (sent.clone(), got.clone());
        sim.spawn(ha, Box::new(Pinger { dst, period_us: dur::ms(10), sent, got, rounds: 40 }));
    }
    FaultPlan::new(11)
        .with_loss(ha, hb, 0.25)
        .with_jitter(ha, hb, 3_000)
        .with_link_down(ha, hb, SimTime::from_ms(120), SimTime::from_ms(170))
        .with_loss_directed(ha, ha, 0.2)
        .with_jitter(ha, ha, 400)
        .with_link_down(ha, ha, SimTime::from_ms(50), SimTime::from_ms(300))
        .install(&mut sim);
    sim.at(SimTime::from_ms(200), move |s| s.set_link(ha, hb, 200_000.0, 300));
    sim.at(SimTime::from_ms(300), move |s| s.set_link_bandwidth(hb, ha, 50_000.0));
    sim.run_until_idle();

    assert_eq!(sim.link_capacity_bps(ha, hb), 200_000.0);
    assert_eq!(sim.link_capacity_bps(hb, ha), 50_000.0);
    assert_eq!(sim.link_capacity_bps(ha, ha), 12_500_000.0);
    let evs = simnet_events(&obs);
    let got = [*rgot.lock().unwrap(), *lgot.lock().unwrap()];
    let dropped = [DropReason::Loss, DropReason::LinkDown].map(|r| drops(&evs, r));
    assert_eq!((got, dropped), ([19, 31], [25, 5]));
    let mut h = obs::det::Fnv64::new();
    h.write_str(&obs.render());
    assert_eq!(format!("{:016x}", h.finish()), "58c3bc739dcb9d0c");
}

/// Counts restarts; sets a timer that must NOT survive the crash.
struct CrashDummy {
    starts: Arc<Mutex<u32>>,
    stale_fired: Arc<Mutex<bool>>,
}

impl Actor for CrashDummy {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        *self.starts.lock().unwrap() += 1;
        if *self.starts.lock().unwrap() == 1 {
            // Armed pre-crash; would fire post-restart if not cancelled.
            ctx.set_timer(dur::ms(500), 99);
        }
    }
    fn on_timer(&mut self, tag: u64, _ctx: &mut Ctx<'_>) {
        if tag == 99 {
            *self.stale_fired.lock().unwrap() = true;
        }
    }
}

#[test]
fn crash_restart_rehydrates_and_cancels_stale_timers() {
    let mut sim = Sim::new();
    let h = sim.add_host("srv", 1.0, 1 << 30);
    let obs = Obs::new();
    sim.attach_obs(&obs);
    let starts = Arc::new(Mutex::new(0));
    let stale = Arc::new(Mutex::new(false));
    let a =
        sim.spawn(h, Box::new(CrashDummy { starts: starts.clone(), stale_fired: stale.clone() }));
    FaultPlan::new(0)
        .with_crash(h, SimTime::from_ms(100), Some(SimTime::from_ms(200)))
        .install(&mut sim);
    sim.run_until(SimTime::from_ms(150));
    assert!(!sim.is_alive(a), "actor dead during the outage");
    sim.run_until_idle();
    assert!(sim.is_alive(a), "actor restarted");
    assert_eq!(*starts.lock().unwrap(), 2, "on_start re-ran on restart");
    assert!(!*stale.lock().unwrap(), "pre-crash timer must not fire post-restart");
    let evs = simnet_events(&obs);
    assert!(has(&evs, "host_crash"));
    assert!(has(&evs, "host_restart"));
}

#[test]
fn messages_to_crashed_host_are_dropped_as_receiver_dead() {
    let mut sim = Sim::new();
    let ha = sim.add_host("a", 1.0, 1 << 30);
    let hb = sim.add_host("b", 1.0, 1 << 30);
    let obs = Obs::new();
    sim.attach_obs(&obs);
    let echo = sim.spawn(hb, Box::new(Echo));
    let sent = Arc::new(Mutex::new(0));
    let got = Arc::new(Mutex::new(0));
    sim.spawn(
        ha,
        Box::new(Pinger {
            dst: echo,
            period_us: dur::ms(10),
            sent: sent.clone(),
            got: got.clone(),
            rounds: 10,
        }),
    );
    // Crash covers pings 5..10 (at 50..100 ms); no restart.
    FaultPlan::new(0).with_crash(hb, SimTime::from_ms(45), None).install(&mut sim);
    sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), 4);
    assert_eq!(drops(&simnet_events(&obs), DropReason::ReceiverDead), 6);
}
