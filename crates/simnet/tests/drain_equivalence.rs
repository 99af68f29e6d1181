//! Kernel-level drain equivalence on linked multi-host topologies:
//! `DrainMode::Heap` is the reference order, and `DrainMode::Batched` and
//! the identity `DrainMode::Explore` plan must reproduce it
//! observable-for-observable — per-actor message logs with timestamps,
//! per-actor accounting, end time, and event counts — with and without
//! fault injection.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use simnet::{
    dur, Actor, ActorId, Ctx, DrainMode, ExplorePlan, FaultPlan, HostId, Message, Sim, SimTime,
    Snapshot,
};

/// The drains held to the `Heap` reference.
const CHECKED: [DrainMode; 2] = [DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))];

/// Per-actor message log: `(recv time us, src, tag, bytes)` in receive
/// order. Each actor appends only to its own vector.
type MsgLog = Arc<Mutex<Vec<(u64, usize, u64, u64)>>>;

/// Echoes every message back and logs what it saw.
struct EchoLog {
    log: MsgLog,
}

impl Actor for EchoLog {
    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        self.log.lock().unwrap().push((ctx.now().as_us(), from.0, msg.tag, msg.wire_bytes));
        ctx.send(from, Message::signal(msg.tag + 1, msg.wire_bytes / 2 + 64));
    }
}

/// Sends `rounds` messages to `dst` on a timer grid and logs replies.
struct DriverLog {
    dst: ActorId,
    period_us: u64,
    rounds: u32,
    bytes: u64,
    log: MsgLog,
}

impl Actor for DriverLog {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period_us, 0);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        if self.rounds > 0 {
            self.rounds -= 1;
            ctx.compute(50.0);
            ctx.send(self.dst, Message::signal(1, self.bytes));
            ctx.set_timer(self.period_us, 0);
        }
    }
    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        self.log.lock().unwrap().push((ctx.now().as_us(), from.0, msg.tag, msg.wire_bytes));
    }
}

/// Everything one run observably did.
#[derive(Debug, PartialEq)]
struct Outcome {
    logs: Vec<Vec<(u64, usize, u64, u64)>>,
    snaps: Vec<Snapshot>,
    end_us: u64,
    events_handled: u64,
}

/// Drain `sim` to idle and collect what it did.
fn outcome(mut sim: Sim, logs: &[MsgLog], actors: &[ActorId]) -> Outcome {
    sim.run_until_idle();
    Outcome {
        logs: logs.iter().map(|l| l.lock().unwrap().clone()).collect(),
        snaps: actors.iter().map(|&a| sim.snapshot(a)).collect(),
        end_us: sim.now().as_us(),
        events_handled: sim.events_handled(),
    }
}

/// Two hosts per "cell", cells linked pairwise with distinct latencies:
/// host `2i` drives, host `2i+1` echoes, and drivers also ping the echo of
/// the next cell, so traffic crosses every link of one six-host component.
fn crossing_run(mode: DrainMode, faults: Option<&FaultPlan>) -> Outcome {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let hosts: Vec<HostId> = (0..6).map(|i| sim.add_host(&format!("h{i}"), 1.0, 1 << 30)).collect();
    // Intra-cell links (fast) and cross-cell links (slower, distinct).
    for c in 0..3 {
        sim.set_link(hosts[2 * c], hosts[2 * c + 1], 5_000_000.0, 40 + c as u64);
    }
    for c in 0..3usize {
        let next = (c + 1) % 3;
        sim.set_link(hosts[2 * c], hosts[2 * next + 1], 1_000_000.0, 90 + 7 * c as u64);
    }
    let logs: Vec<MsgLog> = (0..9).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
    let echoes: Vec<ActorId> = (0..3)
        .map(|c| sim.spawn(hosts[2 * c + 1], Box::new(EchoLog { log: logs[c].clone() })))
        .collect();
    let mut actors = echoes.clone();
    for c in 0..3usize {
        let next = (c + 1) % 3;
        // One driver talking to its own cell, one talking across cells.
        actors.push(sim.spawn(
            hosts[2 * c],
            Box::new(DriverLog {
                dst: echoes[c],
                period_us: dur::ms(3) + c as u64,
                rounds: 15,
                bytes: 1200,
                log: logs[3 + c].clone(),
            }),
        ));
        actors.push(sim.spawn(
            hosts[2 * c],
            Box::new(DriverLog {
                dst: echoes[next],
                period_us: dur::ms(5) + c as u64,
                rounds: 10,
                bytes: 900,
                log: logs[6 + c].clone(),
            }),
        ));
    }
    if let Some(plan) = faults {
        plan.install(&mut sim);
    }
    outcome(sim, &logs, &actors)
}

#[test]
fn drains_agree_on_a_linked_multi_host_run() {
    let heap = crossing_run(DrainMode::Heap, None);
    assert!(heap.logs.iter().all(|l| !l.is_empty()), "every actor must exchange messages");
    for mode in CHECKED {
        assert_eq!(heap, crossing_run(mode, None), "{mode:?}");
    }
}

#[test]
fn drains_agree_on_a_linked_multi_host_run_under_faults() {
    // Loss + jitter + a down window + a crash/restart, all on one plan.
    let plan = FaultPlan::new(42)
        .with_loss(HostId(0), HostId(1), 0.2)
        .with_jitter(HostId(2), HostId(3), 400)
        .with_link_down(HostId(0), HostId(3), SimTime::from_ms(8), SimTime::from_ms(22))
        .with_crash(HostId(4), SimTime::from_ms(12), Some(SimTime::from_ms(30)));
    let heap = crossing_run(DrainMode::Heap, Some(&plan));
    assert_ne!(heap, crossing_run(DrainMode::Heap, None), "the plan must change the run");
    for mode in CHECKED {
        assert_eq!(heap, crossing_run(mode, Some(&plan)), "{mode:?}");
    }
}

// ---------------------------------------------------------------------
// Property: random small topologies on a coarse grid — every drain must
// reproduce the heap schedule exactly. Periods, sizes and latencies come
// from a few values and drivers share one echo per host, so timers and
// deliveries collide on the same instant and the order in which an echo
// logs its senders is the queue's same-timestamp order.
// ---------------------------------------------------------------------

const LATENCIES_US: [u64; 3] = [0, 50, 100];
const SIZES: [u64; 2] = [64, 1500];

#[derive(Debug, Clone)]
struct RandomTopo {
    n_hosts: usize,
    /// `(a, b, index into LATENCIES_US)` explicit links (both directions).
    links: Vec<(usize, usize, usize)>,
    /// `(driver_host, echo_host, period in 500 us steps, rounds, index
    /// into SIZES)`; flows between hosts without an explicit link ride the
    /// default link.
    flows: Vec<(usize, usize, u64, u32, usize)>,
}

fn arb_topo() -> impl Strategy<Value = RandomTopo> {
    (2usize..=6).prop_flat_map(|n| {
        let link = (0..n, 0..n, 0..LATENCIES_US.len());
        let flow = (0..n, 0..n, 1u64..=6, 1u32..10, 0..SIZES.len());
        (proptest::collection::vec(link, 1..12), proptest::collection::vec(flow, 2..8))
            .prop_map(move |(links, flows)| RandomTopo { n_hosts: n, links, flows })
    })
}

fn topo_run(t: &RandomTopo, mode: DrainMode) -> Outcome {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let hosts: Vec<HostId> =
        (0..t.n_hosts).map(|i| sim.add_host(&format!("h{i}"), 1.0, 1 << 30)).collect();
    for &(a, b, lat) in &t.links {
        if a != b {
            sim.set_link(hosts[a], hosts[b], 2_000_000.0, LATENCIES_US[lat]);
        }
    }
    let mut logs: Vec<MsgLog> = Vec::new();
    let mut log = || {
        logs.push(Arc::new(Mutex::new(Vec::new())));
        logs.last().unwrap().clone()
    };
    let mut actors: Vec<ActorId> =
        hosts.iter().map(|&h| sim.spawn(h, Box::new(EchoLog { log: log() }))).collect();
    for &(dh, eh, steps, rounds, size) in &t.flows {
        let driver = DriverLog {
            dst: actors[eh],
            period_us: 500 * steps,
            rounds,
            bytes: SIZES[size],
            log: log(),
        };
        actors.push(sim.spawn(hosts[dh], Box::new(driver)));
    }
    outcome(sim, &logs, &actors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn drains_agree_on_random_topologies(t in arb_topo()) {
        let heap = topo_run(&t, DrainMode::Heap);
        for mode in CHECKED {
            prop_assert_eq!(&heap, &topo_run(&t, mode), "{:?}", mode);
        }
    }
}
