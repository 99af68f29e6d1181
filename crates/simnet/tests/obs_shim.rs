//! The obs bus alone carries the full kernel event stream: a faulted,
//! seeded workload publishes every kernel event kind with its pinned
//! fields, and re-running it reproduces the stream byte-for-byte.

use std::collections::BTreeMap;

use obs::det::Fnv64;
use obs::{Obs, Source, Value};
use simnet::{dur, Actor, ActorId, Ctx, FaultPlan, Message, Sim, SimTime};

struct Echo;
impl Actor for Echo {
    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        ctx.send(from, Message::signal(msg.tag, msg.wire_bytes));
    }
}

struct Burst {
    dst: ActorId,
    left: u32,
}
impl Actor for Burst {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(500.0);
        ctx.set_timer(dur::ms(5), 1);
    }
    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send_now(self.dst, Message::signal(3, 2_000));
            ctx.set_timer(dur::ms(5), 1);
        }
    }
}

/// A loss / down-window / crash workload; only the kernel publishes to
/// the returned bus.
fn faulted_bus() -> Obs {
    let obs = Obs::new();
    let mut sim = Sim::new();
    let ha = sim.add_host("a", 1.0, 1 << 30);
    let hb = sim.add_host("b", 1.0, 1 << 30);
    sim.set_link(ha, hb, 1_000_000.0, 150);
    let echo = sim.spawn(hb, Box::new(Echo));
    sim.spawn(ha, Box::new(Burst { dst: echo, left: 25 }));

    sim.attach_obs(&obs);
    FaultPlan::new(5)
        .with_loss(ha, hb, 0.2)
        .with_link_down(ha, hb, SimTime::from_ms(40), SimTime::from_ms(60))
        .with_crash(hb, SimTime::from_ms(90), Some(SimTime::from_ms(100)))
        .install(&mut sim);
    sim.run_until_idle();
    obs
}

#[test]
fn bus_is_the_sole_source_of_kernel_events_and_is_deterministic() {
    let first = faulted_bus();
    let evs = first.events();
    assert!(!evs.is_empty(), "workload must produce events");
    assert!(
        evs.iter().any(|e| e.kind == "msg_dropped" && e.str_field("reason").is_some()),
        "faulted run must drop messages"
    );
    assert!(
        evs.iter().any(|e| e.kind == "host_crash" && e.u64_field("host").is_some()),
        "crash schedule must land on the bus"
    );

    // Same seeds, same workload: the stream is identical, field for field
    // and byte for byte.
    let second = faulted_bus();
    assert_eq!(evs, second.events());
    assert_eq!(first.render(), second.render());
}

/// The faulted workload's kernel events, pinned: how many of each kind,
/// and an FNV-1a digest of the rendered bus (time, kind, field names,
/// field order and values of every event).
#[test]
fn faulted_workload_bus_is_pinned() {
    let obs = faulted_bus();
    let mut per_kind = BTreeMap::new();
    let mut shapes = BTreeMap::new();
    for e in obs.events() {
        assert_eq!(e.source, Source::Simnet);
        *per_kind.entry(e.kind).or_insert(0usize) += 1;
        let shape: Vec<String> = e
            .fields
            .iter()
            .map(|(k, v)| {
                let ty = match v {
                    Value::I64(_) => "i64",
                    Value::U64(_) => "u64",
                    Value::F64(_) => "f64",
                    Value::Str(_) => "str",
                    Value::Bool(_) => "bool",
                };
                format!("{k}:{ty}")
            })
            .collect();
        shapes.entry(e.kind).or_insert_with(Vec::new).push(shape.join(" "));
    }
    for v in shapes.values_mut() {
        v.sort();
        v.dedup();
    }
    let want_counts: BTreeMap<&str, usize> = [
        ("compute_end", 1),
        ("compute_start", 1),
        ("host_crash", 1),
        ("host_restart", 1),
        ("link_down", 2),
        ("link_up", 2),
        ("msg_delivered", 24),
        ("msg_dropped", 14),
        ("msg_sent", 38),
        ("timer_fired", 26),
    ]
    .into_iter()
    .collect();
    assert_eq!(per_kind, want_counts);
    let want_shapes: BTreeMap<&str, Vec<String>> = [
        ("compute_end", &["actor:u64"][..]),
        ("compute_start", &["actor:u64 work:f64"]),
        ("host_crash", &["host:u64"]),
        ("host_restart", &["host:u64"]),
        ("link_down", &["src:u64 dst:u64"]),
        ("link_up", &["src:u64 dst:u64"]),
        ("msg_delivered", &["src:u64 dst:u64 bytes:u64"]),
        ("msg_dropped", &["src:u64 dst:u64 bytes:u64 reason:str"]),
        ("msg_sent", &["src:u64 dst:u64 bytes:u64"]),
        ("timer_fired", &["actor:u64 tag:u64"]),
    ]
    .into_iter()
    .map(|(k, v)| (k, v.iter().map(|s| s.to_string()).collect()))
    .collect();
    assert_eq!(shapes, want_shapes);
    let mut h = Fnv64::new();
    h.write_str(&obs.render());
    assert_eq!(format!("{:016x}", h.finish()), "09c28f27fb3e78c3");
}
