//! Property test: subscription filtering never drops or reorders events
//! relative to the full published stream, and an event published packed
//! reads back identical to the same event built eagerly.
//!
//! Event sequences are generated from a seeded linear-congruential stream
//! so the property is expressible in the numeric-range proptest subset.

use obs::det::SplitMix64;
use obs::{Event, EventFilter, FieldType, Obs, Shape, Source, Value, PACKED_SLOTS};

const SOURCES: [Source; 5] =
    [Source::Simnet, Source::Monitor, Source::Scheduler, Source::Steering, Source::App];
const KINDS: [&str; 4] = ["trigger", "decide", "switch", "image"];

/// Deterministic event stream derived from `seed`.
fn publish_stream(obs: &Obs, seed: u64, n: usize) -> Vec<Event> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    let mut published = Vec::with_capacity(n);
    for i in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let source = SOURCES[(state >> 33) as usize % SOURCES.len()];
        let kind = KINDS[(state >> 17) as usize % KINDS.len()];
        let ev = Event::new(i as u64, source, kind).with("n", i);
        obs.publish(ev.clone());
        published.push(ev);
    }
    published
}

type Fields = &'static [(&'static str, FieldType)];

/// Packed shapes, each next to the description its eager twin is built
/// from: every field type, a fixed string between value fields, all three
/// slots used, none used.
const SPECS: [(Source, &str, Fields); 5] = [
    (
        Source::Simnet,
        "msg_sent",
        &[("src", FieldType::U64), ("dst", FieldType::U64), ("bytes", FieldType::U64)],
    ),
    (Source::Simnet, "compute_start", &[("actor", FieldType::U64), ("work", FieldType::F64)]),
    (
        Source::Monitor,
        "trigger",
        &[("estimate", FieldType::F64), ("why", FieldType::Str("drop")), ("n", FieldType::U64)],
    ),
    (
        Source::Simnet,
        "msg_dropped",
        &[("x", FieldType::F64), ("y", FieldType::F64), ("reason", FieldType::Str("loss"))],
    ),
    (Source::App, "image", &[]),
];
static SHAPES: [Shape; 5] = [
    Shape::new(SPECS[0].0, SPECS[0].1, SPECS[0].2),
    Shape::new(SPECS[1].0, SPECS[1].1, SPECS[1].2),
    Shape::new(SPECS[2].0, SPECS[2].1, SPECS[2].2),
    Shape::new(SPECS[3].0, SPECS[3].1, SPECS[3].2),
    Shape::new(SPECS[4].0, SPECS[4].1, SPECS[4].2),
];

/// `f64` bit patterns a random draw rarely hits: NaNs with payloads and
/// sign, signed zeros and infinities, the smallest subnormal.
const F64_EDGES: [u64; 7] = [
    0x7ff8_0000_0000_0001,
    0xfff0_0000_dead_beef,
    0x8000_0000_0000_0000,
    0,
    0x7ff0_0000_0000_0000,
    0xfff0_0000_0000_0000,
    1,
];

/// The eager twin of a packed publish of `SHAPES[i]`.
fn built(at_us: u64, i: usize, vals: [u64; PACKED_SLOTS]) -> Event {
    let (source, kind, fields) = SPECS[i];
    let mut slots = vals.into_iter();
    fields.iter().fold(Event::new(at_us, source, kind), |ev, &(key, ty)| match ty {
        FieldType::U64 => ev.with(key, slots.next().unwrap()),
        FieldType::F64 => ev.with(key, f64::from_bits(slots.next().unwrap())),
        FieldType::Str(s) => ev.with(key, s),
    })
}

/// A seeded stream that interleaves packed publishes (random shape and
/// slot values, `f64` edge patterns among them) with built events; returns
/// the same stream built eagerly.
fn publish_mixed(obs: &Obs, seed: u64, n: usize) -> Vec<Event> {
    let mut rng = SplitMix64::new(seed);
    let mut eager = Vec::with_capacity(n);
    for at_us in 0..n as u64 {
        if rng.below(2) == 0 {
            let ev =
                Event::new(at_us, SOURCES[rng.below(5) as usize], KINDS[rng.below(4) as usize])
                    .with("n", at_us);
            obs.publish(ev.clone());
            eager.push(ev);
            continue;
        }
        let i = rng.below(SHAPES.len() as u64) as usize;
        let vals: [u64; PACKED_SLOTS] = std::array::from_fn(|_| match rng.below(3) {
            0 => F64_EDGES[rng.below(F64_EDGES.len() as u64) as usize],
            _ => rng.next_u64(),
        });
        obs.publish_packed(at_us, &SHAPES[i], vals);
        eager.push(built(at_us, i, vals));
    }
    eager
}

/// Each event as a line with every `f64` field as its bit pattern, so two
/// NaNs with the same bits compare equal and `0.0` differs from `-0.0`.
fn exact(events: &[Event]) -> Vec<String> {
    let field = |(key, v): &(&str, Value)| match v {
        Value::F64(x) => format!("{key}=f64:{:#x}", x.to_bits()),
        other => format!("{key}={other:?}"),
    };
    events
        .iter()
        .map(|e| {
            let fields: Vec<String> = e.fields.iter().map(field).collect();
            format!("{} {:?} {} {}", e.at_us, e.source, e.kind, fields.join(" "))
        })
        .collect()
}

fn owned(events: Vec<std::sync::Arc<Event>>) -> Vec<Event> {
    events.iter().map(|e| (**e).clone()).collect()
}

proptest::proptest! {
    #[test]
    fn a_packed_event_reads_back_as_the_event_built_eagerly(seed in 0u64..10_000) {
        let obs = Obs::new();
        let filter = EventFilter::any().source(Source::Simnet).source(Source::Monitor)
            .kind("msg_dropped").kind("trigger").kind("decide");
        let all = obs.subscribe(EventFilter::any());
        let some = obs.subscribe(filter.clone());
        let eager = publish_mixed(&obs, seed, 200);
        let picked: Vec<Event> = eager.iter().filter(|e| filter.matches(e)).cloned().collect();

        proptest::prop_assert_eq!(exact(&owned(obs.events())), exact(&eager));
        proptest::prop_assert_eq!(exact(&owned(obs.events_filtered(&filter))), exact(&picked));
        proptest::prop_assert_eq!(exact(&owned(obs.drain(&all))), exact(&eager));
        proptest::prop_assert_eq!(exact(&owned(obs.drain(&some))), exact(&picked));
    }

    #[test]
    fn filtered_subscription_is_exact_subsequence(seed in 0u64..10_000) {
        let obs = Obs::new();
        let filter = EventFilter::any().source(Source::Monitor).source(Source::Steering)
            .kind("trigger").kind("switch");
        let sub = obs.subscribe(filter.clone());
        let published = publish_stream(&obs, seed, 200);

        // What the subscriber saw ...
        let seen: Vec<Event> = obs.drain(&sub).iter().map(|e| (**e).clone()).collect();
        // ... must equal filtering the full stream after the fact: nothing
        // dropped, nothing reordered, nothing invented.
        let expected: Vec<Event> =
            published.iter().filter(|e| filter.matches(e)).cloned().collect();
        proptest::prop_assert_eq!(seen, expected);

        // The retained ring holds the full stream in publish order.
        let ring: Vec<Event> = obs.events().iter().map(|e| (**e).clone()).collect();
        proptest::prop_assert_eq!(ring, published);
    }

    #[test]
    fn unfiltered_subscription_sees_everything(seed in 0u64..10_000) {
        let obs = Obs::new();
        let sub = obs.subscribe(EventFilter::any());
        let published = publish_stream(&obs, seed, 64);
        let seen: Vec<Event> = obs.drain(&sub).iter().map(|e| (**e).clone()).collect();
        proptest::prop_assert_eq!(seen, published);
    }
}
