//! Structured, sim-timestamped events.

/// Which layer of the stack published an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The discrete-event simulation kernel (compute, messages, faults).
    Simnet,
    /// The monitoring agent (triggers, estimates).
    Monitor,
    /// The resource scheduler (decisions, dead ends).
    Scheduler,
    /// The steering agent (switches, NAKs, degradation).
    Steering,
    /// The application itself (rounds, images, configuration history).
    App,
    /// The load-generation harness (session arrivals, completions,
    /// aggregate throughput — see `visapp::load`).
    Load,
    /// The cluster arbiter (admission, policing, overload shedding —
    /// see the `arbiter` crate).
    Arbiter,
    /// The live control plane (config mutations, pins, breaker resets —
    /// see [`crate::control`]).
    Control,
    /// The online model-refinement engine (residual drift alarms, slice
    /// re-profiles, database hot-swaps — see `adapt_core::refine`).
    Refine,
}

impl Source {
    /// Stable lowercase name used by the renderer and exporter.
    pub fn name(self) -> &'static str {
        match self {
            Source::Simnet => "simnet",
            Source::Monitor => "monitor",
            Source::Scheduler => "scheduler",
            Source::Steering => "steering",
            Source::App => "app",
            Source::Load => "load",
            Source::Arbiter => "arbiter",
            Source::Control => "control",
            Source::Refine => "refine",
        }
    }
}

/// A typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One structured telemetry event.
///
/// Timestamps are simulation microseconds (`SimTime::as_us`), not wall
/// clock, so event streams from deterministic runs compare byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulation time in microseconds.
    pub at_us: u64,
    /// Publishing layer.
    pub source: Source,
    /// Stable machine-readable kind, e.g. `"msg_dropped"` or `"switch"`.
    pub kind: &'static str,
    /// Ordered key/value payload.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Start building an event with no fields.
    pub fn new(at_us: u64, source: Source, kind: &'static str) -> Self {
        Event { at_us, source, kind, fields: Vec::new() }
    }

    /// Attach a field (builder-style).
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Field as `u64` (also accepts non-negative `I64`).
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        match self.field(key)? {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Field as `f64` (integers coerce).
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        match self.field(key)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Field as string slice.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.field(key)? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Value slots in a packed event: the `[u64; PACKED_SLOTS]` of
/// [`crate::Obs::publish_packed`].
pub const PACKED_SLOTS: usize = 3;

/// The type of one field of a [`Shape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// A `u64`, the next value slot as it is.
    U64,
    /// An `f64`, the next value slot read by `f64::from_bits`.
    F64,
    /// A string the shape fixes; it takes no value slot.
    Str(&'static str),
}

/// The fixed layout of an event published packed: its source, its kind,
/// and its fields in order.
///
/// A packed event is `(at_us, &'static Shape, [u64; PACKED_SLOTS])`; it
/// costs no allocation to publish and becomes an [`Event`] only when a
/// reader asks for it. The built event equals the one
/// `Event::new(at_us, source, kind).with(..)` makes from the same fields,
/// with `U64` fields as [`Value::U64`], `F64` as [`Value::F64`] and `Str`
/// as [`Value::Str`].
#[derive(Debug)]
pub struct Shape {
    pub(crate) source: Source,
    pub(crate) kind: &'static str,
    fields: &'static [(&'static str, FieldType)],
}

impl Shape {
    /// A shape. Its `U64` and `F64` fields fill the value slots in order,
    /// so there may be at most [`PACKED_SLOTS`] of them; a `static` shape
    /// with more does not compile.
    pub const fn new(
        source: Source,
        kind: &'static str,
        fields: &'static [(&'static str, FieldType)],
    ) -> Shape {
        let (mut i, mut slots) = (0, 0);
        while i < fields.len() {
            if !matches!(fields[i].1, FieldType::Str(_)) {
                slots += 1;
            }
            i += 1;
        }
        assert!(slots <= PACKED_SLOTS, "a shape has more value fields than packed slots");
        Shape { source, kind, fields }
    }

    /// The event a packed record of this shape stands for.
    pub(crate) fn build(&self, at_us: u64, vals: &[u64; PACKED_SLOTS]) -> Event {
        let mut slots = vals.iter().copied();
        let mut next = || slots.next().expect("Shape::new bounds the value fields");
        let fields = self
            .fields
            .iter()
            .map(|&(key, ty)| {
                let value = match ty {
                    FieldType::U64 => Value::U64(next()),
                    FieldType::F64 => Value::F64(f64::from_bits(next())),
                    FieldType::Str(s) => Value::Str(s.to_string()),
                };
                (key, value)
            })
            .collect();
        Event { at_us, source: self.source, kind: self.kind, fields }
    }
}

/// Predicate over events for subscriptions and snapshots.
///
/// An empty filter ([`EventFilter::any`]) matches everything; adding
/// sources or kinds restricts to those sets (OR within a set, AND across
/// the two sets).
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    sources: Option<Vec<Source>>,
    kinds: Option<Vec<&'static str>>,
}

impl EventFilter {
    /// Match every event.
    pub fn any() -> Self {
        Self::default()
    }

    /// Also accept events from `source` (restricts to listed sources).
    pub fn source(mut self, source: Source) -> Self {
        self.sources.get_or_insert_with(Vec::new).push(source);
        self
    }

    /// Also accept events of `kind` (restricts to listed kinds).
    pub fn kind(mut self, kind: &'static str) -> Self {
        self.kinds.get_or_insert_with(Vec::new).push(kind);
        self
    }

    /// Preset: every adaptation-loop event — monitor triggers, scheduler
    /// decisions, steering transitions. The working set of the invariant
    /// oracles in `adapt-dst`.
    pub fn adaptation() -> Self {
        Self::any().source(Source::Monitor).source(Source::Scheduler).source(Source::Steering)
    }

    /// Preset: steering `degrade`/`recover` transitions, in bus order.
    /// The staleness-ordering oracle checks these strictly alternate,
    /// starting with `degrade`.
    pub fn degrade_recover() -> Self {
        Self::any().source(Source::Steering).kind("degrade").kind("recover")
    }

    /// Preset: scheduler `decide` events, whose `config`/`rank` fields the
    /// decision-validity oracle checks against the performance database.
    pub fn decisions() -> Self {
        Self::any().source(Source::Scheduler).kind("decide")
    }

    /// Preset: application integrity events — applied rounds, circuit
    /// breaker transitions, and dropped duplicate replies.
    pub fn app_integrity() -> Self {
        Self::any()
            .source(Source::App)
            .kind("round")
            .kind("breaker_open")
            .kind("breaker_close")
            .kind("dup_reply")
    }

    /// Preset: the control plane's audit trail — config mutations,
    /// rejections, pins, and breaker resets, in dispatch order. The
    /// working set of the `config_audit_complete` oracle in `adapt-dst`.
    pub fn control_audit() -> Self {
        Self::any().source(Source::Control)
    }

    /// Preset: the model-refinement audit trail — residual drift alarms
    /// and database slice hot-swaps, in detection order. The working set
    /// of the model-drift oracle in `adapt-dst`.
    pub fn refine_audit() -> Self {
        Self::any().source(Source::Refine)
    }

    /// Does `ev` pass this filter?
    pub fn matches(&self, ev: &Event) -> bool {
        self.admits(ev.source, ev.kind)
    }

    /// Does an event of this source and kind pass? The filter reads
    /// nothing else, so a packed event is matched without being built.
    pub(crate) fn admits(&self, source: Source, kind: &'static str) -> bool {
        self.sources.as_ref().is_none_or(|s| s.contains(&source))
            && self.kinds.as_ref().is_none_or(|k| k.contains(&kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors_round_trip() {
        let ev = Event::new(5, Source::App, "image")
            .with("n", 3u64)
            .with("key", "dr128")
            .with("ok", true)
            .with("ratio", 0.5)
            .with("delta", -2i64);
        assert_eq!(ev.u64_field("n"), Some(3));
        assert_eq!(ev.str_field("key"), Some("dr128"));
        assert_eq!(ev.field("ok"), Some(&Value::Bool(true)));
        assert_eq!(ev.f64_field("ratio"), Some(0.5));
        assert_eq!(ev.field("delta"), Some(&Value::I64(-2)));
        assert_eq!(ev.u64_field("missing"), None);
        assert_eq!(ev.str_field("n"), None);
    }

    #[test]
    fn filter_semantics() {
        let ev = Event::new(0, Source::Monitor, "trigger");
        assert!(EventFilter::any().matches(&ev));
        assert!(EventFilter::any().source(Source::Monitor).matches(&ev));
        assert!(!EventFilter::any().source(Source::App).matches(&ev));
        assert!(EventFilter::any().source(Source::App).source(Source::Monitor).matches(&ev));
        assert!(EventFilter::any().kind("trigger").matches(&ev));
        assert!(!EventFilter::any().kind("decide").matches(&ev));
        assert!(!EventFilter::any().source(Source::Monitor).kind("decide").matches(&ev));
    }
}
