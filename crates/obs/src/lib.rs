//! Unified observability layer: one metrics/event API for the whole
//! framework.
//!
//! The paper's monitoring agent, steering agent, and resource scheduler all
//! reason over *measurements*, so every crate in this workspace funnels its
//! telemetry through a single [`Obs`] handle instead of keeping a private
//! event vector:
//!
//! * a [`MetricsRegistry`](metrics) of counters, gauges, and fixed-bucket
//!   histograms keyed by interned [`MetricId`]s, so recording on the 10 ms
//!   monitor hot path is allocation-free;
//! * a structured [`Event`] type (sim-timestamped, tagged with a [`Source`])
//!   flowing through a ring-buffered [`EventBus`](bus) with filtered
//!   subscriptions; a high-rate publisher stores a packed record of a
//!   static [`Shape`] instead, built into an [`Event`] only when read;
//! * span-style profiling hooks ([`Obs::span`]) that time a scope on the
//!   wall clock and fold the elapsed microseconds into a histogram;
//! * a deterministic JSON exporter ([`Obs::export_json`]) and a
//!   human-readable [`Obs::render`] that subsumes the old `Trace::render`;
//! * the workspace's deterministic primitives ([`det`]): the one seeded
//!   stream and the one digest every crate draws and hashes with.
//!
//! The handle is cheaply cloneable (an `Arc`) and thread-safe; a simulation,
//! its client, and its adaptive runtime all share one instance.
//!
//! ```
//! use obs::{Event, EventFilter, Obs, Source};
//!
//! let obs = Obs::new();
//! let ticks = obs.counter("monitor.ticks");
//! obs.inc(ticks, 1);
//!
//! let lat = obs.histogram("scheduler.choose");
//! {
//!     let _span = obs.span(lat);
//!     // ... timed work ...
//! }
//!
//! obs.publish(Event::new(10_000, Source::Monitor, "trigger").with("estimate", 0.25));
//! let triggers = obs.events_filtered(&EventFilter::any().source(Source::Monitor));
//! assert_eq!(triggers.len(), 1);
//! assert!(obs.export_json().contains("\"monitor.ticks\": 1"));
//! ```

#![forbid(unsafe_code)]

pub mod bus;
pub mod control;
pub mod det;
pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod span;

pub use bus::{EventBus, Subscription};
pub use control::{
    Adaptive, Command, CommandOutcome, CommandRouter, ConfigEntry, ConfigRegistry, ConfigValue,
    ControlError, FnKnob, Knob, KnobError, ResetSignal,
};
pub use event::{Event, EventFilter, FieldType, Shape, Source, Value, PACKED_SLOTS};
pub use metrics::{HistStats, MetricId};
pub use span::SpanGuard;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Shared observability handle: a metrics registry plus an event bus.
///
/// Clones share the same underlying state. All methods take `&self`; the
/// handle is `Send + Sync` so profiling spans work across threads.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Arc<Inner>,
}

struct Inner {
    metrics: Mutex<metrics::Registry>,
    bus: Mutex<EventBus>,
    /// Completed trace spans, retained only while `span_export` is on.
    spans: Mutex<Vec<span::SpanRecord>>,
    /// The `obs.export.spans` knob: off by default so span tracing costs
    /// one atomic load per span until explicitly enabled.
    span_export: Adaptive<bool>,
    next_span_id: AtomicU64,
    /// Wall-clock zero for span timestamps.
    epoch: Instant,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            metrics: Mutex::default(),
            bus: Mutex::default(),
            spans: Mutex::default(),
            span_export: Adaptive::new(false),
            next_span_id: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let m = self.metrics();
        let b = self.bus();
        f.debug_struct("Obs")
            .field("metrics", &m.len())
            .field("events_published", &b.published())
            .finish()
    }
}

impl Obs {
    /// Create a fresh, empty observability context.
    pub fn new() -> Self {
        Self::default()
    }

    fn metrics(&self) -> MutexGuard<'_, metrics::Registry> {
        self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn bus(&self) -> MutexGuard<'_, EventBus> {
        self.inner.bus.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ---- metric registration (allocates; do once, outside hot paths) ----

    /// Register (or look up) a monotonic counter. Idempotent per name.
    pub fn counter(&self, name: &str) -> MetricId {
        self.metrics().register(name, metrics::Kind::Counter)
    }

    /// Register (or look up) a last-value gauge. Idempotent per name.
    pub fn gauge(&self, name: &str) -> MetricId {
        self.metrics().register(name, metrics::Kind::Gauge)
    }

    /// Register (or look up) a log-bucketed histogram of microsecond values.
    /// Idempotent per name.
    pub fn histogram(&self, name: &str) -> MetricId {
        self.metrics().register(name, metrics::Kind::Histogram)
    }

    /// Look up a previously registered metric by name.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.metrics().lookup(name)
    }

    // ---- hot-path recording (allocation-free) ----

    /// Add `n` to a counter. Allocation-free.
    pub fn inc(&self, id: MetricId, n: u64) {
        self.metrics().inc(id, n);
    }

    /// Set a gauge to `v`. Allocation-free.
    pub fn set(&self, id: MetricId, v: f64) {
        self.metrics().set(id, v);
    }

    /// Record one observation (in microseconds) into a histogram.
    /// Allocation-free.
    pub fn observe(&self, id: MetricId, v_us: f64) {
        self.metrics().observe(id, v_us);
    }

    /// Time a scope on the wall clock; the guard records elapsed
    /// microseconds into histogram `id` on drop. Allocation-free given a
    /// pre-registered id.
    pub fn span(&self, id: MetricId) -> SpanGuard<'_> {
        SpanGuard::new(self, id)
    }

    /// Convenience: [`Obs::span`] with interning. Registers the histogram on
    /// first use (allocates then); subsequent calls only pay a map lookup.
    pub fn span_named(&self, name: &str) -> SpanGuard<'_> {
        let id = self.histogram(name);
        SpanGuard::new(self, id)
    }

    // ---- metric reads ----

    /// Current value of a counter (0 if `id` is not a counter).
    pub fn counter_value(&self, id: MetricId) -> u64 {
        self.metrics().counter_value(id)
    }

    /// Current value of a gauge (0.0 if `id` is not a gauge).
    pub fn gauge_value(&self, id: MetricId) -> f64 {
        self.metrics().gauge_value(id)
    }

    /// Summary statistics for a histogram (zeroed if `id` is not one).
    pub fn histogram_stats(&self, id: MetricId) -> HistStats {
        self.metrics().histogram_stats(id)
    }

    // ---- event bus ----

    /// Publish an event to the ring buffer and any matching subscribers.
    pub fn publish(&self, ev: Event) {
        self.bus().publish(ev);
    }

    /// Publish an event of a fixed `shape` without building it: `vals`
    /// fill the shape's `U64`/`F64` fields in order (unused slots are
    /// ignored). Readers see the same [`Event`] that [`Obs::publish`]
    /// would have stored; it is built when a snapshot or drain reads it.
    /// Allocation-free once the ring is full.
    pub fn publish_packed(&self, at_us: u64, shape: &'static Shape, vals: [u64; PACKED_SLOTS]) {
        self.bus().publish_packed(at_us, shape, vals);
    }

    /// Open a subscription; events matching `filter` queue until drained.
    pub fn subscribe(&self, filter: EventFilter) -> Subscription {
        self.bus().subscribe(filter)
    }

    /// Take every event queued on `sub` since the last drain.
    pub fn drain(&self, sub: &Subscription) -> Vec<Arc<Event>> {
        self.bus().drain(sub)
    }

    /// A snapshot of the retained event ring, oldest first.
    pub fn events(&self) -> Vec<Arc<Event>> {
        self.bus().snapshot()
    }

    /// A snapshot of retained events matching `filter`, oldest first.
    pub fn events_filtered(&self, filter: &EventFilter) -> Vec<Arc<Event>> {
        self.bus().snapshot_filtered(filter)
    }

    /// Total events ever published (including any evicted from the ring).
    pub fn events_published(&self) -> u64 {
        self.bus().published()
    }

    /// Events evicted from the ring because it was full.
    pub fn events_dropped(&self) -> u64 {
        self.bus().dropped()
    }

    // ---- span tracing (opt-in via the `obs.export.spans` knob) ----

    /// Is span-trace retention currently on?
    pub(crate) fn span_export_enabled(&self) -> bool {
        self.inner.span_export.get()
    }

    /// Turn span-trace retention on or off. Spans opened while off leave
    /// no trace record (their histogram timing is unaffected).
    pub fn set_span_export(&self, on: bool) {
        self.inner.span_export.set(on);
    }

    /// Register this handle's export knobs on a control-plane registry:
    /// `obs.export.spans` (bool) toggles span-trace retention at run time.
    pub fn register_export_knobs(&self, registry: &ConfigRegistry) {
        registry.register_knob("obs.export.spans", self.inner.span_export.clone());
    }

    /// Number of trace spans retained so far.
    pub fn spans_recorded(&self) -> usize {
        self.spans().len()
    }

    /// Discard all retained trace spans.
    pub fn clear_spans(&self) {
        self.spans().clear();
    }

    fn spans(&self) -> MutexGuard<'_, Vec<span::SpanRecord>> {
        self.inner.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn spans_snapshot(&self) -> Vec<span::SpanRecord> {
        self.spans().clone()
    }

    pub(crate) fn alloc_span_id(&self) -> u64 {
        self.inner.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn epoch_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }

    pub(crate) fn record_span(&self, rec: span::SpanRecord) {
        self.spans().push(rec);
    }

    // ---- export ----

    /// Render retained events one line per event (for test debugging).
    pub fn render(&self) -> String {
        export::render(&self.events())
    }

    /// Export all metrics and bus totals as deterministic JSON.
    pub fn export_json(&self) -> String {
        export::export_json(&self.metrics(), &self.bus())
    }

    /// Render the metric registry in Prometheus text exposition format:
    /// counters and gauges as single samples, histograms as cumulative
    /// `_bucket`/`_sum`/`_count` series plus a `<name>_quantiles` summary
    /// with p50/p95/p99. Deterministic for deterministic inputs.
    pub fn export_prometheus(&self) -> String {
        export::render_prometheus(&self.metrics())
    }

    /// Export retained trace spans as OTLP-shaped JSON
    /// (`resourceSpans` → `scopeSpans` → `spans`, hex trace/span ids,
    /// `parentSpanId` from RAII nesting). Empty-but-valid when span
    /// export was never enabled.
    pub fn export_otlp_spans(&self) -> String {
        export::export_otlp_spans(&self.metrics(), &self.spans_snapshot())
    }
}

/// Common imports for obs users.
pub mod prelude {
    pub use crate::{
        Adaptive, Command, CommandRouter, ConfigRegistry, ConfigValue, Event, EventFilter,
        HistStats, MetricId, Obs, Source, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_interned_and_monotonic() {
        let obs = Obs::new();
        let a = obs.counter("x");
        let b = obs.counter("x");
        assert_eq!(a, b);
        obs.inc(a, 2);
        obs.inc(b, 3);
        assert_eq!(obs.counter_value(a), 5);
        assert_eq!(obs.lookup("x"), Some(a));
        assert_eq!(obs.lookup("y"), None);
    }

    #[test]
    fn gauge_keeps_last_value() {
        let obs = Obs::new();
        let g = obs.gauge("g");
        obs.set(g, 1.0);
        obs.set(g, -2.5);
        assert_eq!(obs.gauge_value(g), -2.5);
    }

    #[test]
    fn histogram_percentiles_bracket_observations() {
        let obs = Obs::new();
        let h = obs.histogram("h");
        for v in [100.0, 200.0, 400.0, 800.0] {
            obs.observe(h, v);
        }
        let s = obs.histogram_stats(h);
        assert_eq!(s.count, 4);
        assert_eq!(s.min, 100.0);
        assert_eq!(s.max, 800.0);
        assert!(s.p50 >= 100.0 && s.p50 <= 800.0);
        assert!(s.p99 >= s.p50);
    }

    #[test]
    fn span_records_into_histogram() {
        let obs = Obs::new();
        let h = obs.histogram("span.h");
        {
            let _g = obs.span(h);
        }
        {
            let _g = obs.span_named("span.h");
        }
        assert_eq!(obs.histogram_stats(h).count, 2);
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::new();
        let c = obs.counter("shared");
        let other = obs.clone();
        other.inc(c, 7);
        assert_eq!(obs.counter_value(c), 7);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let obs = Obs::new();
        obs.counter("m");
        obs.gauge("m");
    }
}
