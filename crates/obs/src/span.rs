//! Span-style profiling: time a scope, record microseconds on drop.
//!
//! Every span always folds its elapsed time into its histogram. When the
//! `obs.export.spans` knob is on, spans *additionally* record a
//! `SpanRecord` — id, parent id (from a thread-local scope stack), and
//! wall-clock start/end relative to the `Obs` epoch — which the
//! OTLP-shaped JSON exporter turns into a trace. When the knob is off
//! (the default), the only extra cost per span is one atomic load.

use crate::metrics::MetricId;
use crate::Obs;
use std::cell::RefCell;
use std::time::Instant;

/// One completed span, retained for trace export. Times are wall-clock
/// nanoseconds since the owning `Obs` was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanRecord {
    pub(crate) span_id: u64,
    pub(crate) parent_id: Option<u64>,
    pub(crate) metric: MetricId,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

thread_local! {
    /// Open-span stack for the current thread: the top is the parent of
    /// the next span opened here. RAII scoping keeps it LIFO.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`Obs::span`]. Measures wall-clock time from
/// construction to drop and records the elapsed microseconds into the
/// histogram it was opened against.
///
/// Wall-clock spans feed *profiling* metrics only; they never influence
/// simulation behaviour, so determinism of sim-derived data is unaffected.
#[must_use = "a span records its timing when dropped; binding it to `_` drops it immediately"]
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    id: MetricId,
    start: Instant,
    /// `Some((span_id, parent_id, start_ns))` iff trace export was on at
    /// open time.
    trace: Option<(u64, Option<u64>, u64)>,
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(obs: &'a Obs, id: MetricId) -> Self {
        let trace = if obs.span_export_enabled() {
            let span_id = obs.alloc_span_id();
            let parent_id = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                let parent = s.last().copied();
                s.push(span_id);
                parent
            });
            Some((span_id, parent_id, obs.epoch_ns()))
        } else {
            None
        };
        SpanGuard { obs, id, start: Instant::now(), trace }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_secs_f64() * 1e6;
        self.obs.observe(self.id, us);
        if let Some((span_id, parent_id, start_ns)) = self.trace {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // RAII drops are LIFO so this is the top; tolerate
                // out-of-order drops anyway.
                if let Some(pos) = s.iter().rposition(|&id| id == span_id) {
                    s.remove(pos);
                }
            });
            self.obs.record_span(SpanRecord {
                span_id,
                parent_id,
                metric: self.id,
                start_ns,
                end_ns: self.obs.epoch_ns(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_independently() {
        let obs = Obs::new();
        let outer = obs.histogram("outer");
        let inner = obs.histogram("inner");
        {
            let _o = obs.span(outer);
            {
                let _i = obs.span(inner);
            }
            {
                let _i = obs.span(inner);
            }
        }
        assert_eq!(obs.histogram_stats(outer).count, 1);
        assert_eq!(obs.histogram_stats(inner).count, 2);
    }

    #[test]
    fn spans_are_not_retained_unless_export_is_enabled() {
        let obs = Obs::new();
        let h = obs.histogram("h");
        {
            let _g = obs.span(h);
        }
        assert_eq!(obs.spans_recorded(), 0, "off by default");
        obs.set_span_export(true);
        {
            let _g = obs.span(h);
        }
        assert_eq!(obs.spans_recorded(), 1);
        obs.set_span_export(false);
        {
            let _g = obs.span(h);
        }
        assert_eq!(obs.spans_recorded(), 1, "re-disabled");
    }

    #[test]
    fn parent_child_nesting_follows_scope_structure() {
        let obs = Obs::new();
        obs.set_span_export(true);
        let outer = obs.histogram("outer");
        let inner = obs.histogram("inner");
        {
            let _o = obs.span(outer);
            {
                let _i = obs.span(inner);
            }
            {
                let _i = obs.span(inner);
            }
        }
        // A root span after the tree must have no parent.
        {
            let _r = obs.span(outer);
        }
        let spans = obs.spans_snapshot();
        assert_eq!(spans.len(), 4);
        // Inner spans completed first; both point at the outer span.
        let outer_id = spans[2].span_id;
        assert_eq!(spans[0].parent_id, Some(outer_id));
        assert_eq!(spans[1].parent_id, Some(outer_id));
        assert_eq!(spans[2].parent_id, None);
        assert_eq!(spans[3].parent_id, None);
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
    }
}
