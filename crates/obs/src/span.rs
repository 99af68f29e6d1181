//! Span-style profiling: time a scope, record microseconds on drop.

use crate::metrics::MetricId;
use crate::Obs;
use std::time::Instant;

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
}

impl<'a> SpanGuard<'a> {
    pub(crate) fn new(obs: &'a Obs, id: MetricId) -> Self {
        SpanGuard { obs, id, start: Instant::now() }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.obs.observe(self.id, self.start.elapsed().as_secs_f64() * 1e6);
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
}
