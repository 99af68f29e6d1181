//! Interned metrics registry: counters, gauges, log-bucketed histograms.
//!
//! Registration interns the name once and hands back a dense [`MetricId`];
//! all recording operations are plain array indexing on that id, so the
//! 10 ms monitor hot path never allocates.

use std::collections::HashMap;

/// Dense handle to a registered metric. Obtain via `Obs::counter` /
/// `Obs::gauge` / `Obs::histogram`; recording with an id from a different
/// `Obs` instance silently hits whatever metric occupies that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(pub(crate) u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Data {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Hist>),
}

impl Data {
    fn kind(&self) -> Kind {
        match self {
            Data::Counter(_) => Kind::Counter,
            Data::Gauge(_) => Kind::Gauge,
            Data::Histogram(_) => Kind::Histogram,
        }
    }
}

/// Name-interning store behind `Obs`. Not public API; use the `Obs` methods.
#[derive(Default)]
pub(crate) struct Registry {
    metrics: Vec<Data>,
    names: HashMap<String, u32>,
}

impl Registry {
    pub(crate) fn register(&mut self, name: &str, kind: Kind) -> MetricId {
        if let Some(&ix) = self.names.get(name) {
            let have = self.metrics[ix as usize].kind();
            assert!(
                have == kind,
                "metric `{name}` already registered as {}, requested {}",
                have.name(),
                kind.name()
            );
            return MetricId(ix);
        }
        let ix = self.metrics.len() as u32;
        let data = match kind {
            Kind::Counter => Data::Counter(0),
            Kind::Gauge => Data::Gauge(0.0),
            Kind::Histogram => Data::Histogram(Box::default()),
        };
        self.metrics.push(data);
        self.names.insert(name.to_string(), ix);
        MetricId(ix)
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<MetricId> {
        self.names.get(name).copied().map(MetricId)
    }

    pub(crate) fn len(&self) -> usize {
        self.metrics.len()
    }

    #[inline]
    pub(crate) fn inc(&mut self, id: MetricId, n: u64) {
        if let Some(Data::Counter(c)) = self.metrics.get_mut(id.0 as usize) {
            *c += n;
        }
    }

    #[inline]
    pub(crate) fn set(&mut self, id: MetricId, v: f64) {
        if let Some(Data::Gauge(g)) = self.metrics.get_mut(id.0 as usize) {
            *g = v;
        }
    }

    #[inline]
    pub(crate) fn observe(&mut self, id: MetricId, v_us: f64) {
        if let Some(Data::Histogram(h)) = self.metrics.get_mut(id.0 as usize) {
            h.observe(v_us);
        }
    }

    pub(crate) fn counter_value(&self, id: MetricId) -> u64 {
        match self.metrics.get(id.0 as usize) {
            Some(Data::Counter(c)) => *c,
            _ => 0,
        }
    }

    pub(crate) fn gauge_value(&self, id: MetricId) -> f64 {
        match self.metrics.get(id.0 as usize) {
            Some(Data::Gauge(g)) => *g,
            _ => 0.0,
        }
    }

    pub(crate) fn histogram_stats(&self, id: MetricId) -> HistStats {
        match self.metrics.get(id.0 as usize) {
            Some(Data::Histogram(h)) => h.stats(),
            _ => HistStats::default(),
        }
    }
}

const BUCKETS: usize = 64;

/// Fixed-bucket histogram: one bucket per power of two of nanoseconds.
/// Values are recorded in microseconds; a value of `v` µs lands in bucket
/// `bit_length(v * 1000)`. Exact count/sum/min/max ride along so percentile
/// estimates can be clamped to the observed range.
struct Hist {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Hist {
    #[inline]
    fn observe(&mut self, v_us: f64) {
        let ns = if v_us <= 0.0 { 0 } else { (v_us * 1000.0).min(u64::MAX as f64) as u64 };
        let ix = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[ix] += 1;
        self.count += 1;
        self.sum += v_us;
        self.min = self.min.min(v_us);
        self.max = self.max.max(v_us);
    }

    fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (ix, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                // Upper bound of the bucket, converted back to microseconds,
                // clamped to the exact observed range.
                let upper_ns =
                    if ix >= 63 { u64::MAX } else { (1u64 << ix).saturating_sub(1).max(1) };
                return (upper_ns as f64 / 1000.0).clamp(self.min, self.max);
            }
        }
        self.max
    }

    fn stats(&self) -> HistStats {
        if self.count == 0 {
            return HistStats::default();
        }
        HistStats {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.percentile(0.50),
            p95: self.percentile(0.95),
            p99: self.percentile(0.99),
        }
    }
}

/// Summary of a histogram at read time. All values in microseconds except
/// `count`. Percentiles are bucket upper bounds (≤ 2x error) clamped to the
/// observed `[min, max]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistStats {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
}

impl HistStats {
    /// Mean observation in microseconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_hist_is_zeroed() {
        let h = Hist::default();
        assert_eq!(h.stats(), HistStats::default());
        assert_eq!(h.stats().mean(), 0.0);
    }

    #[test]
    fn single_observation_is_exact() {
        let mut h = Hist::default();
        h.observe(42.0);
        let s = h.stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
        // Clamped to the observed range, so all percentiles are exact here.
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p99, 42.0);
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let mut h = Hist::default();
        for i in 1..=1000u32 {
            h.observe(i as f64);
        }
        let s = h.stats();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(s.p50 >= s.min && s.p99 <= s.max);
        // p50 of 1..=1000 µs should land within a factor of two of 500 µs.
        assert!(s.p50 >= 250.0 && s.p50 <= 1000.0, "p50 = {}", s.p50);
    }

    #[test]
    fn zero_and_negative_observations_are_safe() {
        let mut h = Hist::default();
        h.observe(0.0);
        h.observe(-5.0);
        let s = h.stats();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, -5.0);
    }
}
