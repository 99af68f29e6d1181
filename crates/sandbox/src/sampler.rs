//! Periodic resource-usage sampling (the "NT Performance Monitor" analog).
//!
//! Figure 3(a) of the paper shows a Performance Monitor trace of an
//! application's CPU usage while the testbed varies its share.
//! [`UsageSampler`] reproduces that: an independent actor that reads a
//! target actor's CPU time every interval and records the observed CPU
//! share (CPU time received / interval) into a shared time series.

use simnet::{Actor, ActorId, Ctx, SimTime};
use std::sync::{Arc, Mutex};

/// A shared, append-only `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct SeriesHandle(Arc<Mutex<Vec<(SimTime, f64)>>>);

impl SeriesHandle {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&self, t: SimTime, v: f64) {
        self.0.lock().unwrap().push((t, v));
    }

    /// Copy the collected points out.
    pub fn points(&self) -> Vec<(SimTime, f64)> {
        self.0.lock().unwrap().clone()
    }

    pub fn len(&self) -> usize {
        self.0.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.lock().unwrap().is_empty()
    }

    /// Mean value over points with `t` in `[from, to)`.
    pub fn mean_in(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let pts = self.0.lock().unwrap();
        let vals: Vec<f64> =
            pts.iter().filter(|(t, _)| *t >= from && *t < to).map(|(_, v)| *v).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }
}

/// Samples the CPU usage of `target` every `interval_us`, recording the
/// share of one full processor used during each interval.
pub struct UsageSampler {
    target: ActorId,
    interval_us: u64,
    series: SeriesHandle,
    stop_at: Option<SimTime>,
    last_cpu_us: f64,
    obs: Option<SamplerObs>,
}

/// Pre-registered metric targets so each sample stays allocation-free.
struct SamplerObs {
    obs: obs::Obs,
    sample_span: obs::MetricId,
    cpu_share: obs::MetricId,
}

impl UsageSampler {
    pub fn new(target: ActorId, interval_us: u64, series: SeriesHandle) -> Self {
        assert!(interval_us > 0);
        UsageSampler { target, interval_us, series, stop_at: None, last_cpu_us: 0.0, obs: None }
    }

    /// Stop sampling at `t` (otherwise samples forever, keeping the
    /// simulation alive).
    pub fn until(mut self, t: SimTime) -> Self {
        self.stop_at = Some(t);
        self
    }

    /// Mirror every sample into `obs`: the observed share on the
    /// `"sandbox.cpu_share"` gauge and per-sample latency on the
    /// `"sandbox.sample"` histogram.
    pub fn with_obs(mut self, obs: &obs::Obs) -> Self {
        self.obs = Some(SamplerObs {
            obs: obs.clone(),
            sample_span: obs.histogram("sandbox.sample"),
            cpu_share: obs.gauge("sandbox.cpu_share"),
        });
        self
    }
}

impl Actor for UsageSampler {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.interval_us, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        let _span = self.obs.as_ref().map(|h| h.obs.span(h.sample_span));
        let cpu_us = ctx.cpu_time_of(self.target);
        let share = (cpu_us - self.last_cpu_us) / self.interval_us as f64;
        self.last_cpu_us = cpu_us;
        self.series.push(ctx.now(), share);
        if let Some(h) = &self.obs {
            h.obs.set(h.cpu_share, share);
        }
        match self.stop_at {
            Some(t) if ctx.now() + self.interval_us > t => {}
            _ => ctx.set_timer(self.interval_us, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::{Limits, LimitsHandle};
    use crate::progress::SandboxStats;
    use crate::wrap::Sandboxed;
    use simnet::{dur, Sim};

    struct Grinder;
    impl Actor for Grinder {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(1e12); // effectively forever
        }
    }

    #[test]
    fn sampler_tracks_capped_usage() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let lh = LimitsHandle::new(Limits::cpu(0.8));
        let sb = Sandboxed::new(Grinder, lh.clone(), SandboxStats::default());
        let target = sim.spawn(h, Box::new(sb));
        let series = SeriesHandle::new();
        sim.spawn(
            h,
            Box::new(
                UsageSampler::new(target, dur::secs(1), series.clone())
                    .until(SimTime::from_secs(10)),
            ),
        );
        sim.at(SimTime::from_secs(5), move |_| lh.set_cpu_share(Some(0.3)));
        sim.run_until(SimTime::from_secs(10));
        // First half ~0.8, second half ~0.3.
        let early = series.mean_in(SimTime::from_secs(1), SimTime::from_secs(5)).unwrap();
        let late = series.mean_in(SimTime::from_secs(7), SimTime::from_secs(10)).unwrap();
        assert!((early - 0.8).abs() < 0.05, "early mean {early}");
        assert!((late - 0.3).abs() < 0.05, "late mean {late}");
    }

    #[test]
    fn sampler_mirrors_into_obs() {
        let obs = obs::Obs::new();
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let lh = LimitsHandle::new(Limits::cpu(0.5));
        let sb = Sandboxed::new(Grinder, lh, SandboxStats::default());
        let target = sim.spawn(h, Box::new(sb));
        let series = SeriesHandle::new();
        sim.spawn(
            h,
            Box::new(
                UsageSampler::new(target, dur::secs(1), series.clone())
                    .until(SimTime::from_secs(5))
                    .with_obs(&obs),
            ),
        );
        sim.run_until(SimTime::from_secs(5));
        let gauge = obs.lookup("sandbox.cpu_share").unwrap();
        let span = obs.lookup("sandbox.sample").unwrap();
        // Gauge holds the most recent sample; histogram saw one span per sample.
        let last = series.points().last().unwrap().1;
        assert_eq!(obs.gauge_value(gauge), last);
        assert_eq!(obs.histogram_stats(span).count, series.len() as u64);
    }

    #[test]
    fn sampler_stops_at_deadline() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        struct Idle;
        impl Actor for Idle {}
        let target = sim.spawn(h, Box::new(Idle));
        let series = SeriesHandle::new();
        sim.spawn(
            h,
            Box::new(
                UsageSampler::new(target, dur::secs(1), series.clone())
                    .until(SimTime::from_secs(3)),
            ),
        );
        sim.run_until_idle();
        assert_eq!(series.len(), 3);
        assert!(series.points().iter().all(|(_, v)| *v == 0.0));
    }
}
