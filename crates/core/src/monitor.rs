//! The monitoring agent: application-specific estimation of available
//! resources, with range-triggered reporting.
//!
//! §6.1: the agent "runs periodically (every 10 ms) and processes raw data
//! within a history window", estimating "the shortfall between the level
//! of resources requested by the application from the system and what it
//! actually obtained", and communicates with the scheduler "only when
//! resource availability falls out of a range". The raw observations come
//! from the same machinery as the sandbox's progress estimator
//! (`sandbox::SandboxStats`) or directly from `simnet` accounting.
//!
//! Almost every check finds nothing to report, so that case is O(1) in
//! the window length: each [`WindowStat`] keeps a running sum beside its
//! samples, and [`MonitoringAgent::check`] first asks whether every
//! running mean is clearly inside its range. A running sum is not
//! bit-equal to a re-sum, so that test may only answer "inside"; every
//! other case — near a bound, a stale or non-finite window, samples
//! pushed out of time order — runs the exact re-sum, which is the only
//! source of the estimates and violations a [`Trigger`] carries.

#[cfg(test)]
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

use simnet::SimTime;

use crate::env::{ResourceKey, ResourceVector};

/// The monitoring agent's default period: 10 ms, as in the paper.
pub const MONITOR_PERIOD_US: u64 = 10_000;

/// A window re-sums its running sum exactly once the sum has more than
/// twice as many terms as the window holds samples, and at least this
/// many. That bounds the sum's rounding error and amortises the re-sum to
/// O(1) per push.
const MIN_RESUM_TERMS: usize = 128;

/// A sliding-window mean over timestamped samples.
#[derive(Debug, Clone)]
pub struct WindowStat {
    window_us: u64,
    samples: VecDeque<(SimTime, f64)>,
    /// Running sum of the retained values: added on push, subtracted on
    /// eviction, recomputed by [`WindowStat::resum`].
    sum: f64,
    /// Terms of `sum`: the values it was last recomputed from, then every
    /// value added or subtracted since.
    terms: usize,
    /// Σ|v| over those terms; it bounds `sum`'s rounding error.
    abs_mass: f64,
    /// Every retained timestamp is at least the one before it.
    ordered: bool,
    /// Samples visited by the reads that walk the window.
    #[cfg(test)]
    visited: Cell<usize>,
}

impl WindowStat {
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0);
        WindowStat {
            window_us,
            samples: VecDeque::new(),
            sum: 0.0,
            terms: 0,
            abs_mass: 0.0,
            ordered: true,
            #[cfg(test)]
            visited: Cell::new(0),
        }
    }

    fn cutoff(&self, now: SimTime) -> SimTime {
        SimTime(now.0.saturating_sub(self.window_us))
    }

    pub fn push(&mut self, t: SimTime, v: f64) {
        if self.samples.back().is_some_and(|&(last, _)| t < last) {
            self.ordered = false;
        }
        self.samples.push_back((t, v));
        self.sum += v;
        self.terms += 1;
        self.abs_mass += v.abs();
        self.prune(t);
    }

    /// Evict samples older than the window as of `now`. `push` prunes by
    /// the pushed timestamp, but when observations *stop* arriving the
    /// deque would otherwise retain ancient samples forever — readers that
    /// need freshness use [`WindowStat::mean_at`] or call this with the current time.
    pub(crate) fn prune(&mut self, now: SimTime) {
        let cutoff = self.cutoff(now);
        while let Some(&(ts, v)) = self.samples.front() {
            if ts < cutoff {
                self.samples.pop_front();
                self.sum -= v;
                self.terms += 1;
                self.abs_mass += v.abs();
            } else {
                break;
            }
        }
        if self.terms > (2 * self.samples.len()).max(MIN_RESUM_TERMS) {
            self.resum();
        }
    }

    /// Recompute the running sum from the retained samples, and whether
    /// they are in time order.
    fn resum(&mut self) {
        (self.sum, self.terms, self.abs_mass) = (0.0, self.samples.len(), 0.0);
        for &(_, v) in &self.samples {
            self.sum += v;
            self.abs_mass += v.abs();
        }
        self.ordered =
            self.samples.iter().zip(self.samples.iter().skip(1)).all(|(a, b)| a.0 <= b.0);
    }

    /// The running mean of the retained samples and a bound on its
    /// distance from what [`WindowStat::mean_at`]`(now)` returns, in O(1).
    /// `None` unless `mean_at(now)` averages every retained sample (they
    /// were pushed in time order and the oldest is inside the window as of
    /// `now`) and both numbers are finite.
    ///
    /// The bound, with unit roundoff `u`: `sum` is a recursive
    /// floating-point sum of `terms` values whose magnitudes add up to
    /// `abs_mass`, and `mean_at` sums `n` of those values, so the two lie
    /// within `2·terms·u·abs_mass` and `2n·u·abs_mass` of the real sum (the
    /// classic `γ_k` bound, for `k` far below `1/u`); dividing each by `n`
    /// adds at most `u·abs_mass/n` more. The band is twice the total, which
    /// also covers the roundings of computing it and of the caller's one
    /// addition or subtraction, plus `f64::MIN_POSITIVE` for underflow.
    fn quick_mean(&self, now: SimTime) -> Option<(f64, f64)> {
        let &(oldest, _) = self.samples.front()?;
        if !self.ordered || oldest < self.cutoff(now) {
            return None;
        }
        let n = self.samples.len();
        let k = (self.terms + n + 2) as f64;
        let band = 2.0 * f64::EPSILON * k * self.abs_mass / n as f64 + f64::MIN_POSITIVE;
        let mean = self.sum / n as f64;
        (mean.is_finite() && band.is_finite()).then_some((mean, band))
    }

    /// Mean over every retained sample, regardless of age. This is the
    /// "last known" view: after a source goes quiet it keeps reporting the
    /// final window of data.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            #[cfg(test)]
            self.visited.set(self.visited.get() + self.samples.len());
            Some(self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Mean over samples no older than the window as of `now` — `None`
    /// when every sample has expired (a stale source).
    pub fn mean_at(&self, now: SimTime) -> Option<f64> {
        let cutoff = self.cutoff(now);
        let (mut sum, mut n) = (0.0, 0usize);
        for &(ts, v) in self.samples.iter().rev() {
            #[cfg(test)]
            self.visited.set(self.visited.get() + 1);
            if ts < cutoff {
                break;
            }
            sum += v;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    pub fn latest(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// The resource region within which the currently active configuration
/// remains valid (chosen by the scheduler, checked by the monitor).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidityRegion {
    /// Per-resource inclusive `(min, max)` bounds.
    pub ranges: BTreeMap<ResourceKey, (f64, f64)>,
}

impl ValidityRegion {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_range(mut self, key: ResourceKey, min: f64, max: f64) -> Self {
        assert!(min <= max, "invalid range [{min}, {max}] for {key}");
        self.ranges.insert(key, (min, max));
        self
    }

    /// Unbounded region (never triggers re-scheduling).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Resources in `estimate` violating their range by more than
    /// `hysteresis` (relative to the violated bound). An infinite bound
    /// can never be violated.
    pub fn violations(&self, estimate: &ResourceVector, hysteresis: f64) -> Vec<Violation> {
        let mut out = Vec::new();
        for (key, &(min, max)) in &self.ranges {
            let Some(v) = estimate.get(key) else { continue };
            let lo_ok = !min.is_finite() || v >= lowest(min, hysteresis);
            let hi_ok = !max.is_finite() || v <= highest(max, hysteresis);
            if !lo_ok || !hi_ok {
                out.push(Violation { key: key.clone(), value: v, range: (min, max) });
            }
        }
        out
    }

    pub fn contains(&self, estimate: &ResourceVector) -> bool {
        self.violations(estimate, 0.0).is_empty()
    }
}

/// The lowest value a finite minimum admits under `hysteresis`.
fn lowest(min: f64, hysteresis: f64) -> f64 {
    min - hysteresis * min.abs().max(1e-12)
}

/// The highest value a finite maximum admits under `hysteresis`.
fn highest(max: f64, hysteresis: f64) -> f64 {
    max + hysteresis * max.abs().max(1e-12)
}

/// One out-of-range resource observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    pub key: ResourceKey,
    pub value: f64,
    pub range: (f64, f64),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} = {:.4} outside [{:.4}, {:.4}]",
            self.key, self.value, self.range.0, self.range.1
        )
    }
}

/// Why the monitoring agent woke the scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    pub at: SimTime,
    pub violations: Vec<Violation>,
    /// Fresh estimate (window means over unexpired samples only). Stale
    /// resources are absent here; their last-known values are available
    /// through [`MonitoringAgent::estimate`].
    pub estimate: ResourceVector,
    /// Watched resources that *were* reporting but have produced no
    /// observation within the window — a dead link or crashed reporter.
    pub stale: Vec<ResourceKey>,
}

impl Trigger {
    /// True when the trigger fired (at least in part) because previously
    /// observed resources expired.
    pub(crate) fn is_stale(&self) -> bool {
        !self.stale.is_empty()
    }
}

/// The monitoring agent.
#[derive(Debug)]
pub struct MonitoringAgent {
    watched: Vec<ResourceKey>,
    window_us: u64,
    stats: BTreeMap<ResourceKey, WindowStat>,
    validity: ValidityRegion,
    /// Relative hysteresis margin before a violation counts (damps
    /// adaptation thrash — §7.5's remark about small variations).
    pub hysteresis: f64,
    /// Minimum time between triggers.
    pub min_trigger_gap_us: u64,
    last_trigger: Option<SimTime>,
}

impl MonitoringAgent {
    /// Watch `watched` with a sliding window of `window_us`.
    pub fn new(watched: Vec<ResourceKey>, window_us: u64) -> Self {
        MonitoringAgent {
            watched,
            window_us,
            stats: BTreeMap::new(),
            validity: ValidityRegion::unbounded(),
            hysteresis: 0.05,
            min_trigger_gap_us: 500_000,
            last_trigger: None,
        }
    }

    /// Re-target the watched resources (the agent "is customized to the
    /// currently active configuration").
    pub(crate) fn set_watched(&mut self, watched: Vec<ResourceKey>) {
        self.watched = watched;
        self.stats.retain(|k, _| self.watched.contains(k));
    }

    pub fn watched(&self) -> &[ResourceKey] {
        &self.watched
    }

    /// Install the validity region for the newly chosen configuration.
    pub fn set_validity(&mut self, region: ValidityRegion) {
        self.validity = region;
    }

    pub fn validity(&self) -> &ValidityRegion {
        &self.validity
    }

    /// Feed one observation. Ignored unless `key` is watched.
    pub fn observe(&mut self, t: SimTime, key: &ResourceKey, value: f64) {
        // `stats` only ever holds watched keys, so a hit needs no check
        // and no key clone; only a key's first sample pays for both.
        if let Some(s) = self.stats.get_mut(key) {
            s.push(t, value);
        } else if self.watched.contains(key) {
            let mut s = WindowStat::new(self.window_us);
            s.push(t, value);
            self.stats.insert(key.clone(), s);
        }
    }

    /// Last-known availability estimate (window means over all retained
    /// samples, however old). Use `MonitoringAgent::estimate_at` when
    /// freshness matters.
    pub fn estimate(&self) -> ResourceVector {
        let mut v = ResourceVector::default();
        for (k, s) in &self.stats {
            if let Some(m) = s.mean() {
                v.set(k.clone(), m.max(0.0));
            }
        }
        v
    }

    /// Fresh availability estimate as of `t`: window means over unexpired
    /// samples only. Resources whose every sample is older than the window
    /// are omitted (see [`MonitoringAgent::stale_keys`]).
    pub(crate) fn estimate_at(&self, t: SimTime) -> ResourceVector {
        let mut v = ResourceVector::default();
        for (k, s) in &self.stats {
            if let Some(m) = s.mean_at(t) {
                v.set(k.clone(), m.max(0.0));
            }
        }
        v
    }

    /// Watched resources that have been observed at least once but have no
    /// sample within the window as of `t` — their estimates have expired.
    pub(crate) fn stale_keys(&self, t: SimTime) -> Vec<ResourceKey> {
        self.stats
            .iter()
            .filter(|(_, s)| !s.is_empty() && s.mean_at(t).is_none())
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Periodic check: returns a trigger when the fresh estimate violates
    /// the validity region, or when a previously reporting resource has
    /// gone stale (rate-limited by `min_trigger_gap_us`). Resources that
    /// were never observed do not trigger.
    pub fn check(&mut self, t: SimTime) -> Option<Trigger> {
        if let Some(last) = self.last_trigger {
            if t.since(last) < self.min_trigger_gap_us {
                return None;
            }
        }
        if self.clearly_inside(t) {
            return None;
        }
        let estimate = self.estimate_at(t);
        let stale = self.stale_keys(t);
        if estimate.is_empty() && stale.is_empty() {
            return None;
        }
        let violations = self.validity.violations(&estimate, self.hysteresis);
        if violations.is_empty() && stale.is_empty() {
            return None;
        }
        self.last_trigger = Some(t);
        Some(Trigger { at: t, violations, estimate, stale })
    }

    /// True only if the exact path of `check(t)` would find every observed
    /// resource fresh and inside its hysteresis-widened range, judged from
    /// the running window means without walking a window or allocating.
    /// `false` means "not sure", never "outside".
    fn clearly_inside(&self, t: SimTime) -> bool {
        self.stats.iter().all(|(key, s)| {
            let Some((mean, band)) = s.quick_mean(t) else { return false };
            let Some(&(min, max)) = self.validity.ranges.get(key) else { return true };
            // The estimate the exact path would test is `mean_at(t)` floored
            // at zero, within `band` of this.
            let v = mean.max(0.0);
            (!min.is_finite() || v - band >= lowest(min, self.hysteresis))
                && (!max.is_finite() || v + band <= highest(max, self.hysteresis))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn window_stat_means_and_eviction() {
        let mut w = WindowStat::new(1000);
        w.push(t(0), 1.0);
        w.push(t(500), 3.0);
        assert_eq!(w.mean(), Some(2.0));
        w.push(t(2000), 5.0);
        // The t=0 and t=500 samples are older than the 1000us window.
        assert_eq!(w.len(), 1);
        assert_eq!(w.mean(), Some(5.0));
        assert_eq!(w.latest(), Some(5.0));
    }

    #[test]
    fn validity_region_violations() {
        let r = ValidityRegion::new().with_range(cpu(), 0.5, 1.0);
        let ok = ResourceVector::new(&[(cpu(), 0.7)]);
        let low = ResourceVector::new(&[(cpu(), 0.3)]);
        assert!(r.contains(&ok));
        assert!(!r.contains(&low));
        let v = r.violations(&low, 0.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].range, (0.5, 1.0));
        // Hysteresis widens the acceptable band.
        let near = ResourceVector::new(&[(cpu(), 0.48)]);
        assert!(r.violations(&near, 0.05).is_empty());
    }

    #[test]
    fn unwatched_resources_ignored() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.observe(t(0), &ResourceKey::net("client"), 1e6);
        assert!(m.estimate().is_empty());
        m.observe(t(0), &cpu(), 0.5);
        assert_eq!(m.estimate().get(&cpu()), Some(0.5));
    }

    #[test]
    fn trigger_on_violation_only() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        for i in 0..10 {
            m.observe(t(i * 10_000), &cpu(), 0.8);
        }
        assert!(m.check(t(100_000)).is_none(), "in range: no trigger");
        for i in 10..200 {
            m.observe(t(i * 10_000), &cpu(), 0.2);
        }
        let trig = m.check(t(2_000_000)).expect("violation must trigger");
        assert_eq!(trig.violations.len(), 1);
        assert!(trig.estimate.get(&cpu()).unwrap() < 0.5);
    }

    #[test]
    fn trigger_rate_limited() {
        let mut m = MonitoringAgent::new(vec![cpu()], 10_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.min_trigger_gap_us = 1_000_000;
        m.observe(t(0), &cpu(), 0.1);
        assert!(m.check(t(10_000)).is_some());
        m.observe(t(20_000), &cpu(), 0.1);
        assert!(m.check(t(30_000)).is_none(), "within the gap");
        m.observe(t(1_500_000), &cpu(), 0.1);
        assert!(m.check(t(1_500_000)).is_some(), "after the gap");
    }

    #[test]
    fn hysteresis_damps_small_excursions() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.hysteresis = 0.10;
        // 0.47 is below 0.5 but within 10% of the violated bound itself
        // (down to 0.45; `ValidityRegion::violations`).
        m.observe(t(0), &cpu(), 0.47);
        assert!(m.check(t(10_000)).is_none());
        // 0.30 is far below.
        let mut m2 = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m2.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m2.hysteresis = 0.10;
        m2.observe(t(0), &cpu(), 0.30);
        assert!(m2.check(t(10_000)).is_some());
    }

    #[test]
    fn quiet_check_cost_does_not_grow_with_the_window() {
        // Samples walked by an in-range check, and by one that finds the
        // CPU out of range, with `samples` observations per window.
        let visits = |samples: u64| {
            let net = ResourceKey::net("client");
            let window = samples * MONITOR_PERIOD_US;
            let mut m = MonitoringAgent::new(vec![cpu(), net.clone()], window);
            m.min_trigger_gap_us = 0;
            let region = ValidityRegion::new().with_range(cpu(), 0.5, 1.0);
            m.set_validity(region.with_range(net.clone(), 1e5, 1e6));
            let mut now = t(0);
            for i in 0..3 * samples {
                now = t(i * MONITOR_PERIOD_US);
                m.observe(now, &cpu(), 0.7 + 0.01 * (i % 7) as f64);
                m.observe(now, &net, 5e5 + (i % 3) as f64);
            }
            let walked = |m: &MonitoringAgent| m.stats.values().map(|s| s.visited.get()).sum();
            let before: usize = walked(&m);
            assert!(m.check(now).is_none(), "in range");
            let quiet = walked(&m) - before;
            m.set_validity(ValidityRegion::new().with_range(cpu(), 0.9, 1.0));
            assert!(m.check(now).is_some(), "out of range");
            (quiet, walked(&m) - before - quiet)
        };
        let ((quiet_10, fired_10), (quiet_1000, fired_1000)) = (visits(10), visits(1_000));
        assert_eq!((quiet_10, quiet_1000), (0, 0), "a quiet check walks no window");
        assert!(fired_1000 > fired_10 && fired_10 > 0, "the exact path does walk them");
    }

    #[test]
    fn quiet_check_recovers_from_disorder_and_nan() {
        // An out-of-order sample and a NaN send every check down the exact
        // path; once both have left the window and the running sum has been
        // re-summed, quiet checks walk nothing again.
        let mut m = MonitoringAgent::new(vec![cpu()], 100_000);
        m.min_trigger_gap_us = 0;
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.observe(t(20_000), &cpu(), 0.7);
        m.observe(t(10_000), &cpu(), 0.7);
        m.observe(t(30_000), &cpu(), f64::NAN);
        let walks: Vec<usize> = (4..100)
            .map(|i| {
                let now = t(i * 10_000);
                m.observe(now, &cpu(), 0.7);
                let before = m.stats[&cpu()].visited.get();
                m.check(now);
                m.stats[&cpu()].visited.get() - before
            })
            .collect();
        assert!(walks[0] > 0, "disordered window: exact path");
        assert_eq!(walks[walks.len() - 10..], [0; 10], "clean again: fast path");
    }

    #[test]
    fn retargeting_watched_resources() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.observe(t(0), &cpu(), 0.5);
        m.set_watched(vec![ResourceKey::net("client")]);
        assert!(m.estimate().is_empty(), "old stats dropped on retarget");
        m.observe(t(0), &ResourceKey::net("client"), 5e5);
        assert_eq!(m.estimate().len(), 1);
    }

    #[test]
    fn empty_estimate_never_triggers() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        assert!(m.check(t(1000)).is_none());
    }

    #[test]
    fn window_stat_prunes_on_read() {
        let mut w = WindowStat::new(1000);
        w.push(t(0), 1.0);
        assert_eq!(w.mean_at(t(500)), Some(1.0));
        assert_eq!(w.mean_at(t(5000)), None, "expired as of now");
        assert_eq!(w.mean(), Some(1.0), "untimed view keeps last-known");
        w.prune(t(5000));
        assert!(w.is_empty());
    }

    #[test]
    fn stale_estimate_expires_and_triggers() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.observe(t(0), &cpu(), 0.8);
        assert!(m.check(t(100_000)).is_none(), "fresh and in range");
        // The reporter dies: no observations for far longer than the window.
        let trig = m.check(t(5_000_000)).expect("stale resource must trigger");
        assert!(trig.is_stale());
        assert_eq!(trig.stale, vec![cpu()]);
        assert!(trig.estimate.get(&cpu()).is_none(), "expired value is not 'fresh'");
        assert_eq!(m.estimate().get(&cpu()), Some(0.8), "last-known value retained");
        assert!(trig.violations.is_empty(), "stale alone, not a range violation");
    }

    #[test]
    fn stale_trigger_is_rate_limited_too() {
        let mut m = MonitoringAgent::new(vec![cpu()], 1_000_000);
        m.set_validity(ValidityRegion::new().with_range(cpu(), 0.5, 1.0));
        m.observe(t(0), &cpu(), 0.8);
        assert!(m.check(t(5_000_000)).is_some());
        assert!(m.check(t(5_100_000)).is_none(), "within the gap");
        assert!(m.check(t(5_600_000)).is_some(), "stale condition persists");
    }
}
