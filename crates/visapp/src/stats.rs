//! Run statistics: the measured QoS of one client execution.
//!
//! The client records one [`RoundRecord`] per request/reply round and one
//! [`ImageRecord`] per completed image; these are the raw data behind
//! every figure (per-image transmission times, per-round response times,
//! cumulative progress) and behind the QoS metrics stored in the
//! performance database (`transmit_time`, `response_time`, `resolution`).

use std::sync::{Arc, Mutex};

use adapt_core::{Configuration, ResourceVector};
use simnet::SimTime;

/// One request/reply/display round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    pub image_id: usize,
    pub round: u64,
    /// The round number the *reply* claimed to answer (wire protocol
    /// field). Equal to `round` in a correct run; the no-duplicate-applied
    /// oracle keys on `(image_id, wire_round)`, which a re-applied
    /// duplicate repeats even though `round` keeps incrementing.
    pub wire_round: u64,
    pub started: SimTime,
    pub finished: SimTime,
    pub wire_bytes: u64,
    pub raw_bytes: usize,
    pub level: usize,
    pub dr: usize,
}

impl RoundRecord {
    /// The paper's `response_time` for this round, seconds.
    pub fn response_secs(&self) -> f64 {
        (self.finished.since(self.started)) as f64 / 1e6
    }
}

/// One completed image download.
#[derive(Debug, Clone)]
pub struct ImageRecord {
    pub image_id: usize,
    pub started: SimTime,
    pub finished: SimTime,
    pub rounds: usize,
}

impl ImageRecord {
    /// The paper's `transmit_time` for this image, seconds.
    pub fn transmit_secs(&self) -> f64 {
        (self.finished.since(self.started)) as f64 / 1e6
    }
}

/// All measurements from one client run.
#[derive(Debug, Default)]
pub struct RunStats {
    pub rounds: Vec<RoundRecord>,
    pub images: Vec<ImageRecord>,
    /// `(time, configuration)` history, including the initial one.
    pub config_history: Vec<(SimTime, Configuration)>,
    /// Set when every requested image has been delivered.
    pub finished_at: Option<SimTime>,
    /// Request retransmissions (lossy-link runs).
    pub retries: u64,
    /// Request-timeout expirations observed by the client.
    pub timeouts: u64,
    /// Times the circuit breaker tripped open (including re-opens after a
    /// failed half-open probe).
    pub breaker_opens: u64,
    /// Times a success re-closed a non-closed breaker.
    pub breaker_closes: u64,
    /// Stale or duplicate replies the client discarded (retransmission
    /// races; the server's dedup cache makes retries idempotent, this
    /// counter proves no duplicate was ever *applied*).
    pub dup_replies_dropped: u64,
    /// The monitoring agent's resource estimate when the run finished
    /// (adaptive runs only).
    pub final_estimate: Option<ResourceVector>,
}

impl RunStats {
    /// Mean per-round response time, seconds.
    pub fn avg_response_secs(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(RoundRecord::response_secs).sum::<f64>() / self.rounds.len() as f64
    }

    /// Mean per-image transmission time, seconds.
    pub fn avg_transmit_secs(&self) -> f64 {
        if self.images.is_empty() {
            return 0.0;
        }
        self.images.iter().map(ImageRecord::transmit_secs).sum::<f64>() / self.images.len() as f64
    }

    /// Per-image `(end_time_secs, transmit_secs)` series (Figure 7 style).
    pub fn transmit_series(&self) -> Vec<(f64, f64)> {
        self.images.iter().map(|i| (i.finished.as_secs_f64(), i.transmit_secs())).collect()
    }

    /// Per-round `(end_time_secs, response_secs)` series.
    pub fn response_series(&self) -> Vec<(f64, f64)> {
        self.rounds.iter().map(|r| (r.finished.as_secs_f64(), r.response_secs())).collect()
    }

    /// Total bytes received on the wire.
    pub fn total_wire_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.wire_bytes).sum()
    }

    /// Number of configuration switches after the initial configuration.
    pub fn switch_count(&self) -> usize {
        self.config_history.len().saturating_sub(1)
    }
}

/// Pre-registered metric targets so per-round recording stays
/// allocation-free on the counters.
#[derive(Debug)]
struct StatsObs {
    obs: obs::Obs,
    images: obs::MetricId,
    rounds: obs::MetricId,
    switches: obs::MetricId,
    retries: obs::MetricId,
    timeouts: obs::MetricId,
    breaker_opens: obs::MetricId,
    breaker_closes: obs::MetricId,
    dup_replies: obs::MetricId,
    wire_bytes: obs::MetricId,
    finished_secs: obs::MetricId,
}

/// Shared handle, cloned into the client actor.
#[derive(Debug, Clone, Default)]
pub struct StatsHandle {
    stats: Arc<Mutex<RunStats>>,
    obs: Arc<Mutex<Option<StatsObs>>>,
    /// Calls to [`with`](StatsHandle::with) across every clone, for the
    /// load watcher's scaling guard.
    #[cfg(test)]
    reads: Arc<std::sync::atomic::AtomicU64>,
}

impl StatsHandle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror every recorded statistic into `obs`: `visapp.*` counters, a
    /// `visapp.finished_secs` gauge, and [`Source::App`](obs::Source::App)
    /// events for configuration changes, image completions, and run end.
    pub fn attach_obs(&self, obs: &obs::Obs) {
        *self.obs.lock().unwrap() = Some(StatsObs {
            obs: obs.clone(),
            images: obs.counter("visapp.images"),
            rounds: obs.counter("visapp.rounds"),
            switches: obs.counter("visapp.switches"),
            retries: obs.counter("visapp.retries"),
            timeouts: obs.counter("visapp.timeouts"),
            breaker_opens: obs.counter("visapp.breaker_opens"),
            breaker_closes: obs.counter("visapp.breaker_closes"),
            dup_replies: obs.counter("visapp.dup_replies_dropped"),
            wire_bytes: obs.counter("visapp.wire_bytes"),
            finished_secs: obs.gauge("visapp.finished_secs"),
        });
    }

    pub fn with<R>(&self, f: impl FnOnce(&RunStats) -> R) -> R {
        #[cfg(test)]
        self.reads.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        f(&self.stats.lock().unwrap())
    }

    #[cfg(test)]
    pub(crate) fn reads(&self) -> u64 {
        self.reads.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Extract the final stats, leaving the handle's records empty.
    pub fn take(&self) -> RunStats {
        std::mem::take(&mut self.stats.lock().unwrap())
    }

    fn inc(&self, pick: impl Fn(&StatsObs) -> obs::MetricId, by: u64) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(pick(h), by);
        }
    }

    // ---- typed record path (keeps the raw log and obs in lock-step) ----

    pub(crate) fn record_round(&self, rec: RoundRecord) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(h.rounds, 1);
            h.obs.inc(h.wire_bytes, rec.wire_bytes);
            // One "round" event per *applied* reply: the no-duplicate
            // oracle asserts each (image, wire_round) pair appears at most
            // once in this stream.
            h.obs.publish(
                obs::Event::new(rec.finished.as_us(), obs::Source::App, "round")
                    .with("image", rec.image_id)
                    .with("round", rec.round)
                    .with("wire_round", rec.wire_round)
                    // Measured latency for the refine engine's residual
                    // tracking (digest-neutral: digests fold only the
                    // integer fields above).
                    .with("response_secs", rec.response_secs()),
            );
        }
        self.stats.lock().unwrap().rounds.push(rec);
    }

    pub(crate) fn record_image(&self, rec: ImageRecord) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(h.images, 1);
            h.obs.publish(
                obs::Event::new(rec.finished.as_us(), obs::Source::App, "image")
                    .with("id", rec.image_id)
                    .with("rounds", rec.rounds)
                    .with("transmit_secs", rec.transmit_secs()),
            );
        }
        self.stats.lock().unwrap().images.push(rec);
    }

    /// Record the active configuration changing at `t` (the initial entry
    /// included; only subsequent entries count as switches).
    pub(crate) fn record_config(&self, t: SimTime, config: Configuration) {
        let first = self.stats.lock().unwrap().config_history.is_empty();
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            if !first {
                h.obs.inc(h.switches, 1);
            }
            h.obs.publish(
                obs::Event::new(t.as_us(), obs::Source::App, "config")
                    .with("config", config.key())
                    .with("initial", first),
            );
        }
        self.stats.lock().unwrap().config_history.push((t, config));
    }

    pub(crate) fn record_retry(&self) {
        self.inc(|h| h.retries, 1);
        self.stats.lock().unwrap().retries += 1;
    }

    pub(crate) fn record_timeout(&self) {
        self.inc(|h| h.timeouts, 1);
        self.stats.lock().unwrap().timeouts += 1;
    }

    /// Record the breaker tripping open at `t` (counter + ordered bus
    /// event; the breaker-legality oracle replays the event sequence).
    pub(crate) fn record_breaker_open(&self, t: SimTime) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(h.breaker_opens, 1);
            h.obs.publish(obs::Event::new(t.as_us(), obs::Source::App, "breaker_open"));
        }
        self.stats.lock().unwrap().breaker_opens += 1;
    }

    /// Record a success re-closing the breaker at `t`.
    pub(crate) fn record_breaker_close(&self, t: SimTime) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(h.breaker_closes, 1);
            h.obs.publish(obs::Event::new(t.as_us(), obs::Source::App, "breaker_close"));
        }
        self.stats.lock().unwrap().breaker_closes += 1;
    }

    /// Record a stale or duplicate reply being discarded at `t`.
    pub(crate) fn record_dup_reply(&self, t: SimTime) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.inc(h.dup_replies, 1);
            h.obs.publish(obs::Event::new(t.as_us(), obs::Source::App, "dup_reply"));
        }
        self.stats.lock().unwrap().dup_replies_dropped += 1;
    }

    pub(crate) fn record_finished(&self, t: SimTime) {
        if let Some(h) = self.obs.lock().unwrap().as_ref() {
            h.obs.set(h.finished_secs, t.as_secs_f64());
            h.obs.publish(obs::Event::new(t.as_us(), obs::Source::App, "finished"));
        }
        self.stats.lock().unwrap().finished_at = Some(t);
    }

    /// Record the monitoring agent's final resource estimate when a run
    /// completes. Adaptation *events* are not copied here: the obs bus
    /// receives them live via `AdaptiveRuntime::set_obs` (sources
    /// Monitor/Scheduler/Steering).
    pub(crate) fn record_adapt_summary(&self, estimate: ResourceVector) {
        self.stats.lock().unwrap().final_estimate = Some(estimate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn aggregates() {
        let mut s = RunStats::default();
        s.rounds.push(RoundRecord {
            image_id: 0,
            round: 0,
            wire_round: 0,
            started: t(0.0),
            finished: t(0.5),
            wire_bytes: 100,
            raw_bytes: 200,
            level: 4,
            dr: 80,
        });
        s.rounds.push(RoundRecord {
            image_id: 0,
            round: 1,
            wire_round: 1,
            started: t(0.5),
            finished: t(2.0),
            wire_bytes: 300,
            raw_bytes: 600,
            level: 4,
            dr: 80,
        });
        s.images.push(ImageRecord { image_id: 0, started: t(0.0), finished: t(2.0), rounds: 2 });
        assert!((s.avg_response_secs() - 1.0).abs() < 1e-9);
        assert!((s.avg_transmit_secs() - 2.0).abs() < 1e-9);
        assert_eq!(s.total_wire_bytes(), 400);
        assert_eq!(s.transmit_series(), vec![(2.0, 2.0)]);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = RunStats::default();
        assert_eq!(s.avg_response_secs(), 0.0);
        assert_eq!(s.avg_transmit_secs(), 0.0);
        assert_eq!(s.switch_count(), 0);
    }

    #[test]
    fn handle_shares_and_takes() {
        let h = StatsHandle::new();
        let h2 = h.clone();
        h2.record_image(ImageRecord { image_id: 0, started: t(0.0), finished: t(1.0), rounds: 1 });
        assert_eq!(h.with(|s| s.images.len()), 1);
        let taken = h.take();
        assert_eq!(taken.images.len(), 1);
        assert_eq!(h.with(|s| s.images.len()), 0);
    }

    #[test]
    fn record_path_mirrors_into_obs() {
        let obs = obs::Obs::new();
        let h = StatsHandle::new();
        h.attach_obs(&obs);
        h.record_config(t(0.0), adapt_core::Configuration::new(&[("c", 1)]));
        h.record_config(t(1.0), adapt_core::Configuration::new(&[("c", 2)]));
        h.record_round(RoundRecord {
            image_id: 0,
            round: 0,
            wire_round: 0,
            started: t(0.0),
            finished: t(0.5),
            wire_bytes: 123,
            raw_bytes: 200,
            level: 4,
            dr: 80,
        });
        h.record_image(ImageRecord { image_id: 0, started: t(0.0), finished: t(2.0), rounds: 1 });
        h.record_retry();
        h.record_timeout();
        h.record_dup_reply(t(1.5));
        h.record_finished(t(2.0));
        let c = |name: &str| obs.counter_value(obs.lookup(name).unwrap());
        assert_eq!(c("visapp.switches"), 1, "initial config is not a switch");
        assert_eq!(c("visapp.rounds"), 1);
        assert_eq!(c("visapp.wire_bytes"), 123);
        assert_eq!(c("visapp.images"), 1);
        assert_eq!(c("visapp.retries"), 1);
        assert_eq!(c("visapp.timeouts"), 1);
        assert_eq!(c("visapp.dup_replies_dropped"), 1);
        assert_eq!(obs.gauge_value(obs.lookup("visapp.finished_secs").unwrap()), 2.0);
        let kinds: Vec<&str> = obs.events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["config", "config", "round", "image", "dup_reply", "finished"]);
        let integrity = obs.events_filtered(&obs::EventFilter::app_integrity());
        assert_eq!(integrity.len(), 2, "round + dup_reply pass the integrity preset");
        // The raw log saw the same facts.
        assert_eq!(h.with(|s| s.switch_count()), 1);
        assert_eq!(h.with(|s| s.total_wire_bytes()), 123);
    }
}
