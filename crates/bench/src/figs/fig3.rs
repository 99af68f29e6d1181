//! Figure 3: the virtual execution environment's CPU control.
//!
//! (a) A CPU-bound application is given an 80% share, cut to 40% at
//!     t=20s, raised to 60% at t=50s; the observed per-second usage must
//!     track the setting.
//! (b) A fixed-work application runs under the testbed at shares
//!     10%..100%; measured time is compared against the expected time
//!     (full-speed time / share).

use sandbox::{
    LimitSchedule, Limits, LimitsHandle, SandboxStats, Sandboxed, SeriesHandle, UsageSampler,
};
use simnet::{dur, Sim, SimTime};

use crate::toy::{FixedWork, Grinder};

/// One observed point of the usage trace.
#[derive(Debug, Clone, Copy)]
pub struct UsagePoint {
    pub t_secs: f64,
    pub observed_share: f64,
    pub requested_share: f64,
}

/// Figure 3(a): returns the per-second usage trace over 80 seconds.
pub fn fig3a() -> Vec<UsagePoint> {
    let mut sim = Sim::new();
    let h = sim.add_host("pii450", 1.0, 1 << 30);
    let limits = LimitsHandle::new(Limits::cpu(0.8));
    let sb = Sandboxed::new(Grinder, limits.clone(), SandboxStats::default());
    let target = sim.spawn(h, Box::new(sb));
    let series = SeriesHandle::new();
    sim.spawn(
        h,
        Box::new(
            UsageSampler::new(target, dur::secs(1), series.clone()).until(SimTime::from_secs(80)),
        ),
    );
    LimitSchedule::new()
        .at(SimTime::from_secs(20), Limits::cpu(0.4))
        .at(SimTime::from_secs(50), Limits::cpu(0.6))
        .install(&mut sim, &limits);
    sim.run_until(SimTime::from_secs(80));
    series
        .points()
        .into_iter()
        .map(|(t, v)| {
            let ts = t.as_secs_f64();
            let requested = if ts <= 20.0 {
                0.8
            } else if ts <= 50.0 {
                0.4
            } else {
                0.6
            };
            UsagePoint { t_secs: ts, observed_share: v, requested_share: requested }
        })
        .collect()
}

/// One row of Figure 3(b).
#[derive(Debug, Clone, Copy)]
pub struct ShareTiming {
    pub share: f64,
    pub measured_secs: f64,
    pub expected_secs: f64,
}

impl ShareTiming {
    pub fn relative_error(&self) -> f64 {
        (self.measured_secs - self.expected_secs).abs() / self.expected_secs
    }
}

/// Figure 3(b): measured vs expected execution time across CPU shares.
/// `work_secs` is the full-speed execution time of the task.
pub fn fig3b(work_secs: f64) -> Vec<ShareTiming> {
    let mut out = Vec::new();
    for pct in (10..=100).step_by(10) {
        let share = pct as f64 / 100.0;
        let mut sim = Sim::new();
        let h = sim.add_host("pii450", 1.0, 1 << 30);
        let (task, done) = FixedWork::new(work_secs * 1e6);
        let limits = LimitsHandle::new(Limits::cpu(share));
        sim.spawn(h, Box::new(Sandboxed::new(task, limits, SandboxStats::default())));
        sim.run_until_idle();
        let measured = done.lock().unwrap().expect("task must finish").as_secs_f64();
        out.push(ShareTiming { share, measured_secs: measured, expected_secs: work_secs / share });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_tracks_requested_share() {
        let trace = fig3a();
        assert_eq!(trace.len(), 80);
        // Skip transition seconds; everywhere else the observation must be
        // within a few percent of the request.
        for p in &trace {
            if (p.t_secs - 21.0).abs() < 1.5 || (p.t_secs - 51.0).abs() < 1.5 {
                continue;
            }
            assert!(
                (p.observed_share - p.requested_share).abs() < 0.05,
                "t={} observed={} requested={}",
                p.t_secs,
                p.observed_share,
                p.requested_share
            );
        }
    }

    /// The sampler's CPU-time reads, bit for bit: an FNV-1a digest of
    /// every `(t, share)` point of the trace.
    #[test]
    fn fig3a_trace_is_pinned() {
        let mut h = obs::det::Fnv64::new();
        for p in fig3a() {
            h.write_u64(p.t_secs.to_bits());
            h.write_u64(p.observed_share.to_bits());
        }
        assert_eq!(format!("{:016x}", h.finish()), "3bbed87d7ab30f5c");
    }

    #[test]
    fn fig3b_matches_expected_within_two_percent() {
        let rows = fig3b(5.0);
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(
                r.relative_error() < 0.02,
                "share {} measured {} expected {}",
                r.share,
                r.measured_secs,
                r.expected_secs
            );
        }
    }
}
