//! Progress estimation: what fraction of each resource is the application
//! actually obtaining?
//!
//! The paper's sandbox continually estimates a "progress" metric (e.g.
//! what fraction of the CPU the application has been receiving) from
//! application-visible observations, and the run-time monitoring agent
//! reuses the same machinery (§6.1). [`ProgressEstimator`] keeps sliding
//! windows of CPU and network observations; [`SandboxStats`] is the shared
//! handle the sandbox wrapper feeds and monitors read.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use simnet::SimTime;

/// One CPU observation: during `[start, end]` the application received
/// `cpu_us` microseconds of processor time while wanting to run the whole
/// interval.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    pub start: SimTime,
    pub end: SimTime,
    pub cpu_us: f64,
}

/// One network observation: a message of `bytes` whose effective transfer
/// occupied `[queued, processed]` from the application's point of view
/// (includes both wire serialization and any sandbox-imposed delay).
#[derive(Debug, Clone, Copy)]
pub struct NetSample {
    pub queued: SimTime,
    pub processed: SimTime,
    pub bytes: u64,
    pub inbound: bool,
}

/// Bytes and busy transfer time of the retained net samples of one
/// direction.
#[derive(Debug, Clone, Copy, Default)]
struct NetSums {
    bytes: u64,
    busy_us: u64,
}

/// Sliding-window estimator over CPU and network samples.
///
/// Reads are O(1) between pushes. The network estimate's integer sums are
/// kept as running sums, exact because they are integers. The CPU share
/// sums real-valued `cpu_us`, where a running sum would drift from a
/// re-sum, so it is re-summed instead, once per change of the CPU window.
/// Both describe the *retained* samples: eviction pops from the front
/// while the front has expired, and outbound samples carry a `processed`
/// in the future (the sandbox's send delay), so an expired sample can sit
/// behind an unexpired one until the front moves.
#[derive(Debug)]
pub struct ProgressEstimator {
    window_us: u64,
    cpu: VecDeque<CpuSample>,
    net: VecDeque<NetSample>,
    /// `[outbound, inbound]`: added on push, subtracted on eviction.
    net_sums: [NetSums; 2],
    /// [`ProgressEstimator::cpu_share`] of the retained CPU samples, or
    /// `None` when the CPU window changed since it was last computed.
    cpu_share_memo: Option<Option<f64>>,
    /// Samples visited by the reads that walk a window.
    #[cfg(test)]
    visited: usize,
}

impl ProgressEstimator {
    /// `window_us` is the history window length; the paper's monitoring
    /// agent processes "raw data within a history window" sampled at 10 ms.
    pub fn new(window_us: u64) -> Self {
        assert!(window_us > 0);
        ProgressEstimator {
            window_us,
            cpu: VecDeque::new(),
            net: VecDeque::new(),
            net_sums: [NetSums::default(); 2],
            cpu_share_memo: None,
            #[cfg(test)]
            visited: 0,
        }
    }

    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    pub fn push_cpu(&mut self, s: CpuSample) {
        self.cpu.push_back(s);
        self.cpu_share_memo = None;
        self.evict(s.end);
    }

    pub fn push_net(&mut self, s: NetSample) {
        self.net.push_back(s);
        let sums = &mut self.net_sums[s.inbound as usize];
        sums.bytes += s.bytes;
        sums.busy_us += s.processed.since(s.queued);
        self.evict(s.processed);
    }

    fn evict(&mut self, now: SimTime) {
        let cutoff = SimTime(now.0.saturating_sub(self.window_us));
        while let Some(s) = self.cpu.front() {
            if s.end < cutoff {
                self.cpu.pop_front();
                self.cpu_share_memo = None;
            } else {
                break;
            }
        }
        while let Some(&s) = self.net.front() {
            if s.processed < cutoff {
                self.net.pop_front();
                let sums = &mut self.net_sums[s.inbound as usize];
                sums.bytes -= s.bytes;
                sums.busy_us -= s.processed.since(s.queued);
            } else {
                break;
            }
        }
    }

    /// Estimated CPU share obtained over the samples in the window:
    /// total CPU time received / total wall time wanting the CPU.
    /// `None` with no samples (the application did not try to compute).
    pub fn cpu_share(&mut self) -> Option<f64> {
        if let Some(share) = self.cpu_share_memo {
            return share;
        }
        #[cfg(test)]
        {
            self.visited += self.cpu.len();
        }
        let mut wall = 0.0;
        let mut cpu = 0.0;
        for s in &self.cpu {
            wall += s.end.since(s.start) as f64;
            cpu += s.cpu_us;
        }
        let share = if wall > 0.0 { Some((cpu / wall).min(1.0)) } else { None };
        self.cpu_share_memo = Some(share);
        share
    }

    /// Estimated effective bandwidth (bytes/second) over inbound (or, with
    /// `inbound == false`, outbound) transfers in the window: total bytes /
    /// total busy transfer time. `None` without samples.
    pub fn bandwidth_bps(&self, inbound: bool) -> Option<f64> {
        let NetSums { bytes, busy_us } = self.net_sums[inbound as usize];
        if busy_us > 0 && bytes > 0 {
            Some(bytes as f64 / (busy_us as f64 / 1e6))
        } else {
            None
        }
    }

    /// Number of retained samples (cpu, net) — mostly for tests.
    pub fn len(&self) -> (usize, usize) {
        (self.cpu.len(), self.net.len())
    }

    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty() && self.net.is_empty()
    }
}

/// Shared statistics handle connecting a sandbox wrapper to monitors.
#[derive(Debug, Clone)]
pub struct SandboxStats(Arc<Mutex<ProgressEstimator>>);

impl SandboxStats {
    pub fn new(window_us: u64) -> Self {
        SandboxStats(Arc::new(Mutex::new(ProgressEstimator::new(window_us))))
    }

    pub fn push_cpu(&self, s: CpuSample) {
        self.0.lock().unwrap().push_cpu(s);
    }

    pub fn push_net(&self, s: NetSample) {
        self.0.lock().unwrap().push_net(s);
    }

    pub fn cpu_share(&self) -> Option<f64> {
        self.0.lock().unwrap().cpu_share()
    }

    pub fn bandwidth_bps(&self, inbound: bool) -> Option<f64> {
        self.0.lock().unwrap().bandwidth_bps(inbound)
    }
}

impl Default for SandboxStats {
    /// One-second window, matching the experiments' sampling horizon.
    fn default() -> Self {
        SandboxStats::new(1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn cpu_share_is_cpu_over_wall() {
        let mut p = ProgressEstimator::new(1_000_000);
        p.push_cpu(CpuSample { start: t(0), end: t(100), cpu_us: 40.0 });
        p.push_cpu(CpuSample { start: t(100), end: t(200), cpu_us: 40.0 });
        assert!((p.cpu_share().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_estimator_returns_none() {
        let mut p = ProgressEstimator::new(1_000);
        assert!(p.cpu_share().is_none());
        assert!(p.bandwidth_bps(true).is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn old_samples_are_evicted() {
        let mut p = ProgressEstimator::new(1_000);
        p.push_cpu(CpuSample { start: t(0), end: t(100), cpu_us: 100.0 });
        p.push_cpu(CpuSample { start: t(5_000), end: t(5_100), cpu_us: 10.0 });
        // The first sample ended more than 1000us before t=5100.
        assert_eq!(p.len().0, 1);
        assert!((p.cpu_share().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_from_busy_time() {
        let mut p = ProgressEstimator::new(10_000_000);
        // 100_000 bytes over 2 seconds of busy transfer = 50 KB/s.
        p.push_net(NetSample {
            queued: t(0),
            processed: t(2_000_000),
            bytes: 100_000,
            inbound: true,
        });
        assert!((p.bandwidth_bps(true).unwrap() - 50_000.0).abs() < 1e-6);
        assert!(p.bandwidth_bps(false).is_none(), "outbound unaffected");
    }

    #[test]
    fn share_clamped_to_one() {
        let mut p = ProgressEstimator::new(1_000_000);
        p.push_cpu(CpuSample { start: t(0), end: t(100), cpu_us: 150.0 });
        assert_eq!(p.cpu_share(), Some(1.0));
    }

    #[test]
    fn reads_cost_the_same_at_any_window_length() {
        // Samples walked with `samples` 10 ms periods per window: by the
        // monitor's two reads after a message that changed only the net
        // window, and by the CPU read after a new CPU sample.
        let visits = |samples: u64| {
            let mut p = ProgressEstimator::new(samples * 10_000);
            let mut end = t(0);
            for i in 1..=3 * samples {
                end = t(i * 10_000);
                p.push_cpu(CpuSample { start: t(end.0 - 10_000), end, cpu_us: 8_000.0 });
                let queued = t(end.0 - 5_000);
                p.push_net(NetSample { queued, processed: end, bytes: 4_096, inbound: true });
            }
            p.cpu_share();
            let before = p.visited;
            p.push_net(NetSample { queued: end, processed: end, bytes: 512, inbound: false });
            assert!(p.bandwidth_bps(true).is_some());
            let bandwidth = p.visited - before;
            assert!((p.cpu_share().unwrap() - 0.8).abs() < 1e-12);
            let quiet = p.visited - before;
            p.push_cpu(CpuSample { start: end, end, cpu_us: 0.0 });
            p.cpu_share();
            (bandwidth, quiet, p.visited - before - quiet)
        };
        assert_eq!(visits(10), (0, 0, 12));
        assert_eq!(visits(1_000), (0, 0, 1_002));
    }

    #[test]
    fn stats_handle_shares() {
        let s = SandboxStats::new(1_000_000);
        let s2 = s.clone();
        s2.push_cpu(CpuSample { start: t(0), end: t(100), cpu_us: 50.0 });
        assert!((s.cpu_share().unwrap() - 0.5).abs() < 1e-12);
    }
}
