//! Resource limits for a sandboxed application, and run-time schedules of
//! limit changes.
//!
//! A [`LimitsHandle`] is shared between the sandbox wrapper (which reads it
//! every scheduling quantum) and the experiment driver (which mutates it,
//! possibly from scripted [`simnet::Sim::at`] events). Changes therefore
//! take effect within one quantum, matching the paper's testbed where the
//! interception layer re-reads its configuration every few milliseconds.

use simnet::{Sim, SimTime};
use std::sync::{Arc, Mutex};

/// Resource caps enforced by the virtual execution environment.
/// `None` always means "unconstrained".
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Limits {
    /// Maximum average CPU share, as a fraction of the host in (0, 1].
    pub cpu_share: Option<f64>,
    /// Maximum inbound network bandwidth, bytes per second.
    pub net_recv_bps: Option<f64>,
    /// Maximum outbound network bandwidth, bytes per second.
    pub net_send_bps: Option<f64>,
    /// Maximum resident memory in bytes; exceeding it slows computation
    /// (paging model).
    pub mem_bytes: Option<u64>,
}

impl Limits {
    /// No constraints at all.
    pub fn unconstrained() -> Self {
        Limits::default()
    }

    /// Only a CPU-share cap.
    pub fn cpu(share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0, "cpu share must be in (0,1], got {share}");
        Limits { cpu_share: Some(share), ..Limits::default() }
    }

    /// Only a symmetric network bandwidth cap (bytes/second).
    pub fn net(bps: f64) -> Self {
        assert!(bps > 0.0, "bandwidth must be positive");
        Limits { net_recv_bps: Some(bps), net_send_bps: Some(bps), ..Limits::default() }
    }

    /// Builder-style: add a CPU cap.
    pub fn with_cpu(mut self, share: f64) -> Self {
        assert!(share > 0.0 && share <= 1.0);
        self.cpu_share = Some(share);
        self
    }

    /// Builder-style: add a symmetric bandwidth cap (bytes/second).
    pub fn with_net(mut self, bps: f64) -> Self {
        assert!(bps > 0.0);
        self.net_recv_bps = Some(bps);
        self.net_send_bps = Some(bps);
        self
    }

    /// Builder-style: add a memory cap (bytes).
    pub fn with_mem(mut self, bytes: u64) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }
}

/// Shared, mutable handle to a sandbox's limits.
#[derive(Debug, Clone, Default)]
pub struct LimitsHandle(Arc<Mutex<Limits>>);

impl LimitsHandle {
    pub fn new(limits: Limits) -> Self {
        LimitsHandle(Arc::new(Mutex::new(limits)))
    }

    /// Current limits (copied out).
    pub fn get(&self) -> Limits {
        *self.0.lock().unwrap()
    }

    /// Replace the limits wholesale.
    pub fn set(&self, limits: Limits) {
        *self.0.lock().unwrap() = limits;
    }
}

/// A piecewise-constant schedule of limit changes, e.g. the paper's
/// "80% share, then 40% at t=20s, then 60% at t=50s" (Figure 3a).
#[derive(Debug, Clone, Default)]
pub struct LimitSchedule {
    /// `(time, limits)` pairs; applied in order.
    pub steps: Vec<(SimTime, Limits)>,
}

impl LimitSchedule {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a step: at `t`, switch to `limits`.
    pub fn at(mut self, t: SimTime, limits: Limits) -> Self {
        self.steps.push((t, limits));
        self
    }

    /// Install the schedule into a simulation, driving `handle`.
    /// Steps in the past (relative to `sim.now()`) are applied immediately.
    pub fn install(self, sim: &mut Sim, handle: &LimitsHandle) {
        for (t, limits) in self.steps {
            let h = handle.clone();
            if t <= sim.now() {
                h.set(limits);
            } else {
                sim.at(t, move |_| h.set(limits));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let l = Limits::unconstrained().with_cpu(0.4).with_net(50_000.0).with_mem(1 << 20);
        assert_eq!(l.cpu_share, Some(0.4));
        assert_eq!(l.net_recv_bps, Some(50_000.0));
        assert_eq!(l.net_send_bps, Some(50_000.0));
        assert_eq!(l.mem_bytes, Some(1 << 20));
    }

    #[test]
    #[should_panic]
    fn cpu_share_over_one_rejected() {
        let _ = Limits::cpu(1.5);
    }

    #[test]
    fn handle_shares_state() {
        let h = LimitsHandle::new(Limits::cpu(0.8));
        let h2 = h.clone();
        h2.set(Limits::cpu(0.4));
        assert_eq!(h.get().cpu_share, Some(0.4));
    }

    #[test]
    fn schedule_applies_at_times() {
        let mut sim = Sim::new();
        sim.add_host("h", 1.0, 1 << 30);
        let h = LimitsHandle::new(Limits::cpu(0.8));
        LimitSchedule::new()
            .at(SimTime::from_secs(20), Limits::cpu(0.4))
            .at(SimTime::from_secs(50), Limits::cpu(0.6))
            .install(&mut sim, &h);
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(h.get().cpu_share, Some(0.8));
        sim.run_until(SimTime::from_secs(25));
        assert_eq!(h.get().cpu_share, Some(0.4));
        sim.run_until(SimTime::from_secs(55));
        assert_eq!(h.get().cpu_share, Some(0.6));
    }

    #[test]
    fn schedule_past_step_applies_immediately() {
        let mut sim = Sim::new();
        sim.add_host("h", 1.0, 1 << 30);
        let h = LimitsHandle::new(Limits::unconstrained());
        LimitSchedule::new().at(SimTime::ZERO, Limits::cpu(0.5)).install(&mut sim, &h);
        assert_eq!(h.get().cpu_share, Some(0.5));
    }
}
