//! Proportional-share CPU scheduling (fluid GPS model).
//!
//! Each host carries one [`CpuSched`]. At most one computation per actor is
//! active at a time (actors execute their action queues serially), so a run
//! is identified by its actor. Active runs share the host's capacity in
//! proportion to their weights, and together they always use all of it.
//! The kernel has no per-actor cap: limiting an actor to a share of its
//! host is the user-level sandbox's job (the `sandbox` crate chops work
//! into quanta), and Figure 3(b) checks that sandbox against the closed
//! form, full-speed time / share.
//!
//! The fluid model is exact: rates change only at *events* (run start, run
//! completion, weight change), and between events every run progresses
//! linearly.

use crate::actor::ActorId;
use crate::time::SimTime;

/// An active computation belonging to one actor.
#[derive(Debug, Clone)]
pub struct Run {
    pub actor: ActorId,
    /// Remaining work, in reference-machine microseconds (1 unit of work
    /// takes 1us on a host with speed 1.0 and no contention).
    pub remaining: f64,
    /// GPS weight.
    pub weight: f64,
    /// Current service rate in work-units per microsecond.
    pub rate: f64,
}

/// Fluid proportional-share scheduler for one host.
#[derive(Debug)]
pub struct CpuSched {
    /// Host speed: work-units per microsecond at full allocation.
    speed: f64,
    runs: Vec<Run>,
    last_update: SimTime,
    /// Incremented whenever rates change; stale completion events carry an
    /// old epoch and are ignored by the kernel.
    pub epoch: u64,
}

/// Work below this is considered complete (guards float error).
const WORK_EPS: f64 = 1e-9;

impl CpuSched {
    pub fn new(speed: f64) -> Self {
        assert!(speed > 0.0, "host speed must be positive");
        CpuSched { speed, runs: Vec::new(), last_update: SimTime::ZERO, epoch: 0 }
    }

    pub fn speed(&self) -> f64 {
        self.speed
    }

    pub(crate) fn has_run(&self, actor: ActorId) -> bool {
        self.runs.iter().any(|r| r.actor == actor)
    }

    /// Advance the fluid model to `now`, appending the actors of completed
    /// runs to `finished` in run order. `credit(actor, cpu_us)` receives
    /// each run's CPU time for the interval, in run order. Also recomputes
    /// rates if anything completed.
    pub fn advance(
        &mut self,
        now: SimTime,
        mut credit: impl FnMut(ActorId, f64),
        finished: &mut Vec<ActorId>,
    ) {
        let dt = now.since(self.last_update) as f64;
        self.last_update = now;
        let before = finished.len();
        if dt > 0.0 {
            for r in &mut self.runs {
                let served = r.rate * dt;
                r.remaining -= served.min(r.remaining);
                // CPU time consumed = (rate / speed) * wall time, i.e. the
                // fraction of the processor held, times elapsed wall time.
                credit(r.actor, (r.rate / self.speed) * dt);
            }
        }
        let mut i = 0;
        while i < self.runs.len() {
            if self.runs[i].remaining <= WORK_EPS {
                finished.push(self.runs[i].actor);
                self.runs.remove(i);
            } else {
                i += 1;
            }
        }
        if finished.len() > before {
            self.reassign_rates();
        }
    }

    /// Start a new run for `actor`. Caller must `advance` first.
    /// Zero-or-negative work is the caller's responsibility (complete inline).
    pub fn start(&mut self, actor: ActorId, work: f64, weight: f64) {
        debug_assert!(work > WORK_EPS, "zero-work runs must be completed inline");
        debug_assert!(!self.has_run(actor), "actor {actor:?} already has an active run");
        self.runs.push(Run { actor, remaining: work, weight: weight.max(1e-6), rate: 0.0 });
        self.reassign_rates();
    }

    /// Change the weight of `actor`'s run (if it has one). Caller must
    /// `advance` first.
    pub(crate) fn retune(&mut self, actor: ActorId, weight: f64) {
        if let Some(r) = self.runs.iter_mut().find(|r| r.actor == actor) {
            r.weight = weight.max(1e-6);
            self.reassign_rates();
        }
    }

    /// Abort `actor`'s run, returning its remaining work if it had one.
    /// Caller must `advance` first.
    pub fn abort(&mut self, actor: ActorId) -> Option<f64> {
        let idx = self.runs.iter().position(|r| r.actor == actor)?;
        let run = self.runs.remove(idx);
        self.reassign_rates();
        Some(run.remaining)
    }

    /// Time at which the earliest active run completes, if any.
    pub(crate) fn next_completion(&self) -> Option<SimTime> {
        self.runs
            .iter()
            .filter(|r| r.rate > 0.0)
            .map(|r| {
                let us = (r.remaining / r.rate).ceil() as u64;
                self.last_update + us.max(1)
            })
            .min()
    }

    /// Current service rate of `actor` (work-units/us), 0 if not running.
    pub fn rate_of(&self, actor: ActorId) -> f64 {
        self.runs.iter().find(|r| r.actor == actor).map(|r| r.rate).unwrap_or(0.0)
    }

    /// Proportional rate assignment: each run gets `speed * weight /
    /// total_weight`. Weights are at least 1e-6 and the speed is positive,
    /// so every rate is positive.
    fn reassign_rates(&mut self) {
        self.epoch += 1;
        let total_w: f64 = self.runs.iter().map(|r| r.weight).sum();
        for r in &mut self.runs {
            r.rate = self.speed * r.weight / total_w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(n: u32) -> ActorId {
        ActorId(n as usize)
    }

    #[test]
    fn single_run_gets_full_speed() {
        let mut s = CpuSched::new(2.0);
        s.start(aid(0), 100.0, 1.0);
        assert!((s.rate_of(aid(0)) - 2.0).abs() < 1e-12);
        // 100 units at 2 units/us -> 50us.
        assert_eq!(s.next_completion(), Some(SimTime::from_us(50)));
        let mut done = Vec::new();
        s.advance(SimTime::from_us(50), |_, _| {}, &mut done);
        assert_eq!(done, vec![aid(0)]);
        assert!(s.runs.is_empty());
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 100.0, 1.0);
        s.start(aid(1), 100.0, 1.0);
        assert!((s.rate_of(aid(0)) - 0.5).abs() < 1e-12);
        assert!((s.rate_of(aid(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_are_proportional() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 100.0, 3.0);
        s.start(aid(1), 100.0, 1.0);
        assert!((s.rate_of(aid(0)) - 0.75).abs() < 1e-12);
        assert!((s.rate_of(aid(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn advance_accumulates_usage() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 100.0, 1.0);
        s.start(aid(1), 1000.0, 1.0);
        let mut usage = Vec::new();
        s.advance(SimTime::from_us(100), |a, cpu_us| usage.push((a, cpu_us)), &mut Vec::new());
        assert_eq!(usage.len(), 2);
        let (a, cpu_us) = usage[0];
        assert_eq!(a, aid(0));
        assert!((cpu_us - 50.0).abs() < 1e-9, "held 50% for 100us = 50us CPU");
        assert!((s.abort(aid(0)).unwrap() - 50.0).abs() < 1e-9, "half the work is left");
    }

    #[test]
    fn completion_then_speedup() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 100.0, 1.0);
        s.start(aid(1), 50.0, 1.0);
        // Both at 0.5: aid(1) finishes at t=100.
        // The list is appended to, never cleared.
        let mut done = vec![aid(7)];
        s.advance(SimTime::from_us(100), |_, _| {}, &mut done);
        assert_eq!(done, vec![aid(7), aid(1)]);
        // aid(0) has 50 left, now at full rate.
        assert!((s.rate_of(aid(0)) - 1.0).abs() < 1e-12);
        assert_eq!(s.next_completion(), Some(SimTime::from_us(150)));
    }

    #[test]
    fn retune_weight_changes_rate() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 1000.0, 1.0);
        s.start(aid(1), 1000.0, 1.0);
        s.advance(SimTime::from_us(10), |_, _| {}, &mut Vec::new());
        let e0 = s.epoch;
        s.retune(aid(0), 3.0);
        assert!(s.epoch > e0, "a weight change reassigns rates");
        assert!((s.rate_of(aid(0)) - 0.75).abs() < 1e-12);
        assert!((s.rate_of(aid(1)) - 0.25).abs() < 1e-12);
        // A run that is not active has nothing to retune.
        let e1 = s.epoch;
        s.retune(aid(2), 5.0);
        assert_eq!(s.epoch, e1);
        assert!((s.rate_of(aid(0)) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn abort_returns_remaining() {
        let mut s = CpuSched::new(1.0);
        s.start(aid(0), 100.0, 1.0);
        s.advance(SimTime::from_us(40), |_, _| {}, &mut Vec::new());
        let rem = s.abort(aid(0)).unwrap();
        assert!((rem - 60.0).abs() < 1e-9);
        assert!(s.runs.is_empty());
        assert!(s.abort(aid(0)).is_none());
    }

    #[test]
    fn epoch_bumps_on_rate_changes() {
        let mut s = CpuSched::new(1.0);
        let e0 = s.epoch;
        s.start(aid(0), 100.0, 1.0);
        assert!(s.epoch > e0);
        let e1 = s.epoch;
        s.start(aid(1), 100.0, 1.0);
        assert!(s.epoch > e1);
    }
}
