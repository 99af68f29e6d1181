//! Per-actor resource accounting.
//!
//! The kernel maintains one [`Accounting`] record per actor: CPU time
//! actually received, wall time spent computing or sleeping, bytes and
//! messages moved, memory in use, and when the most recent inbound message
//! was queued. The paper's monitoring agent and the sandbox's progress
//! estimator are built purely on these observations — they never read the
//! ground-truth resource caps, mirroring how the original system had to
//! *infer* availability from application-visible measurements. Message
//! traffic itself is published as `msg_sent` / `msg_delivered` events on
//! an attached obs bus (see [`Sim::attach_obs`](crate::Sim::attach_obs)),
//! not kept here.

use crate::time::SimTime;

/// Resource usage record for one actor.
#[derive(Debug, Default)]
pub struct Accounting {
    /// CPU time actually received, in microseconds of a whole processor.
    pub cpu_time_us: f64,
    /// Work-units completed.
    pub work_done: f64,
    /// Wall time spent inside `Compute` actions (from run start to finish).
    pub compute_wall_us: f64,
    /// Wall time spent inside `Sleep` actions.
    pub sleep_wall_us: f64,
    /// Total bytes sent / received on the simulated network.
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    /// Messages sent / received (counts).
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    /// When the most recently delivered inbound message was handed to the
    /// network layer (`None` before the first delivery); read through
    /// [`Ctx::last_received`](crate::Ctx::last_received).
    pub(crate) last_received: Option<SimTime>,
    /// Simulated bytes of memory currently allocated by the actor.
    pub mem_used: u64,
    /// High-water mark of `mem_used`.
    pub mem_peak: u64,
}

impl Accounting {
    /// A message of `bytes` from this actor was delivered.
    pub(crate) fn record_sent(&mut self, bytes: u64) {
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
    }

    /// A message of `bytes`, queued at `queued`, was delivered to this actor.
    pub(crate) fn record_received(&mut self, bytes: u64, queued: SimTime) {
        self.bytes_recv += bytes;
        self.msgs_recv += 1;
        self.last_received = Some(queued);
    }

    pub(crate) fn alloc(&mut self, bytes: u64) {
        self.mem_used += bytes;
        self.mem_peak = self.mem_peak.max(self.mem_used);
    }

    pub(crate) fn free(&mut self, bytes: u64) {
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// A compact point-in-time snapshot (cheap to copy into monitors).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            cpu_time_us: self.cpu_time_us,
            work_done: self.work_done,
            compute_wall_us: self.compute_wall_us,
            sleep_wall_us: self.sleep_wall_us,
            bytes_sent: self.bytes_sent,
            bytes_recv: self.bytes_recv,
            msgs_sent: self.msgs_sent,
            msgs_recv: self.msgs_recv,
            mem_used: self.mem_used,
        }
    }
}

/// Copyable snapshot of the counters in [`Accounting`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Snapshot {
    pub cpu_time_us: f64,
    pub work_done: f64,
    pub compute_wall_us: f64,
    pub sleep_wall_us: f64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
    pub msgs_sent: u64,
    pub msgs_recv: u64,
    pub mem_used: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_updates_counters() {
        let mut a = Accounting::default();
        assert_eq!(a.last_received, None);
        a.record_sent(100);
        a.record_received(300, SimTime::from_us(7));
        a.record_received(20, SimTime::from_us(3));
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.bytes_recv, 320);
        assert_eq!(a.msgs_sent, 1);
        assert_eq!(a.msgs_recv, 2);
        // The latest delivery's queued time, whatever its order.
        assert_eq!(a.last_received, Some(SimTime::from_us(3)));
    }

    #[test]
    fn memory_tracking() {
        let mut a = Accounting::default();
        a.alloc(100);
        a.alloc(50);
        a.free(120);
        assert_eq!(a.mem_used, 30);
        assert_eq!(a.mem_peak, 150);
        a.free(1000);
        assert_eq!(a.mem_used, 0, "free saturates");
    }
}
