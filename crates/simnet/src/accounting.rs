//! Per-actor resource accounting.
//!
//! The kernel maintains one [`Accounting`] record per actor: CPU time
//! actually received, wall time spent computing or sleeping, bytes moved,
//! and a bounded log of recent message [`Transfer`]s. The paper's
//! monitoring agent and the sandbox's progress estimator are built purely
//! on these observations — they never read the ground-truth resource caps,
//! mirroring how the original system had to *infer* availability from
//! application-visible measurements.

use std::collections::VecDeque;

use crate::actor::ActorId;
use crate::time::SimTime;

/// Transfer direction relative to the actor owning the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Sent,
    Received,
}

/// One completed message transfer, as observed by an endpoint.
#[derive(Debug, Clone, Copy)]
pub struct Transfer {
    pub peer: ActorId,
    pub dir: Dir,
    pub bytes: u64,
    /// When the message was handed to the network layer.
    pub queued: SimTime,
    /// When the last byte arrived at the receiver.
    pub delivered: SimTime,
}

impl Transfer {
    /// Observed end-to-end throughput in bytes/second (None for instant or
    /// zero-byte transfers).
    pub fn throughput_bps(&self) -> Option<f64> {
        let us = self.delivered.since(self.queued);
        if us == 0 || self.bytes == 0 {
            None
        } else {
            Some(self.bytes as f64 / (us as f64 / 1e6))
        }
    }
}

/// Maximum transfers retained per actor; older entries are dropped.
pub const TRANSFER_LOG_CAP: usize = 4096;

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
    /// Bounded log of recent transfers, oldest first.
    pub transfers: VecDeque<Transfer>,
    /// Simulated bytes of memory currently allocated by the actor.
    pub mem_used: u64,
    /// High-water mark of `mem_used`.
    pub mem_peak: u64,
}

impl Accounting {
    pub(crate) fn record_transfer(&mut self, t: Transfer) {
        match t.dir {
            Dir::Sent => {
                self.bytes_sent += t.bytes;
                self.msgs_sent += 1;
            }
            Dir::Received => {
                self.bytes_recv += t.bytes;
                self.msgs_recv += 1;
            }
        }
        if self.transfers.len() == TRANSFER_LOG_CAP {
            self.transfers.pop_front();
        }
        self.transfers.push_back(t);
    }

    pub(crate) fn alloc(&mut self, bytes: u64) {
        self.mem_used += bytes;
        self.mem_peak = self.mem_peak.max(self.mem_used);
    }

    pub(crate) fn free(&mut self, bytes: u64) {
        self.mem_used = self.mem_used.saturating_sub(bytes);
    }

    /// Average CPU share obtained over the compute wall time so far:
    /// `cpu_time / compute_wall`. `None` when the actor has not computed.
    pub fn mean_cpu_share(&self) -> Option<f64> {
        if self.compute_wall_us > 0.0 {
            Some(self.cpu_time_us / self.compute_wall_us)
        } else {
            None
        }
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
    fn transfer_throughput() {
        let t = Transfer {
            peer: ActorId(1),
            dir: Dir::Sent,
            bytes: 1_000_000,
            queued: SimTime::ZERO,
            delivered: SimTime::from_secs(2),
        };
        assert!((t.throughput_bps().unwrap() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn throughput_none_for_instant() {
        let t = Transfer {
            peer: ActorId(1),
            dir: Dir::Sent,
            bytes: 10,
            queued: SimTime::from_us(5),
            delivered: SimTime::from_us(5),
        };
        assert!(t.throughput_bps().is_none());
    }

    #[test]
    fn record_updates_counters() {
        let mut a = Accounting::default();
        a.record_transfer(Transfer {
            peer: ActorId(2),
            dir: Dir::Sent,
            bytes: 100,
            queued: SimTime::ZERO,
            delivered: SimTime::from_us(1),
        });
        a.record_transfer(Transfer {
            peer: ActorId(2),
            dir: Dir::Received,
            bytes: 300,
            queued: SimTime::ZERO,
            delivered: SimTime::from_us(1),
        });
        assert_eq!(a.bytes_sent, 100);
        assert_eq!(a.bytes_recv, 300);
        assert_eq!(a.msgs_sent, 1);
        assert_eq!(a.msgs_recv, 1);
        assert_eq!(a.transfers.len(), 2);
    }

    #[test]
    fn transfer_log_is_bounded() {
        let mut a = Accounting::default();
        for i in 0..(TRANSFER_LOG_CAP + 10) {
            a.record_transfer(Transfer {
                peer: ActorId(0),
                dir: Dir::Sent,
                bytes: i as u64,
                queued: SimTime::ZERO,
                delivered: SimTime::from_us(1),
            });
        }
        assert_eq!(a.transfers.len(), TRANSFER_LOG_CAP);
        assert_eq!(a.transfers.front().unwrap().bytes, 10);
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

    #[test]
    fn mean_cpu_share() {
        let mut a = Accounting::default();
        assert!(a.mean_cpu_share().is_none());
        a.cpu_time_us = 40.0;
        a.compute_wall_us = 100.0;
        assert!((a.mean_cpu_share().unwrap() - 0.4).abs() < 1e-12);
    }
}
