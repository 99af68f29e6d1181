//! Network links: store-and-forward FIFO pipes with bandwidth and latency.
//!
//! Each ordered host pair has a directed [`Link`]. A message of `b` bytes
//! whose transmission starts at `t` occupies the link for `b / bandwidth`
//! and is delivered `latency` after transmission finishes. Concurrent
//! messages on the same link serialize in FIFO order, which yields the
//! usual shared-medium behavior (two simultaneous bulk flows each observe
//! roughly half the link's bandwidth on average).
//!
//! Bandwidth changes take effect for transmissions that *start* after the
//! change; in-flight bytes finish at the old rate. Per-application bandwidth
//! *limits* (the paper's sandbox network shaping) are imposed above this
//! layer by the `sandbox` crate via token-bucket send delays.
//!
//! The kernel keeps one `LinkState` per directed host pair: the link and
//! every fault injected on it, found with one lookup per message.

use obs::det::SplitMix64;

use crate::fault::DropReason;
use crate::time::SimTime;

/// A directed network link between two hosts.
#[derive(Debug, Clone)]
pub struct Link {
    /// Bandwidth in bytes per microsecond (1 byte/us = ~0.95 MiB/s;
    /// [`Link::new`] takes bytes/second).
    pub bandwidth: f64,
    /// One-way propagation delay in microseconds, applied after serialization.
    pub latency_us: u64,
    /// Time at which the link becomes free for the next transmission.
    pub busy_until: SimTime,
    /// Total bytes accepted, for utilization statistics.
    pub bytes_carried: u64,
}

/// Result of scheduling one transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxSchedule {
    /// When serialization onto the wire begins (>= enqueue time).
    pub depart: SimTime,
    /// When the last byte leaves the sender.
    pub tx_end: SimTime,
    /// When the message is delivered to the receiver.
    pub deliver: SimTime,
}

impl Link {
    /// Construct from bandwidth in bytes/second and latency in microseconds.
    pub fn new(bw_bytes_per_sec: f64, latency_us: u64) -> Self {
        assert!(bw_bytes_per_sec > 0.0, "link bandwidth must be positive, got {bw_bytes_per_sec}");
        Link {
            bandwidth: bw_bytes_per_sec / 1e6,
            latency_us,
            busy_until: SimTime::ZERO,
            bytes_carried: 0,
        }
    }

    /// Change the bandwidth (bytes/second) for future transmissions.
    pub(crate) fn set_bandwidth(&mut self, bw_bytes_per_sec: f64) {
        assert!(bw_bytes_per_sec > 0.0);
        self.bandwidth = bw_bytes_per_sec / 1e6;
    }

    /// Bandwidth in bytes per second.
    pub(crate) fn bw_bytes_per_sec(&self) -> f64 {
        self.bandwidth * 1e6
    }

    /// Schedule the transmission of `bytes` enqueued at `now`.
    pub fn schedule(&mut self, now: SimTime, bytes: u64) -> TxSchedule {
        let depart = if self.busy_until > now { self.busy_until } else { now };
        let tx_us =
            if bytes == 0 { 0 } else { ((bytes as f64 / self.bandwidth).ceil() as u64).max(1) };
        let tx_end = depart + tx_us;
        self.busy_until = tx_end;
        self.bytes_carried += bytes;
        TxSchedule { depart, tx_end, deliver: tx_end + self.latency_us }
    }
}

/// Everything the kernel keeps about one directed host pair: its link and
/// the faults injected on it.
#[derive(Debug)]
pub(crate) struct LinkState {
    pub link: Link,
    /// Out of line: most pairs never carry a fault, and a load run keeps
    /// two pairs per session.
    pub faults: Option<Box<Faults>>,
}

/// The faults on one directed host pair. Each pair owns its seeded
/// streams, so a fault on one pair never perturbs the draws of another.
#[derive(Debug, Default)]
pub(crate) struct Faults {
    /// Loss probability and its stream.
    pub loss: Option<(f64, SplitMix64)>,
    /// Largest extra latency (at least 1 us) and its stream.
    pub jitter: Option<(u64, SplitMix64)>,
    /// Inside a scheduled down window.
    pub down: bool,
}

impl LinkState {
    pub fn new(link: Link) -> Self {
        LinkState { link, faults: None }
    }

    /// The fate of a `bytes`-byte message put on this pair at `now`: when
    /// it is delivered, or why it is dropped. `local_us` is the latency of
    /// a host's pair with itself, which has no wire and no down window but
    /// still draws loss and jitter.
    pub fn carry(
        &mut self,
        now: SimTime,
        bytes: u64,
        local_us: Option<u64>,
    ) -> Result<SimTime, DropReason> {
        let mut jitter_us = 0;
        if let Some(f) = &mut self.faults {
            if f.down && local_us.is_none() {
                // Nothing gets through, and nothing occupies the wire.
                return Err(DropReason::LinkDown);
            }
            if let Some((p, rng)) = &mut f.loss {
                if rng.next_f64() < *p {
                    // The message still occupied the wire, but never arrives.
                    if local_us.is_none() {
                        self.link.schedule(now, bytes);
                    }
                    return Err(DropReason::Loss);
                }
            }
            // Drawn per message at transmit time, so the stream does not
            // depend on how deliveries interleave.
            if let Some((max, rng)) = &mut f.jitter {
                jitter_us = rng.range(0, *max);
            }
        }
        let at = match local_us {
            Some(us) => now + us,
            None => self.link.schedule(now, bytes).deliver,
        };
        Ok(at + jitter_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_determines_tx_time() {
        // 1 MB/s, 1000us latency: 500_000 bytes -> 0.5s serialization.
        let mut l = Link::new(1_000_000.0, 1000);
        let s = l.schedule(SimTime::ZERO, 500_000);
        assert_eq!(s.depart, SimTime::ZERO);
        assert_eq!(s.tx_end, SimTime::from_us(500_000));
        assert_eq!(s.deliver, SimTime::from_us(501_000));
    }

    #[test]
    fn fifo_serialization() {
        let mut l = Link::new(1_000_000.0, 0);
        let a = l.schedule(SimTime::ZERO, 1_000_000); // 1s
        let b = l.schedule(SimTime::from_us(10), 1_000_000); // queued behind a
        assert_eq!(a.deliver, SimTime::from_secs(1));
        assert_eq!(b.depart, SimTime::from_secs(1));
        assert_eq!(b.deliver, SimTime::from_secs(2));
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut l = Link::new(1_000_000.0, 0);
        l.schedule(SimTime::ZERO, 1_000_000);
        // Next message arrives after the link went idle.
        let s = l.schedule(SimTime::from_secs(5), 1_000_000);
        assert_eq!(s.depart, SimTime::from_secs(5));
        assert_eq!(s.deliver, SimTime::from_secs(6));
    }

    #[test]
    fn zero_byte_message_costs_only_latency() {
        let mut l = Link::new(1_000_000.0, 250);
        let s = l.schedule(SimTime::from_us(7), 0);
        assert_eq!(s.tx_end, SimTime::from_us(7));
        assert_eq!(s.deliver, SimTime::from_us(257));
    }

    #[test]
    fn bandwidth_change_affects_future_sends() {
        let mut l = Link::new(1_000_000.0, 0);
        let a = l.schedule(SimTime::ZERO, 500_000);
        assert_eq!(a.deliver, SimTime::from_us(500_000));
        l.set_bandwidth(100_000.0); // 10x slower
        let b = l.schedule(a.deliver, 500_000);
        assert_eq!(b.deliver, SimTime::from_us(500_000 + 5_000_000));
    }

    #[test]
    fn bytes_carried_accumulates() {
        let mut l = Link::new(1e6, 0);
        l.schedule(SimTime::ZERO, 100);
        l.schedule(SimTime::ZERO, 200);
        assert_eq!(l.bytes_carried, 300);
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(0.0, 0);
    }
}
