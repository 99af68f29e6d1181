//! Token-bucket rate limiting, used for the sandbox's network shaping
//! ("delaying sending and receiving of messages to ensure that the
//! application sees the desired bandwidth", paper §5.1).

use simnet::SimTime;

/// A token bucket: tokens are bytes, refilled at `rate` bytes/second up to
/// `burst` bytes. [`TokenBucket::acquire`] answers "how long must this
/// message wait so the long-run average stays at or below the rate".
#[derive(Debug, Clone)]
pub struct TokenBucket {
    tokens: f64,
    burst: f64,
    /// Bytes per microsecond.
    rate: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Create a bucket with the given rate (bytes/second) and burst size
    /// (bytes). The bucket starts full.
    pub fn new(rate_bps: f64, burst_bytes: f64) -> Self {
        assert!(rate_bps > 0.0 && burst_bytes > 0.0);
        TokenBucket {
            tokens: burst_bytes,
            burst: burst_bytes,
            rate: rate_bps / 1e6,
            last: SimTime::ZERO,
        }
    }

    /// A bucket whose burst is 100 ms worth of the rate (min 2 KiB), a
    /// reasonable default for message-oriented shaping.
    pub fn with_default_burst(rate_bps: f64) -> Self {
        let burst = (rate_bps * 0.1).max(2048.0);
        TokenBucket::new(rate_bps, burst)
    }

    /// Change the rate (bytes/second); tokens and burst are preserved.
    pub(crate) fn set_rate(&mut self, now: SimTime, rate_bps: f64) {
        assert!(rate_bps > 0.0);
        self.refill(now);
        self.rate = rate_bps / 1e6;
    }

    pub(crate) fn rate_bps(&self) -> f64 {
        self.rate * 1e6
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.last) as f64;
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
    }

    /// Charge `bytes` at time `now`; returns the delay in microseconds the
    /// caller must wait before the operation conforms to the rate.
    pub fn acquire(&mut self, now: SimTime, bytes: u64) -> u64 {
        self.refill(now);
        let b = bytes as f64;
        if self.tokens >= b {
            self.tokens -= b;
            0
        } else {
            let deficit = b - self.tokens;
            self.tokens = 0.0;
            // The deficit is paid off by future refill; the caller waits for it.
            let delay = (deficit / self.rate).ceil() as u64;
            // Move the clock forward logically: the refill during `delay`
            // exactly covers the deficit, so tokens stay at 0.
            self.last = now + delay;
            delay.max(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_passes_without_delay() {
        let mut b = TokenBucket::new(1_000_000.0, 10_000.0);
        assert_eq!(b.acquire(SimTime::ZERO, 10_000), 0);
    }

    #[test]
    fn deficit_incurs_delay() {
        let mut b = TokenBucket::new(1_000_000.0, 10_000.0); // 1 byte/us
        assert_eq!(b.acquire(SimTime::ZERO, 10_000), 0);
        // Bucket empty; 5000 bytes need 5000us of refill.
        assert_eq!(b.acquire(SimTime::ZERO, 5_000), 5_000);
    }

    #[test]
    fn refill_restores_tokens() {
        let mut b = TokenBucket::new(1_000_000.0, 10_000.0);
        assert_eq!(b.acquire(SimTime::ZERO, 10_000), 0);
        // After 10ms the bucket is full again (capped at burst).
        assert_eq!(b.acquire(SimTime::from_ms(10), 10_000), 0);
    }

    #[test]
    fn long_run_average_respects_rate() {
        // 100 KB/s; send 10 x 50 KB messages back to back from t=0.
        let mut b = TokenBucket::new(100_000.0, 50_000.0);
        let mut t = SimTime::ZERO;
        let mut total_delay = 0u64;
        for _ in 0..10 {
            let d = b.acquire(t, 50_000);
            total_delay += d;
            t += d; // sender waits before each message
        }
        // 500 KB at 100 KB/s needs ~5s minus the 0.5s burst credit.
        let effective = 500_000.0 / (t.as_secs_f64().max(1e-9));
        assert!(
            effective <= 115_000.0,
            "long-run rate {effective} must stay near the 100 KB/s cap"
        );
        assert!(total_delay >= 4_000_000, "delays must accumulate");
    }

    #[test]
    fn rate_change_takes_effect() {
        let mut b = TokenBucket::new(1_000_000.0, 1_000.0);
        b.acquire(SimTime::ZERO, 1_000);
        b.set_rate(SimTime::ZERO, 100_000.0); // 10x slower
        let d = b.acquire(SimTime::ZERO, 1_000);
        assert_eq!(d, 10_000, "1000 bytes at 0.1 byte/us");
    }
}
