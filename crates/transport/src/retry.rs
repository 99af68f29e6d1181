//! Reconnect/retransmit backoff timing, shared by the socket backend's
//! reconnect loop and the visapp client's request retries.
//!
//! Moved here from `visapp::resilience` so the transport layer does not
//! depend on the application; visapp re-exports it unchanged.

use obs::det::SplitMix64;

/// Retransmission timing: exponential backoff with multiplicative jitter.
///
/// Attempt `n` waits `base * multiplier^n`, capped at `max_timeout_us`,
/// then scaled by a uniform factor in `[1 - jitter_frac, 1 + jitter_frac]`
/// drawn from the caller's seeded RNG (deterministic per run; jitter
/// avoids lock-step retry storms when several clients share a link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff growth factor per attempt (>= 1).
    pub multiplier: f64,
    /// Upper bound on the scaled timeout, microseconds.
    pub max_timeout_us: u64,
    /// Relative jitter magnitude in `[0, 1)`.
    pub jitter_frac: f64,
    /// Seed for the jitter RNG.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { multiplier: 2.0, max_timeout_us: 2_000_000, jitter_frac: 0.1, seed: 0x5e11 }
    }
}

impl RetryPolicy {
    /// The timeout for retry `attempt` (0 = first transmission) of a
    /// request whose base timeout is `base_us`.
    pub fn timeout_us(&self, base_us: u64, attempt: u32, rng: &mut SplitMix64) -> u64 {
        let scaled = (base_us as f64 * self.multiplier.max(1.0).powi(attempt.min(32) as i32))
            .min(self.max_timeout_us as f64);
        let factor = if self.jitter_frac > 0.0 {
            let (lo, hi) = (1.0 - self.jitter_frac, 1.0 + self.jitter_frac);
            lo + rng.next_f64() * (hi - lo)
        } else {
            1.0
        };
        (scaled * factor).max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy { jitter_frac: 0.0, ..RetryPolicy::default() };
        let mut rng = SplitMix64::new(1);
        assert_eq!(p.timeout_us(100_000, 0, &mut rng), 100_000);
        assert_eq!(p.timeout_us(100_000, 1, &mut rng), 200_000);
        assert_eq!(p.timeout_us(100_000, 2, &mut rng), 400_000);
        // Capped at max_timeout_us regardless of attempt.
        assert_eq!(p.timeout_us(100_000, 20, &mut rng), p.max_timeout_us);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy { jitter_frac: 0.25, ..RetryPolicy::default() };
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for attempt in 0..8 {
            let ta = p.timeout_us(100_000, attempt, &mut a);
            let tb = p.timeout_us(100_000, attempt, &mut b);
            assert_eq!(ta, tb, "same seed, same timeouts");
            let nominal = (100_000.0 * 2.0f64.powi(attempt as i32)).min(2_000_000.0);
            assert!((ta as f64) >= nominal * 0.75 - 1.0, "attempt {attempt}: {ta}");
            assert!((ta as f64) <= nominal * 1.25 + 1.0, "attempt {attempt}: {ta}");
        }
    }

    /// Known answers: the jittered schedule is part of every retrying
    /// run's digest.
    #[test]
    fn jittered_timeouts_are_pinned() {
        let p = RetryPolicy { jitter_frac: 0.25, ..RetryPolicy::default() };
        let mut rng = SplitMix64::new(7);
        let got: Vec<u64> = (0..8).map(|a| p.timeout_us(100_000, a, &mut rng)).collect();
        assert_eq!(
            got,
            [94_491, 151_678, 480_152, 833_172, 1_561_953, 1_749_431, 1_967_953, 1_828_076]
        );
    }
}
