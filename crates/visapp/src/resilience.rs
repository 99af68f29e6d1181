//! Client-side resilience primitives for lossy links and crashing peers:
//! exponential-backoff retry timing and a circuit breaker.
//!
//! The paper assumes a reliable transport; these primitives let the
//! reproduction run the same application over the fault-injecting
//! simulator (`simnet::FaultPlan`) without livelocking. The breaker
//! follows the classic Closed → Open → HalfOpen state machine: after
//! `failure_threshold` consecutive request timeouts the client stops
//! retransmitting (the link or server is presumed dead), degrades to its
//! lowest-cost configuration, and probes again after `recovery_timeout_us`.

use obs::det::SplitMix64;
use obs::{Adaptive, ConfigValue, Knob, KnobError, ResetSignal};
use simnet::SimTime;

use crate::client::VizConfig;

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
    pub(crate) fn timeout_us(&self, base_us: u64, attempt: u32, rng: &mut SplitMix64) -> u64 {
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

/// Breaker configuration carried in [`crate::ClientOpts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerOpts {
    /// Consecutive failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before a half-open probe.
    pub recovery_timeout_us: u64,
    /// Configuration to degrade to while the breaker is non-closed;
    /// `None` derives the lowest-cost configuration (coarsest level,
    /// whole-fovea increments) from the client's geometry.
    pub degraded: Option<VizConfig>,
}

impl Default for BreakerOpts {
    fn default() -> Self {
        BreakerOpts { failure_threshold: 5, recovery_timeout_us: 500_000, degraded: None }
    }
}

/// Breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are counted.
    Closed,
    /// Tripped: no retransmissions until the recovery timeout elapses.
    Open,
    /// One probe in flight; its outcome closes or re-opens the breaker.
    HalfOpen,
}

/// The circuit breaker proper (state machine only — the client owns the
/// timers and the degraded-configuration swap).
///
/// Both thresholds live behind [`Adaptive`] handles so the control plane
/// can retune a running breaker (`Command::Set` on
/// `client.breaker.failure_threshold` / `client.breaker.recovery_timeout_us`),
/// and a [`ResetSignal`] lets a `Command::ResetBreaker` force the breaker
/// closed at the client's next deterministic poll point.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    /// A half-open probe has been admitted and not yet resolved. While
    /// set, further [`CircuitBreaker::can_attempt`] calls answer `false`
    /// so concurrent timers cannot launch duplicate probes (which would
    /// each count toward reopening on failure).
    probe_inflight: bool,
    failure_threshold: Adaptive<u64>,
    recovery_timeout: Adaptive<u64>,
    reset: ResetSignal,
    reset_seen: u64,
}

impl CircuitBreaker {
    pub fn new(opts: &BreakerOpts) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            probe_inflight: false,
            failure_threshold: Adaptive::new(opts.failure_threshold.max(1) as u64),
            recovery_timeout: Adaptive::new(opts.recovery_timeout_us),
            reset: ResetSignal::new(),
            reset_seen: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Live failure threshold (consecutive failures that trip the breaker).
    pub fn failure_threshold(&self) -> u32 {
        self.failure_threshold.get().min(u32::MAX as u64) as u32
    }

    /// Live recovery timeout (open-window length before a half-open probe).
    pub fn recovery_timeout_us(&self) -> u64 {
        self.recovery_timeout.get()
    }

    /// `failure_threshold` as a config knob.
    pub(crate) fn failure_threshold_knob(&self) -> ThresholdKnob {
        ThresholdKnob(self.failure_threshold.clone())
    }

    /// Handle for registering `recovery_timeout_us` as a config knob.
    pub(crate) fn recovery_timeout_handle(&self) -> Adaptive<u64> {
        self.recovery_timeout.clone()
    }

    /// The reset signal a `CommandRouter` pokes on `ResetBreaker`.
    pub(crate) fn reset_signal(&self) -> ResetSignal {
        self.reset.clone()
    }

    /// Poll for an operator reset. When one arrived since the last poll,
    /// force the breaker closed (clearing the failure streak and any
    /// in-flight probe) and return `true`. Deterministic: the reset takes
    /// effect here, at the owner's chosen poll point, not asynchronously.
    pub(crate) fn poll_reset(&mut self) -> bool {
        if !self.reset.take(&mut self.reset_seen) {
            return false;
        }
        self.consecutive_failures = 0;
        self.probe_inflight = false;
        let reopened = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        reopened
    }

    /// Record a success. Returns `true` when this closed a non-closed
    /// breaker (the "re-close" event the client logs and acts on).
    pub fn on_success(&mut self) -> bool {
        self.consecutive_failures = 0;
        self.probe_inflight = false;
        let reclosed = self.state != BreakerState::Closed;
        self.state = BreakerState::Closed;
        reclosed
    }

    /// Record a failure at time `now`. Returns `true` when this tripped
    /// the breaker open (from Closed past the threshold, or a failed
    /// half-open probe).
    pub fn on_failure(&mut self, now: SimTime) -> bool {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        self.probe_inflight = false;
        match self.state {
            BreakerState::Closed => {
                if u64::from(self.consecutive_failures) >= self.failure_threshold.get() {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
                true
            }
            BreakerState::Open => {
                self.opened_at = now;
                false
            }
        }
    }

    /// May the client transmit at `now`? An open breaker transitions to
    /// half-open (and answers yes) once the recovery timeout has elapsed.
    ///
    /// Exactly one probe is admitted per half-open episode: the call
    /// that performs the Open → HalfOpen transition. Until that probe
    /// resolves through [`CircuitBreaker::on_success`] or
    /// [`CircuitBreaker::on_failure`], subsequent calls answer `false` —
    /// overlapping retry timers (common when several requests timed out
    /// before the breaker tripped) must not stack duplicate probes.
    pub fn can_attempt(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => !self.probe_inflight,
            BreakerState::Open => {
                if now.since(self.opened_at) >= self.recovery_timeout.get() {
                    self.state = BreakerState::HalfOpen;
                    self.probe_inflight = true;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// The `failure_threshold` knob. A breaker trips on at least one failure,
/// so a write of 0 is refused rather than stored: the audit trail records
/// only values that take effect, and every value the cell holds is >= 1.
pub(crate) struct ThresholdKnob(Adaptive<u64>);

impl Knob for ThresholdKnob {
    fn write(&self, value: ConfigValue) -> Result<(ConfigValue, u64), KnobError> {
        if value.as_u64() == Some(0) {
            return Err(KnobError::BadValue("failure_threshold 0 must be >= 1".into()));
        }
        self.0.write(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_ms(ms)
    }

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

    #[test]
    fn breaker_opens_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 3,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_failure(t(0)));
        assert!(!b.on_failure(t(10)));
        assert!(b.on_failure(t(20)), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        // Still open before the recovery timeout.
        assert!(!b.can_attempt(t(50)));
        assert_eq!(b.state(), BreakerState::Open);
        // Past the timeout: half-open, one probe allowed.
        assert!(b.can_attempt(t(130)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Successful probe closes it.
        assert!(b.on_success());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
        assert!(!b.on_success(), "success while closed is not a re-close");
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 1,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        assert!(b.on_failure(t(0)));
        assert!(b.can_attempt(t(150)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.on_failure(t(160)), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open);
        // The open window restarts from the probe failure.
        assert!(!b.can_attempt(t(200)));
        assert!(b.can_attempt(t(260)));
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 1,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        assert!(b.on_failure(t(0)));
        // The transitioning call admits the probe; overlapping retry
        // timers asking again are refused until the probe resolves.
        assert!(b.can_attempt(t(150)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.probe_inflight);
        assert!(!b.can_attempt(t(151)), "duplicate probe must be refused");
        assert!(!b.can_attempt(t(199)), "still refused while unresolved");
        assert_eq!(b.state(), BreakerState::HalfOpen, "refusal does not change state");
        // Probe succeeds: breaker closes and attempts flow freely again.
        assert!(b.on_success());
        assert!(!b.probe_inflight);
        assert!(b.can_attempt(t(200)));
        // Next episode: a failed probe clears the in-flight flag too, so
        // the following half-open window admits a fresh probe.
        assert!(b.on_failure(t(210)));
        assert!(b.can_attempt(t(320)));
        assert!(b.on_failure(t(330)), "failed probe re-opens");
        assert!(!b.probe_inflight);
        assert!(b.can_attempt(t(440)), "new window admits a new probe");
        assert!(b.probe_inflight);
    }

    #[test]
    fn reset_signal_forces_breaker_closed_at_poll() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 1,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        assert!(!b.poll_reset(), "no pending reset at start");
        assert!(b.on_failure(t(0)));
        assert_eq!(b.state(), BreakerState::Open);
        let signal = b.reset_signal();
        signal.request();
        assert!(b.poll_reset(), "pending reset closes an open breaker");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures, 0);
        assert!(b.can_attempt(t(1)), "closed breaker admits traffic immediately");
        assert!(!b.poll_reset(), "reset is edge-triggered: consumed once");
        // A reset while half-open clears the in-flight probe too.
        assert!(b.on_failure(t(10)));
        assert!(b.can_attempt(t(120)));
        assert!(b.probe_inflight);
        signal.request();
        assert!(b.poll_reset());
        assert!(!b.probe_inflight);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn thresholds_are_live_tunable_through_handles() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 5,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        // Tighten the threshold mid-streak: the next failure trips.
        b.on_failure(t(0));
        b.failure_threshold_knob().write(ConfigValue::U64(2)).unwrap();
        assert_eq!(b.failure_threshold(), 2);
        assert!(b.on_failure(t(10)), "new lower threshold trips on second failure");
        assert_eq!(b.state(), BreakerState::Open);
        // Stretch the recovery window mid-open: the old window no longer probes.
        b.recovery_timeout_handle().set(500_000);
        assert_eq!(b.recovery_timeout_us(), 500_000);
        assert!(!b.can_attempt(t(150)), "old 100ms window no longer admits a probe");
        assert!(b.can_attempt(t(520)), "new 500ms window does");
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: 3,
            recovery_timeout_us: 100_000,
            degraded: None,
        });
        b.on_failure(t(0));
        b.on_failure(t(10));
        b.on_success();
        assert!(!b.on_failure(t(20)), "streak restarted");
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
