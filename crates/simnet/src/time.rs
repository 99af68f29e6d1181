//! Simulated time.
//!
//! All simulation time is kept as an integer number of microseconds inside
//! [`SimTime`]. Durations are plain `u64` microsecond counts (see the
//! [`dur`] helpers); floating point only appears at the edges (rates and
//! statistics), never in the event clock, so event ordering is exact and
//! runs are bit-for-bit reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole microseconds.
    pub fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time: {s}");
        SimTime((s * 1e6).round() as u64)
    }

    /// This time as whole microseconds.
    pub fn as_us(self) -> u64 {
        self.0
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`, in microseconds.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, us: u64) -> SimTime {
        SimTime(self.0.saturating_add(us))
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, us: u64) {
        self.0 = self.0.saturating_add(us);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.checked_sub(rhs.0).expect("SimTime subtraction went negative")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Duration helpers: conversions to microsecond counts.
pub mod dur {
    /// `n` microseconds.
    pub const fn us(n: u64) -> u64 {
        n
    }
    /// `n` milliseconds in microseconds.
    pub const fn ms(n: u64) -> u64 {
        n * 1_000
    }
    /// `n` seconds in microseconds.
    pub const fn secs(n: u64) -> u64 {
        n * 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_us(), 3_000_000);
        assert_eq!(SimTime::from_ms(5).as_us(), 5_000);
        assert_eq!(SimTime::from_us(7).as_us(), 7);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1);
        assert_eq!((t + dur::ms(500)).as_us(), 1_500_000);
        assert_eq!(t + dur::ms(500) - t, 500_000);
        assert_eq!(t.since(SimTime::from_secs(2)), 0, "saturates at zero");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ms(1) < SimTime::from_ms(2));
        assert_eq!(SimTime::ZERO, SimTime::from_us(0));
        assert!(SimTime::MAX > SimTime::from_secs(1_000_000));
    }

    #[test]
    #[should_panic]
    fn negative_subtraction_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_ms(1500).to_string(), "1.500000s");
    }
}
