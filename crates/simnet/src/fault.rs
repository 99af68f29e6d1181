//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] describes everything that will go wrong in a run:
//! per-link probabilistic packet loss, bounded latency jitter, scheduled
//! link-down windows, network partitions, and host crash/restart events.
//! Installing the plan on a [`Sim`] arms all of it up front;
//! from then on the faults unfold deterministically as simulated time
//! advances. Two runs with the same plan (and the same workload) produce
//! bit-identical traces.
//!
//! When an [`obs::Obs`] context is attached to the simulation
//! ([`Sim::attach_obs`]), every injected fault is published on its bus as
//! a `Source::Simnet` event: `msg_dropped` (with a `reason` field,
//! [`DropReason::name`]), `link_down` / `link_up`, and `host_crash` /
//! `host_restart`.
//!
//! ## Determinism
//!
//! Randomized faults (loss, jitter) draw from per-directed-link RNGs
//! seeded by mixing the plan seed with the link endpoints, so adding a
//! fault on one link never perturbs the random sequence of another.
//! Scheduled faults (down windows, partitions, crashes) are fixed points
//! on the simulated clock. No wall-clock or OS randomness is involved.

use crate::actor::HostId;
use crate::kernel::Sim;
use crate::time::SimTime;

/// Why an injected fault dropped a message (the `reason` field of a
/// `msg_dropped` event).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Probabilistic per-link loss.
    Loss,
    /// The link was inside a scheduled down window.
    LinkDown,
    /// The destination actor's host (or the actor itself) was dead.
    ReceiverDead,
}

impl DropReason {
    /// Stable string used in obs event fields.
    pub const fn name(self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::LinkDown => "link_down",
            DropReason::ReceiverDead => "receiver_dead",
        }
    }
}

/// An invalid fault description, from the `try_with_*` builders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// A loss probability outside `[0, 1]`.
    LossOutOfRange(f64),
    /// A down/partition window with `from >= until`.
    EmptyWindow { from: SimTime, until: SimTime },
    /// A restart scheduled at or before its crash.
    RestartBeforeCrash { at: SimTime, restart_at: SimTime },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::LossOutOfRange(p) => {
                write!(f, "loss probability out of range: {p}")
            }
            FaultError::EmptyWindow { from, until } => {
                write!(f, "empty down window [{from}, {until})")
            }
            FaultError::RestartBeforeCrash { at, restart_at } => {
                write!(f, "restart must follow the crash (crash {at}, restart {restart_at})")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Mix a plan seed with a directed link so each link gets an independent
/// deterministic stream.
pub(crate) fn derive_seed(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= a.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    z ^= b.wrapping_mul(0x94D0_49BB_1331_11EB).rotate_left(43);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
struct LinkLoss {
    src: HostId,
    dst: HostId,
    p: f64,
}

#[derive(Debug, Clone)]
struct LinkJitter {
    src: HostId,
    dst: HostId,
    max_us: u64,
}

#[derive(Debug, Clone)]
struct DownWindow {
    src: HostId,
    dst: HostId,
    from: SimTime,
    until: SimTime,
}

#[derive(Debug, Clone)]
struct Crash {
    host: HostId,
    at: SimTime,
    restart_at: Option<SimTime>,
}

/// A complete description of the faults to inject into one run.
///
/// Build with the consuming `with_*` methods (the workspace-wide builder
/// convention, like `ValidityRegion::with_range`), then
/// [`install`](FaultPlan::install) on a simulation before (or while) it
/// runs. All scheduled times are absolute simulation times and must not be
/// in the past at install time. The `with_*` builders panic on invalid
/// input; the `try_with_*` twins return a [`FaultError`] instead.
///
/// ```
/// use simnet::{FaultPlan, Sim, SimTime};
///
/// let mut sim = Sim::new();
/// let a = sim.add_host("a", 1.0, 1 << 30);
/// let b = sim.add_host("b", 1.0, 1 << 30);
/// FaultPlan::new(7)
///     .with_loss(a, b, 0.3)
///     .with_jitter(a, b, 200)
///     .with_link_down(a, b, SimTime::from_ms(100), SimTime::from_ms(600))
///     .with_crash(b, SimTime::from_secs(2), Some(SimTime::from_secs(3)))
///     .install(&mut sim);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    losses: Vec<LinkLoss>,
    jitters: Vec<LinkJitter>,
    windows: Vec<DownWindow>,
    crashes: Vec<Crash>,
}

impl FaultPlan {
    /// An empty plan whose randomized faults derive from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..Default::default() }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan drops any message at random (a loss above zero on
    /// some link).
    pub fn is_lossy(&self) -> bool {
        self.losses.iter().any(|l| l.p > 0.0)
    }

    /// Drop each message on the `a -> b` *and* `b -> a` links
    /// independently with probability `p`. Panics if `p` is outside
    /// `[0, 1]`; see [`try_with_loss`](FaultPlan::try_with_loss).
    pub fn with_loss(self, a: HostId, b: HostId, p: f64) -> Self {
        self.try_with_loss(a, b, p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_loss`](FaultPlan::with_loss).
    pub fn try_with_loss(mut self, a: HostId, b: HostId, p: f64) -> Result<Self, FaultError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(FaultError::LossOutOfRange(p));
        }
        self.losses.push(LinkLoss { src: a, dst: b, p });
        self.losses.push(LinkLoss { src: b, dst: a, p });
        Ok(self)
    }

    /// Drop each message on the directed `src -> dst` link with
    /// probability `p`. Panics if `p` is outside `[0, 1]`.
    pub fn with_loss_directed(mut self, src: HostId, dst: HostId, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "{}", FaultError::LossOutOfRange(p));
        self.losses.push(LinkLoss { src, dst, p });
        self
    }

    /// Add uniform random extra delivery latency in `[0, max_us]` to every
    /// message on the `a <-> b` links.
    pub fn with_jitter(mut self, a: HostId, b: HostId, max_us: u64) -> Self {
        self.jitters.push(LinkJitter { src: a, dst: b, max_us });
        self.jitters.push(LinkJitter { src: b, dst: a, max_us });
        self
    }

    /// Take the `a <-> b` links down for `[from, until)`: every message
    /// transmitted inside the window is dropped. Panics on an empty
    /// window; see [`try_with_link_down`](FaultPlan::try_with_link_down).
    pub fn with_link_down(self, a: HostId, b: HostId, from: SimTime, until: SimTime) -> Self {
        self.try_with_link_down(a, b, from, until).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_link_down`](FaultPlan::with_link_down).
    pub fn try_with_link_down(
        mut self,
        a: HostId,
        b: HostId,
        from: SimTime,
        until: SimTime,
    ) -> Result<Self, FaultError> {
        if from >= until {
            return Err(FaultError::EmptyWindow { from, until });
        }
        self.windows.push(DownWindow { src: a, dst: b, from, until });
        self.windows.push(DownWindow { src: b, dst: a, from, until });
        Ok(self)
    }

    /// Partition `group_a` from `group_b` for `[from, until)`: every link
    /// crossing the cut is down for the window (links within each group
    /// are unaffected). Panics on an empty window.
    pub fn with_partition(
        self,
        group_a: &[HostId],
        group_b: &[HostId],
        from: SimTime,
        until: SimTime,
    ) -> Self {
        self.try_with_partition(group_a, group_b, from, until).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_partition`](FaultPlan::with_partition).
    pub(crate) fn try_with_partition(
        mut self,
        group_a: &[HostId],
        group_b: &[HostId],
        from: SimTime,
        until: SimTime,
    ) -> Result<Self, FaultError> {
        if from >= until {
            return Err(FaultError::EmptyWindow { from, until });
        }
        for &a in group_a {
            for &b in group_b {
                self.windows.push(DownWindow { src: a, dst: b, from, until });
                self.windows.push(DownWindow { src: b, dst: a, from, until });
            }
        }
        Ok(self)
    }

    /// Crash `host` at `at` (every actor on it dies: computation aborted,
    /// queues cleared, pending timers cancelled). If `restart_at` is set,
    /// the host restarts then: its actors come back alive with their
    /// `on_start` re-run, modeling a process restart. Panics if the
    /// restart does not follow the crash; see
    /// [`try_with_crash`](FaultPlan::try_with_crash).
    pub fn with_crash(self, host: HostId, at: SimTime, restart_at: Option<SimTime>) -> Self {
        self.try_with_crash(host, at, restart_at).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`with_crash`](FaultPlan::with_crash).
    pub fn try_with_crash(
        mut self,
        host: HostId,
        at: SimTime,
        restart_at: Option<SimTime>,
    ) -> Result<Self, FaultError> {
        if let Some(r) = restart_at {
            if r <= at {
                return Err(FaultError::RestartBeforeCrash { at, restart_at: r });
            }
        }
        self.crashes.push(Crash { host, at, restart_at });
        Ok(self)
    }

    /// Arm every fault in the plan on `sim`. Probabilistic faults take
    /// effect immediately; scheduled faults are queued as kernel events.
    pub fn install(&self, sim: &mut Sim) {
        for l in &self.losses {
            let seed = derive_seed(self.seed, 0x1055, l.src.0 as u64, l.dst.0 as u64);
            sim.set_link_loss(l.src, l.dst, l.p, seed);
        }
        for j in &self.jitters {
            let seed = derive_seed(self.seed, 0x717e, j.src.0 as u64, j.dst.0 as u64);
            sim.set_link_jitter(j.src, j.dst, j.max_us, seed);
        }
        for w in &self.windows {
            let (src, dst) = (w.src, w.dst);
            sim.at(w.from, move |s| s.set_link_down(src, dst, true));
            sim.at(w.until, move |s| s.set_link_down(src, dst, false));
        }
        for c in &self.crashes {
            let host = c.host;
            sim.at(c.at, move |s| s.crash_host(host));
            if let Some(r) = c.restart_at {
                sim.at(r, move |s| s.restart_host(host));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_link() {
        let s1 = derive_seed(42, 0x1055, 0, 1);
        let s2 = derive_seed(42, 0x1055, 1, 0);
        let s3 = derive_seed(42, 0x717e, 0, 1);
        assert_ne!(s1, s2);
        assert_ne!(s1, s3);
        // Same inputs, same seed: deterministic.
        assert_eq!(s1, derive_seed(42, 0x1055, 0, 1));
    }

    #[test]
    #[should_panic(expected = "empty down window")]
    fn rejects_empty_window() {
        let _ = FaultPlan::new(0).with_link_down(
            HostId(0),
            HostId(1),
            SimTime::from_ms(5),
            SimTime::from_ms(5),
        );
    }

    #[test]
    #[should_panic(expected = "restart must follow")]
    fn rejects_restart_before_crash() {
        let _ =
            FaultPlan::new(0).with_crash(HostId(0), SimTime::from_ms(5), Some(SimTime::from_ms(4)));
    }

    #[test]
    fn try_builders_report_instead_of_panicking() {
        assert_eq!(
            FaultPlan::new(0).try_with_loss(HostId(0), HostId(1), 1.5).unwrap_err(),
            FaultError::LossOutOfRange(1.5)
        );
        assert!(matches!(
            FaultPlan::new(0)
                .try_with_partition(
                    &[HostId(0)],
                    &[HostId(1)],
                    SimTime::from_ms(9),
                    SimTime::from_ms(9),
                )
                .unwrap_err(),
            FaultError::EmptyWindow { .. }
        ));
        assert!(FaultPlan::new(0)
            .try_with_crash(HostId(0), SimTime::from_ms(1), Some(SimTime::from_ms(2)))
            .is_ok());
    }

    #[test]
    fn consuming_builders_chain() {
        // Regression for the PR that removed the deprecated non-`with_`
        // aliases: the canonical consuming builders cover the same plans.
        let plan = FaultPlan::new(3)
            .with_loss(HostId(0), HostId(1), 0.1)
            .with_jitter(HostId(0), HostId(1), 50)
            .with_link_down(HostId(0), HostId(1), SimTime::from_ms(1), SimTime::from_ms(2))
            .with_crash(HostId(1), SimTime::from_ms(3), None);
        assert_eq!(plan.seed(), 3);
        assert_eq!(plan.losses.len(), 2, "symmetric loss covers both directions");
        assert_eq!(plan.windows.len(), 2, "symmetric down-window covers both directions");
        assert_eq!(plan.crashes.len(), 1);
    }
}
