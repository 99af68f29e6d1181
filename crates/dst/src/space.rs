//! Declarative fault-space grammar and trial sampling.
//!
//! A [`FaultSpace`] describes *ranges* of faults the explorer may inject;
//! [`FaultSpace::sample`] collapses it into one fully-determined
//! [`TrialPlan`] from a single seed. Everything downstream (fault plan,
//! schedule perturbation, scenario size) derives from the plan's integer
//! fields, so a plan round-trips losslessly through the repro file format
//! and replays byte-identically.

use simnet::det::SplitMix64;
use simnet::{FaultPlan, SimTime};
use visapp::{CLIENT_HOST, SERVER_HOST};

/// Inclusive integer range `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub lo: u64,
    pub hi: u64,
}

impl Span {
    pub const fn new(lo: u64, hi: u64) -> Self {
        Span { lo, hi }
    }

    pub const fn fixed(v: u64) -> Self {
        Span { lo: v, hi: v }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        rng.range(self.lo, self.hi)
    }
}

/// The fault-space grammar: which faults trials may draw, and from what
/// ranges. The default space exercises every injection mechanism the
/// simnet kernel offers — loss, jitter, link-down windows, host
/// crash/restart — plus the kernel's schedule-perturbation hook.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpace {
    /// Perturb same-timestamp delivery order (kernel `DrainMode::Explore`).
    pub perturb_schedule: bool,
    /// Bounded additive skew on timer fires, microseconds.
    pub timer_skew_us: Span,
    /// Per-message loss probability, percent (applied both directions).
    pub loss_pct: Span,
    /// Max extra per-message delay, microseconds.
    pub jitter_us: Span,
    /// How many link-down windows to cut.
    pub down_windows: Span,
    /// Window start, milliseconds.
    pub down_start_ms: Span,
    /// Window length, milliseconds.
    pub down_len_ms: Span,
    /// Chance (percent) that the server crashes at all.
    pub crash_pct: u64,
    /// Crash time, milliseconds.
    pub crash_at_ms: Span,
    /// Chance (percent) that an injected crash restarts.
    pub restart_pct: u64,
    /// Restart delay after the crash, milliseconds.
    pub restart_after_ms: Span,
    /// Images the client fetches (kept >= 2 so the shared profiling
    /// scenario stays identical across trials).
    pub n_images: Span,
    /// Client request timeout, milliseconds. Small values race
    /// retransmissions against merely-late replies — the regime the
    /// reply dedup guard exists for.
    pub timeout_ms: Span,
    /// Overload axis: how many arrival-rate surge windows to inject.
    /// Non-zero windows route the trial through the cluster-arbiter
    /// storm instead of the single-app scenario.
    pub surge_windows: Span,
    /// Surge window start, milliseconds.
    pub surge_start_ms: Span,
    /// Surge window length, milliseconds.
    pub surge_len_ms: Span,
    /// Arrival-rate multiplier during a surge, tenths (30 = 3×).
    pub surge_factor_x10: Span,
    /// Overload axis: how many host-capacity dip windows to inject.
    pub dip_windows: Span,
    /// Dip window start, milliseconds.
    pub dip_start_ms: Span,
    /// Dip window length, milliseconds.
    pub dip_len_ms: Span,
    /// Capacity remaining during the dip, percent of nominal.
    pub dip_floor_pct: Span,
    /// Knob-mutation axis: how many live control-plane commands to
    /// dispatch mid-trial (drawn from the menu in
    /// [`crate::trial::knob_commands`]).
    pub knob_cmds: Span,
    /// Command dispatch time, milliseconds.
    pub knob_at_ms: Span,
    /// Which menu entry the command exercises (interpreted modulo the
    /// menu length, so any integer is a valid draw).
    pub knob_kind: Span,
    /// Command magnitude, percent — each menu entry scales this into its
    /// knob's safe range.
    pub knob_mag_pct: Span,
    /// Model-drift axis: sustained-drift threshold for the post-run
    /// refine ingest, thousandths (500 = EWMA residual 0.5). Zero (the
    /// default) disarms refinement entirely — the trial runs exactly as
    /// it would have before the axis existed. Non-zero arms the
    /// [`adapt_core::refine::RefineEngine`] fold over the trial bus and
    /// the `model_drift` oracle over its alarms; on `--cfg dst_drift`
    /// builds it additionally plants the live latency spike the engine
    /// must catch ([`crate::trial::DRIFT_LATENCY_US`]).
    pub drift_threshold_x1000: Span,
}

impl Default for FaultSpace {
    fn default() -> Self {
        FaultSpace {
            perturb_schedule: true,
            timer_skew_us: Span::new(0, 400),
            loss_pct: Span::new(0, 20),
            jitter_us: Span::new(0, 3_000),
            down_windows: Span::new(0, 1),
            down_start_ms: Span::new(200, 3_000),
            down_len_ms: Span::new(100, 800),
            crash_pct: 25,
            crash_at_ms: Span::new(300, 2_500),
            restart_pct: 75,
            restart_after_ms: Span::new(200, 1_500),
            n_images: Span::new(2, 4),
            timeout_ms: Span::new(10, 250),
            // The overload axis is off by default. A zero-width span
            // consumes no RNG state (`range(0, 0)` short-circuits), so
            // plans sampled from the default space are byte-identical to
            // plans sampled before the axis existed.
            surge_windows: Span::fixed(0),
            surge_start_ms: Span::fixed(0),
            surge_len_ms: Span::fixed(0),
            surge_factor_x10: Span::fixed(0),
            dip_windows: Span::fixed(0),
            dip_start_ms: Span::fixed(0),
            dip_len_ms: Span::fixed(0),
            dip_floor_pct: Span::fixed(0),
            // The knob-mutation axis is likewise off by default (and
            // RNG-neutral when off): legacy plans stay byte-identical.
            knob_cmds: Span::fixed(0),
            knob_at_ms: Span::fixed(0),
            knob_kind: Span::fixed(0),
            knob_mag_pct: Span::fixed(0),
            // The model-drift axis is off by default (and RNG-neutral
            // when off): legacy plans stay byte-identical.
            drift_threshold_x1000: Span::fixed(0),
        }
    }
}

impl FaultSpace {
    /// A quiet space: no faults, no perturbation. Useful as a baseline
    /// and for cross-drain digest checks.
    pub fn quiet() -> Self {
        FaultSpace {
            perturb_schedule: false,
            timer_skew_us: Span::fixed(0),
            loss_pct: Span::fixed(0),
            jitter_us: Span::fixed(0),
            down_windows: Span::fixed(0),
            down_start_ms: Span::fixed(0),
            down_len_ms: Span::fixed(0),
            crash_pct: 0,
            crash_at_ms: Span::fixed(0),
            restart_pct: 0,
            restart_after_ms: Span::fixed(0),
            n_images: Span::fixed(2),
            timeout_ms: Span::fixed(250),
            surge_windows: Span::fixed(0),
            surge_start_ms: Span::fixed(0),
            surge_len_ms: Span::fixed(0),
            surge_factor_x10: Span::fixed(0),
            dip_windows: Span::fixed(0),
            dip_start_ms: Span::fixed(0),
            dip_len_ms: Span::fixed(0),
            dip_floor_pct: Span::fixed(0),
            knob_cmds: Span::fixed(0),
            knob_at_ms: Span::fixed(0),
            knob_kind: Span::fixed(0),
            knob_mag_pct: Span::fixed(0),
            drift_threshold_x1000: Span::fixed(0),
        }
    }

    /// The overload space: no network faults, only saturating load —
    /// arrival-rate surges and host-capacity dips — driven through the
    /// cluster-arbiter storm. Every trial sampled from this space runs
    /// the multi-application path ([`TrialPlan::has_overload`]).
    pub fn overload() -> Self {
        FaultSpace {
            surge_windows: Span::new(1, 2),
            surge_start_ms: Span::new(50, 500),
            surge_len_ms: Span::new(100, 400),
            surge_factor_x10: Span::new(20, 50),
            dip_windows: Span::new(0, 1),
            dip_start_ms: Span::new(200, 700),
            dip_len_ms: Span::new(200, 500),
            dip_floor_pct: Span::new(30, 70),
            ..FaultSpace::quiet()
        }
    }

    /// The knob-mutation space: the default fault grammar plus live
    /// control-plane commands — seeded `Command` schedules that retune
    /// steering dwell, scheduler preferences, retry backoff, and breaker
    /// thresholds (or reset the breaker outright) while the faults play
    /// out. Every mutation must surface as an audit event
    /// ([`crate::oracle::config_audit_complete`]).
    pub fn knobs() -> Self {
        FaultSpace {
            knob_cmds: Span::new(1, 4),
            knob_at_ms: Span::new(100, 4_000),
            // Interpreted modulo the menu length; spanning two full
            // cycles keeps every entry reachable whatever the menu size.
            knob_kind: Span::new(0, 2 * crate::trial::KNOB_MENU_LEN - 1),
            knob_mag_pct: Span::new(0, 100),
            ..FaultSpace::default()
        }
    }

    /// The model-drift space: schedule perturbation and workload-size
    /// variation (so the shrinker has something to strip), no network
    /// faults (a lossy link slows real responses and would trip the
    /// drift oracle for honest reasons on a correct build), and the
    /// refine engine armed at a sampled threshold. On `--cfg dst_drift`
    /// builds every trial from this space plants the live latency spike;
    /// on correct builds the same plans replay clean.
    pub fn drift() -> Self {
        FaultSpace {
            perturb_schedule: true,
            timer_skew_us: Span::new(0, 400),
            n_images: Span::new(2, 4),
            drift_threshold_x1000: Span::new(250, 600),
            ..FaultSpace::quiet()
        }
    }

    /// Collapse the space into one concrete trial, deterministically from
    /// `trial_seed`. The same seed over the same space always yields the
    /// same plan.
    pub fn sample(&self, trial_seed: u64) -> TrialPlan {
        let mut rng = SplitMix64::new(trial_seed ^ 0xD57E_5EED_0A11_F00D);
        let schedule_seed = if self.perturb_schedule {
            // Non-zero: seed 0 means "identity schedule" to the kernel.
            rng.next_u64() | 1
        } else {
            0
        };
        let timer_skew_us = self.timer_skew_us.sample(&mut rng);
        let loss_pct = self.loss_pct.sample(&mut rng);
        let jitter_us = self.jitter_us.sample(&mut rng);
        let mut down = Vec::new();
        for _ in 0..self.down_windows.sample(&mut rng) {
            let start = self.down_start_ms.sample(&mut rng);
            let len = self.down_len_ms.sample(&mut rng).max(1);
            down.push((start, start + len));
        }
        let mut crash_at_ms = 0;
        let mut restart_at_ms = 0;
        if rng.range(0, 99) < self.crash_pct {
            crash_at_ms = self.crash_at_ms.sample(&mut rng).max(1);
            if rng.range(0, 99) < self.restart_pct {
                restart_at_ms = crash_at_ms + self.restart_after_ms.sample(&mut rng).max(1);
            }
        }
        let n_images = self.n_images.sample(&mut rng).max(2);
        let timeout_ms = self.timeout_ms.sample(&mut rng).max(1);
        // Overload draws come last so older spaces (all spans fixed at
        // zero, consuming no state) sample bit-identical plans.
        let mut surges = Vec::new();
        for _ in 0..self.surge_windows.sample(&mut rng) {
            let start = self.surge_start_ms.sample(&mut rng);
            let len = self.surge_len_ms.sample(&mut rng).max(1);
            let factor = self.surge_factor_x10.sample(&mut rng).max(11);
            surges.push((start, start + len, factor));
        }
        let mut dips = Vec::new();
        for _ in 0..self.dip_windows.sample(&mut rng) {
            let start = self.dip_start_ms.sample(&mut rng);
            let len = self.dip_len_ms.sample(&mut rng).max(1);
            let floor = self.dip_floor_pct.sample(&mut rng).clamp(5, 95);
            dips.push((start, start + len, floor));
        }
        // Knob draws come last, after the overload axis, for the same
        // reason: spaces without the axis consume no RNG state here.
        let mut knobs = Vec::new();
        for _ in 0..self.knob_cmds.sample(&mut rng) {
            let at = self.knob_at_ms.sample(&mut rng).max(1);
            let kind = self.knob_kind.sample(&mut rng);
            let mag = self.knob_mag_pct.sample(&mut rng).min(100);
            knobs.push((at, kind, mag));
        }
        // The drift draw comes last, after the knob axis, for the same
        // reason: spaces without the axis consume no RNG state here.
        let drift_threshold_x1000 = self.drift_threshold_x1000.sample(&mut rng);
        TrialPlan {
            trial_seed,
            schedule_seed,
            timer_skew_us,
            loss_pct,
            jitter_us,
            down,
            crash_at_ms,
            restart_at_ms,
            n_images,
            timeout_ms,
            surges,
            dips,
            knobs,
            drift_threshold_x1000,
        }
    }
}

/// One fully-determined trial: every fault and perturbation pinned to an
/// integer. Serialized verbatim into repro files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrialPlan {
    /// The seed this plan was sampled from (also seeds the fault RNG).
    pub trial_seed: u64,
    /// Kernel schedule-perturbation seed; 0 = identity schedule.
    pub schedule_seed: u64,
    /// Kernel timer-skew bound, microseconds.
    pub timer_skew_us: u64,
    /// Loss probability, percent, both directions.
    pub loss_pct: u64,
    /// Max jitter, microseconds, both directions.
    pub jitter_us: u64,
    /// Link-down windows `(start_ms, end_ms)`.
    pub down: Vec<(u64, u64)>,
    /// Server crash time in ms; 0 = no crash.
    pub crash_at_ms: u64,
    /// Server restart time in ms; 0 = never restarts (if crashed).
    pub restart_at_ms: u64,
    /// Images the client fetches.
    pub n_images: u64,
    /// Client request timeout, milliseconds.
    pub timeout_ms: u64,
    /// Arrival-rate surge windows `(start_ms, end_ms, factor_x10)`.
    /// Non-empty surges or dips route the trial through the arbiter
    /// storm.
    pub surges: Vec<(u64, u64, u64)>,
    /// Host-capacity dip windows `(start_ms, end_ms, floor_pct)`.
    pub dips: Vec<(u64, u64, u64)>,
    /// Live control-plane commands `(at_ms, menu_kind, magnitude_pct)`,
    /// decoded by [`crate::trial::knob_commands`].
    pub knobs: Vec<(u64, u64, u64)>,
    /// Refine-engine sustained-drift threshold in thousandths; 0 disarms
    /// the post-run refine ingest (and, on `--cfg dst_drift` builds, the
    /// planted link skew).
    pub drift_threshold_x1000: u64,
}

impl TrialPlan {
    /// Whether this plan exercises the overload axis (and therefore runs
    /// the multi-application arbiter storm instead of the single-app
    /// adaptive scenario).
    pub fn has_overload(&self) -> bool {
        !self.surges.is_empty() || !self.dips.is_empty()
    }

    /// The simnet fault plan this trial installs, or `None` when the plan
    /// carries no network/host faults at all.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        if self.loss_pct == 0
            && self.jitter_us == 0
            && self.down.is_empty()
            && self.crash_at_ms == 0
        {
            return None;
        }
        let mut fp = FaultPlan::new(self.trial_seed ^ 0xFA17_FA17);
        if self.loss_pct > 0 {
            fp = fp.with_loss(CLIENT_HOST, SERVER_HOST, self.loss_pct as f64 / 100.0);
        }
        if self.jitter_us > 0 {
            fp = fp.with_jitter(CLIENT_HOST, SERVER_HOST, self.jitter_us);
        }
        for &(start, end) in &self.down {
            fp = fp.with_link_down(
                CLIENT_HOST,
                SERVER_HOST,
                SimTime::from_ms(start),
                SimTime::from_ms(end),
            );
        }
        if self.crash_at_ms > 0 {
            let restart = (self.restart_at_ms > 0).then(|| SimTime::from_ms(self.restart_at_ms));
            fp = fp.with_crash(SERVER_HOST, SimTime::from_ms(self.crash_at_ms), restart);
        }
        Some(fp)
    }

    /// A crude size measure the shrinker drives toward zero: the sum of
    /// everything that distinguishes this plan from the quiet baseline
    /// (for the timeout, distance below the default 250 ms).
    pub fn weight(&self) -> u64 {
        (self.schedule_seed != 0) as u64
            + self.timer_skew_us
            + self.loss_pct
            + self.jitter_us
            + 10 * self.down.len() as u64
            + 10 * (self.crash_at_ms != 0) as u64
            + (self.n_images - 2)
            + 250u64.saturating_sub(self.timeout_ms)
            + 10 * self.surges.len() as u64
            + 10 * self.dips.len() as u64
            + 5 * self.knobs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let space = FaultSpace::default();
        assert_eq!(space.sample(1234), space.sample(1234));
        // Different seeds explore different corners (overwhelmingly).
        assert_ne!(space.sample(1), space.sample(2));
    }

    #[test]
    fn samples_respect_ranges() {
        let space = FaultSpace::default();
        for seed in 0..200 {
            let p = space.sample(seed);
            assert!(p.loss_pct <= space.loss_pct.hi);
            assert!(p.jitter_us <= space.jitter_us.hi);
            assert!(p.timer_skew_us <= space.timer_skew_us.hi);
            assert!(p.down.len() as u64 <= space.down_windows.hi);
            assert!((2..=4).contains(&p.n_images));
            assert!((10..=250).contains(&p.timeout_ms));
            assert_ne!(p.schedule_seed, 0, "perturbing space never emits identity seed");
            for &(s, e) in &p.down {
                assert!(e > s, "down window must be non-empty");
            }
            if p.restart_at_ms != 0 {
                assert!(p.restart_at_ms > p.crash_at_ms, "restart follows crash");
            }
        }
    }

    #[test]
    fn quiet_space_yields_weightless_faultless_plans() {
        let p = FaultSpace::quiet().sample(99);
        assert_eq!(p.weight(), 0);
        assert!(p.fault_plan().is_none());
        assert!(!p.has_overload());
    }

    #[test]
    fn default_space_never_draws_overload() {
        for seed in 0..100 {
            let p = FaultSpace::default().sample(seed);
            assert!(p.surges.is_empty() && p.dips.is_empty());
            assert!(p.knobs.is_empty(), "the knob axis is opt-in");
        }
    }

    #[test]
    fn knob_space_samples_respect_ranges() {
        let space = FaultSpace::knobs();
        for seed in 0..200 {
            let p = space.sample(seed);
            assert!((1..=4).contains(&p.knobs.len()), "knob space always injects a command");
            for &(at, kind, mag) in &p.knobs {
                assert!((100..=4_000).contains(&at));
                assert!(kind < 2 * crate::trial::KNOB_MENU_LEN);
                assert!(mag <= 100);
            }
            assert!(p.weight() >= 5, "knob commands weigh in for the shrinker");
        }
    }

    #[test]
    fn knob_axis_is_rng_neutral_for_legacy_plans() {
        // The knob draws come last and a zero-width span consumes no RNG
        // state, so the default space samples exactly what the knob space
        // samples minus the commands — the shared fault prefix is
        // untouched by the axis existing.
        for seed in 0..100 {
            let legacy = FaultSpace::default().sample(seed);
            let knobbed = FaultSpace::knobs().sample(seed);
            let stripped = TrialPlan { knobs: Vec::new(), ..knobbed };
            assert_eq!(legacy, stripped, "knob draws must not perturb the fault prefix");
        }
    }

    #[test]
    fn drift_axis_is_rng_neutral_for_legacy_plans() {
        // Like the knob axis: the drift draw comes last and a zero-width
        // span consumes no RNG state, so disarming the axis reproduces
        // the exact plans sampled before the axis existed.
        for seed in 0..100 {
            let armed = FaultSpace::drift().sample(seed);
            let legacy =
                FaultSpace { drift_threshold_x1000: Span::fixed(0), ..FaultSpace::drift() }
                    .sample(seed);
            let stripped = TrialPlan { drift_threshold_x1000: 0, ..armed };
            assert_eq!(legacy, stripped, "drift draw must not perturb the fault prefix");
        }
    }

    #[test]
    fn drift_space_samples_respect_ranges() {
        let space = FaultSpace::drift();
        for seed in 0..200 {
            let p = space.sample(seed);
            assert!(
                (250..=600).contains(&p.drift_threshold_x1000),
                "drift space always arms the engine at a sane threshold"
            );
            assert!(p.fault_plan().is_none(), "drift space carries no network faults");
            assert!(!p.has_overload());
            assert!((2..=4).contains(&p.n_images));
        }
        for seed in 0..20 {
            assert_eq!(
                FaultSpace::default().sample(seed).drift_threshold_x1000,
                0,
                "legacy spaces never arm the drift axis"
            );
        }
    }

    #[test]
    fn overload_space_samples_respect_ranges() {
        let space = FaultSpace::overload();
        for seed in 0..200 {
            let p = space.sample(seed);
            assert!(p.has_overload(), "overload space always injects at least one surge");
            assert!(p.fault_plan().is_none(), "overload space carries no network faults");
            assert!((1..=2).contains(&p.surges.len()));
            for &(s, e, f) in &p.surges {
                assert!(e > s, "surge window must be non-empty");
                assert!((11..=50).contains(&f), "surge factor stays a genuine multiplier");
            }
            for &(s, e, floor) in &p.dips {
                assert!(e > s, "dip window must be non-empty");
                assert!((5..=95).contains(&floor));
            }
            assert!(p.weight() >= 10, "overload windows weigh in for the shrinker");
        }
    }
}
