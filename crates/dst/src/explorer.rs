//! The explorer: a model-checker-lite driving thousands of seeded trials
//! through the fault space, checking every oracle, and shrinking failures
//! to minimal repros.

use obs::det::{Fnv64, SplitMix64};

use crate::oracle::Violation;
use crate::repro::Repro;
use crate::shrink::{self, ShrinkResult};
use crate::space::{FaultSpace, TrialPlan};
use crate::trial::TrialContext;

/// Explorer configuration.
#[derive(Debug, Clone)]
pub struct ExplorerOpts {
    /// Seeds the per-trial seed stream: same master seed, same trials.
    pub master_seed: u64,
    /// Trials to run (the run also stops at `max_failures`).
    pub trials: u64,
    /// The fault-space grammar to sample.
    pub space: FaultSpace,
    /// Shrink each failure toward a minimal plan.
    pub shrink: bool,
    /// Candidate-trial budget per shrink.
    pub shrink_budget: u64,
    /// Stop after this many failing trials.
    pub max_failures: usize,
}

impl Default for ExplorerOpts {
    fn default() -> Self {
        ExplorerOpts {
            master_seed: 0xDA7A_5EED,
            trials: 1_000,
            space: FaultSpace::default(),
            shrink: true,
            shrink_budget: 64,
            max_failures: 4,
        }
    }
}

/// One failing trial, with its shrink result when shrinking ran.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Zero-based index of the failing trial.
    pub trial_index: u64,
    /// The plan as sampled.
    pub plan: TrialPlan,
    /// The first violation the oracles reported.
    pub violation: Violation,
    /// Behaviour digest of the failing trial as sampled.
    pub digest: u64,
    /// Shrinking outcome (absent when `shrink` was off).
    pub shrunk: Option<ShrinkResult>,
}

impl Failure {
    /// The repro to commit: the shrunken plan when available, the
    /// original otherwise, with the matching run's behaviour digest
    /// pinned so replays can assert bit-for-bit equality.
    pub fn repro(&self) -> Repro {
        let plan = self.shrunk.as_ref().map_or_else(|| self.plan.clone(), |s| s.plan.clone());
        let digest = self.shrunk.as_ref().and_then(|s| s.digest).unwrap_or(self.digest);
        Repro::new(plan, self.violation.kind(), &self.violation.to_string()).with_digest(digest)
    }
}

/// What an explorer run found.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Trials executed (excluding shrink candidates).
    pub trials_run: u64,
    /// Fold of every trial digest, in order: the determinism anchor —
    /// two runs with the same options must produce the same value.
    pub digest: u64,
    /// Failing trials, in discovery order.
    pub failures: Vec<Failure>,
}

impl ExploreReport {
    pub fn found_violation(&self) -> bool {
        !self.failures.is_empty()
    }
}

/// The explorer itself. Construction is cheap; all shared trial state
/// lives in the [`TrialContext`] passed to [`Explorer::run`].
#[derive(Debug, Clone, Default)]
pub struct Explorer {
    pub opts: ExplorerOpts,
}

impl Explorer {
    pub fn new(opts: ExplorerOpts) -> Self {
        Explorer { opts }
    }

    /// Run the configured trials. Deterministic: the same options over
    /// the same context always produce the same report (digest included).
    pub fn run(&self, ctx: &TrialContext) -> ExploreReport {
        let o = &self.opts;
        let mut seeds = SplitMix64::new(o.master_seed);
        let mut digest = Fnv64::new();
        let mut failures: Vec<Failure> = Vec::new();
        let mut trials_run = 0;
        for i in 0..o.trials {
            let plan = o.space.sample(seeds.next_u64());
            let out = ctx.run(&plan);
            trials_run += 1;
            digest.write_u64(out.digest);
            let trial_digest = out.digest;
            if let Some(violation) = out.violations.into_iter().next() {
                let shrunk =
                    o.shrink.then(|| shrink::shrink(ctx, &plan, violation.kind(), o.shrink_budget));
                failures.push(Failure {
                    trial_index: i,
                    plan,
                    violation,
                    digest: trial_digest,
                    shrunk,
                });
                if failures.len() >= o.max_failures {
                    break;
                }
            }
        }
        ExploreReport { trials_run, digest: digest.finish(), failures }
    }
}
