//! Property: drain-mode equivalence. For any trial plan — including ones
//! with an active fault plan — the batched drain and the identity explore
//! schedule (`ExplorePlan::new(0)`, no permutation, no timer skew) must
//! produce bit-identical behaviour digests. Schedule *perturbation* is the
//! only thing allowed to change observable behaviour, never which of the
//! two ways of asking for the unperturbed order a harness used. The
//! queue's order itself is held to a reference binary heap by the property
//! test in simnet's `kernel/queue.rs`.
//!
//! Written as a seeded sweep rather than a `proptest!` block: each case
//! runs two full simulations, so the case count must stay small and the
//! failing seed printable directly.

use adapt_dst::{FaultSpace, TrialContext};
use simnet::{DrainMode, ExplorePlan};

#[test]
fn batched_and_identity_explore_agree_under_faults() {
    let ctx = TrialContext::new();
    let space = FaultSpace::default();
    for seed in [3u64, 11, 42, 97, 1234, 0xBEEF] {
        let mut plan = space.sample(seed);
        // Force the fault plan active: every case must exercise loss and
        // jitter, whatever the sampler drew.
        plan.loss_pct = plan.loss_pct.clamp(5, 20);
        plan.jitter_us = plan.jitter_us.clamp(500, 3_000);
        assert!(plan.fault_plan().unwrap().is_some(), "plan must carry active faults");
        let batched = ctx.run_with_drain(&plan, DrainMode::Batched);
        let identity = ctx.run_with_drain(&plan, DrainMode::Explore(ExplorePlan::new(0)));
        assert_eq!(
            batched.digest, identity.digest,
            "identity explore schedule diverged from batched for seed {seed}"
        );
        assert!(batched.rounds > 0, "trials must make progress (seed {seed})");
    }
}
