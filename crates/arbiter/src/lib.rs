//! Cluster arbiter: admission control, policing, and graceful overload
//! shedding for many concurrent applications.
//!
//! The paper's runtime adaptation story is per-application: each app
//! monitors its own resources and reconfigures itself. This crate adds
//! the *cluster* half of §6: a central arbiter that decides which
//! applications get to run at all, what resource envelope each one is
//! entitled to, and what happens when the sum of envelopes stops fitting
//! the machines.
//!
//! Three mechanisms, layered:
//!
//! 1. **Admission control** ([`admission`]) — every request is *priced*
//!    against the shared performance database: the app's declared demand
//!    (or a fair-share fraction of it) becomes a resource availability
//!    vector, and the scheduler answers with the best configuration and
//!    the preference rank it satisfies. Tiered rank requirements make the
//!    decision honest: a gold app that would only get a fallback
//!    configuration is rejected, not silently degraded. Decisions are
//!    typed ([`AdmissionDecision`]) and deterministic.
//! 2. **Policing** ([`arbiter`]) — admitted apps report sandbox usage;
//!    sustained violation of the admitted envelope escalates through
//!    throttle (clamp to envelope), demote (lower tier, tighter
//!    envelope), and evict. Honest apps never strike: their own sandbox
//!    enforces the envelope they agreed to.
//! 3. **Overload shedding** — when committed share exceeds (possibly
//!    dipped) capacity for long enough, a circuit breaker opens: the
//!    lowest-priority tiers are shed first (bulk apps pause, sessions are
//!    floored), survivors are degraded to cheaper envelopes, and recovery
//!    replays everything in reverse with min-dwell hysteresis so the
//!    breaker never flaps.
//!
//! The [`storm`] module drives all of it: a seeded mix of adaptive
//! visapp sessions and synthetic bulk workers, with arrival surges and
//! capacity dips, on one deterministic simulation.

#![forbid(unsafe_code)]

pub mod admission;
pub mod app;
pub mod arbiter;
pub mod msg;
pub mod storm;
pub mod workload;

pub use admission::{AdmissionDecision, PricedGrant, Pricer, RejectReason};
pub use app::{AppId, AppOutcome, AppSpec, AppState, Tier, WorkloadKind, N_TIERS};
pub use arbiter::{AppLedger, Arbiter, CapacityDip, Ledger, LedgerHandle};
pub use storm::{
    gen_specs, run_storm, run_storm_with_specs, ArrivalSurge, StormCounters, StormOpts, StormReport,
};
pub use workload::{AppActor, BulkCell, BulkState, BulkWorker, NullSink};
