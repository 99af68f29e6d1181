//! Deterministic simulation-test explorer (`adapt-dst`).
//!
//! Turns the simnet kernel into a model-checker-lite, in the tradition of
//! FoundationDB-style deterministic simulation testing:
//!
//! 1. **Schedule search** — each trial runs the full adaptive
//!    application under [`simnet::DrainMode::Explore`], which permutes
//!    same-timestamp delivery order and skews timer fires from a seeded
//!    PRNG, so one binary explores many legal event interleavings.
//! 2. **Fault-space search** — a declarative [`FaultSpace`] grammar
//!    (loss / jitter / link-down / crash-restart ranges) collapses per
//!    trial into a concrete [`TrialPlan`] from a single seed. The
//!    knob-mutation axis ([`FaultSpace::knobs`]) additionally draws
//!    seeded live control-plane `Command` schedules — operator retuning
//!    raced against the faults.
//! 3. **Invariant oracles** — after each trial, [`oracle`] functions
//!    replay the observability bus: no duplicate reply is ever applied,
//!    circuit-breaker transitions are legal, degrade/recover alternate,
//!    scheduler decisions stay inside the performance database, and every
//!    control-plane mutation is audited ([`oracle::config_audit_complete`]).
//! 4. **Shrinking** — a failing trial is delta-debugged ([`shrink`])
//!    toward the minimal plan that still violates the same invariant,
//!    and emitted as a self-contained JSON [`Repro`] that replays
//!    verbatim in a `#[test]`.
//!
//! The whole pipeline is deterministic: the same [`ExplorerOpts`]
//! produce the same [`ExploreReport`] digest, byte for byte, every run.
//!
//! # Quick start
//!
//! ```no_run
//! use adapt_dst::{Explorer, ExplorerOpts, TrialContext};
//!
//! let ctx = TrialContext::new();
//! let report = Explorer::new(ExplorerOpts { trials: 100, ..Default::default() }).run(&ctx);
//! assert!(!report.found_violation(), "failures: {:?}", report.failures);
//! ```
//!
//! The seeded canary bug (`--cfg dst_canary`, see `visapp::client`)
//! validates the pipeline end to end: the explorer must find it, shrink
//! it, and the committed repro must replay it. The model-drift canary
//! (`--cfg dst_drift`, see `trial::DRIFT_LATENCY_US`) closes the same loop
//! through the online-refinement layer: drift-armed trials
//! ([`FaultSpace::drift`]) fold the run through
//! `adapt_core::refine::RefineEngine`, the `oracle::no_model_drift`
//! oracle turns a sustained-drift alarm into a violation, and the
//! explorer captures, shrinks, and digest-pins the incident as a repro.

#![forbid(unsafe_code)]

pub mod explorer;
pub mod oracle;
pub mod repro;
pub mod shrink;
pub mod space;
pub mod trial;

pub use explorer::{ExploreReport, Explorer, ExplorerOpts, Failure};
pub use oracle::{check_arbiter, config_audit_complete, DecisionContext, Violation};
pub use repro::Repro;
pub use shrink::{shrink as shrink_plan, ShrinkResult};
pub use space::{FaultSpace, Span, TrialPlan};
pub use trial::{knob_commands, TrialContext, TrialOutcome, KNOB_MENU_LEN};
