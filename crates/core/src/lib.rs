//! # adapt-core — automatic configuration and run-time adaptation of
//! distributed applications
//!
//! Faithful reimplementation of the framework of *Fangzhe Chang and Vijay
//! Karamcheti, "Automatic Configuration and Run-time Adaptation of
//! Distributed Applications", HPDC 2000*, over the `simnet` simulation
//! substrate and the `sandbox` virtual execution environment.
//!
//! The framework's three functions (paper Figure 1) map onto modules:
//!
//! **1. Specifying application configurations (§4)**
//! - [`param`]: control parameters and [`Configuration`]s;
//! - [`mod@env`]: execution environments, [`ResourceKey`]/[`ResourceVector`];
//! - [`qos`]: quality metrics, constraints, objectives, preference lists;
//! - [`task`]: tunable modules, guards, the task DAG, transitions;
//! - [`spec`]: the combined [`TunableSpec`];
//! - [`dsl`]: the annotation language and its preprocessor
//!   ([`dsl::parse`]), including the paper's Figure 2 example
//!   ([`dsl::ACTIVE_VIZ_SPEC`]).
//!
//! **2. Modeling application behavior (§5)**
//! - [`perfdb`]: the performance database — records, multilinear
//!   interpolation / nearest-record prediction, dominance pruning, and
//!   merging of similar configurations;
//! - [`profiler`]: the testbed driver sweeping configurations over a
//!   resource grid (optionally in parallel), with sensitivity-driven
//!   adaptive refinement.
//!
//! **3. Run-time application adaptation (§6)**
//! - [`monitor`]: the monitoring agent (10 ms period, sliding history
//!   window, out-of-validity-range triggering with hysteresis);
//! - [`scheduler`]: the resource scheduler (constraint pruning, objective
//!   optimization, preference fallback, validity regions);
//! - [`steering`]: the steering agent (switches only at task boundaries /
//!   transition points, guard-based negotiation);
//! - [`runtime`]: the integrated [`AdaptiveRuntime`] applications embed;
//! - [`refine`]: online model refinement — per-slice residual tracking
//!   against live measurements, sustained-drift alarms, and targeted
//!   re-profiling that hot-swaps stale database slices (§7.1's
//!   "representative data ... may become inaccurate over time").
//!
//! Cross-cutting:
//! - [`error`]: the unified [`enum@Error`] type and [`Result`] alias every
//!   fallible constructor in the workspace reports through;
//! - [`prelude`]: one-line import of the common vocabulary types.

#![forbid(unsafe_code)]

pub mod dsl;
pub mod env;
pub mod error;
pub mod monitor;
pub mod param;
pub mod perfdb;
pub mod profiler;
pub mod qos;
pub mod refine;
pub mod runtime;
pub mod scheduler;
pub mod spec;
pub mod steering;
pub mod task;

pub use env::{ExecutionEnv, HostSpec, ResourceKey, ResourceKind, ResourceVector};
pub use error::{Error, Result};
pub use monitor::{MonitoringAgent, Trigger, ValidityRegion, Violation, MONITOR_PERIOD_US};
pub use param::{Configuration, ControlParam, ControlSpace, ParamDomain};
pub use perfdb::{PerfDb, PerfDbLoadError, PerfRecord, PredictMode};
pub use profiler::{ProfileRunner, Profiler, ResourceGrid, SensitivityOpts};
pub use qos::{Constraint, Objective, Preference, PreferenceList, QosMetricDef, QosReport, Sense};
pub use refine::{DriftAlarm, RefineEngine, SwapReport};
pub use runtime::AdaptiveRuntime;
pub use scheduler::{Decision, ResourceScheduler, Selection};
pub use spec::{PerfDbTemplate, TunableSpec};
pub use steering::{BoundaryOutcome, ReconfigureRequest, SteeringAgent, SwitchEvent};
pub use task::{Guard, TaskGraph, TaskSpec, TransitionAction, TransitionSpec};

/// The adaptation-framework vocabulary in one import:
/// `use adapt_core::prelude::*;`.
pub mod prelude {
    pub use crate::dsl;
    pub use crate::env::{ResourceKey, ResourceVector};
    pub use crate::error::{Error, Result};
    pub use crate::monitor::{MonitoringAgent, Trigger, ValidityRegion};
    pub use crate::param::Configuration;
    pub use crate::perfdb::{PerfDb, PerfRecord, PredictMode};
    pub use crate::profiler::{Profiler, ResourceGrid};
    pub use crate::qos::{Constraint, Objective, Preference, PreferenceList, QosReport};
    pub use crate::refine::{DriftAlarm, RefineEngine, SwapReport};
    pub use crate::runtime::AdaptiveRuntime;
    pub use crate::scheduler::{Decision, ResourceScheduler};
    pub use crate::spec::TunableSpec;
    pub use crate::steering::{BoundaryOutcome, ReconfigureRequest, SteeringAgent, SwitchEvent};
}
