//! # sandbox — a virtual execution environment over `simnet`
//!
//! Reproduction of §5.1 of *Chang & Karamcheti (HPDC 2000)*: a user-level
//! sandbox that constrains an application's average utilization of CPU,
//! memory, and network without modifying the application, and that doubles
//! as (1) the *testbed* in which configuration behavior is profiled and
//! (2) the run-time *policing* mechanism backing admission control.
//!
//! The original implementation injected code into Win32 processes via API
//! interception, manipulated process priority every few milliseconds to
//! enforce CPU shares, toggled page protections for memory limits, and
//! delayed message sends/receives for bandwidth limits. Here the same
//! architecture is built on `simnet`'s interposition hook:
//!
//! | Paper mechanism | This crate |
//! |---|---|
//! | API interception / code injection | [`Sandboxed`] wrapper actor draining and re-emitting the application's actions |
//! | priority manipulation every few ms | compute chopped into 10 ms quanta + inserted idle gaps (`wrap::QUANTUM_US`) |
//! | delaying sends/receives | token-bucket shaping ([`TokenBucket`]) of sends and of receive *processing* |
//! | page-protection memory limits | paging-penalty inflation of compute once allocation exceeds the limit |
//! | progress metric estimation | [`ProgressEstimator`] / [`SandboxStats`] sliding-window estimates |
//! | admission control & reservation | [`HostVmm`] |
//! | NT Performance Monitor traces | [`UsageSampler`] |
//!
//! Multiple sandboxes can coexist on one host without interfering — each
//! wraps its own actor — which is what makes the profile-database testbed
//! and run-time reservations cheap (§6.2).

#![forbid(unsafe_code)]

pub mod bucket;
pub mod limits;
pub mod progress;
pub mod sampler;
pub mod vm;
pub mod wrap;

pub use bucket::TokenBucket;
pub use limits::{LimitSchedule, Limits, LimitsHandle};
pub use progress::{CpuSample, NetSample, ProgressEstimator, SandboxStats};
pub use sampler::{SeriesHandle, UsageSampler};
pub use vm::{AdmissionError, HostVmm, Reservation};
pub use wrap::{Sandboxed, TAG_BASE};

/// The sandbox vocabulary in one import: `use sandbox::prelude::*;`.
pub mod prelude {
    pub use crate::limits::{LimitSchedule, Limits, LimitsHandle};
    pub use crate::progress::{ProgressEstimator, SandboxStats};
    pub use crate::sampler::{SeriesHandle, UsageSampler};
    pub use crate::vm::{HostVmm, Reservation};
    pub use crate::wrap::Sandboxed;
}
