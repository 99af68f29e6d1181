//! # adaptive-framework
//!
//! Umbrella crate for the reproduction of *Chang & Karamcheti, "Automatic
//! Configuration and Run-time Adaptation of Distributed Applications"
//! (HPDC 2000)*. Re-exports the workspace crates under one roof:
//!
//! - [`simnet`]: deterministic discrete-event simulation of hosts, CPUs,
//!   memory, and links — the hardware substrate;
//! - [`sandbox`]: the virtual execution environment (user-level resource
//!   sandbox, progress estimation, admission control);
//! - [`wavelet`]: integer Haar pyramids and progressive foveal regions;
//! - [`compress`]: from-scratch LZW and Bzip2-style compressors;
//! - [`adapt`] (crate `adapt-core`): the adaptation framework itself —
//!   tunability specs and DSL, performance database, profiling driver,
//!   monitoring agent, resource scheduler, steering agent;
//! - [`visapp`]: the active visualization application used for every
//!   experiment in the paper;
//! - [`arbiter`]: the cluster arbiter — multi-application admission
//!   control priced against the shared performance database, envelope
//!   policing, and graceful overload shedding with tier-ordered
//!   recovery.
//!
//! See the `examples/` directory for runnable walkthroughs and
//! `EXPERIMENTS.md` for the paper-figure reproduction record.
//!
//! For experiment scripts and examples, `use
//! adaptive_framework::prelude::*;` pulls in the common vocabulary of
//! every layer (plus the [`obs`] observability handle) in one line.

#![forbid(unsafe_code)]

pub use adapt_core as adapt;
pub use arbiter;
pub use compress;
pub use obs;
pub use sandbox;
pub use simnet;
pub use visapp;
pub use wavelet;

/// One-line import of the workspace vocabulary: the per-crate preludes of
/// [`simnet`], [`sandbox`], [`adapt_core`], [`visapp`], and [`obs`], plus
/// [`compress::Method`].
///
/// ```
/// use adaptive_framework::prelude::*;
///
/// let obs = Obs::new();
/// let mut sim = Sim::new();
/// sim.attach_obs(&obs);
/// let sc = Scenario::small();
/// assert!(sc.validate().is_ok());
/// let _ = (Method::Lzw, Limits::cpu(0.5));
/// ```
pub mod prelude {
    pub use adapt_core::prelude::*;
    pub use compress::Method;
    pub use obs::prelude::*;
    pub use sandbox::prelude::*;
    pub use simnet::prelude::*;
    pub use visapp::prelude::*;
}
