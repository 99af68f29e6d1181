//! # visapp — the active visualization application (paper §2.1, §4.1, §7)
//!
//! A client-server application for interactively viewing large images:
//! the server stores images as wavelet pyramids and transmits the user's
//! foveal region progressively; the client decompresses, reconstructs,
//! and displays. Control parameters: incremental fovea size `dR`,
//! compression type `c` (LZW vs Bzip2-style), resolution level `l`. QoS
//! metrics: `transmit_time`, `response_time`, `resolution`.
//!
//! - [`store`]: server-side wavelet image store with memoized compression;
//! - [`protocol`]: the request/reply/control wire protocol;
//! - [`server`], [`client`]: the two actors; the client optionally embeds
//!   the framework's [`adapt_core::AdaptiveRuntime`] and executes the
//!   `transition on c` notify action when switching compression;
//! - [`costs`]: simulated CPU costs calibrated to the paper's era;
//! - [`resilience`]: retry backoff and the circuit breaker that keep the
//!   client live over lossy links and across server crashes;
//! - [`stats`]: measured QoS records;
//! - [`scenario`]: the one session runner ([`run_session`], static or
//!   adaptive by its [`Driver`]), the one adaptive-session recipe
//!   ([`SessionClass`]) the load generator and the arbiter storm also
//!   build their sessions with, the profiling runner, and
//!   performance-database construction — the basis of every reproduced
//!   figure;
//! - [`user_model`]: synthetic fovea behavior;
//! - [`wire`], [`socket`]: the protocol's byte-level codec and the
//!   socket-mirror harness that replays a session over real loopback
//!   sockets via the pluggable `adapt-transport` layer.

pub mod client;
pub mod costs;
pub mod drift;
pub mod load;
pub mod protocol;
pub mod resilience;
pub mod scenario;
pub mod server;
pub mod socket;
pub mod stats;
pub mod store;
pub mod user_model;
pub mod wire;

pub use client::{AdaptSetup, Client, ClientOpts, ConfigError, VizConfig};
pub use drift::{run_drift_storm, DriftStormOpts, DriftStormReport, EpochReport};
pub use load::{
    model_db, run_load, ArrivalProcess, LoadGenOpts, LoadReport, QosProfile, SessionSummary,
};
pub use resilience::{BreakerOpts, BreakerState, CircuitBreaker, RetryPolicy};
pub use scenario::{
    build_db, build_db_refined, client_cpu_key, client_mem_key, client_net_key, client_opts,
    profile_point, run_adaptive_shared, run_competing, run_session, run_static, viz_spec,
    CommandAt, Driver, LoadSpec, RunOutcome, Scenario, SessionClass, CLIENT_HOST, PROFILE_INPUT,
    SERVER_HOST,
};
pub use server::{Reporter, Server};
pub use socket::{
    decision_sequence, socket_mirror_hook, MirrorBackend, MirrorHandle, MirrorReport,
};
pub use stats::{ImageRecord, RoundRecord, RunStats, StatsHandle};
pub use store::ImageStore;
pub use user_model::UserModel;
pub use wire::{messages_equal, VizCodec};

/// The application-layer vocabulary in one import: `use visapp::prelude::*;`.
pub mod prelude {
    pub use crate::client::{AdaptSetup, Client, ClientOpts, ConfigError, VizConfig};
    pub use crate::load::{
        model_db, run_load, ArrivalProcess, LoadGenOpts, LoadReport, QosProfile,
    };
    pub use crate::resilience::{BreakerOpts, BreakerState, RetryPolicy};
    pub use crate::scenario::{
        build_db, client_cpu_key, client_net_key, profile_point, run_adaptive_shared,
        run_competing, run_session, run_static, CommandAt, Driver, LoadSpec, RunOutcome, Scenario,
        CLIENT_HOST, PROFILE_INPUT, SERVER_HOST,
    };
    pub use crate::server::Server;
    pub use crate::socket::{decision_sequence, socket_mirror_hook, MirrorBackend};
    pub use crate::stats::{ImageRecord, RoundRecord, RunStats, StatsHandle};
    pub use crate::store::ImageStore;
    pub use crate::user_model::UserModel;
    pub use crate::wire::{messages_equal, VizCodec};
    pub use obs::{Adaptive, Command, CommandOutcome, CommandRouter, ConfigRegistry, ConfigValue};
}
