//! Application descriptors: what an app asks the cluster for, and what
//! became of it.
//!
//! An [`AppSpec`] is the admission-time contract: a workload kind, a
//! priority tier, a fair-share weight, and a declared resource demand.
//! The arbiter prices the demand against the shared performance database
//! and either admits the app under a resource *envelope* (its demand, or
//! a fair-share fraction of it), queues it, or rejects it. Everything the
//! run later reports per app is an [`AppOutcome`].

use visapp::QosProfile;

/// Stable application identifier within one storm (dense, 0-based).
pub type AppId = u32;

/// Priority tier. Numerically **lower is more important**: tier 0 (gold)
/// is shed last and recovered first. The shedding order walks tiers from
/// the highest number down.
pub type Tier = u8;

/// Tiers used by the storm generator (gold / silver / bronze).
pub const N_TIERS: u8 = 3;

/// What kind of workload an application runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// An interactive visapp session: the paper's adaptive client against
    /// a wavelet image server, with its own `AdaptiveRuntime`.
    Session,
    /// A synthetic bulk worker: a fixed number of compute-then-upload
    /// units against a sink. Pausable, so it is the natural shedding
    /// victim shape.
    Bulk,
}

impl WorkloadKind {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Session => "session",
            WorkloadKind::Bulk => "bulk",
        }
    }
}

/// The admission-time contract one application presents to the arbiter.
#[derive(Debug, Clone)]
pub struct AppSpec {
    pub id: AppId,
    pub kind: WorkloadKind,
    /// Priority tier (0 = most important, shed last).
    pub tier: Tier,
    /// Fair-share weight inside a tier (higher = served first). Integer
    /// so queue ordering needs no float comparisons.
    pub weight: u32,
    /// QoS profile whose preference list prices this app's configurations.
    pub profile: QosProfile,
    /// Declared CPU demand, share of one host processor in (0, 1].
    pub demand_cpu: f64,
    /// Declared network demand, bytes/second.
    pub demand_net: f64,
    /// Declared memory demand, bytes.
    pub demand_mem: u64,
    /// Arrival time (us) at which the app asks for admission.
    pub arrival_us: u64,
    /// A rogue app ignores its contract between arbiter interventions: it
    /// runs unconstrained whenever the arbiter is not actively clamping
    /// it. Policing exists to catch exactly this.
    pub rogue: bool,
}

/// Lifecycle states of an app. The first four are live; the arbiter
/// keeps a record only for those. The last three are terminal, and a
/// finished storm reports only them, or `Pending` for an app that never
/// asked for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppState {
    /// Asked, and not yet answered; in a finished storm, never asked.
    Pending,
    /// Waiting in the admission queue.
    Queued,
    /// Admitted and running under its envelope.
    Running,
    /// Shed by overload control: paused (bulk) or floored (session).
    Shed,
    /// Rejected at admission or turned away from the queue.
    Rejected,
    /// Evicted by policing after repeated contract violations.
    Evicted,
    /// Ran to completion.
    Done,
}

impl AppState {
    /// Stable small code for digests.
    pub fn code(self) -> u64 {
        match self {
            AppState::Pending => 0,
            AppState::Queued => 1,
            AppState::Running => 2,
            AppState::Shed => 3,
            AppState::Rejected => 4,
            AppState::Evicted => 5,
            AppState::Done => 6,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AppState::Pending => "pending",
            AppState::Queued => "queued",
            AppState::Running => "running",
            AppState::Shed => "shed",
            AppState::Rejected => "rejected",
            AppState::Evicted => "evicted",
            AppState::Done => "done",
        }
    }
}

/// Per-application outcome of one storm run — the unit the report digest
/// is computed over.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    pub id: AppId,
    pub kind: WorkloadKind,
    /// Tier the app was admitted at.
    pub tier_admitted: Tier,
    /// Tier at the end (policing demotions move it up numerically).
    pub tier_final: Tier,
    pub weight: u32,
    pub arrival_us: u64,
    pub state: AppState,
    /// Policing strikes accumulated (1 = throttled, 2 = demoted, 3 = evicted).
    pub strikes: u32,
    /// How many times the app was shed by overload control.
    pub shed_count: u32,
    /// Work completed: request rounds for sessions, units for bulk apps.
    pub progress: u64,
    /// Completion time (us), when the app finished.
    pub finish_us: Option<u64>,
}
