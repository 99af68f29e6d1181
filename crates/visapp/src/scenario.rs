//! Scenario assembly: complete simulated deployments of the active
//! visualization application, static or adaptive, plus the profiling
//! runner that populates the performance database.
//!
//! This is the experiment harness layer: Figures 4-7 are all produced by
//! composing [`run_session`] (through its fronts [`run_static`] and
//! [`run_adaptive_shared`]) and [`build_db`] with different parameters
//! and resource schedules.

use std::sync::Arc;

use adapt_core::{
    dsl, AdaptiveRuntime, Configuration, Decision, PerfDb, PreferenceList, Profiler, QosReport,
    ResourceGrid, ResourceKey, ResourceScheduler, ResourceVector, TunableSpec, MONITOR_PERIOD_US,
};
use obs::{Command, CommandRouter, ConfigRegistry, Obs};
use sandbox::{LimitSchedule, Limits, LimitsHandle, SandboxStats, Sandboxed};
use simnet::{DrainMode, FaultPlan, HostId, Sim, SimTime};

use crate::client::{AdaptSetup, Client, ClientOpts, VizConfig};
use crate::resilience::{BreakerOpts, RetryPolicy};
use crate::server::Server;
use crate::stats::{RunStats, StatsHandle};
use crate::store::ImageStore;

/// A background competing process on the client host: kernel-scheduled
/// (not sandboxed), so it genuinely contends with the client for CPU —
/// the paper's "competition for resources affecting their dynamic
/// availability". The monitoring agent must *infer* the reduced share
/// from its own progress, with no ground-truth signal.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// When the process starts (absolute simulation time, us).
    pub start_us: u64,
    /// Proportional-share weight relative to the client's 1.0.
    pub weight: f64,
    /// How long it runs (us).
    pub duration_us: u64,
}

/// The competing process: CPU-bound slices until its deadline.
struct LoadActor {
    until: SimTime,
}

impl simnet::Actor for LoadActor {
    fn on_start(&mut self, ctx: &mut simnet::Ctx<'_>) {
        ctx.compute(100_000.0);
        ctx.continue_with(0);
    }
    fn on_continue(&mut self, _tag: u64, ctx: &mut simnet::Ctx<'_>) {
        if ctx.now() < self.until {
            ctx.compute(100_000.0);
            ctx.continue_with(0);
        }
    }
}

fn install_loads(sim: &mut Sim, host: simnet::HostId, loads: &[LoadSpec]) {
    for spec in loads {
        let LoadSpec { start_us, weight, duration_us } = *spec;
        sim.at(SimTime::from_us(start_us), move |s| {
            let until = s.now() + duration_us;
            let id = s.spawn(host, Box::new(LoadActor { until }));
            s.set_weight(id, weight);
        });
    }
}

/// A deployment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub n_images: usize,
    pub img_size: usize,
    pub levels: usize,
    pub seed: u64,
    /// Physical link bandwidth (bytes/second) and latency.
    pub link_bps: f64,
    pub link_latency_us: u64,
    /// Client host speed relative to the reference machine (PII-450);
    /// the server host runs at the reference speed.
    pub client_speed: f64,
    /// Optional outbound bandwidth cap on the *server's* sandbox (used in
    /// Figure 4b, where the server is limited to 1 MBps).
    pub server_net_cap: Option<f64>,
    /// Really decompress/reconstruct in the client and assert exactness.
    pub verify: bool,
    /// Monitoring-agent history window (paper: sliding window over 10 ms
    /// samples). Scale down together with workload size in small tests.
    pub monitor_window_us: u64,
    /// Minimum gap between monitor triggers.
    pub trigger_gap_us: u64,
    /// Background competing processes on the client host.
    pub competing_load: Vec<LoadSpec>,
    /// Client request-retransmission timeout (required when the fault
    /// plan loses messages).
    pub request_timeout_us: Option<u64>,
    /// Retransmission backoff/jitter schedule.
    pub retry: RetryPolicy,
    /// Client-side circuit breaker (`None` = retry forever).
    pub breaker: Option<BreakerOpts>,
    /// Fault-injection plan (loss, jitter, down windows, partitions, host
    /// crashes). Host references use [`CLIENT_HOST`] / [`SERVER_HOST`].
    pub fault_plan: Option<FaultPlan>,
    /// Kernel event-queue drain strategy. The default
    /// ([`DrainMode::Batched`]) is what every experiment uses; the
    /// simulation-test explorer (`adapt-dst`) sets
    /// [`DrainMode::Explore`] to perturb the schedule per trial.
    pub drain_mode: DrainMode,
    /// Scheduled control-plane commands, each dispatched through the run's
    /// [`CommandRouter`] at its simulation time on behalf of the named
    /// operator. Empty (the default) leaves every run byte-identical to a
    /// run with no control plane at all.
    pub commands: Vec<CommandAt>,
}

/// One scheduled control-plane command: `(at_us, who, command)`.
pub type CommandAt = (u64, String, Command);

/// The client host in every scenario-assembled simulation (added first).
pub const CLIENT_HOST: HostId = HostId(0);
/// The server host in every scenario-assembled simulation (added second).
pub const SERVER_HOST: HostId = HostId(1);

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            n_images: 10,
            img_size: 256,
            levels: 4,
            seed: 42,
            // 100 Mbps Ethernet, 100us one-way.
            link_bps: 12_500_000.0,
            link_latency_us: 100,
            client_speed: 1.0,
            server_net_cap: None,
            verify: false,
            monitor_window_us: 2_000_000,
            trigger_gap_us: 500_000,
            competing_load: Vec::new(),
            request_timeout_us: None,
            retry: RetryPolicy::default(),
            breaker: None,
            fault_plan: None,
            drain_mode: DrainMode::Batched,
            commands: Vec::new(),
        }
    }
}

impl Scenario {
    /// A small, fast configuration for unit tests.
    pub fn small() -> Self {
        Scenario { n_images: 2, img_size: 64, levels: 3, ..Scenario::default() }
    }

    /// Check the parameters are mutually consistent before running: a
    /// malformed scenario reports [`adapt_core::Error::InvalidScenario`]
    /// instead of failing obscurely mid-simulation.
    pub fn validate(&self) -> adapt_core::Result<()> {
        let fail = |why: String| Err(adapt_core::Error::InvalidScenario(why));
        if self.n_images == 0 {
            return fail("n_images must be at least 1".into());
        }
        if self.levels == 0 {
            return fail("levels must be at least 1".into());
        }
        if self.img_size < (1 << self.levels) {
            return fail(format!(
                "img_size {} cannot carry a {}-level pyramid",
                self.img_size, self.levels
            ));
        }
        // NaN must fail too, so compare through `partial_cmp` rather than
        // a negated `>`.
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.link_bps) {
            return fail(format!("link_bps {} must be positive", self.link_bps));
        }
        if !positive(self.client_speed) {
            return fail(format!("client_speed {} must be positive", self.client_speed));
        }
        if let Some(cap) = self.server_net_cap {
            if !positive(cap) {
                return fail(format!("server_net_cap {cap} must be positive"));
            }
        }
        if self.monitor_window_us == 0 {
            return fail("monitor_window_us must be positive".into());
        }
        // `FaultPlan`'s builders already refused a loss outside [0, 1].
        if self.fault_plan.as_ref().is_some_and(FaultPlan::is_lossy)
            && self.request_timeout_us.is_none()
        {
            return fail("lossy links need a request timeout to retransmit".into());
        }
        Ok(())
    }

    pub fn build_store(&self) -> Arc<ImageStore> {
        Arc::new(ImageStore::generate(self.n_images, self.img_size, self.levels, self.seed))
    }

    /// Sensible `dR` domain for this image size: quarter, half, and full
    /// cover radius.
    pub fn dr_values(&self) -> Vec<i64> {
        let cover = (self.img_size / 2) as i64;
        vec![cover / 4, cover / 2, cover]
    }

    /// Resolution-level domain: the two finest levels (the paper's
    /// "level 3 and level 4").
    pub fn level_values(&self) -> (i64, i64) {
        ((self.levels - 1) as i64, self.levels as i64)
    }
}

/// The client-side resource keys used across all experiments.
pub fn client_cpu_key() -> ResourceKey {
    ResourceKey::cpu("client")
}

pub fn client_net_key() -> ResourceKey {
    ResourceKey::net("client")
}

/// Memory axis (an extension beyond the paper's CPU/network experiments;
/// the sandbox models paging slowdown above the limit).
pub fn client_mem_key() -> ResourceKey {
    ResourceKey::mem("client")
}

/// The tunability specification a scenario runs: the paper's Figure 2
/// annotations ([`dsl::ACTIVE_VIZ_SPEC`]) with the `dR` set and the `l`
/// range declared from the scenario's geometry, parsed.
pub fn viz_spec(sc: &Scenario) -> TunableSpec {
    let (l_lo, l_hi) = sc.level_values();
    let dr: Vec<String> = sc.dr_values().iter().map(i64::to_string).collect();
    let text = redeclare(dsl::ACTIVE_VIZ_SPEC, "int dR in ", &format!("{{{}}}", dr.join(", ")));
    let text = redeclare(&text, "int l in ", &format!("{l_lo}..{l_hi}"));
    dsl::parse(&text).unwrap_or_else(|e| panic!("Figure 2 with the scenario's domains: {e}"))
}

/// `text` with the domain that follows `decl`, up to its `;`, replaced.
fn redeclare(text: &str, decl: &str, domain: &str) -> String {
    let at = text.find(decl).unwrap_or_else(|| panic!("Figure 2 declares no `{decl}`"));
    let start = at + decl.len();
    let end = start + text[start..].find(';').expect("a declaration ends with `;`");
    format!("{}{domain}{}", &text[..start], &text[end..])
}

/// What a run produced.
pub struct RunOutcome {
    pub stats: RunStats,
    pub end: SimTime,
    /// The run's observability sink: every kernel trace event, adaptation
    /// event, and `visapp.*` metric, queryable after the fact.
    pub obs: Obs,
    /// The run's control plane: the router (and its registry of live
    /// knobs) that [`Scenario::commands`] dispatched through. Still live
    /// after the run — `ListConfig` shows the final knob state.
    pub control: CommandRouter,
}

/// The scenario's client options against `server_id` (builder form).
pub fn client_opts(sc: &Scenario, store: &ImageStore, server_id: simnet::ActorId) -> ClientOpts {
    ClientOpts::new(server_id)
        .with_n_images(sc.n_images)
        .with_geometry(store.cover_radius(), store.dims(), store.levels())
        .with_request_timeout(sc.request_timeout_us)
        .with_retry(sc.retry)
        .with_breaker(sc.breaker)
}

/// The one adaptive-session recipe, split into what a *class* of sessions
/// shares and what each session owns. A class is every session with the
/// same scenario, database, preferences and start resources: the
/// tunability spec, the scheduler inputs, the resources `start` grants
/// (what admission control / reservation would have granted) and the
/// scheduler's initial [`Decision`] at them, computed once here. That is
/// safe because a fresh scheduler's decision is a pure function of
/// `(db, prefs, input, resources)`. [`SessionClass::client`] then builds
/// one session: its own scheduler over the shared database → monitoring
/// runtime around a clone of the class decision → client. [`run_session`]
/// builds one class per call, the load generator one per QoS profile, the
/// arbiter storm one per distinct profile.
pub struct SessionClass {
    spec: TunableSpec,
    db: Arc<PerfDb>,
    prefs: PreferenceList,
    resources: ResourceVector,
    decision: Decision,
    monitor_window_us: u64,
    trigger_gap_us: u64,
}

impl SessionClass {
    /// Panics when no preference is satisfiable at the start resources.
    pub fn new(sc: &Scenario, db: Arc<PerfDb>, prefs: PreferenceList, start: &Limits) -> Self {
        let mut resources = ResourceVector::default();
        resources.set(client_cpu_key(), start.cpu_share.unwrap_or(1.0));
        resources.set(client_net_key(), start.net_recv_bps.unwrap_or(sc.link_bps).min(sc.link_bps));
        let decision = ResourceScheduler::new_shared(db.clone(), prefs.clone(), PROFILE_INPUT)
            .choose(&resources)
            .unwrap_or_else(|| {
                panic!("initial configuration failed: {}", adapt_core::Error::NoSatisfiableConfig)
            });
        SessionClass {
            spec: viz_spec(sc),
            db,
            prefs,
            resources,
            decision,
            monitor_window_us: sc.monitor_window_us,
            trigger_gap_us: sc.trigger_gap_us,
        }
    }

    /// Build one session of this class. Returns the client and the
    /// sandbox progress estimates its monitor reads; the caller wraps both
    /// in the sandbox it runs under.
    pub fn client(
        &self,
        period_us: u64,
        opts: ClientOpts,
        stats: StatsHandle,
        obs: &Obs,
    ) -> (Client, SandboxStats) {
        let scheduler =
            ResourceScheduler::new_shared(self.db.clone(), self.prefs.clone(), PROFILE_INPUT);
        let mut runtime = AdaptiveRuntime::with_decision(
            self.spec.clone(),
            scheduler,
            self.monitor_window_us,
            &self.resources,
            self.decision.clone(),
        );
        runtime.set_obs(obs);
        runtime.monitor.min_trigger_gap_us = self.trigger_gap_us;
        let sandbox_stats = SandboxStats::new(self.monitor_window_us);
        let adapt = AdaptSetup {
            runtime,
            sandbox_stats: sandbox_stats.clone(),
            cpu_key: client_cpu_key(),
            net_key: client_net_key(),
            period_us,
        };
        (Client::new(opts, stats, Some(adapt)), sandbox_stats)
    }
}

/// Install the scenario's scheduled control commands: each dispatches
/// through `router` at its simulation time. Rejections still publish
/// `config_reject` audit events, so a bad schedule is visible post-run.
fn install_commands(sim: &mut Sim, router: &CommandRouter, commands: &[CommandAt]) {
    for (at_us, who, cmd) in commands.iter().cloned() {
        let router = router.clone();
        sim.at(SimTime::from_us(at_us), move |_| {
            let _ = router.dispatch(at_us, &who, cmd);
        });
    }
}

/// The one client/server topology: [`CLIENT_HOST`] and [`SERVER_HOST`],
/// the link between them with its fault plan, and the
/// server, bandwidth-capped through its own sandbox when the scenario
/// says so. Clients are the caller's to spawn.
fn topology(sc: &Scenario, store: &Arc<ImageStore>, obs: &Obs) -> (Sim, simnet::ActorId) {
    sc.validate().expect("invalid scenario");
    let mut sim = Sim::new();
    sim.set_drain_mode(sc.drain_mode);
    sim.attach_obs(obs);
    let hc = sim.add_host("client", sc.client_speed, 1 << 30);
    let hs = sim.add_host("server", 1.0, 1 << 30);
    sim.set_link(hc, hs, sc.link_bps, sc.link_latency_us);
    if let Some(plan) = &sc.fault_plan {
        plan.install(&mut sim);
    }
    let server = Server::new(store.clone()).with_obs(obs);
    let server_id = match sc.server_net_cap {
        Some(cap) => {
            let slim = LimitsHandle::new(Limits { net_send_bps: Some(cap), ..Limits::default() });
            sim.spawn(hs, Box::new(Sandboxed::new(server, slim, SandboxStats::default())))
        }
        None => sim.spawn(hs, Box::new(server)),
    };
    (sim, server_id)
}

/// What configures the client of a [`run_session`].
pub enum Driver {
    /// One configuration for the whole run.
    Fixed(VizConfig),
    /// Performance database + preferences drive run-time reconfiguration.
    /// The scheduler prices against exactly the `Arc` handed in (no
    /// record clone), so a refine loop can hand each epoch its current,
    /// possibly hot-swapped, database.
    Adaptive(Arc<PerfDb>, PreferenceList),
}

/// Run one client session against one server: the single body behind
/// every single-session experiment. `schedule` varies the client's
/// virtual-execution-environment limits over time. `until` stops the
/// simulation at a horizon even when events remain — chaos and
/// simulation-test runs need it: against a peer that crashed and never
/// restarts, the client's breaker probes re-arm forever, so the event
/// queue never drains on its own. `wire` interposes a
/// [`simnet::WireHook`] on every transmitted message; a hook that returns
/// its input verbatim reproduces the unhooked run exactly, which is how
/// the socket-mirror harness (`crate::socket`) proves a real loopback
/// connection leaves the decision sequence unchanged.
pub fn run_session(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    driver: Driver,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
    until: Option<SimTime>,
    wire: Option<simnet::WireHook>,
) -> RunOutcome {
    let obs = Obs::new();
    let stats_handle = StatsHandle::new();
    stats_handle.attach_obs(&obs);
    let (mut sim, server_id) = topology(sc, store, &obs);
    sim.set_wire_hook(wire);
    let opts = client_opts(sc, store, server_id);
    let (client, sandbox_stats) = match driver {
        Driver::Fixed(config) => {
            let opts =
                opts.with_initial(config).with_verify_store(sc.verify.then(|| store.clone()));
            (Client::new(opts, stats_handle.clone(), None), SandboxStats::new(sc.monitor_window_us))
        }
        Driver::Adaptive(db, prefs) => {
            assert!(!sc.verify, "verification requires a fixed configuration");
            SessionClass::new(sc, db, prefs, &initial_limits).client(
                MONITOR_PERIOD_US,
                opts,
                stats_handle.clone(),
                &obs,
            )
        }
    };
    let control = CommandRouter::new(ConfigRegistry::new()).with_obs(&obs);
    client.register_control("client", &control);
    let limits = LimitsHandle::new(initial_limits);
    sim.spawn(CLIENT_HOST, Box::new(Sandboxed::new(client, limits.clone(), sandbox_stats)));
    install_loads(&mut sim, CLIENT_HOST, &sc.competing_load);
    install_commands(&mut sim, &control, &sc.commands);
    if let Some(sched) = schedule {
        sched.install(&mut sim, &limits);
    }
    match until {
        Some(horizon) => sim.run_until(horizon),
        None => sim.run_until_idle(),
    }
    RunOutcome { stats: stats_handle.take(), end: sim.now(), obs, control }
}

/// Run a fixed (non-adaptive) configuration to completion.
pub fn run_static(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    config: VizConfig,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
) -> RunOutcome {
    run_session(sc, store, Driver::Fixed(config), initial_limits, schedule, None, None)
}

/// Run the adaptive application to completion over a shared database
/// snapshot.
pub fn run_adaptive_shared(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    db: Arc<PerfDb>,
    prefs: PreferenceList,
    initial_limits: Limits,
    schedule: Option<LimitSchedule>,
) -> RunOutcome {
    run_session(sc, store, Driver::Adaptive(db, prefs), initial_limits, schedule, None, None)
}

/// Run several independent clients concurrently against one server, each
/// inside its own virtual execution environment — the competing-
/// applications setting that motivates admission control and policing
/// (§6.2). Returns one stats record per client, in input order.
pub fn run_competing(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    clients: &[(VizConfig, Limits)],
) -> Vec<RunStats> {
    // Only the stats are returned, so the kernel and server report into
    // an `Obs` nobody reads.
    let (mut sim, server_id) = topology(sc, store, &Obs::new());
    let mut handles = Vec::new();
    for (config, limits) in clients {
        let stats_handle = StatsHandle::new();
        let opts = client_opts(sc, store, server_id)
            .with_initial(*config)
            .with_verify_store(sc.verify.then(|| store.clone()));
        let client = Client::new(opts, stats_handle.clone(), None);
        sim.spawn(
            CLIENT_HOST,
            Box::new(Sandboxed::new(
                client,
                LimitsHandle::new(*limits),
                SandboxStats::new(sc.monitor_window_us),
            )),
        );
        handles.push(stats_handle);
    }
    install_loads(&mut sim, CLIENT_HOST, &sc.competing_load);
    sim.run_until_idle();
    handles.iter().map(|h| h.take()).collect()
}

/// Workload key used in the performance database.
pub const PROFILE_INPUT: &str = "plasma";

/// Profile one `(configuration, resource point)` — used by the framework's
/// profiling driver. Runs a short download inside the testbed and reports
/// the paper's three QoS metrics.
pub fn profile_point(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    config: &Configuration,
    resources: &ResourceVector,
) -> QosReport {
    let viz = VizConfig::from_configuration(config);
    let mut limits = Limits::unconstrained();
    if let Some(share) = resources.get(&client_cpu_key()) {
        limits.cpu_share = Some(share.clamp(0.01, 1.0));
    }
    if let Some(bps) = resources.get(&client_net_key()) {
        limits.net_recv_bps = Some(bps.max(1.0));
        limits.net_send_bps = Some(bps.max(1.0));
    }
    if let Some(mem) = resources.get(&client_mem_key()) {
        limits.mem_bytes = Some(mem.max(1.0) as u64);
    }
    let outcome = run_static(sc, store, viz, limits, None);
    QosReport::new(&[
        ("transmit_time", outcome.stats.avg_transmit_secs()),
        ("response_time", outcome.stats.avg_response_secs()),
        ("resolution", viz.level as f64),
    ])
}

/// The runner every profiling sweep hands the [`Profiler`]:
/// [`profile_point`] over a shorter workload than the experiments
/// (2 images) — per-image metrics are what the database stores.
pub(crate) fn profile_runner(
    sc: &Scenario,
    store: &Arc<ImageStore>,
) -> impl Fn(&Configuration, &ResourceVector, &str) -> QosReport + Sync {
    let prof_sc = Scenario { n_images: 2.min(sc.n_images), verify: false, ..sc.clone() };
    let store = store.clone();
    move |config, resources, _input| profile_point(&prof_sc, &store, config, resources)
}

/// All configurations of the scenario's spec over a CPU-share x bandwidth
/// grid.
fn grid_profiler(sc: &Scenario, cpu_shares: &[f64], bandwidths: &[f64]) -> Profiler {
    let grid = ResourceGrid::new()
        .with_axis(client_cpu_key(), cpu_shares)
        .with_axis(client_net_key(), bandwidths);
    Profiler::new(viz_spec(sc).configurations(), grid, vec![PROFILE_INPUT.into()])
}

/// Like [`build_db`] but with sensitivity-driven refinement: wherever
/// adjacent samples differ by more than `threshold` (relative), midpoints
/// are added, concentrating samples around cliffs and crossovers. This is
/// the "sensitivity analysis tool that can automatically drive the
/// collection of performance data in the most relevant regions" the
/// paper's prototype lacked (§7.1).
pub fn build_db_refined(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    cpu_shares: &[f64],
    bandwidths: &[f64],
    threshold: f64,
    threads: usize,
) -> PerfDb {
    grid_profiler(sc, cpu_shares, bandwidths)
        .with_sensitivity(adapt_core::SensitivityOpts { threshold, max_rounds: 2 })
        .run_parallel(&profile_runner(sc, store), threads)
}

/// Build the performance database for a scenario by sweeping all
/// configurations over a CPU-share x bandwidth grid, in parallel.
pub fn build_db(
    sc: &Scenario,
    store: &Arc<ImageStore>,
    cpu_shares: &[f64],
    bandwidths: &[f64],
    threads: usize,
) -> PerfDb {
    grid_profiler(sc, cpu_shares, bandwidths).run_parallel(&profile_runner(sc, store), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{model_db, LoadGenOpts, QosProfile};

    /// A fault plan that loses messages needs a timeout to retransmit on;
    /// one that loses none does not.
    #[test]
    fn lossy_fault_plan_needs_a_request_timeout() {
        let with_loss = |p| Scenario {
            fault_plan: Some(FaultPlan::new(7).with_loss(CLIENT_HOST, SERVER_HOST, p)),
            ..Scenario::small()
        };
        let why = "lossy links need a request timeout to retransmit";
        assert!(matches!(
            with_loss(0.1).validate(),
            Err(adapt_core::Error::InvalidScenario(w)) if w == why
        ));
        let timed = Scenario { request_timeout_us: Some(200_000), ..with_loss(0.1) };
        assert!(timed.validate().is_ok());
        assert!(with_loss(0.0).validate().is_ok());
    }

    #[test]
    fn zero_monitor_window_is_invalid() {
        let zero = Scenario { monitor_window_us: 0, ..Scenario::small() };
        assert!(matches!(
            zero.validate(),
            Err(adapt_core::Error::InvalidScenario(w)) if w == "monitor_window_us must be positive"
        ));
        assert!(Scenario { monitor_window_us: 1, ..zero }.validate().is_ok());
    }

    #[test]
    fn class_decision_is_a_fresh_schedulers_choice() {
        let opts = LoadGenOpts::new(1);
        let sc = opts.scenario();
        let db = Arc::new(model_db(&opts));
        // What `run_load` and the arbiter storm start sessions with, and a
        // constrained envelope of the kind `run_session` is handed.
        let constrained = Limits {
            cpu_share: Some(0.5),
            net_recv_bps: Some(sc.link_bps / 4.0),
            ..Limits::unconstrained()
        };
        for profile in [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput] {
            for (start, cpu, net) in
                [(Limits::unconstrained(), 1.0, sc.link_bps), (constrained, 0.5, sc.link_bps / 4.0)]
            {
                let class = SessionClass::new(&sc, db.clone(), profile.preferences(), &start);
                let resources =
                    ResourceVector::new(&[(client_cpu_key(), cpu), (client_net_key(), net)]);
                let fresh =
                    ResourceScheduler::new_shared(db.clone(), profile.preferences(), PROFILE_INPUT)
                        .choose(&resources)
                        .expect("satisfiable");
                // `Decision: PartialEq` covers config, predicted, rank,
                // validity, best_effort, pref_version and db_version.
                assert_eq!(class.decision, fresh, "{profile:?} at {resources}");
            }
        }
    }
}
