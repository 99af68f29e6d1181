//! Scale-out load generation: N concurrent adaptive client sessions
//! against a pool of servers, on one deterministic simulation.
//!
//! This is the harness behind the `load_steady` benchmark workload and the
//! pinned load rows of `crates/bench/tests/digest_contract.rs`. It exists to answer the scaling questions the single-client
//! scenarios cannot: how the event kernel behaves when hundreds of
//! monitors tick on the same 10 ms grid (the batched drain path in
//! [`simnet::kernel`]), and how memory grows when every session carries
//! its own [`adapt_core::AdaptiveRuntime`] but all of them share one
//! interned [`PerfDb`] behind an [`Arc`] (via
//! [`adapt_core::ResourceScheduler::new_shared`]).
//!
//! The harness's own bookkeeping is proportional to the work that
//! happens, not to the session count. Sessions of one QoS profile form a
//! [`SessionClass`]: their initial scheduler decision is made once per
//! class before the run, and each session's runtime starts from a clone
//! (publishing its own `decide` event on admission). The watcher visits
//! only the sessions live at each sample — a cursor over the sorted
//! arrivals, a session-ordered list of arrived-not-yet-done sessions —
//! so 10 000 sessions of which ~60 are live at once cost ~60 reads per
//! tick.
//!
//! Determinism: everything — arrival times, think times, per-session QoS
//! profiles — derives from [`LoadGenOpts::seed`] through
//! [`SplitMix64`] (not the `rand` crate: the pinned load digests must
//! stay comparable across builds), and the simulation
//! itself consults no wall clock. Two runs with the same options produce
//! byte-identical [`LoadReport::digest`]s.
//!
//! Aggregate observability rides the shared [`Obs`] bus:
//!
//! - `load.sessions_active` (gauge) — arrived minus finished sessions,
//!   sampled by the watcher actor each period;
//! - `load.requests_total` (counter) — request/reply rounds completed
//!   across all sessions, folded in by the watcher as of each sample;
//! - `runtime.tick` (histogram) — per-tick adaptation-loop latency,
//!   aggregated across every session's runtime;
//! - [`Source::Load`] events `session_start` / `session_done`.

use std::sync::Arc;

use adapt_core::{
    Constraint, Objective, PerfDb, Preference, PreferenceList, Profiler, QosReport, ResourceGrid,
    ResourceVector, MONITOR_PERIOD_US,
};
use obs::{Event, MetricId, Obs, Source};
use sandbox::{Limits, LimitsHandle, Sandboxed};
use simnet::det::{Fnv64, SplitMix64};
use simnet::{Actor, Ctx, DrainMode, Sim, SimTime};

use crate::scenario::{
    client_cpu_key, client_net_key, client_opts, viz_spec, Scenario, SessionClass, PROFILE_INPUT,
};
use crate::stats::StatsHandle;

/// How session start times are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every session arrives at t = 0 (worst case for the event kernel:
    /// all monitors share one timer grid).
    Simultaneous,
    /// Fixed inter-arrival gap: session `i` arrives at `i * gap_us`.
    Uniform { gap_us: u64 },
    /// Poisson arrivals: exponential inter-arrival gaps with the given
    /// mean, drawn from the generator's seeded RNG.
    Poisson { mean_gap_us: u64 },
}

impl ArrivalProcess {
    /// The arrival time (us) of each of `n` sessions, in session order.
    fn times(self, n: usize, rng: &mut SplitMix64) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut t = 0u64;
        for i in 0..n {
            match self {
                ArrivalProcess::Simultaneous => out.push(0),
                ArrivalProcess::Uniform { gap_us } => out.push(i as u64 * gap_us),
                ArrivalProcess::Poisson { mean_gap_us } => {
                    // Inverse-CDF exponential; u is kept away from 1.0 so
                    // ln never sees 0.
                    let u = rng.next_f64();
                    let gap = (-(1.0 - u).ln() * mean_gap_us as f64) as u64;
                    t = t.saturating_add(gap);
                    out.push(t);
                }
            }
        }
        out
    }
}

/// Per-session QoS preference profile — the "different users want
/// different things" axis of the load mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosProfile {
    /// Maximize resolution subject to a transmit-time bound; fall back to
    /// minimizing transmit time (the paper's Figure 6 user).
    Quality,
    /// Keep rounds snappy: maximize resolution under a response-time
    /// bound, falling back to minimizing response time.
    Interactive,
    /// Bulk download: minimize transmit time outright.
    Throughput,
}

impl QosProfile {
    /// Stable lowercase name for reports and events.
    pub fn name(self) -> &'static str {
        match self {
            QosProfile::Quality => "quality",
            QosProfile::Interactive => "interactive",
            QosProfile::Throughput => "throughput",
        }
    }

    /// The preference list handed to this session's scheduler.
    pub fn preferences(self) -> PreferenceList {
        match self {
            QosProfile::Quality => PreferenceList::single(Preference::new(
                vec![Constraint::at_most("transmit_time", 2.0)],
                Objective::maximize("resolution"),
            ))
            .then(Preference::new(vec![], Objective::minimize("transmit_time"))),
            QosProfile::Interactive => PreferenceList::single(Preference::new(
                vec![Constraint::at_most("response_time", 0.5)],
                Objective::maximize("resolution"),
            ))
            .then(Preference::new(vec![], Objective::minimize("response_time"))),
            QosProfile::Throughput => PreferenceList::single(Preference::new(
                vec![],
                Objective::minimize("transmit_time"),
            )),
        }
    }
}

/// Load-generator options. Build with [`LoadGenOpts::new`] and the
/// consuming `with_*` methods.
#[derive(Debug, Clone)]
pub struct LoadGenOpts {
    /// Number of concurrent client sessions.
    pub sessions: usize,
    /// Number of server actors; sessions are assigned round-robin.
    pub servers: usize,
    /// Master seed: arrivals, think times, and profile assignment all
    /// derive from it.
    pub seed: u64,
    pub arrival: ArrivalProcess,
    /// Per-session think time is drawn uniformly from this range (us).
    pub think_time_us: (u64, u64),
    /// QoS profiles cycled over sessions (session `i` gets `i % len`).
    pub profiles: Vec<QosProfile>,
    /// Images per session.
    pub n_images: usize,
    pub img_size: usize,
    pub levels: usize,
    /// Per-client link to its server.
    pub link_bps: f64,
    pub link_latency_us: u64,
    /// Monitoring-agent window and trigger gap (scaled down from the
    /// interactive scenarios: load sessions are short).
    pub monitor_window_us: u64,
    pub trigger_gap_us: u64,
    /// Monitor sampling period.
    pub period_us: u64,
    /// Event-queue drain strategy under test.
    pub drain_mode: DrainMode,
}

impl Default for LoadGenOpts {
    fn default() -> Self {
        LoadGenOpts {
            sessions: 10,
            servers: 2,
            seed: 7,
            arrival: ArrivalProcess::Poisson { mean_gap_us: 20_000 },
            think_time_us: (10_000, 50_000),
            profiles: vec![QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput],
            n_images: 2,
            img_size: 64,
            levels: 3,
            link_bps: 12_500_000.0,
            link_latency_us: 100,
            monitor_window_us: 200_000,
            trigger_gap_us: 100_000,
            period_us: MONITOR_PERIOD_US,
            drain_mode: DrainMode::default(),
        }
    }
}

impl LoadGenOpts {
    pub fn new(sessions: usize) -> Self {
        LoadGenOpts { sessions, ..LoadGenOpts::default() }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_servers(mut self, servers: usize) -> Self {
        self.servers = servers.max(1);
        self
    }

    pub fn with_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.arrival = arrival;
        self
    }

    pub fn with_think_time(mut self, lo_us: u64, hi_us: u64) -> Self {
        self.think_time_us = (lo_us, hi_us.max(lo_us));
        self
    }

    pub fn with_drain_mode(mut self, mode: DrainMode) -> Self {
        self.drain_mode = mode;
        self
    }

    pub fn with_n_images(mut self, n: usize) -> Self {
        self.n_images = n;
        self
    }

    /// The single-client [`Scenario`] equivalent of these options: the
    /// source of the tunability spec, image store, and `dR`/`l` domains,
    /// so load sessions and the interactive scenarios share one control
    /// space and one performance-database schema.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            n_images: self.n_images,
            img_size: self.img_size,
            levels: self.levels,
            seed: self.seed,
            link_bps: self.link_bps,
            link_latency_us: self.link_latency_us,
            monitor_window_us: self.monitor_window_us,
            trigger_gap_us: self.trigger_gap_us,
            ..Scenario::default()
        }
    }
}

/// Build a performance database for these options from the analytic cost
/// model (no profiling simulations). Deterministic and fast enough to
/// build once per bench sweep even at `sessions = 1000`; every session
/// then shares the same database through an [`Arc`].
pub fn model_db(opts: &LoadGenOpts) -> PerfDb {
    let sc = opts.scenario();
    let spec = viz_spec(&sc);
    let cpu = client_cpu_key();
    let net = client_net_key();
    let grid = ResourceGrid::new()
        .with_axis(cpu.clone(), &[0.25, 0.5, 1.0])
        .with_axis(net.clone(), &[opts.link_bps / 10.0, opts.link_bps / 3.0, opts.link_bps]);
    let cover = (opts.img_size / 2) as f64;
    let img_bytes = (opts.img_size * opts.img_size) as f64;
    let latency_s = opts.link_latency_us as f64 / 1e6;
    let runner = move |config: &adapt_core::Configuration, res: &ResourceVector, _input: &str| {
        let l = config.expect("l") as f64;
        let dr = config.expect("dR") as f64;
        let bzip = config.expect("c") == compress::Method::Bzip.code();
        let share = res.get(&cpu).unwrap_or(1.0).max(0.01);
        let bw = res.get(&net).unwrap_or(1.0).max(1.0);
        // Coarser levels carry ~4x less data each; bzip trades bytes for
        // CPU — the same shape as `costs`, not a calibrated copy.
        let level_scale = 0.25f64.powf((sc.levels as f64 - l).max(0.0));
        let bytes = img_bytes * level_scale * if bzip { 0.55 } else { 0.9 };
        let cpu_s = (0.004 + if bzip { 0.030 } else { 0.004 }) * level_scale * img_bytes
            / 4096.0
            / share
            / 1000.0;
        let rounds = (cover / dr).ceil().max(1.0);
        let transmit = bytes / bw + cpu_s + rounds * latency_s;
        QosReport::new(&[
            ("transmit_time", transmit),
            ("response_time", transmit / rounds),
            ("resolution", l),
        ])
    };
    Profiler::new(spec.configurations(), grid, vec![PROFILE_INPUT.into()]).run_parallel(&runner, 1)
}

/// What one session did, reduced to its deterministic observables.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    pub session: usize,
    pub profile: QosProfile,
    pub arrival_us: u64,
    pub think_time_us: u64,
    /// Simulation time the session delivered its last image; `None` if
    /// the run ended first (cannot happen without faults).
    pub finished_us: Option<u64>,
    pub rounds: u64,
    pub images: u64,
    pub switches: u64,
    pub wire_bytes: u64,
}

/// Aggregate outcome of one load-generator run.
#[derive(Debug)]
pub struct LoadReport {
    pub sessions: Vec<SessionSummary>,
    /// Simulation end time.
    pub end: SimTime,
    /// Events the kernel processed.
    pub events_handled: u64,
    /// High-water mark of the pending-event queue.
    pub peak_queue_depth: usize,
    pub requests_total: u64,
    pub images_total: u64,
    pub switches_total: u64,
    /// The run's observability sink (`load.*`, `visapp.*`, `runtime.tick`).
    pub obs: Obs,
}

impl LoadReport {
    /// FNV-1a hash over every simulation-derived observable: per-session
    /// rounds/images/switches/bytes/finish times plus kernel totals. Two
    /// same-seed runs must agree on this digest exactly; wall-clock
    /// measurements are deliberately excluded. So is `peak_queue_depth`:
    /// it describes the queue rather than what the sessions did, the
    /// committed digests were defined without it, and every place that
    /// pins a digest (`digest_contract.rs`) pins the peak next to it.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for s in &self.sessions {
            h.write_u64(s.session as u64);
            h.write_u64(s.arrival_us);
            h.write_u64(s.think_time_us);
            h.write_u64(s.finished_us.map_or(u64::MAX, |t| t));
            h.write_u64(s.rounds);
            h.write_u64(s.images);
            h.write_u64(s.switches);
            h.write_u64(s.wire_bytes);
        }
        h.write_u64(self.end.as_us());
        h.write_u64(self.events_handled);
        h.finish()
    }
}

/// Periodic sampler: folds per-session stats into the aggregate `load.*`
/// metrics and emits `session_done` events. Re-arms its timer only while
/// sessions are still running, so the simulation drains.
///
/// A tick costs O(live sessions), not O(sessions): `arrivals` is sorted
/// (see [`ArrivalProcess::times`]), so the sessions that have arrived by
/// `now` are a prefix and `next_arrival` is a cursor over it; `live` holds
/// the arrived sessions not yet reported done, in session order, each with
/// the number of its rounds already folded into `load.requests_total`.
struct LoadWatcher {
    handles: Vec<StatsHandle>,
    arrivals: Vec<u64>,
    period_us: u64,
    obs: Obs,
    sessions_active: MetricId,
    requests_total: MetricId,
    next_arrival: usize,
    live: Vec<(usize, usize)>,
}

impl LoadWatcher {
    fn sample(&mut self, now: SimTime) {
        let now_us = now.as_us();
        while self.arrivals.get(self.next_arrival).is_some_and(|&t| t <= now_us) {
            self.live.push((self.next_arrival, 0));
            self.next_arrival += 1;
        }
        let (handles, obs) = (&self.handles, &self.obs);
        let mut new_rounds = 0u64;
        self.live.retain_mut(|(i, folded)| {
            // Only observations strictly before the sample time count: the
            // shared-memory stats are written by other actors, and events
            // at exactly `now` race with this watcher's own timer in the
            // `(time, seq)` order. The strict filter makes each sample a
            // pure function of simulated time (and defines the committed
            // digests: a round finishing at `now` is folded one tick later).
            let (done_at, fresh) = handles[*i].with(|s| {
                let fresh = s.rounds[*folded..].iter().take_while(|r| r.finished < now).count();
                (s.finished_at.filter(|&t| t < now), fresh)
            });
            *folded += fresh;
            new_rounds += fresh as u64;
            if let Some(t) = done_at {
                obs.publish(
                    Event::new(t.as_us(), Source::Load, "session_done")
                        .with("session", *i)
                        .with("rounds", *folded as u64),
                );
            }
            done_at.is_none()
        });
        self.obs.set(self.sessions_active, self.live.len() as f64);
        self.obs.inc(self.requests_total, new_rounds);
    }

    fn all_done(&self) -> bool {
        self.next_arrival == self.arrivals.len() && self.live.is_empty()
    }
}

impl Actor for LoadWatcher {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.period_us, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.sample(ctx.now());
        if !self.all_done() {
            ctx.set_timer(self.period_us, 0);
        }
    }
}

/// Run the load generator: `opts.sessions` adaptive clients, one shared
/// performance database, one simulation. Returns the aggregate report;
/// the per-run `Obs` rides inside it.
///
/// The database is taken by `Arc` and **shared** into every session's
/// scheduler ([`adapt_core::ResourceScheduler::new_shared`]) — memory for the
/// performance data is O(1) in the session count, where a per-session
/// clone would be O(N) (`sessions_share_one_perfdb_allocation`).
pub fn run_load(opts: &LoadGenOpts, db: &Arc<PerfDb>) -> LoadReport {
    run_load_watched(opts, db, |watcher| Box::new(watcher))
}

/// [`run_load`] with the watcher actor passed through `wrap` before it is
/// spawned (the tests wrap it in a recorder).
fn run_load_watched(
    opts: &LoadGenOpts,
    db: &Arc<PerfDb>,
    wrap: impl FnOnce(LoadWatcher) -> Box<dyn Actor>,
) -> LoadReport {
    assert!(opts.sessions > 0, "need at least one session");
    assert!(!opts.profiles.is_empty(), "need at least one QoS profile");
    let sc = Arc::new(opts.scenario());
    sc.validate().expect("invalid load scenario");
    let store = sc.build_store();
    let obs = Obs::new();
    // Pre-register the aggregate metrics so ids exist even if the run is
    // over before the first watcher sample.
    let sessions_active = obs.gauge("load.sessions_active");
    let requests_total = obs.counter("load.requests_total");

    let mut rng = SplitMix64::new(opts.seed);
    let arrivals = opts.arrival.times(opts.sessions, &mut rng);
    let (lo, hi) = opts.think_time_us;
    let think: Vec<u64> = (0..opts.sessions).map(|_| rng.range(lo, hi)).collect();
    // One admission decision per session class, made before the run: every
    // session of a profile starts unconstrained over the same database, so
    // its initial scheduler decision is the class's.
    let unconstrained = Limits::unconstrained();
    let classes: Vec<Arc<SessionClass>> = opts
        .profiles
        .iter()
        .map(|p| Arc::new(SessionClass::new(&sc, db.clone(), p.preferences(), &unconstrained)))
        .collect();

    let mut sim = Sim::new();
    sim.set_drain_mode(opts.drain_mode);
    sim.attach_obs(&obs);

    let server_hosts: Vec<_> = (0..opts.servers.max(1))
        .map(|j| sim.add_host(&format!("server{j}"), 1.0, 1 << 30))
        .collect();
    let server_ids: Vec<_> = server_hosts
        .iter()
        .map(|&h| sim.spawn(h, Box::new(crate::server::Server::new(store.clone()).with_obs(&obs))))
        .collect();

    let mut handles = Vec::with_capacity(opts.sessions);
    for i in 0..opts.sessions {
        let hc = sim.add_host(&format!("client{i}"), 1.0, 1 << 30);
        let hs = server_hosts[i % server_hosts.len()];
        sim.set_link(hc, hs, opts.link_bps, opts.link_latency_us);
        let handle = StatsHandle::new();
        handle.attach_obs(&obs);
        handles.push(handle.clone());

        // The session itself (scheduler, runtime, client) is built lazily
        // at its arrival time, inside the simulation, around its class's
        // decision: its `decide` event is published on admission, exactly
        // like a real session joining the pool.
        let class = classes[i % classes.len()].clone();
        let sc = sc.clone();
        let obs_c = obs.clone();
        let store_c = store.clone();
        let server_id = server_ids[i % server_ids.len()];
        let (think_us, period) = (think[i], opts.period_us);
        sim.at(SimTime::from_us(arrivals[i]), move |s| {
            let copts = client_opts(&sc, &store_c, server_id).with_think_time(Some(think_us));
            let (client, sandbox_stats) = class.client(period, copts, handle, &obs_c);
            s.spawn(
                hc,
                Box::new(Sandboxed::new(client, LimitsHandle::new(unconstrained), sandbox_stats)),
            );
            obs_c.publish(
                Event::new(s.now().as_us(), Source::Load, "session_start").with("session", i),
            );
        });
    }

    let watcher_host = sim.add_host("loadgen", 1.0, 1 << 30);
    debug_assert!(arrivals.is_sorted(), "the watcher's arrival cursor needs sorted arrivals");
    sim.spawn(
        watcher_host,
        wrap(LoadWatcher {
            handles: handles.clone(),
            arrivals: arrivals.clone(),
            period_us: opts.period_us,
            obs: obs.clone(),
            sessions_active,
            requests_total,
            next_arrival: 0,
            live: Vec::new(),
        }),
    );

    sim.run_until_idle();

    let mut sessions = Vec::with_capacity(opts.sessions);
    let (mut requests, mut images, mut switches) = (0u64, 0u64, 0u64);
    for (i, h) in handles.iter().enumerate() {
        let stats = h.take();
        let summary = SessionSummary {
            session: i,
            profile: opts.profiles[i % opts.profiles.len()],
            arrival_us: arrivals[i],
            think_time_us: think[i],
            finished_us: stats.finished_at.map(|t| t.as_us()),
            rounds: stats.rounds.len() as u64,
            images: stats.images.len() as u64,
            switches: stats.switch_count() as u64,
            wire_bytes: stats.total_wire_bytes(),
        };
        requests += summary.rounds;
        images += summary.images;
        switches += summary.switches;
        sessions.push(summary);
    }
    LoadReport {
        sessions,
        end: sim.now(),
        events_handled: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        requests_total: requests,
        images_total: images,
        switches_total: switches,
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sessions: usize) -> LoadGenOpts {
        LoadGenOpts::new(sessions).with_n_images(1).with_think_time(5_000, 20_000)
    }

    #[test]
    fn every_session_finishes() {
        let opts = tiny(6);
        let db = Arc::new(model_db(&opts));
        let report = run_load(&opts, &db);
        assert_eq!(report.sessions.len(), 6);
        for s in &report.sessions {
            assert!(s.finished_us.is_some(), "session {} never finished", s.session);
            assert_eq!(s.images, 1);
            assert!(s.rounds >= 1);
        }
        assert_eq!(report.images_total, 6);
        assert!(report.events_handled > 0);
        assert!(report.peak_queue_depth >= 2);
    }

    #[test]
    fn same_seed_runs_are_identical() {
        let opts = tiny(5);
        let db = Arc::new(model_db(&opts));
        let a = run_load(&opts, &db);
        let b = run_load(&opts, &db);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.end, b.end);
        assert_eq!(a.events_handled, b.events_handled);
    }

    #[test]
    fn seed_changes_the_run() {
        let opts = tiny(5);
        let db = Arc::new(model_db(&opts));
        let a = run_load(&opts, &db);
        let b = run_load(&opts.clone().with_seed(opts.seed + 1), &db);
        assert_ne!(a.digest(), b.digest(), "seed must reach arrivals/think times");
    }

    #[test]
    fn heap_and_batched_drain_agree() {
        let opts = tiny(4);
        let db = Arc::new(model_db(&opts));
        let batched = run_load(&opts.clone().with_drain_mode(DrainMode::Batched), &db);
        let heap = run_load(&opts.clone().with_drain_mode(DrainMode::Heap), &db);
        assert_eq!(batched.digest(), heap.digest(), "drain mode must not change semantics");
    }

    /// The full-scan sampler [`LoadWatcher`] replaced, kept as its oracle:
    /// every tick visits every handle, counts its rounds from the start,
    /// re-counts the arrivals and scans `done_reported`. It publishes into
    /// an `Obs` of its own.
    struct ScanOracle {
        handles: Vec<StatsHandle>,
        arrivals: Vec<u64>,
        obs: Obs,
        sessions_active: MetricId,
        requests_total: MetricId,
        reported_rounds: u64,
        done_reported: Vec<bool>,
    }

    impl ScanOracle {
        fn sample(&mut self, now: SimTime) {
            let now_us = now.as_us();
            let mut finished = 0usize;
            let mut rounds = 0u64;
            for (i, h) in self.handles.iter().enumerate() {
                let (done_at, n_rounds) = h.with(|s| {
                    let done = s.finished_at.filter(|&t| t < now);
                    (done, s.rounds.partition_point(|r| r.finished < now) as u64)
                });
                rounds += n_rounds;
                if let Some(t) = done_at {
                    finished += 1;
                    if !self.done_reported[i] {
                        self.done_reported[i] = true;
                        self.obs.publish(
                            Event::new(t.as_us(), Source::Load, "session_done")
                                .with("session", i)
                                .with("rounds", n_rounds),
                        );
                    }
                }
            }
            let arrived = self.arrivals.iter().filter(|&&t| t <= now_us).count();
            self.obs.set(self.sessions_active, (arrived - finished) as f64);
            self.obs.inc(self.requests_total, rounds - self.reported_rounds);
            self.reported_rounds = rounds;
        }

        fn all_done(&self) -> bool {
            self.done_reported.iter().all(|&d| d)
        }
    }

    /// `(now_us, load.sessions_active, load.requests_total)` after a tick.
    type Tick = (u64, f64, u64);
    /// `(at_us, session, rounds)` of a `session_done` event.
    type Done = (u64, u64, u64);

    /// What one sampler published over a run.
    #[derive(Debug, Default, PartialEq)]
    struct Trace {
        ticks: Vec<Tick>,
        done: Vec<Done>,
    }

    fn done_events(obs: &Obs) -> Vec<Done> {
        obs.events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_done"))
            .iter()
            .map(|e| (e.at_us, e.u64_field("session").unwrap(), e.u64_field("rounds").unwrap()))
            .collect()
    }

    /// The watcher actor and its oracle on one timer: both sample the same
    /// handles at the same instants, the watcher re-arms.
    struct Twin {
        watcher: LoadWatcher,
        oracle: ScanOracle,
        traces: Arc<std::sync::Mutex<(Trace, Trace)>>,
    }

    impl Actor for Twin {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.watcher.on_start(ctx);
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
            let now = ctx.now();
            self.oracle.sample(now);
            self.watcher.on_timer(tag, ctx);
            assert_eq!(self.watcher.all_done(), self.oracle.all_done(), "at {now}");
            let tick = |obs: &Obs, active, requests| -> Tick {
                (now.as_us(), obs.gauge_value(active), obs.counter_value(requests))
            };
            let (w, o) = (&self.watcher, &self.oracle);
            let mut traces = self.traces.lock().unwrap();
            traces.0.ticks.push(tick(&w.obs, w.sessions_active, w.requests_total));
            traces.1.ticks.push(tick(&o.obs, o.sessions_active, o.requests_total));
        }
    }

    /// Run `opts` with the oracle riding the watcher's timer; returns the
    /// report and the `(watcher, oracle)` traces.
    fn run_twinned(opts: &LoadGenOpts, db: &Arc<PerfDb>) -> (LoadReport, Trace, Trace) {
        let traces = Arc::new(std::sync::Mutex::new((Trace::default(), Trace::default())));
        let (shared, oracle_obs) = (traces.clone(), Obs::new());
        let obs = oracle_obs.clone();
        let report = run_load_watched(opts, db, move |watcher| {
            let oracle = ScanOracle {
                handles: watcher.handles.clone(),
                arrivals: watcher.arrivals.clone(),
                sessions_active: obs.gauge("load.sessions_active"),
                requests_total: obs.counter("load.requests_total"),
                obs,
                reported_rounds: 0,
                done_reported: vec![false; watcher.handles.len()],
            };
            Box::new(Twin { watcher, oracle, traces: shared })
        });
        let (mut watcher, mut oracle) = std::mem::take(&mut *traces.lock().unwrap());
        watcher.done = done_events(&report.obs);
        oracle.done = done_events(&oracle_obs);
        (report, watcher, oracle)
    }

    #[test]
    fn watcher_matches_the_full_scan_oracle() {
        let modes = [DrainMode::Batched, DrainMode::Heap];
        let arrivals = [
            ArrivalProcess::Poisson { mean_gap_us: 20_000 },
            ArrivalProcess::Simultaneous,
            ArrivalProcess::Uniform { gap_us: 0 },
            // Arrivals exactly on tick instants count as arrived.
            ArrivalProcess::Uniform { gap_us: MONITOR_PERIOD_US },
        ];
        // The 10 ms period splits every session over many ticks; under
        // the 1 s one, sessions arrive and finish between two ticks.
        for period_us in [MONITOR_PERIOD_US, 1_000_000] {
            for arrival in arrivals {
                let opts = LoadGenOpts { period_us, ..tiny(12).with_arrival(arrival) };
                let db = Arc::new(model_db(&opts));
                let mut batched: Option<Trace> = None;
                for mode in modes {
                    let what = format!("{arrival:?}, period {period_us}, {mode:?}");
                    let (report, watcher, oracle) =
                        run_twinned(&opts.clone().with_drain_mode(mode), &db);
                    assert_eq!(watcher, oracle, "{what}");
                    assert_eq!(watcher.done.len(), 12, "{what}");
                    assert_eq!(watcher.ticks.last().unwrap().1, 0.0, "{what}");
                    assert_eq!(watcher.ticks.last().unwrap().2, report.requests_total, "{what}");
                    // The series is a function of simulated time alone.
                    let first = batched.get_or_insert(watcher);
                    assert_eq!(*first, oracle, "{what}: differs from Batched");
                }
                if period_us > MONITOR_PERIOD_US {
                    let report = run_load(&opts, &db);
                    assert!(
                        report.sessions.iter().any(|s| {
                            s.arrival_us / period_us == s.finished_us.unwrap() / period_us
                        }),
                        "{arrival:?}: a session must arrive and finish between two ticks"
                    );
                }
            }
        }
    }

    #[test]
    fn watcher_reads_scale_with_live_sessions_not_sessions() {
        // 400 sessions, one every 50 ms: a handful live at any time. The
        // full-scan sampler read every handle on every tick (ticks x 400).
        let opts =
            tiny(400).with_servers(16).with_arrival(ArrivalProcess::Uniform { gap_us: 50_000 });
        let db = Arc::new(model_db(&opts));
        let handles = Arc::new(std::sync::Mutex::new(Vec::new()));
        let grabbed = handles.clone();
        let report = run_load_watched(&opts, &db, move |watcher| {
            *grabbed.lock().unwrap() = watcher.handles.clone();
            Box::new(watcher)
        });
        // Every `StatsHandle::with` of the run: the watcher's, plus one per
        // image from each client.
        let reads: u64 = handles.lock().unwrap().iter().map(StatsHandle::reads).sum();
        let ticks = report.end.as_us() / opts.period_us;
        let mut edges: Vec<(u64, i64)> = report
            .sessions
            .iter()
            .flat_map(|s| [(s.arrival_us, 1), (s.finished_us.unwrap(), -1)])
            .collect();
        edges.sort_unstable();
        let mut live = 0i64;
        let peak_live = edges
            .iter()
            .map(|&(_, d)| {
                live += d;
                live
            })
            .max()
            .unwrap() as u64;
        assert!(ticks > 1_000 && peak_live < 40, "ticks {ticks}, peak live {peak_live}");
        assert!(
            reads <= 4 * ticks * peak_live,
            "{reads} reads over {ticks} ticks with at most {peak_live} sessions live"
        );
        assert!(reads < ticks * 400 / 4, "{reads} reads: the watcher scans every session");
    }

    #[test]
    fn every_session_publishes_its_own_initial_decision() {
        let opts = tiny(7);
        let db = Arc::new(model_db(&opts));
        let report = run_load(&opts, &db);
        assert_eq!(report.switches_total, 0);
        let decides = report
            .obs
            .events_filtered(&obs::EventFilter::any().source(Source::Scheduler).kind("decide"));
        assert_eq!(decides.len(), 7, "one shared decision, still one decide event per session");
    }

    #[test]
    fn aggregate_metrics_flow_to_obs() {
        let opts = tiny(3);
        let db = Arc::new(model_db(&opts));
        let report = run_load(&opts, &db);
        let obs = &report.obs;
        let requests = obs.counter_value(obs.lookup("load.requests_total").unwrap());
        assert_eq!(requests, report.requests_total, "watcher must fold all rounds");
        // All sessions finished, so the last sample read zero active.
        assert_eq!(obs.gauge_value(obs.lookup("load.sessions_active").unwrap()), 0.0);
        let ticks = obs.histogram_stats(obs.lookup("runtime.tick").unwrap());
        assert!(ticks.count > 0, "per-session adapt latencies must aggregate");
        let starts = report
            .obs
            .events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_start"));
        let dones = report
            .obs
            .events_filtered(&obs::EventFilter::any().source(Source::Load).kind("session_done"));
        assert_eq!(starts.len(), 3);
        assert_eq!(dones.len(), 3);
    }

    #[test]
    fn sessions_share_one_perfdb_allocation() {
        let opts = tiny(4);
        let db = Arc::new(model_db(&opts));
        let before = Arc::strong_count(&db);
        let _ = run_load(&opts, &db);
        // Every per-session scheduler clone was dropped with the sim.
        assert_eq!(Arc::strong_count(&db), before);
        assert!(db.approx_bytes() > 0);
    }

    #[test]
    fn arrival_processes_are_ordered_and_deterministic() {
        let mut r1 = SplitMix64::new(3);
        let mut r2 = SplitMix64::new(3);
        let a = ArrivalProcess::Poisson { mean_gap_us: 10_000 }.times(20, &mut r1);
        let b = ArrivalProcess::Poisson { mean_gap_us: 10_000 }.times(20, &mut r2);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals must be sorted");
        let u = ArrivalProcess::Uniform { gap_us: 500 }.times(3, &mut r1);
        assert_eq!(u, vec![0, 500, 1000]);
        assert!(ArrivalProcess::Simultaneous.times(3, &mut r1).iter().all(|&t| t == 0));
    }
}
