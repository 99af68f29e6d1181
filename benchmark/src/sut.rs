//! The system under test, as the benchmark sees it.
//!
//! This is the **only** file that calls into the program: the four
//! workloads (set-up, one repetition, correctness facts) and every
//! per-layer probe live here, and everything else in the harness works
//! on the plain [`Rep`] / [`Counts`] values they return. The `use` lines
//! below are therefore the complete API surface a later refactor of
//! `crates/` has to preserve (README.md lists them call by call).
//!
//! Load shape: one driver thread, closed loop — the next call starts when
//! the previous one returns. Every simulation drains with
//! [`DrainMode::Batched`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use adapt_core::{
    AdaptiveRuntime, Configuration, MonitoringAgent, PerfDb, PredictMode, PreferenceList,
    ReconfigureRequest, ResourceScheduler, ResourceVector, SteeringAgent, ValidityRegion,
};
use adapt_transport::{decode_frame, encode_frame, Frame, WireCodec, HEADER_BYTES};
use arbiter::{gen_specs, run_storm, AppState, Pricer, StormOpts, StormReport};
use compress::Method;
use obs::{Event, EventFilter, Obs, Source};
use sandbox::{CpuSample, LimitSchedule, Limits, NetSample, SandboxStats, TokenBucket};
use simnet::{Actor, Ctx, DrainMode, Sim, SimTime};
use visapp::protocol::{reply_msg, Reply};
use visapp::{
    build_db, client_cpu_key, client_net_key, model_db, profile_point, run_adaptive_shared,
    run_load, run_static, viz_spec, ArrivalProcess, ImageStore, LoadGenOpts, QosProfile,
    RunOutcome, Scenario, VizCodec, VizConfig, PROFILE_INPUT,
};
use wavelet::image::photo;
use wavelet::{decode_chunks, encode_chunks, Pyramid, Reassembler, Rect};

use crate::rng::{Fnv, SplitMix64};
use crate::stats::{quantile, sorted};
use crate::timing::{best_of, per_call_ns, timed};
use crate::trace::Tracer;

/// Named numbers: layer counts from a repetition, or probe results.
///
/// Names listed in `metrics::PER_LAYER` are reported; the few others
/// (`simnet.sims`, `*.ms_per_cold_payload`, ...) only feed the shares.
pub type Counts = BTreeMap<&'static str, f64>;

/// The workloads, with the reason each exists (also the `why` of
/// `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "session_collapse",
        "adaptive sessions through a bandwidth collapse: the only place the monitor, predict, \
         choose, steer, server switch path runs against the clock; compress and wavelet idle",
    ),
    (
        "load_steady",
        "one simulation of 10000 concurrent sessions, zero switches: stresses visapp::load, the \
         kernel queue and the obs bus; scheduler and compress do little",
    ),
    (
        "arbiter_storm",
        "256 apps on 4 hosts with a surge and a capacity dip: admission, shed and recover in \
         the arbiter dominate; compress and wavelet do nothing",
    ),
    (
        "profile_build",
        "cold offline profiling of a fresh 4x512px store: the PerfDb write side, over 99% \
         wavelet extraction and compression, under 1% kernel and scheduler",
    ),
];

/// What one repetition did.
pub struct Rep {
    /// Operations attempted: sessions, sessions, apps, profile points.
    pub ops: u64,
    pub failed: u64,
    /// FNV-1a over every simulation-derived observable of the repetition.
    pub digest: u64,
    /// Host milliseconds of each call into the program the repetition
    /// made: one per session on `session_collapse`, one per storm on
    /// `arbiter_storm`, one per step of the build on `profile_build`, one in
    /// all on `load_steady`. Every repetition makes the same calls in the
    /// same order.
    pub call_ms: Vec<f64>,
    /// `sim_*` values (simulated time; exact for a given seed).
    pub sim: Vec<(&'static str, f64)>,
    /// Layer counts, filled only when the tracer is on.
    pub counts: Counts,
    /// Broken per-workload invariants, in words.
    pub violations: Vec<String>,
}

impl Rep {
    /// Host seconds spent inside calls into the program.
    pub fn wall_s(&self) -> f64 {
        self.call_ms.iter().sum::<f64>() / 1e3
    }
}

/// A workload after set-up: inputs generated, databases and stores
/// built, caches warm, one untimed warm-up repetition done.
pub trait Workload {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep;
    /// Digest of the warm-up repetition, when set-up ran a full one.
    fn warmup_digest(&self) -> Option<u64>;
    /// The sizes and objects the probes run against.
    fn probe_ctx(&self) -> ProbeCtx;
}

/// Set `name` up from `seed`. The program receives only generated inputs.
pub fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "session_collapse" => Box::new(SessionCollapse::new(seed)),
        "load_steady" => Box::new(LoadSteady::new(seed)),
        "arbiter_storm" => Box::new(ArbiterStorm::new(seed)),
        "profile_build" => Box::new(ProfileBuild::new(seed)),
        other => panic!("unknown workload `{other}`"),
    }
}

fn counter(obs: &Obs, name: &str) -> f64 {
    obs.lookup(name).map_or(0.0, |id| obs.counter_value(id) as f64)
}

fn hist_count(obs: &Obs, name: &str) -> f64 {
    obs.lookup(name).map_or(0.0, |id| obs.histogram_stats(id).count as f64)
}

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// Counts every traced repetition can read off a run's own `Obs`.
fn add_obs_counts(counts: &mut Counts, obs: &Obs) {
    add(counts, "core.runtime.ticks", counter(obs, "monitor.ticks"));
    add(counts, "core.scheduler.decides", hist_count(obs, "scheduler.choose"));
    add(counts, "visapp.server.requests", counter(obs, "server.requests"));
    add(counts, "obs.bus_published", obs.events_published() as f64);
    add(counts, "obs.bus_dropped", obs.events_dropped() as f64);
}

/// `RunOutcome` does not expose the kernel's `events_handled`; the
/// kernel's trace events on the run's bus are the closest public count
/// (single sessions never overflow the ring).
fn add_outcome_counts(counts: &mut Counts, out: &RunOutcome) {
    add_obs_counts(counts, &out.obs);
    let kernel = out.obs.events_filtered(&EventFilter::any().source(Source::Simnet)).len();
    add(counts, "simnet.events", kernel as f64);
}

/// One timed call of a repetition, under a span of its own.
fn step<R>(tracer: &mut Tracer, call_ms: &mut Vec<f64>, name: &str, f: impl FnOnce() -> R) -> R {
    let (secs, out) = timed(|| tracer.span(name, |_| f()));
    call_ms.push(secs * 1e3);
    out
}

// ---------------------------------------------------------------- session_collapse

/// Sessions in one repetition. The same seeded stream replays every
/// repetition, so digests must match from one to the next.
const SESSIONS_PER_REP: usize = 500;
const SESSION_IMAGES: usize = 20;
const HIGH_BPS: f64 = 500_000.0;
const RECOVER_AFTER_US: u64 = 9_000_000;
const SESSION_CPU_GRID: [f64; 3] = [0.25, 0.5, 1.0];
const SESSION_BW_GRID: [f64; 5] = [30_000.0, 60_000.0, 125_000.0, 250_000.0, 500_000.0];

/// `resolution>=levels, minimize transmit_time`: Experiment 1's user.
fn collapse_prefs(levels: usize) -> PreferenceList {
    PreferenceList::parse_directive(&format!("resolution>={levels}, minimize:transmit_time"))
        .expect("well-formed preference directive")
}

struct Collapse {
    at_us: u64,
    low_bps: f64,
}

struct SessionCollapse {
    seed: u64,
    sc: Scenario,
    store: Arc<ImageStore>,
    db: Arc<PerfDb>,
    prefs: PreferenceList,
    plans: Vec<Collapse>,
    warmup_digest: u64,
}

impl SessionCollapse {
    fn new(seed: u64) -> Self {
        let sc = Scenario {
            n_images: SESSION_IMAGES,
            img_size: 256,
            levels: 4,
            seed,
            drain_mode: DrainMode::Batched,
            ..Scenario::default()
        };
        let store = sc.build_store();
        let db = Arc::new(build_db(&sc, &store, &SESSION_CPU_GRID, &SESSION_BW_GRID, 1));
        let mut rng = SplitMix64::new(seed ^ 0x5E55_10C0);
        let plans = (0..SESSIONS_PER_REP)
            .map(|_| Collapse {
                at_us: rng.range(600_000, 1_600_000),
                low_bps: 30_000.0 + rng.next_f64() * 30_000.0,
            })
            .collect();
        let mut w = SessionCollapse {
            seed,
            prefs: collapse_prefs(sc.levels),
            sc,
            store,
            db,
            plans,
            warmup_digest: 0,
        };
        // The warm-up replays the whole stream, so every payload a timed
        // repetition asks for is already in the store's cache.
        w.warmup_digest = w.rep(&mut Tracer::new(false)).digest;
        w
    }
}

impl Workload for SessionCollapse {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let cache_before = self.store.cache_len();
        let mut digest = Fnv::new();
        let mut counts = Counts::new();
        let mut call_ms = Vec::with_capacity(self.plans.len());
        let (mut failed, mut switches) = (0u64, 0u64);
        let (mut finished_s, mut transmit_s) = (0.0f64, 0.0f64);
        let mut react_ms = Vec::new();
        for plan in &self.plans {
            let schedule = LimitSchedule::new()
                .at(SimTime::from_us(plan.at_us), Limits::net(plan.low_bps))
                .at(SimTime::from_us(plan.at_us + RECOVER_AFTER_US), Limits::net(HIGH_BPS));
            let started = Instant::now();
            let out = tracer.span("session", |_| {
                run_adaptive_shared(
                    &self.sc,
                    &self.store,
                    self.db.clone(),
                    self.prefs.clone(),
                    Limits::net(HIGH_BPS),
                    Some(schedule),
                )
            });
            call_ms.push(started.elapsed().as_secs_f64() * 1e3);

            let stats = &out.stats;
            let delivered = stats.images.len();
            if delivered != SESSION_IMAGES || stats.finished_at.is_none() {
                failed += 1;
            }
            switches += stats.switch_count() as u64;
            finished_s += stats.finished_at.map_or(0.0, |t| t.as_secs_f64());
            transmit_s += stats.avg_transmit_secs();
            // Reaction: from the scheduled collapse to the first switch
            // after it (entry 0 of the history is the initial choice).
            if let Some((t, _)) =
                stats.config_history.iter().skip(1).find(|(t, _)| t.as_us() >= plan.at_us)
            {
                react_ms.push((t.as_us() - plan.at_us) as f64 / 1e3);
            }
            digest.mix(stats.finished_at.map_or(u64::MAX, |t| t.as_us()));
            digest.mix(delivered as u64);
            digest.mix(stats.rounds.len() as u64);
            digest.mix(stats.total_wire_bytes());
            for (t, config) in &stats.config_history {
                digest.mix(t.as_us());
                digest.mix_str(&config.key());
            }
            if tracer.enabled() {
                add_outcome_counts(&mut counts, &out);
            }
        }
        let n = self.plans.len() as f64;
        let mut sim =
            vec![("sim_makespan_s", finished_s / n), ("sim_transmit_s_mean", transmit_s / n)];
        if !react_ms.is_empty() {
            let r = sorted(&react_ms);
            sim.push(("sim_react_ms_p50", quantile(&r, 0.5)));
            sim.push(("sim_react_ms_p90", quantile(&r, 0.9)));
        }
        let mut violations = Vec::new();
        if failed > 0 {
            violations.push(format!("{failed} sessions did not deliver {SESSION_IMAGES} images"));
        }
        if (switches as f64) < 2.0 * n {
            violations.push(format!("{switches} switches over {n} sessions: fewer than 2 each"));
        }
        if tracer.enabled() {
            counts.insert("simnet.sims", n);
            counts.insert("core.steering.switches", switches as f64);
            counts.insert(
                "visapp.store.prepares_cold",
                (self.store.cache_len() - cache_before) as f64,
            );
        }
        Rep {
            ops: self.plans.len() as u64,
            failed,
            digest: digest.finish(),
            call_ms,
            sim,
            counts,
            violations,
        }
    }

    fn warmup_digest(&self) -> Option<u64> {
        Some(self.warmup_digest)
    }

    fn probe_ctx(&self) -> ProbeCtx {
        ProbeCtx {
            seed: self.seed,
            sc: self.sc.clone(),
            store: self.store.clone(),
            db: self.db.clone(),
            prefs: self.prefs.clone(),
            cpu_grid: SESSION_CPU_GRID.to_vec(),
            bw_grid: SESSION_BW_GRID.to_vec(),
            actors: 2,
            known: Counts::new(),
        }
    }
}

// ---------------------------------------------------------------- load_steady

const LOAD_SESSIONS: usize = 10_000;
const LOAD_SESSIONS_SMALL: usize = 2_000;
/// Requests the 10k-session run makes at the default seed.
const LOAD_REQUESTS_AT_SEED_7: u64 = 60_002;

/// The shape of `adapt_bench::load::bench_opts`, copied rather than
/// imported: ~25 sessions per server, arrivals compressed so most
/// sessions are live at once. (The default two servers saturate at 2k
/// sessions and turn the run into a 60 s queueing study.)
fn load_opts(sessions: usize, seed: u64) -> LoadGenOpts {
    LoadGenOpts::new(sessions)
        .with_servers((sessions / 25).max(2))
        .with_arrival(ArrivalProcess::Poisson { mean_gap_us: 5_000 })
        .with_seed(seed)
        .with_drain_mode(DrainMode::Batched)
}

fn load_us_per_event(sessions: usize, seed: u64, db: &Arc<PerfDb>) -> f64 {
    let opts = load_opts(sessions, seed);
    let (secs, report) = timed(|| run_load(&opts, db));
    secs * 1e6 / report.events_handled as f64
}

struct LoadSteady {
    opts: LoadGenOpts,
    db: Arc<PerfDb>,
    warmup_digest: u64,
    /// What the last repetition measured that a probe would measure again.
    known: Counts,
}

impl LoadSteady {
    fn new(seed: u64) -> Self {
        let opts = load_opts(LOAD_SESSIONS, seed);
        let db = Arc::new(model_db(&opts));
        let mut w = LoadSteady { opts, db, warmup_digest: 0, known: Counts::new() };
        w.warmup_digest = w.rep(&mut Tracer::new(false)).digest;
        w
    }
}

impl Workload for LoadSteady {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let (wall_s, report) =
            timed(|| tracer.span("run_load", |_| run_load(&self.opts, &self.db)));
        self.known.insert("load.us_per_event_10k", wall_s * 1e6 / report.events_handled as f64);

        let images = self.opts.n_images as u64;
        let failed = report
            .sessions
            .iter()
            .filter(|s| s.finished_us.is_none() || s.images != images)
            .count() as u64;
        let mut violations = Vec::new();
        if failed > 0 {
            violations.push(format!("{failed} sessions did not finish"));
        }
        if report.switches_total != 0 {
            violations
                .push(format!("{} switches; the steady load has none", report.switches_total));
        }
        if self.opts.seed == 7 && report.requests_total != LOAD_REQUESTS_AT_SEED_7 {
            violations.push(format!(
                "{} requests at seed 7, not {LOAD_REQUESTS_AT_SEED_7}",
                report.requests_total
            ));
        }
        let mut counts = Counts::new();
        if tracer.enabled() {
            add_obs_counts(&mut counts, &report.obs);
            counts.insert("simnet.sims", 1.0);
            counts.insert("simnet.events", report.events_handled as f64);
            counts.insert("simnet.peak_queue_depth", report.peak_queue_depth as f64);
            counts.insert("core.steering.switches", report.switches_total as f64);
        }
        Rep {
            ops: report.sessions.len() as u64,
            failed,
            digest: report.digest(),
            call_ms: vec![wall_s * 1e3],
            sim: vec![("sim_makespan_s", report.end.as_secs_f64())],
            counts,
            violations,
        }
    }

    fn warmup_digest(&self) -> Option<u64> {
        Some(self.warmup_digest)
    }

    fn probe_ctx(&self) -> ProbeCtx {
        let mut ctx = small_geometry_ctx(self.opts.seed, &self.opts, self.db.clone());
        ctx.actors = self.opts.sessions + self.opts.servers + 1;
        ctx.known = self.known.clone();
        ctx
    }
}

/// Probe context for the two workloads whose sessions run on the load
/// generator's small geometry (2 images of 64 px, analytic `model_db`).
fn small_geometry_ctx(seed: u64, opts: &LoadGenOpts, db: Arc<PerfDb>) -> ProbeCtx {
    let sc = opts.scenario();
    ProbeCtx {
        seed,
        store: sc.build_store(),
        sc,
        db,
        prefs: QosProfile::Quality.preferences(),
        cpu_grid: vec![0.25, 0.5, 1.0],
        bw_grid: vec![opts.link_bps / 10.0, opts.link_bps / 3.0, opts.link_bps],
        actors: 2,
        known: Counts::new(),
    }
}

// ---------------------------------------------------------------- arbiter_storm

const STORM_APPS: usize = 256;
const STORM_APPS_SMALL: usize = 64;

/// 4 hosts, one rogue per 13 bulk apps, a 4x arrival surge at 2-3 s and a
/// 50% capacity dip at 5-7 s, so shed and recover run, not just admission.
fn storm_opts(apps: usize, seed: u64) -> StormOpts {
    StormOpts::new(apps)
        .with_seed(seed)
        .with_cluster_hosts(4)
        .with_rogue_every(13)
        .with_surges(vec![(2_000_000, 1_000_000, 4.0)])
        .with_dips(vec![(5_000_000, 2_000_000, 0.5)])
        .with_drain_mode(DrainMode::Batched)
}

fn storm_p99_tier0(report: &StormReport) -> Option<f64> {
    report.p99_response_s.iter().find(|(tier, _)| *tier == 0).map(|(_, v)| *v)
}

/// Storms in one repetition. What a storm costs depends on the draw (the
/// kernel handles 66k to 84k events from one seed to the next), so a
/// repetition runs several draws and a seed moves their sum by half as much.
const STORMS_PER_REP: usize = 4;

struct ArbiterStorm {
    /// The first storm is drawn from the run's seed, the others from seeds
    /// drawn from it.
    storms: Vec<StormOpts>,
    db: Arc<PerfDb>,
    warmup_digest: u64,
    /// What the last repetition's first storm measured that a probe would
    /// measure again.
    known: Counts,
}

impl ArbiterStorm {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x0A5B_1735);
        let storms: Vec<StormOpts> = (0..STORMS_PER_REP)
            .map(|i| storm_opts(STORM_APPS, if i == 0 { seed } else { rng.next_u64() }))
            .collect();
        let db = Arc::new(model_db(&storms[0].load_opts()));
        let mut w = ArbiterStorm { storms, db, warmup_digest: 0, known: Counts::new() };
        w.warmup_digest = w.rep(&mut Tracer::new(false)).digest;
        w
    }
}

impl Workload for ArbiterStorm {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut digest = Fnv::new();
        let mut counts = Counts::new();
        let mut call_ms = Vec::with_capacity(self.storms.len());
        let mut violations = Vec::new();
        let (mut failed, mut end_s, mut busy_util, mut peak_queue) = (0u64, 0.0f64, 0.0f64, 0usize);
        for (i, opts) in self.storms.iter().enumerate() {
            let report = step(tracer, &mut call_ms, "run_storm", || run_storm(opts, &self.db));
            if i == 0 {
                let us_per_event = call_ms[0] * 1e3 / report.events_handled as f64;
                self.known.insert("arbiter.us_per_event_256", us_per_event);
                if let Some(p99) = storm_p99_tier0(&report) {
                    self.known.insert("arbiter.p99_tier0_s", p99);
                }
            }

            let unfinished = report
                .apps
                .iter()
                .filter(|a| !matches!(a.state, AppState::Done | AppState::Evicted))
                .count() as u64;
            failed += unfinished;
            let c = report.counters;
            if unfinished > 0 {
                violations.push(format!("{unfinished} apps ended neither Done nor Evicted"));
            }
            if c.admitted != STORM_APPS as u64 {
                violations.push(format!("{} apps admitted, not {STORM_APPS}", c.admitted));
            }
            if c.shed < 1 || c.recovered < 1 {
                violations.push(format!(
                    "shed {} recovered {}: want at least 1 each",
                    c.shed, c.recovered
                ));
            }
            digest.mix(report.digest());
            end_s += report.end.as_secs_f64();
            busy_util += report.busy_utilization;
            peak_queue = peak_queue.max(report.peak_queue_depth);
            if tracer.enabled() {
                add_obs_counts(&mut counts, &report.obs);
                for (name, v) in [
                    ("simnet.events", report.events_handled),
                    ("arbiter.admitted", c.admitted),
                    ("arbiter.queued", c.queued),
                    ("arbiter.backfilled", c.backfilled),
                    ("arbiter.evicted", c.evicted),
                    ("arbiter.shed", c.shed),
                    ("arbiter.recovered", c.recovered),
                    ("arbiter.violations", c.violations),
                ] {
                    add(&mut counts, name, v as f64);
                }
            }
        }
        let n = self.storms.len() as f64;
        if tracer.enabled() {
            counts.insert("simnet.sims", n);
            counts.insert("simnet.peak_queue_depth", peak_queue as f64);
        }
        Rep {
            ops: (self.storms.len() * STORM_APPS) as u64,
            failed,
            digest: digest.finish(),
            call_ms,
            sim: vec![("sim_makespan_s", end_s / n), ("sim_busy_util", busy_util / n)],
            counts,
            violations,
        }
    }

    fn warmup_digest(&self) -> Option<u64> {
        Some(self.warmup_digest)
    }

    fn probe_ctx(&self) -> ProbeCtx {
        let opts = &self.storms[0];
        let mut ctx = small_geometry_ctx(opts.seed, &opts.load_opts(), self.db.clone());
        // Every app gets a host of its own, plus arbiter, servers, sinks.
        ctx.actors = opts.apps + 2 * opts.servers + 1;
        ctx.known = self.known.clone();
        ctx
    }
}

// ---------------------------------------------------------------- profile_build

const PROFILE_CPU_GRID: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const PROFILE_BW_GRID: [f64; 4] = [50_000.0, 125_000.0, 250_000.0, 500_000.0];
/// 12 configurations x 16 grid points.
const PROFILE_RECORDS: usize = 192;
/// Profiling touches two images whatever the store holds.
const PROFILED_IMAGES: usize = 2;
/// 2 profiled images x 7 regions x 2 levels x 2 methods.
const PROFILE_PAYLOADS: usize = 56;

struct ProfileBuild {
    seed: u64,
    sc: Scenario,
    /// The last repetition's store (warm), database and cold-build
    /// seconds, for the probes.
    last: Option<(Arc<ImageStore>, Arc<PerfDb>, f64)>,
    /// Milliseconds per payload of the fastest repetition's `prepare` steps:
    /// what the store probe would measure at another moment.
    prepare_cold_ms: f64,
}

impl ProfileBuild {
    fn new(seed: u64) -> Self {
        let sc = Scenario {
            n_images: 4,
            img_size: 512,
            levels: 4,
            seed,
            drain_mode: DrainMode::Batched,
            ..Scenario::default()
        };
        // Every repetition is cold by definition (fresh store, fresh
        // database), so a full warm-up repetition would warm nothing the
        // timed ones reuse and cost 5 s of every set-up. Generating one
        // store faults in the code and grows the heap once.
        black_box(sc.build_store());
        ProfileBuild { seed, sc, last: None, prepare_cold_ms: f64::INFINITY }
    }
}

fn profile_digest(db: &PerfDb) -> u64 {
    let mut digest = Fnv::new();
    for rec in db.records() {
        digest.mix_str(&rec.config.key());
        digest.mix_str(&rec.resources.key());
        for (name, v) in rec.metrics.iter() {
            digest.mix_str(name);
            digest.mix_f64(v);
        }
    }
    digest.finish()
}

impl Workload for ProfileBuild {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        // The cold build in steps, each timed on its own: generate the
        // store, prepare every payload the profiling runs will ask for
        // (what the server does on a first request), then `build_db`, which
        // now finds each of them cached. The `cache_len` check below fails
        // if `build_db` asks for anything this list lacks.
        let mut call_ms = Vec::with_capacity(PROFILE_PAYLOADS + 2);
        let store = step(tracer, &mut call_ms, "generate", || self.sc.build_store());
        let geometries = request_geometries(&self.sc);
        for image in 0..PROFILED_IMAGES {
            for &(region, level, exclude) in &geometries {
                for method in METHODS {
                    step(tracer, &mut call_ms, "prepare", || {
                        black_box(store.prepare(image, region, level, exclude, method));
                    });
                }
            }
        }
        let prepared = store.cache_len();
        let db = step(tracer, &mut call_ms, "build_db", || {
            build_db(&self.sc, &store, &PROFILE_CPU_GRID, &PROFILE_BW_GRID, 1)
        });
        // What the probes call the cold 1-thread build: all but `generate`.
        let cold_build_s = call_ms[1..].iter().sum::<f64>() / 1e3;
        let prepare_ms = call_ms[1..=PROFILE_PAYLOADS].iter().sum::<f64>();
        self.prepare_cold_ms = self.prepare_cold_ms.min(prepare_ms / PROFILE_PAYLOADS as f64);

        let failed = db
            .records()
            .iter()
            .filter(|rec| {
                ["transmit_time", "response_time", "resolution"]
                    .iter()
                    .any(|m| !rec.metrics.get(m).is_some_and(f64::is_finite))
            })
            .count() as u64;
        let mut violations = Vec::new();
        if failed > 0 {
            violations.push(format!("{failed} profile points lack a finite QoS value"));
        }
        if db.len() != PROFILE_RECORDS {
            violations.push(format!("{} records, not {PROFILE_RECORDS}", db.len()));
        }
        if store.cache_len() != PROFILE_PAYLOADS {
            violations
                .push(format!("{} payloads cached, not {PROFILE_PAYLOADS}", store.cache_len()));
        }
        if store.cache_len() != prepared {
            violations.push(format!(
                "`build_db` prepared {} payloads the steps before it had not",
                store.cache_len() - prepared
            ));
        }
        let mut counts = Counts::new();
        if tracer.enabled() {
            // `build_db` returns only the database, so replay its 192
            // runs on the now-warm store to count what they did.
            let prof_sc = Scenario { n_images: 2, ..self.sc.clone() };
            for rec in db.records() {
                let out = run_static(
                    &prof_sc,
                    &store,
                    VizConfig::from_configuration(&rec.config),
                    limits_for(&rec.resources),
                    None,
                );
                add_outcome_counts(&mut counts, &out);
            }
            counts.insert("simnet.sims", db.len() as f64);
            counts.insert("visapp.store.prepares_cold", store.cache_len() as f64);
        }
        let rep = Rep {
            ops: db.len() as u64,
            failed,
            digest: profile_digest(&db),
            call_ms,
            sim: Vec::new(),
            counts,
            violations,
        };
        self.last = Some((store, Arc::new(db), cold_build_s));
        rep
    }

    fn warmup_digest(&self) -> Option<u64> {
        None
    }

    fn probe_ctx(&self) -> ProbeCtx {
        let (store, db, cold_build_s) = self.last.clone().expect("probes run after a repetition");
        ProbeCtx {
            seed: self.seed,
            sc: self.sc.clone(),
            store,
            db,
            prefs: collapse_prefs(self.sc.levels),
            cpu_grid: PROFILE_CPU_GRID.to_vec(),
            bw_grid: PROFILE_BW_GRID.to_vec(),
            actors: 2,
            // A repetition after `generate` is the cold 1-thread build.
            known: Counts::from([
                ("profiler.cold_1t_s", cold_build_s),
                ("visapp.store.prepare_cold_ms", self.prepare_cold_ms),
            ]),
        }
    }
}

/// The sandbox limits a profiled resource point stands for (what
/// `profile_point` enforces).
fn limits_for(resources: &ResourceVector) -> Limits {
    let mut limits = Limits::unconstrained();
    if let Some(share) = resources.get(&client_cpu_key()) {
        limits.cpu_share = Some(share.clamp(0.01, 1.0));
    }
    if let Some(bps) = resources.get(&client_net_key()) {
        limits = limits.with_net(bps.max(1.0));
    }
    limits
}

// ---------------------------------------------------------------- probes

/// What the probes run against: the workload's own geometry, store,
/// database and preferences. A layer the workload bypasses is still
/// probed at these sizes; its count in the traced repetition is then 0
/// and so is its share.
pub struct ProbeCtx {
    pub seed: u64,
    pub sc: Scenario,
    pub store: Arc<ImageStore>,
    pub db: Arc<PerfDb>,
    pub prefs: PreferenceList,
    pub cpu_grid: Vec<f64>,
    pub bw_grid: Vec<f64>,
    /// Actors alive in the workload's simulation.
    pub actors: usize,
    /// Values the traced repetition already measured, so a probe need
    /// not run the same 4-5 s call again.
    pub known: Counts,
}

pub type Probe = fn(&ProbeCtx) -> Counts;

/// One probe batch per layer, in the order the trace lists them.
pub const PROBES: [(&str, Probe); 10] = [
    ("probe.simnet", probe_simnet),
    ("probe.sandbox", probe_sandbox),
    ("probe.core", probe_core),
    ("probe.core.profiler", probe_profiler),
    ("probe.visapp.store", probe_store_path),
    ("probe.visapp.load", probe_load_scale),
    ("probe.wavelet", probe_wavelet),
    ("probe.transport", probe_transport),
    ("probe.obs", probe_obs),
    ("probe.arbiter", probe_arbiter),
];

/// Fires one timer per period for `rounds` periods.
struct TimerActor {
    rounds_left: u64,
}

impl Actor for TimerActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(1_000, 0);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        self.rounds_left -= 1;
        if self.rounds_left > 0 {
            ctx.set_timer(1_000, 0);
        }
    }
}

struct IdleActor;

impl Actor for IdleActor {}

fn probe_simnet(ctx: &ProbeCtx) -> Counts {
    // Timer-only storm at the workload's actor count: what the kernel
    // queue costs per event when actors do nothing.
    let rounds = (300_000 / ctx.actors as u64).max(2);
    let mut drain_ns = f64::INFINITY;
    for _ in 0..3 {
        let mut sim = Sim::new();
        sim.set_drain_mode(DrainMode::Batched);
        let host = sim.add_host("storm", 1.0, 1 << 30);
        for _ in 0..ctx.actors {
            sim.spawn(host, Box::new(TimerActor { rounds_left: rounds }));
        }
        let started = Instant::now();
        sim.run_until_idle();
        let ns = started.elapsed().as_secs_f64() * 1e9;
        drain_ns = drain_ns.min(ns / sim.events_handled() as f64);
    }
    let setup_ns = per_call_ns(|| {
        let mut sim = Sim::new();
        sim.set_drain_mode(DrainMode::Batched);
        let a = sim.add_host("client", 1.0, 1 << 30);
        let b = sim.add_host("server", 1.0, 1 << 30);
        sim.set_link(a, b, 12_500_000.0, 100);
        sim.spawn(a, Box::new(IdleActor));
        sim.spawn(b, Box::new(IdleActor));
        sim.run_until_idle();
        black_box(sim.events_handled());
    });
    Counts::from([("simnet.drain_ns_per_event", drain_ns), ("simnet.sim_setup_us", setup_ns / 1e3)])
}

fn probe_sandbox(ctx: &ProbeCtx) -> Counts {
    let stats = SandboxStats::new(ctx.sc.monitor_window_us);
    let mut t = 10_000u64;
    let push_ns = per_call_ns(|| {
        t += 10_000;
        stats.push_cpu(CpuSample {
            start: SimTime::from_us(t - 10_000),
            end: SimTime::from_us(t),
            cpu_us: 8_000.0,
        });
        stats.push_net(NetSample {
            queued: SimTime::from_us(t - 5_000),
            processed: SimTime::from_us(t),
            bytes: 4_096,
            inbound: true,
        });
    });
    let estimate_ns = per_call_ns(|| {
        black_box(stats.cpu_share());
        black_box(stats.bandwidth_bps(true));
    });
    let mut bucket = TokenBucket::with_default_burst(HIGH_BPS);
    let mut now = 0u64;
    let acquire_ns = per_call_ns(|| {
        now += 1_000;
        black_box(bucket.acquire(SimTime::from_us(now), 1_024));
    });
    Counts::from([
        ("sandbox.stats_push_ns", push_ns),
        ("sandbox.stats_estimate_ns", estimate_ns),
        ("sandbox.bucket_acquire_ns", acquire_ns),
    ])
}

fn resource_vector(cpu: f64, net: f64) -> ResourceVector {
    ResourceVector::new(&[(client_cpu_key(), cpu), (client_net_key(), net)])
}

fn probe_core(ctx: &ProbeCtx) -> Counts {
    let (cpu, net) = (client_cpu_key(), client_net_key());
    let (bw_lo, bw_hi) = (ctx.bw_grid[0], ctx.bw_grid[ctx.bw_grid.len() - 1]);
    let spec = viz_spec(&ctx.sc);
    let scheduler =
        || ResourceScheduler::new_shared(ctx.db.clone(), ctx.prefs.clone(), PROFILE_INPUT);
    let mut out = Counts::new();

    // Monitoring agent: one observation; one in-region check.
    let mut monitor =
        MonitoringAgent::new(vec![cpu.clone(), net.clone()], ctx.sc.monitor_window_us);
    let mut t = 0u64;
    out.insert(
        "core.monitor.observe_ns",
        per_call_ns(|| {
            t += 10_000;
            monitor.observe(SimTime::from_us(t), &net, bw_hi);
        }),
    );
    monitor.observe(SimTime::from_us(t), &cpu, 1.0);
    let at = SimTime::from_us(t);
    out.insert("core.monitor.check_ns", per_call_ns(|| drop(black_box(monitor.check(at)))));

    // Runtime, in-region: what every 10 ms monitor period costs.
    let start = resource_vector(1.0, bw_hi);
    let mut runtime =
        AdaptiveRuntime::try_configure(spec.clone(), scheduler(), ctx.sc.monitor_window_us, &start)
            .expect("initial configuration");
    let mut t = 0u64;
    out.insert(
        "core.runtime.tick_ns",
        per_call_ns(|| {
            t += 10_000;
            let now = SimTime::from_us(t);
            runtime.observe(now, &cpu, 1.0);
            runtime.observe(now, &net, bw_hi);
            black_box(runtime.tick(now));
        }),
    );

    // Runtime, leaving the validity region: bandwidth flips between the
    // grid's extremes with a window short enough to forget the last flip,
    // so the tick triggers, chooses and queues a switch. Where one
    // configuration is best everywhere (the analytic `model_db`) the
    // region is unbounded and nothing can leave it; the same trigger,
    // choose, queue path is then reached through stale observations.
    let drive = |stale: bool| {
        let mut runtime = AdaptiveRuntime::try_configure(spec.clone(), scheduler(), 10_000, &start)
            .expect("initial configuration");
        runtime.monitor.min_trigger_gap_us = 0;
        let (mut t, mut triggers, mut trigger_s) = (0u64, 0u64, 0.0f64);
        for i in 0..2_000 {
            t += 20_000;
            let now = SimTime::from_us(t);
            let seen = if stale { SimTime::from_us(t - 15_000) } else { now };
            runtime.observe(seen, &cpu, 1.0);
            runtime.observe(seen, &net, if i % 2 == 0 { bw_lo } else { bw_hi });
            let started = Instant::now();
            let fired = runtime.tick(now).is_some();
            let took = started.elapsed().as_secs_f64();
            if fired {
                triggers += 1;
                trigger_s += took;
            }
            runtime.at_boundary(now);
        }
        (triggers, trigger_s)
    };
    let (triggers, trigger_s) = match drive(false) {
        (0, _) => drive(true),
        fired => fired,
    };
    assert!(triggers > 0, "neither a bandwidth flip nor a stale monitor triggered the runtime");
    out.insert("core.runtime.tick_trigger_us", trigger_s * 1e6 / triggers as f64);

    // Performance database: read side, then write side (add every
    // record, then the first predict, which rebuilds the index).
    let records = ctx.db.records();
    let config = records[0].config.clone();
    let off_grid = resource_vector(0.6, (bw_lo * bw_hi).sqrt());
    out.insert(
        "core.perfdb.predict_ns",
        per_call_ns(|| {
            black_box(ctx.db.predict(&config, PROFILE_INPUT, &off_grid, PredictMode::Interpolate));
        }),
    );
    let mut build_s = f64::INFINITY;
    for _ in 0..5 {
        let recs = records.to_vec();
        let started = Instant::now();
        let mut db = PerfDb::new();
        for rec in recs {
            db.add(rec);
        }
        black_box(db.predict(&config, PROFILE_INPUT, &off_grid, PredictMode::Interpolate));
        build_s = build_s.min(started.elapsed().as_secs_f64());
    }
    out.insert("core.perfdb.build_us", build_s * 1e6);
    out.insert("core.perfdb.records", records.len() as f64);
    out.insert("core.perfdb.approx_bytes", ctx.db.approx_bytes() as f64);

    // Scheduler: distinct resource vectors, then the same one again.
    let sched = scheduler();
    let mut rng = SplitMix64::new(ctx.seed ^ 0x00C4_005E);
    let vectors: Vec<ResourceVector> = (0..64)
        .map(|_| {
            resource_vector(0.25 + 0.75 * rng.next_f64(), bw_lo + (bw_hi - bw_lo) * rng.next_f64())
        })
        .collect();
    let mut i = 0;
    out.insert(
        "core.scheduler.choose_us",
        per_call_ns(|| {
            i += 1;
            black_box(sched.choose(&vectors[i % vectors.len()]));
        }) / 1e3,
    );
    out.insert(
        "core.scheduler.choose_memo_ns",
        per_call_ns(|| drop(black_box(sched.choose(&off_grid)))),
    );
    let decision = sched.choose(&off_grid).expect("a configuration satisfies the preferences");
    let pref = &ctx.prefs.prefs[decision.preference_rank];
    out.insert(
        "core.scheduler.validity_region_us",
        per_call_ns(|| drop(black_box(sched.validity_region(&decision.config, pref, &off_grid))))
            / 1e3,
    );

    // Steering: request a switch and apply it at the boundary.
    let configs: Vec<Configuration> = spec.configurations();
    let mut agent = SteeringAgent::new(configs[0].clone());
    let (mut t, mut which) = (0u64, 0usize);
    out.insert(
        "core.steering.boundary_ns",
        per_call_ns(|| {
            t += 1;
            which = 1 - which;
            agent.request(ReconfigureRequest {
                config: configs[which].clone(),
                validity: ValidityRegion::unbounded(),
            });
            black_box(agent.at_boundary(SimTime::from_us(t), &spec));
        }),
    );
    out
}

fn probe_profiler(ctx: &ProbeCtx) -> Counts {
    // Profiling touches two images whatever the store holds.
    let sc = Scenario { n_images: 2, ..ctx.sc.clone() };
    let cold_build = |threads: usize| {
        let store = sc.build_store();
        let (secs, _) = timed(|| build_db(&sc, &store, &ctx.cpu_grid, &ctx.bw_grid, threads));
        (secs, store)
    };
    // A repetition of `profile_build` after its `generate` step is the
    // cold 1-thread build, and leaves its store warm.
    let (cold_1t, store) = match ctx.known.get("profiler.cold_1t_s") {
        Some(&secs) => (secs, ctx.store.clone()),
        None => cold_build(1),
    };
    let (cold_2t, _) = cold_build(2);
    let (warm_s, _) = best_of(3, || build_db(&sc, &store, &ctx.cpu_grid, &ctx.bw_grid, 1));

    // The harness's own runner: one `profile_point` per call, timed.
    let mut point_ms = Vec::new();
    for config in viz_spec(&sc).configurations() {
        for &cpu in &ctx.cpu_grid {
            for &bw in &ctx.bw_grid {
                let resources = resource_vector(cpu, bw);
                let started = Instant::now();
                black_box(profile_point(&sc, &store, &config, &resources));
                point_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    let point_ms = sorted(&point_ms);
    Counts::from([
        ("core.profiler.points", point_ms.len() as f64),
        ("core.profiler.point_ms_p50", quantile(&point_ms, 0.5)),
        ("core.profiler.point_ms_p90", quantile(&point_ms, 0.9)),
        ("core.profiler.warm_build_ms", warm_s * 1e3),
        ("core.profiler.speedup_2t", cold_1t / cold_2t),
    ])
}

/// The `(region, level, exclude)` of every request a client can make for
/// one image: rings of width `dR` out to the cover radius, at the two
/// finest levels (what `visapp::Server` derives from a `Request`).
fn request_geometries(sc: &Scenario) -> Vec<(Rect, usize, Rect)> {
    let (size, center, cover) = (sc.img_size, sc.img_size / 2, sc.img_size / 2);
    let (level_lo, level_hi) = sc.level_values();
    let mut out = Vec::new();
    for dr in sc.dr_values() {
        let dr = dr as usize;
        let (mut prev_r, mut r) = (0usize, dr.min(cover));
        loop {
            let region = Rect::fovea(center, center, r, size, size);
            let exclude = if prev_r > 0 {
                Rect::fovea(center, center, prev_r, size, size)
            } else {
                Rect::empty()
            };
            for level in level_lo..=level_hi {
                out.push((region, level as usize, exclude));
            }
            if r >= cover {
                break;
            }
            prev_r = r;
            r = (r + dr).min(cover);
        }
    }
    out
}

const METHODS: [Method; 2] = [Method::Lzw, Method::Bzip];

/// The server's reply path, layer by layer, on the payloads one image of
/// the workload's geometry produces: `ImageStore::prepare` cold and warm,
/// then the same work by hand — wavelet extraction and encoding, then
/// each compression method on the real raw chunk bytes.
fn probe_store_path(ctx: &ProbeCtx) -> Counts {
    let sc = &ctx.sc;
    let (generate_s, _) =
        best_of(3, || ImageStore::generate(sc.n_images, sc.img_size, sc.levels, sc.seed));
    let geometries = request_geometries(sc);
    let payloads = (geometries.len() * METHODS.len()) as f64;

    // `profile_build` times its own cold `prepare` calls and leaves its
    // store warm; elsewhere prepare one fresh image's payloads here.
    let (store, cold_ms) = match ctx.known.get("visapp.store.prepare_cold_ms") {
        Some(&ms) => (ctx.store.clone(), ms),
        None => {
            let store = Arc::new(ImageStore::generate(1, sc.img_size, sc.levels, sc.seed));
            let started = Instant::now();
            for &(region, level, exclude) in &geometries {
                for method in METHODS {
                    black_box(store.prepare(0, region, level, exclude, method));
                }
            }
            (store, started.elapsed().as_secs_f64() * 1e3 / payloads)
        }
    };
    let mut i = 0;
    let warm_ns = per_call_ns(|| {
        i += 1;
        let (region, level, exclude) = geometries[i % geometries.len()];
        black_box(store.prepare(0, region, level, exclude, METHODS[i % 2]));
    });

    let pyramid = store.pyramid(0);
    let mut wavelet_s = 0.0;
    let mut raws = Vec::new();
    for &(region, level, exclude) in &geometries {
        let started = Instant::now();
        let chunks =
            pyramid.chunks_for_region(region, level, (!exclude.is_empty()).then_some(exclude));
        let raw = encode_chunks(&chunks);
        wavelet_s += started.elapsed().as_secs_f64();
        raws.push(raw);
    }
    let raw_mb = raws.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let mut out = Counts::new();
    let mut compress_s = 0.0;
    for (method, compress_name, decompress_name, ratio_name) in [
        (
            Method::Lzw,
            "compress.lzw.compress_mb_s",
            "compress.lzw.decompress_mb_s",
            "compress.lzw.ratio_x1000",
        ),
        (
            Method::Bzip,
            "compress.bzip.compress_mb_s",
            "compress.bzip.decompress_mb_s",
            "compress.bzip.ratio_x1000",
        ),
    ] {
        let started = Instant::now();
        let packed: Vec<Vec<u8>> = raws.iter().map(|raw| method.compress(raw)).collect();
        let pack_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        for bytes in &packed {
            black_box(method.decompress(bytes).expect("round trip"));
        }
        let unpack_s = started.elapsed().as_secs_f64();
        compress_s += pack_s;
        let packed_mb = packed.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
        out.insert(compress_name, raw_mb / pack_s);
        out.insert(decompress_name, raw_mb / unpack_s);
        out.insert(ratio_name, 1e3 * packed_mb / raw_mb);
    }

    // A warm static session: the request loop with every payload cached.
    let whole = VizConfig { dr: sc.img_size / 2, level: sc.levels, method: Method::Lzw };
    let session = || run_static(sc, &ctx.store, whole, Limits::unconstrained(), None);
    black_box(session());
    let (session_s, _) = best_of(3, session);

    out.insert("visapp.store.generate_ms", generate_s * 1e3);
    out.insert("visapp.store.prepare_cold_ms", cold_ms);
    out.insert("visapp.store.prepare_warm_ns", warm_ns);
    out.insert("visapp.static_session_ms", session_s * 1e3);
    // Per cold payload, for the shares: each payload extracts once and
    // compresses once.
    out.insert("visapp.store.distinct_payloads", payloads * sc.n_images as f64);
    out.insert("wavelet.ms_per_cold_payload", wavelet_s * 1e3 / geometries.len() as f64);
    out.insert("compress.ms_per_cold_payload", compress_s * 1e3 / payloads);
    out
}

fn probe_load_scale(ctx: &ProbeCtx) -> Counts {
    let db = Arc::new(model_db(&load_opts(1, ctx.seed)));
    let small = load_us_per_event(LOAD_SESSIONS_SMALL, ctx.seed, &db);
    let large = ctx
        .known
        .get("load.us_per_event_10k")
        .copied()
        .unwrap_or_else(|| load_us_per_event(LOAD_SESSIONS, ctx.seed, &db));
    Counts::from([
        ("visapp.load.us_per_event_2k", small),
        ("visapp.load.scale_cost_ratio", large / small),
    ])
}

fn probe_wavelet(ctx: &ProbeCtx) -> Counts {
    let (px, levels) = (ctx.sc.img_size, ctx.sc.levels);
    let image = photo(px, px, ctx.seed, ImageStore::NOISE_AMP);
    let build_ns = per_call_ns(|| drop(black_box(Pyramid::build(&image, levels))));
    let pyramid = Pyramid::build(&image, levels);
    let whole = Rect::new(0, 0, px, px);
    let region_ns = per_call_ns(|| drop(black_box(pyramid.chunks_for_region(whole, levels, None))));
    let chunks = pyramid.chunks_for_region(whole, levels, None);
    let raw = encode_chunks(&chunks);
    let encode_ns = per_call_ns(|| drop(black_box(encode_chunks(&chunks))));
    let decode_ns = per_call_ns(|| drop(black_box(decode_chunks(&raw).expect("round trip"))));
    let mut reassembler = Reassembler::new(px, px, levels);
    let apply_ns = per_call_ns(|| {
        for chunk in &chunks {
            reassembler.apply(chunk);
        }
    });
    let reconstruct_ns = per_call_ns(|| drop(black_box(pyramid.reconstruct(levels))));
    let mb = raw.len() as f64 / 1e6;
    Counts::from([
        ("wavelet.pyramid_build_ms", build_ns / 1e6),
        ("wavelet.chunks_for_region_us", region_ns / 1e3),
        ("wavelet.encode_chunks_mb_s", mb / (encode_ns / 1e9)),
        ("wavelet.decode_chunks_mb_s", mb / (decode_ns / 1e9)),
        ("wavelet.decoder_apply_us", apply_ns / 1e3 / chunks.len() as f64),
        ("wavelet.reconstruct_ms", reconstruct_ns / 1e6),
    ])
}

/// The simulated path never serializes, so no workload moves these; they
/// are the baseline for a later socket workload.
fn probe_transport(ctx: &ProbeCtx) -> Counts {
    let sc = &ctx.sc;
    let mut prepared: Vec<(Rect, Method, Arc<visapp::store::Prepared>)> = Vec::new();
    for (region, level, exclude) in request_geometries(sc) {
        for method in METHODS {
            prepared.push((region, method, ctx.store.prepare(0, region, level, exclude, method)));
        }
    }
    prepared.sort_by_key(|(_, _, p)| p.payload.len());
    let (region, method, median) = &prepared[prepared.len() / 2];
    let msg = reply_msg(Reply {
        image_id: 0,
        round: 1,
        compression: *method,
        payload: median.payload.clone(),
        raw_bytes: median.raw_bytes,
        ncoeffs: median.ncoeffs,
        region: *region,
    });
    let codec = VizCodec;
    let encode_ns = per_call_ns(|| drop(black_box(codec.encode(&msg).expect("encodes"))));
    let body = codec.encode(&msg).expect("encodes");
    let decode_ns = per_call_ns(|| {
        drop(black_box(codec.decode(msg.tag, msg.wire_bytes, &body).expect("decodes")))
    });
    let frame =
        Frame { to: 1, tag: msg.tag, wire_bytes: msg.wire_bytes, deadline_us: None, payload: body };
    let mut wire = Vec::new();
    let frame_encode_ns = per_call_ns(|| {
        wire.clear();
        encode_frame(&frame, &mut wire);
    });
    let frame_decode_ns =
        per_call_ns(|| drop(black_box(decode_frame(&wire).expect("valid frame"))));
    let mb = (HEADER_BYTES + frame.payload.len()) as f64 / 1e6;
    Counts::from([
        ("transport.codec.encode_ns", encode_ns),
        ("transport.codec.decode_ns", decode_ns),
        ("transport.frame.encode_mb_s", mb / (frame_encode_ns / 1e9)),
        ("transport.frame.decode_mb_s", mb / (frame_decode_ns / 1e9)),
    ])
}

fn round_event(i: u64) -> Event {
    Event::new(i, Source::App, "round").with("session", i).with("bytes", 4_096u64)
}

fn probe_obs(_ctx: &ProbeCtx) -> Counts {
    const BATCH: u64 = 10_000;
    // Same as `obs::bus::DEFAULT_RING_CAPACITY`, which is not re-exported.
    const RING: u64 = 65_536;
    let publish_batch = |obs: &Obs, from: u64| {
        let started = Instant::now();
        for i in from..from + BATCH {
            obs.publish(round_event(i));
        }
        started.elapsed().as_secs_f64() * 1e9 / BATCH as f64
    };
    let mut publish_ns = f64::INFINITY;
    for _ in 0..5 {
        publish_ns = publish_ns.min(publish_batch(&Obs::new(), 0));
    }
    let full = Obs::new();
    for i in 0..RING {
        full.publish(round_event(i));
    }
    let mut publish_full_ns = f64::INFINITY;
    for batch in 0..5 {
        publish_full_ns = publish_full_ns.min(publish_batch(&full, RING + batch * BATCH));
    }
    assert!(full.events_dropped() > 0, "the ring never wrapped");
    let counter = full.counter("probe.counter");
    let histogram = full.histogram("probe.span");
    let filter = EventFilter::any().source(Source::Monitor).kind("trigger");
    Counts::from([
        ("obs.publish_ns", publish_ns),
        ("obs.publish_full_ns", publish_full_ns),
        ("obs.counter_inc_ns", per_call_ns(|| full.inc(counter, 1))),
        ("obs.span_ns", per_call_ns(|| drop(full.span(histogram)))),
        (
            "obs.events_filtered_us",
            per_call_ns(|| drop(black_box(full.events_filtered(&filter)))) / 1e3,
        ),
    ])
}

fn probe_arbiter(ctx: &ProbeCtx) -> Counts {
    let opts = storm_opts(STORM_APPS, ctx.seed);
    let db = Arc::new(model_db(&opts.load_opts()));
    let pricer = Pricer::new(&db);
    let specs = gen_specs(&opts);
    let mut i = 0;
    let price_ns = per_call_ns(|| {
        i += 1;
        black_box(pricer.price(&specs[i % specs.len()], 1.0));
    });
    let storm = |apps: usize| {
        let opts = storm_opts(apps, ctx.seed);
        let (secs, report) = timed(|| run_storm(&opts, &db));
        (secs * 1e6 / report.events_handled as f64, storm_p99_tier0(&report))
    };
    let (small, _) = storm(STORM_APPS_SMALL);
    let (large, p99) = match ctx.known.get("arbiter.us_per_event_256") {
        Some(&v) => (v, ctx.known.get("arbiter.p99_tier0_s").copied()),
        None => storm(STORM_APPS),
    };
    Counts::from([
        ("arbiter.price_us", price_ns / 1e3),
        ("arbiter.us_per_event_64", small),
        ("arbiter.us_per_event_256", large),
        ("arbiter.scale_cost_ratio", large / small),
        // No tier-0 session finished a round: nothing to take a p99 of.
        ("arbiter.p99_tier0_s", p99.unwrap_or(0.0)),
    ])
}
