//! The multi-application storm harness: many arbitrated apps — adaptive
//! visapp sessions plus synthetic bulk workers — competing for a
//! simulated cluster on one deterministic simulation.
//!
//! Topology: every app gets its own host, linked to both the arbiter host
//! and a server host. The arbiter's [`HostVmm`] ledger is the *capacity
//! model* — apps physically run on their own hosts, and the admitted
//! envelope is enforced by each app's own sandbox via the limits the
//! wrapper applies.
//!
//! Everything derives from [`StormOpts::seed`] through [`SplitMix64`]:
//! arrivals (surge-modulated Poisson), tiers, weights, demands, rogue
//! selection, think times, and bulk sizing. Two same-seed runs — under
//! any drain mode — produce byte-identical [`StormReport::digest`]s.
//!
//! [`HostVmm`]: sandbox::HostVmm

use std::collections::BTreeMap;
use std::sync::Arc;

use adapt_core::PerfDb;
use obs::det::{Fnv64, SplitMix64};
use obs::Obs;
use sandbox::{Limits, LimitsHandle, SandboxStats};
use simnet::{DrainMode, Sim, SimTime};
use visapp::{client_opts, LoadGenOpts, QosProfile, Server, SessionClass, StatsHandle};

use crate::admission::{AdmissionDecision, Pricer};
use crate::app::{AppId, AppOutcome, AppSpec, AppState, Tier, WorkloadKind};
use crate::arbiter::{Arbiter, CapacityDip, Ledger, LedgerHandle};
use crate::workload::{AppActor, BulkCell, BulkWorker, NullSink};

/// An arrival surge: from `start_us` for `len_us` the Poisson arrival
/// rate is multiplied by `factor`.
pub type ArrivalSurge = (u64, u64, f64);

/// Options for one storm run.
#[derive(Debug, Clone)]
pub struct StormOpts {
    /// Total applications (sessions + bulk workers).
    pub apps: usize,
    /// Cluster hosts in the arbiter's capacity ledger.
    pub cluster_hosts: usize,
    pub seed: u64,
    /// Mean Poisson inter-arrival gap, us (before surge modulation).
    pub mean_gap_us: u64,
    /// Arrival-rate surges.
    pub surges: Vec<ArrivalSurge>,
    /// Host-capacity dips, forwarded to the arbiter.
    pub dips: Vec<CapacityDip>,
    /// Percent of apps that are interactive visapp sessions (rest bulk).
    pub session_pct: u32,
    /// Images per session.
    pub n_images: usize,
    /// Every k-th bulk app ignores its envelope (0 = no rogues).
    pub rogue_every: usize,
    /// Admission queue capacity; a full queue rejects instead of parking.
    pub queue_cap: usize,
    /// App-to-server link.
    pub link_bps: f64,
    pub link_latency_us: u64,
    /// Server hosts (each carries a visapp server and a bulk sink).
    pub servers: usize,
    pub drain_mode: DrainMode,
}

impl Default for StormOpts {
    fn default() -> Self {
        StormOpts {
            apps: 24,
            cluster_hosts: 4,
            seed: 7,
            mean_gap_us: 30_000,
            surges: Vec::new(),
            dips: Vec::new(),
            session_pct: 50,
            n_images: 1,
            rogue_every: 0,
            queue_cap: 256,
            link_bps: 12_500_000.0,
            link_latency_us: 100,
            servers: 2,
            drain_mode: DrainMode::default(),
        }
    }
}

impl StormOpts {
    pub fn new(apps: usize) -> Self {
        StormOpts { apps, ..StormOpts::default() }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_drain_mode(mut self, mode: DrainMode) -> Self {
        self.drain_mode = mode;
        self
    }

    pub fn with_cluster_hosts(mut self, hosts: usize) -> Self {
        self.cluster_hosts = hosts.max(1);
        self
    }

    pub fn with_surges(mut self, surges: Vec<ArrivalSurge>) -> Self {
        self.surges = surges;
        self
    }

    pub fn with_dips(mut self, dips: Vec<CapacityDip>) -> Self {
        self.dips = dips;
        self
    }

    pub fn with_session_pct(mut self, pct: u32) -> Self {
        self.session_pct = pct.min(100);
        self
    }

    pub fn with_rogue_every(mut self, k: usize) -> Self {
        self.rogue_every = k;
        self
    }

    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// The visapp load-generator geometry this storm profiles against —
    /// build the shared `PerfDb` with `model_db(&opts.load_opts())`.
    pub fn load_opts(&self) -> LoadGenOpts {
        LoadGenOpts {
            n_images: self.n_images,
            link_bps: self.link_bps,
            link_latency_us: self.link_latency_us,
            ..LoadGenOpts::default()
        }
    }
}

/// Arrival-rate multiplier at time `t`.
fn surge_factor(surges: &[ArrivalSurge], t: u64) -> f64 {
    let mut f = 1.0f64;
    for &(start, len, factor) in surges {
        if t >= start && t < start.saturating_add(len) {
            f = f.max(factor);
        }
    }
    f
}

/// Generate the storm's application mix from the seed. Pure function of
/// `opts`; exposed so the DST layer can inspect or override specs.
pub fn gen_specs(opts: &StormOpts) -> Vec<AppSpec> {
    let mut rng = SplitMix64::new(opts.seed);
    let mut t = 0u64;
    let mut bulk_seen = 0usize;
    (0..opts.apps)
        .map(|i| {
            let f = surge_factor(&opts.surges, t);
            let u = rng.next_f64();
            let gap = (-(1.0f64 - u).ln() * opts.mean_gap_us as f64 / f) as u64;
            t = t.saturating_add(gap);
            let is_session = rng.range(0, 99) < opts.session_pct as u64;
            let tier: Tier = match rng.range(0, 9) {
                0..=1 => 0,
                2..=4 => 1,
                _ => 2,
            };
            let weight = rng.range(1, 10) as u32;
            // Both branches draw once so a kind flip never shifts the
            // stream for later apps.
            let profile_draw = rng.range(0, 2);
            let profile = if is_session {
                match profile_draw {
                    0 => QosProfile::Quality,
                    1 => QosProfile::Interactive,
                    _ => QosProfile::Throughput,
                }
            } else {
                QosProfile::Throughput
            };
            let demand_cpu =
                if is_session { 0.2 + rng.next_f64() * 0.4 } else { 0.1 + rng.next_f64() * 0.4 };
            let demand_net = opts.link_bps * (0.08 + rng.next_f64() * 0.25);
            let mut rogue = false;
            if !is_session {
                bulk_seen += 1;
                rogue = opts.rogue_every > 0 && bulk_seen.is_multiple_of(opts.rogue_every);
            }
            AppSpec {
                id: i as AppId,
                kind: if is_session { WorkloadKind::Session } else { WorkloadKind::Bulk },
                tier,
                weight,
                profile,
                demand_cpu,
                demand_net,
                demand_mem: 1 << 20,
                arrival_us: t,
                rogue,
            }
        })
        .collect()
}

/// Storm-wide counter snapshot, read back from the arbiter's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormCounters {
    pub admitted: u64,
    pub rejected: u64,
    pub queued: u64,
    pub throttled: u64,
    pub demoted: u64,
    pub evicted: u64,
    pub shed: u64,
    pub recovered: u64,
    pub violations: u64,
    pub backfilled: u64,
}

/// Aggregate outcome of one storm run.
#[derive(Debug)]
pub struct StormReport {
    pub apps: Vec<AppOutcome>,
    pub end: SimTime,
    pub events_handled: u64,
    pub peak_queue_depth: usize,
    /// Time-averaged committed/capacity ratio over the policed interval.
    pub utilization: f64,
    /// Committed/capacity restricted to the busy period (admission queue
    /// non-empty): packing efficiency under saturation, free of
    /// arrival-ramp and drain-down dilution.
    pub busy_utilization: f64,
    pub counters: StormCounters,
    pub overload_opens: u32,
    pub overload_closes: u32,
    /// Every admission decision, in decision order.
    pub decisions: Vec<AdmissionDecision>,
    /// p99 session response time (seconds) per admitted tier, for tiers
    /// that completed at least one round.
    pub p99_response_s: Vec<(Tier, f64)>,
    /// The run's observability sink (`arbiter.*`, `visapp.*`).
    pub obs: Obs,
}

impl StormReport {
    /// FNV-1a over every deterministic observable: per-app outcomes,
    /// arbiter counters, end time, and kernel event count. Excludes
    /// queue-depth peaks (drain-strategy-dependent), floats, and anything
    /// wall-clock.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for a in &self.apps {
            h.write_u64(a.id as u64);
            h.write_u64(a.state.code());
            h.write_u64(a.tier_admitted as u64);
            h.write_u64(a.tier_final as u64);
            h.write_u64(a.weight as u64);
            h.write_u64(a.arrival_us);
            h.write_u64(a.strikes as u64);
            h.write_u64(a.shed_count as u64);
            h.write_u64(a.progress);
            h.write_u64(a.finish_us.map_or(u64::MAX, |t| t));
        }
        let c = &self.counters;
        for v in [
            c.admitted,
            c.rejected,
            c.queued,
            c.throttled,
            c.demoted,
            c.evicted,
            c.shed,
            c.recovered,
            c.violations,
            c.backfilled,
        ] {
            h.write_u64(v);
        }
        h.write_u64(self.end.as_us());
        h.write_u64(self.events_handled);
        h.finish()
    }

    /// Apps that ended the run in `state`.
    pub fn count(&self, state: AppState) -> usize {
        self.apps.iter().filter(|a| a.state == state).count()
    }
}

fn p99(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite response times"));
    let idx = ((v.len() - 1) as f64 * 0.99).ceil() as usize;
    v[idx]
}

fn read_counter(obs: &Obs, name: &str) -> u64 {
    obs.lookup(name).map(|id| obs.counter_value(id)).unwrap_or(0)
}

/// Run a storm with the generated app mix.
pub fn run_storm(opts: &StormOpts, db: &Arc<PerfDb>) -> StormReport {
    run_storm_with_specs(opts, gen_specs(opts), db)
}

/// Run a storm with an explicit app mix (DST and targeted tests craft
/// their own specs).
pub fn run_storm_with_specs(
    opts: &StormOpts,
    specs: Vec<AppSpec>,
    db: &Arc<PerfDb>,
) -> StormReport {
    assert!(!specs.is_empty(), "storm needs at least one app");
    let lopts = opts.load_opts();
    let sc = lopts.scenario();
    sc.validate().expect("invalid storm scenario");
    let store = sc.build_store();
    let obs = Obs::new();

    // Per-app knobs drawn from a side stream so they are stable whether
    // specs came from `gen_specs` or a DST override.
    let mut krng = SplitMix64::new(opts.seed ^ 0xB07B_5EED);
    let think: Vec<u64> = (0..specs.len()).map(|_| krng.range(10_000, 40_000)).collect();
    let units: Vec<u64> = (0..specs.len()).map(|_| krng.range(8, 24)).collect();

    let mut sim = Sim::new();
    sim.set_drain_mode(opts.drain_mode);
    sim.attach_obs(&obs);

    let arb_host = sim.add_host("arbiter", 1.0, 1 << 30);
    let server_hosts: Vec<_> = (0..opts.servers.max(1))
        .map(|j| sim.add_host(&format!("server{j}"), 1.0, 1 << 30))
        .collect();
    let server_ids: Vec<_> = server_hosts
        .iter()
        .map(|&h| sim.spawn(h, Box::new(Server::new(store.clone()).with_obs(&obs))))
        .collect();
    let sink_ids: Vec<_> = server_hosts.iter().map(|&h| sim.spawn(h, Box::new(NullSink))).collect();

    let ledger: LedgerHandle = Arc::new(std::sync::Mutex::new(Ledger::default()));
    let arb_id = sim.spawn(
        arb_host,
        Box::new(Arbiter::new(
            specs.clone(),
            Pricer::new(db),
            opts.cluster_hosts,
            opts.link_bps,
            1 << 30,
            opts.dips.clone(),
            opts.queue_cap,
            obs.clone(),
            ledger.clone(),
        )),
    );

    let mut session_handles: BTreeMap<AppId, StatsHandle> = BTreeMap::new();
    let mut bulk_cells: BTreeMap<AppId, BulkCell> = BTreeMap::new();
    let mut classes: BTreeMap<QosProfile, SessionClass> = BTreeMap::new();

    for (i, spec) in specs.iter().enumerate() {
        let hc = sim.add_host(&format!("app{}", spec.id), 1.0, 1 << 30);
        sim.set_link(hc, arb_host, 12_500_000.0, 200);
        let limits = LimitsHandle::new(Limits::unconstrained());
        let actor: Box<AppActor> = match spec.kind {
            WorkloadKind::Session => {
                let hs = server_hosts[i % server_hosts.len()];
                sim.set_link(hc, hs, opts.link_bps, opts.link_latency_us);
                let handle = StatsHandle::new();
                handle.attach_obs(&obs);
                // One initial scheduler decision per distinct profile:
                // every session of a profile starts unconstrained over
                // the same database.
                let class = classes.entry(spec.profile).or_insert_with(|| {
                    let prefs = spec.profile.preferences();
                    SessionClass::new(&sc, db.clone(), prefs, &Limits::unconstrained())
                });
                let (client, stats) = class.client(
                    lopts.period_us,
                    client_opts(&sc, &store, server_ids[i % server_ids.len()])
                        .with_think_time(Some(think[i])),
                    handle.clone(),
                    &obs,
                );
                session_handles.insert(spec.id, handle.clone());
                Box::new(AppActor::session(
                    spec.id,
                    arb_id,
                    spec.arrival_us,
                    client,
                    limits,
                    stats,
                    handle,
                ))
            }
            WorkloadKind::Bulk => {
                let cell: BulkCell = BulkCell::default();
                bulk_cells.insert(spec.id, cell.clone());
                // Rogues get a long runway so policing can catch them
                // before they finish.
                let n_units = units[i] * if spec.rogue { 10 } else { 1 };
                let worker = BulkWorker {
                    sink: sink_ids[i % sink_ids.len()],
                    units_total: n_units,
                    work_per_unit: 20_000.0,
                    bytes_per_unit: 20_000,
                    pace_us: 5_000,
                    cell,
                };
                let hs = server_hosts[i % server_hosts.len()];
                sim.set_link(hc, hs, opts.link_bps, opts.link_latency_us);
                Box::new(AppActor::bulk(
                    spec.id,
                    arb_id,
                    spec.arrival_us,
                    spec.rogue,
                    worker,
                    limits,
                    SandboxStats::new(lopts.monitor_window_us),
                ))
            }
        };
        sim.spawn(hc, actor);
    }

    sim.run_until_idle();

    let ledger = ledger.lock().unwrap_or_else(|e| e.into_inner());
    let mut apps = Vec::with_capacity(specs.len());
    let mut responses_by_tier: BTreeMap<Tier, Vec<f64>> = BTreeMap::new();
    for spec in &specs {
        let entry = ledger.apps.get(&spec.id);
        let (state, tier_admitted, tier_final, strikes, shed_count, finish_us) = match entry {
            Some(l) => {
                (l.state, l.tier_admitted, l.tier_final, l.strikes, l.shed_count, l.finish_us)
            }
            None => (AppState::Pending, spec.tier, spec.tier, 0, 0, None),
        };
        let progress = match spec.kind {
            WorkloadKind::Session => {
                let h = &session_handles[&spec.id];
                h.with(|s| {
                    for r in &s.rounds {
                        responses_by_tier.entry(tier_admitted).or_default().push(r.response_secs());
                    }
                    s.rounds.len() as u64
                })
            }
            WorkloadKind::Bulk => {
                bulk_cells[&spec.id].lock().unwrap_or_else(|e| e.into_inner()).units_done
            }
        };
        apps.push(AppOutcome {
            id: spec.id,
            kind: spec.kind,
            tier_admitted,
            tier_final,
            weight: spec.weight,
            arrival_us: spec.arrival_us,
            state,
            strikes,
            shed_count,
            progress,
            finish_us,
        });
    }

    let counters = StormCounters {
        admitted: read_counter(&obs, "arbiter.admitted"),
        rejected: read_counter(&obs, "arbiter.rejected"),
        queued: read_counter(&obs, "arbiter.queued"),
        throttled: read_counter(&obs, "arbiter.throttled"),
        demoted: read_counter(&obs, "arbiter.demoted"),
        evicted: read_counter(&obs, "arbiter.evicted"),
        shed: read_counter(&obs, "arbiter.shed"),
        recovered: read_counter(&obs, "arbiter.recovered"),
        violations: read_counter(&obs, "arbiter.violations"),
        backfilled: read_counter(&obs, "arbiter.backfilled"),
    };
    let p99_response_s = responses_by_tier
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(t, v)| (t, p99(v)))
        .collect();

    StormReport {
        apps,
        end: sim.now(),
        events_handled: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        utilization: ledger.utilization(),
        busy_utilization: ledger.busy_utilization(),
        counters,
        overload_opens: ledger.overload_opens,
        overload_closes: ledger.overload_closes,
        decisions: ledger.decisions.clone(),
        p99_response_s,
        obs,
    }
}
