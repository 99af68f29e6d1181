//! The cluster arbiter actor: admission, policing, and overload control.
//!
//! One arbiter governs a ledger of [`HostVmm`]s (one per cluster host).
//! Applications ask for admission over the simulated network; the arbiter
//! prices each request against the shared performance database
//! ([`Pricer`]), reserves capacity all-or-nothing, and polices admitted
//! apps against their envelopes using the usage reports their sandboxes
//! publish. Overload (committed share above the dip-adjusted capacity) is
//! handled by a [`CircuitBreaker`]-gated shedding/recovery state machine:
//!
//! * **Shed** lowest-priority tiers first (LIFO recovery stack), then
//!   **degrade** the survivors to scaled-down envelopes.
//! * **Recover** in reverse shed order, one app per `MIN_DWELL_US`, and
//!   only when the app fits back with `RECOVER_MARGIN` headroom —
//!   this hysteresis is what keeps the breaker from flapping.
//! * **Restore** degraded survivors to their original envelopes last.
//!
//! Policing escalates per-app strikes — throttle, demote, evict — on
//! sustained envelope violations; an eviction is always preceded by a
//! published `violation` event, which the DST oracle checks.
//!
//! An app has one record, kept exactly as long as the app is live: made at
//! its admission request, dropped when it reaches `Done`, `Rejected` or
//! `Evicted`. That one transition (`retire`) writes the app's [`AppLedger`]
//! row, so each row is written once and is final. A usage or done report
//! that arrives after the app left finds no record and is ignored.
//!
//! Everything the arbiter decides is deterministic: the live records are a
//! `BTreeMap` keyed by app id, the admission queue is a `BTreeSet` ordered
//! by `(tier, weight desc, arrival, id)`, and host placement breaks ties by
//! index.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

use obs::{Event, MetricId, Obs, Source};
use sandbox::{HostVmm, Limits, Reservation};
use simnet::{Actor, ActorId, Ctx, Message, SimTime};
use visapp::{BreakerOpts, BreakerState, CircuitBreaker};

use crate::admission::{
    required_rank, AdmissionDecision, PricedGrant, Pricer, RejectReason, FAIR_SHARE_FRACTIONS,
};
use crate::app::{AppId, AppSpec, AppState, Tier, WorkloadKind, N_TIERS};
use crate::msg::{
    ClampBody, GrantBody, ReqBody, UsageBody, CTRL_BYTES, MSG_ADMIT, MSG_DEGRADE, MSG_DEMOTE,
    MSG_DONE, MSG_EVICT, MSG_RECOVER, MSG_REJECT, MSG_RELAX, MSG_REQ, MSG_RESTORE, MSG_SHED,
    MSG_THROTTLE, MSG_USAGE,
};

/// Arbiter police-loop timer tag.
const TAG_POLICE: u64 = 911;

const EPS: f64 = 1e-9;

/// Police loop period, us.
const POLICE_PERIOD_US: u64 = 50_000;
/// Relative headroom an app may exceed its envelope by before a tick
/// counts as violating (0.25 = 25% over).
const USAGE_TOLERANCE: f64 = 0.25;
/// Consecutive violating ticks per strike escalation.
const VIOLATION_STREAK: u32 = 3;
/// How long a throttle clamp stays on before the wrapper is relaxed.
const THROTTLE_DWELL_US: u64 = 400_000;
/// Minimum spacing between recovery / restore steps, and the hold-down
/// after the overload breaker closes: what keeps the breaker from
/// flapping.
const MIN_DWELL_US: u64 = 300_000;
/// Consecutive overloaded police ticks before the breaker opens.
const OVERLOAD_STREAK: u32 = 2;
/// How long the overload breaker stays open before probing recovery.
const RECOVERY_TIMEOUT_US: u64 = 400_000;
/// Envelope scale factor applied by a tier demotion.
const DEMOTE_FRAC: f64 = 0.75;
/// Envelope scale factor applied to survivors during overload.
const DEGRADE_FRAC: f64 = 0.6;
/// CPU floor a shed session is clamped to (bulk apps pause instead).
const SHED_FLOOR_CPU: f64 = 0.05;
/// Policing grace after the arbiter changes an app's envelope. Usage
/// reports are trailing-window averages, so right after an admit,
/// demote, degrade, or recover the window still reflects the *old*
/// envelope; without the grace an honest app would collect strikes for
/// usage it already stopped. Must exceed the sandbox stats window.
const GRACE_US: u64 = 250_000;
/// A shed app is only recovered when it fits back with this much
/// multiplicative headroom.
const RECOVER_MARGIN: f64 = 1.2;
/// Bounded backfill when the queue head does not fit: the drain may scan
/// this many entries behind the head and admit any that fit into capacity
/// the head cannot use. The same number also caps how many backfill
/// admissions a given waiting head can be overtaken by, so a blocked head
/// degrades to strict head-of-line after at most this many skips (no
/// starvation). `0` disables backfill entirely.
const BACKFILL_DEPTH: usize = 16;

/// Final outcome of one app: its row in the shared [`Ledger`], written
/// once, when the app leaves.
#[derive(Debug, Clone)]
pub struct AppLedger {
    pub state: AppState,
    pub tier_admitted: Tier,
    pub tier_final: Tier,
    pub strikes: u32,
    pub shed_count: u32,
    pub finish_us: Option<u64>,
}

/// Shared view of the arbiter's bookkeeping, read by the storm harness
/// after the run. Written only from the arbiter actor: the integrals and
/// overload counts every police tick, a decision per admission verdict,
/// and an app's row when it leaves. An app that never asked has no row.
#[derive(Debug, Default)]
pub struct Ledger {
    pub apps: BTreeMap<AppId, AppLedger>,
    /// Every admission decision, in arrival order.
    pub decisions: Vec<AdmissionDecision>,
    /// Integral of committed CPU share over time (share·us).
    pub committed_integral: f64,
    /// Integral of dip-adjusted cluster capacity over time (share·us).
    pub capacity_integral: f64,
    /// Same integrals restricted to ticks where the admission queue was
    /// non-empty — the *busy period*, when unmet demand was waiting.
    pub busy_committed_integral: f64,
    pub busy_capacity_integral: f64,
    pub overload_opens: u32,
    pub overload_closes: u32,
}

impl Ledger {
    /// Time-averaged committed/capacity ratio over the policed interval.
    pub fn utilization(&self) -> f64 {
        if self.capacity_integral <= 0.0 {
            return 0.0;
        }
        self.committed_integral / self.capacity_integral
    }

    /// Time-averaged committed/capacity ratio over the busy period only
    /// (admission queue non-empty). This isolates packing/admission
    /// efficiency under saturation from arrival-ramp and drain-down
    /// dilution: while apps were waiting, how full was the cluster?
    /// Zero when the queue never backed up.
    pub fn busy_utilization(&self) -> f64 {
        if self.busy_capacity_integral <= 0.0 {
            return 0.0;
        }
        self.busy_committed_integral / self.busy_capacity_integral
    }
}

/// Shared handle to the arbiter's [`Ledger`].
pub type LedgerHandle = Arc<Mutex<Ledger>>;

/// A capacity dip: from `start_us` for `len_us`, every host's admission
/// threshold is scaled by `pct` (0 < pct <= 1).
pub type CapacityDip = (u64, u64, f64);

struct Metrics {
    admitted: MetricId,
    rejected: MetricId,
    queued: MetricId,
    throttled: MetricId,
    demoted: MetricId,
    evicted: MetricId,
    shed: MetricId,
    recovered: MetricId,
    violations: MetricId,
    backfilled: MetricId,
    running: MetricId,
    queue_depth: MetricId,
    committed_cpu: MetricId,
    capacity_cpu: MetricId,
    admission_latency_us: MetricId,
    violation_duration_us: MetricId,
}

impl Metrics {
    fn new(obs: &Obs) -> Self {
        Metrics {
            admitted: obs.counter("arbiter.admitted"),
            rejected: obs.counter("arbiter.rejected"),
            queued: obs.counter("arbiter.queued"),
            throttled: obs.counter("arbiter.throttled"),
            demoted: obs.counter("arbiter.demoted"),
            evicted: obs.counter("arbiter.evicted"),
            shed: obs.counter("arbiter.shed"),
            recovered: obs.counter("arbiter.recovered"),
            violations: obs.counter("arbiter.violations"),
            backfilled: obs.counter("arbiter.backfilled"),
            running: obs.gauge("arbiter.running"),
            queue_depth: obs.gauge("arbiter.queue_depth"),
            committed_cpu: obs.gauge("arbiter.committed_cpu"),
            capacity_cpu: obs.gauge("arbiter.capacity_cpu"),
            admission_latency_us: obs.histogram("arbiter.admission_latency_us"),
            violation_duration_us: obs.histogram("arbiter.violation_duration_us"),
        }
    }
}

/// One fair-share offer: a fraction of the declared demand that prices at
/// the app's tier, as the reservation to place and the grant it priced to.
#[derive(Debug, Clone, PartialEq)]
struct Offer {
    fraction: f64,
    res: Reservation,
    priced: PricedGrant,
}

/// `spec`'s offers, parallel to [`FAIR_SHARE_FRACTIONS`]: `None` where the
/// scaled grant does not price at the app's tier.
fn price_offers(pricer: &Pricer, spec: &AppSpec) -> [Option<Offer>; FAIR_SHARE_FRACTIONS.len()] {
    FAIR_SHARE_FRACTIONS.map(|fraction| {
        let priced = pricer.price(spec, fraction)?;
        Some(Offer { fraction, res: Arbiter::scaled(demand(spec), fraction), priced })
    })
}

/// The declared demand as the reservation a full grant would install.
fn demand(spec: &AppSpec) -> Reservation {
    Reservation { cpu_share: spec.demand_cpu, net_bps: spec.demand_net, mem_bytes: spec.demand_mem }
}

/// Record of one live app: made at its request, dropped by `retire` when
/// the app leaves.
struct Rec {
    actor: ActorId,
    /// Priced once, at request; every later placement attempt (each
    /// police tick retries the blocked head and its backfill candidates)
    /// only looks for room. A price is a pure function of the spec, which
    /// is immutable for the run, and of the pricer, whose database and
    /// preference lists nothing outside it can reach, so the answers
    /// cannot go stale. If the pricer ever takes a hot-swappable
    /// database, re-price here.
    offers: [Option<Offer>; FAIR_SHARE_FRACTIONS.len()],
    /// Always a live state: `Pending`, `Queued`, `Running` or `Shed`.
    state: AppState,
    tier_admitted: Tier,
    tier_now: Tier,
    host: usize,
    /// Current envelope (what policing compares usage against).
    grant: Reservation,
    /// Envelope before overload degradation (restore target).
    base_grant: Reservation,
    degraded: bool,
    fraction: f64,
    first_req_us: u64,
    last_usage: Option<f64>,
    /// Consecutive violating police ticks.
    streak: u32,
    strikes: u32,
    /// Start of the current violation episode (first violating tick).
    ep_start: Option<u64>,
    throttled_until: Option<u64>,
    /// Policing ignores usage until this time (trailing-window flush
    /// after an envelope change).
    grace_until: u64,
    shed_count: u32,
}

/// The cluster arbiter. Spawn it first (apps address it by `ActorId`);
/// it learns each app's address from its admission request.
pub struct Arbiter {
    specs: BTreeMap<AppId, AppSpec>,
    pricer: Pricer,
    vmms: Vec<HostVmm>,
    base_threshold: f64,
    dips: Vec<CapacityDip>,
    /// Admission queue capacity; a full queue rejects instead of parking.
    queue_cap: usize,
    obs: Obs,
    m: Metrics,
    recs: BTreeMap<AppId, Rec>,
    /// Admission queue keyed `(tier, weight desc, arrival, id)`.
    queue: BTreeSet<(Tier, u32, u64, AppId)>,
    /// Queue head currently blocked on capacity, if any; backfill skip
    /// credits are tracked per head.
    hol_head: Option<AppId>,
    /// Backfill admissions charged against the current blocked head.
    hol_skips: usize,
    /// LIFO recovery stack of shed apps.
    shed_stack: Vec<AppId>,
    breaker: CircuitBreaker,
    /// Overload sampling suppressed until this time after a close.
    hold_until: u64,
    next_recover_us: u64,
    next_restore_us: u64,
    last_tick_us: u64,
    terminal: usize,
    ledger: LedgerHandle,
}

impl Arbiter {
    #[allow(clippy::too_many_arguments)] // explicit cluster geometry; the storm harness is the one caller
    pub fn new(
        specs: Vec<AppSpec>,
        pricer: Pricer,
        cluster_hosts: usize,
        host_net_bps: f64,
        host_mem: u64,
        dips: Vec<CapacityDip>,
        queue_cap: usize,
        obs: Obs,
        ledger: LedgerHandle,
    ) -> Self {
        assert!(cluster_hosts > 0, "arbiter needs at least one cluster host");
        let vmms: Vec<HostVmm> =
            (0..cluster_hosts).map(|_| HostVmm::new(host_net_bps, host_mem)).collect();
        let base_threshold = vmms[0].cpu_threshold;
        let m = Metrics::new(&obs);
        let breaker = CircuitBreaker::new(&BreakerOpts {
            failure_threshold: OVERLOAD_STREAK,
            recovery_timeout_us: RECOVERY_TIMEOUT_US,
            degraded: None,
        });
        Arbiter {
            specs: specs.into_iter().map(|s| (s.id, s)).collect(),
            pricer,
            vmms,
            base_threshold,
            dips,
            queue_cap,
            obs,
            m,
            recs: BTreeMap::new(),
            queue: BTreeSet::new(),
            hol_head: None,
            hol_skips: 0,
            shed_stack: Vec::new(),
            breaker,
            hold_until: 0,
            next_recover_us: 0,
            next_restore_us: 0,
            last_tick_us: 0,
            terminal: 0,
            ledger,
        }
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spec(&self, id: AppId) -> &AppSpec {
        &self.specs[&id]
    }

    fn queue_key(&self, id: AppId) -> (Tier, u32, u64, AppId) {
        let s = self.spec(id);
        (s.tier, u32::MAX - s.weight, s.arrival_us, id)
    }

    fn res_name(id: AppId) -> String {
        format!("app{id}")
    }

    /// Dip-adjusted per-host threshold at `t`.
    fn threshold_at(&self, t_us: u64) -> f64 {
        let mut th = self.base_threshold;
        for &(start, len, pct) in &self.dips {
            if t_us >= start && t_us < start + len {
                th = th.min(self.base_threshold * pct);
            }
        }
        th
    }

    fn capacity(&self) -> f64 {
        self.vmms.iter().map(|v| v.cpu_threshold).sum()
    }

    fn committed(&self) -> f64 {
        self.recs.values().filter(|r| r.state == AppState::Running).map(|r| r.grant.cpu_share).sum()
    }

    fn running_count(&self) -> usize {
        self.recs.values().filter(|r| r.state == AppState::Running).count()
    }

    fn event(&self, now: SimTime, kind: &'static str) -> Event {
        Event::new(now.as_us(), Source::Arbiter, kind)
    }

    fn limits_of(grant: Reservation) -> Limits {
        let mut l = Limits::unconstrained();
        if grant.cpu_share > 0.0 {
            l = l.with_cpu(grant.cpu_share.min(1.0));
        }
        if grant.net_bps > 0.0 {
            l = l.with_net(grant.net_bps);
        }
        if grant.mem_bytes > 0 {
            l = l.with_mem(grant.mem_bytes);
        }
        l
    }

    fn scaled(grant: Reservation, f: f64) -> Reservation {
        Reservation {
            cpu_share: grant.cpu_share * f,
            net_bps: grant.net_bps * f,
            mem_bytes: (grant.mem_bytes as f64 * f) as u64,
        }
    }

    /// Hosts ordered for placement: most residual CPU first, index breaks
    /// ties.
    fn host_order(vmms: &[HostVmm]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..vmms.len()).collect();
        order.sort_by(|&a, &b| {
            vmms[b]
                .cpu_available()
                .partial_cmp(&vmms[a].cpu_available())
                .expect("cpu_available is finite")
                .then(a.cmp(&b))
        });
        order
    }

    /// Over the ledger alone, so a caller can hold an app's record while
    /// placing it.
    fn place(vmms: &mut [HostVmm], name: &str, res: Reservation) -> Option<usize> {
        Self::host_order(vmms).into_iter().find(|&h| vmms[h].admit(name, res).is_ok())
    }

    /// Try each of the app's offers, best fraction first, against every
    /// host. Returns the host and the offer whose reservation is now
    /// installed.
    fn try_place(&mut self, id: AppId) -> Option<(usize, Offer)> {
        let name = Self::res_name(id);
        self.recs[&id].offers.iter().flatten().find_map(|offer| {
            Self::place(&mut self.vmms, &name, offer.res).map(|h| (h, offer.clone()))
        })
    }

    fn overload_active(&self) -> bool {
        self.breaker.state() != BreakerState::Closed || !self.shed_stack.is_empty()
    }

    /// `id` has left in `state` (`Done`, `Rejected` or `Evicted`): write
    /// its one ledger row, drop its record and count it terminal. Returns
    /// the record for the caller's last messages.
    fn retire(&mut self, id: AppId, state: AppState, finish_us: Option<u64>) -> Rec {
        let rec = self.recs.remove(&id).expect("retiring an app with no record");
        let row = AppLedger {
            state,
            tier_admitted: rec.tier_admitted,
            tier_final: rec.tier_now,
            strikes: rec.strikes,
            shed_count: rec.shed_count,
            finish_us,
        };
        self.ledger().apps.insert(id, row);
        self.terminal += 1;
        rec
    }

    // ---- admission ----------------------------------------------------

    fn admit_app(
        &mut self,
        id: AppId,
        host: usize,
        offer: Offer,
        now: SimTime,
        ctx: &mut Ctx<'_>,
    ) -> AdmissionDecision {
        let Offer { fraction, res, priced } = offer;
        let rec = self.recs.get_mut(&id).expect("admitting an app that never requested");
        let latency_us = now.as_us().saturating_sub(rec.first_req_us);
        rec.state = AppState::Running;
        rec.host = host;
        rec.grant = res;
        rec.base_grant = res;
        rec.fraction = fraction;
        rec.grace_until = now.as_us() + GRACE_US;
        let actor = rec.actor;
        ctx.send_now(
            actor,
            Message::new(MSG_ADMIT, CTRL_BYTES, GrantBody { limits: Self::limits_of(res) }),
        );
        let spec = self.spec(id);
        self.obs.publish(
            self.event(now, "admit")
                .with("app", id)
                .with("kind", spec.kind.name())
                .with("tier", spec.tier as u64)
                .with("host", host)
                .with("cpu", res.cpu_share)
                .with("fraction", fraction)
                .with("config", priced.config_key.clone())
                .with("rank", priced.rank)
                .with("latency_us", latency_us),
        );
        self.obs.inc(self.m.admitted, 1);
        self.obs.observe(self.m.admission_latency_us, latency_us as f64);
        AdmissionDecision::Admitted {
            app: id,
            host,
            grant: res,
            fraction,
            config_key: priced.config_key,
            rank: priced.rank,
            latency_us,
        }
    }

    fn reject_app(
        &mut self,
        id: AppId,
        reason: RejectReason,
        now: SimTime,
        ctx: &mut Ctx<'_>,
    ) -> AdmissionDecision {
        let actor = self.retire(id, AppState::Rejected, None).actor;
        ctx.send_now(actor, Message::signal(MSG_REJECT, CTRL_BYTES));
        self.obs.publish(self.event(now, "reject").with("app", id).with("reason", reason.name()));
        self.obs.inc(self.m.rejected, 1);
        AdmissionDecision::Rejected { app: id, reason }
    }

    /// Whether `spec` could ever be placed on an idle host at full (undipped)
    /// capacity, at the smallest fair-share fraction.
    fn ever_fits(&self, spec: &AppSpec) -> bool {
        let frac = *FAIR_SHARE_FRACTIONS.last().expect("fractions non-empty");
        spec.demand_cpu * frac <= self.base_threshold + EPS
            && spec.demand_net * frac <= self.vmms[0].net_capacity_bps + EPS
            && ((spec.demand_mem as f64 * frac) as u64) <= self.vmms[0].mem_capacity
    }

    fn handle_request(&mut self, id: AppId, from: ActorId, now: SimTime, ctx: &mut Ctx<'_>) {
        let spec = self.spec(id).clone();
        self.recs.insert(
            id,
            Rec {
                actor: from,
                offers: price_offers(&self.pricer, &spec),
                state: AppState::Pending,
                tier_admitted: spec.tier,
                tier_now: spec.tier,
                host: usize::MAX,
                grant: Reservation::default(),
                base_grant: Reservation::default(),
                degraded: false,
                fraction: 0.0,
                first_req_us: now.as_us(),
                last_usage: None,
                streak: 0,
                strikes: 0,
                ep_start: None,
                throttled_until: None,
                grace_until: 0,
                shed_count: 0,
            },
        );
        // The first fraction is the full demand.
        let decision = if self.recs[&id].offers[0].is_none() {
            self.reject_app(
                id,
                RejectReason::QosUnsatisfiable { rank_required: required_rank(spec.tier) },
                now,
                ctx,
            )
        } else if !self.ever_fits(&spec) {
            self.reject_app(
                id,
                RejectReason::DemandExceedsCluster {
                    demand_cpu: spec.demand_cpu,
                    host_capacity: self.base_threshold,
                },
                now,
                ctx,
            )
        } else if !self.overload_active() {
            match self.try_place(id) {
                Some((h, offer)) => self.admit_app(id, h, offer, now, ctx),
                None => self.enqueue(id, now, ctx),
            }
        } else {
            // Never admit into an overload episode.
            self.enqueue(id, now, ctx)
        };
        self.ledger().decisions.push(decision);
    }

    fn enqueue(&mut self, id: AppId, now: SimTime, ctx: &mut Ctx<'_>) -> AdmissionDecision {
        if self.queue.len() >= self.queue_cap {
            return self.reject_app(id, RejectReason::QueueFull { cap: self.queue_cap }, now, ctx);
        }
        let key = self.queue_key(id);
        self.queue.insert(key);
        let position = self.queue.iter().position(|k| *k == key).expect("just inserted");
        self.recs.get_mut(&id).expect("rec exists").state = AppState::Queued;
        self.obs.publish(self.event(now, "queue").with("app", id).with("position", position));
        self.obs.inc(self.m.queued, 1);
        AdmissionDecision::Queued { app: id, position }
    }

    /// Priority-ordered queue drain with bounded backfill; runs only
    /// outside overload episodes. The head is always offered capacity
    /// first; when it does not fit, up to `BACKFILL_DEPTH` entries
    /// behind it are scanned in queue order and admitted into
    /// residual capacity the head cannot use anyway (a blocked 0.6-cpu
    /// head must not strand a 0.3-cpu hole). Each backfill admission
    /// spends one of the waiting head's skip credits, so a given head is
    /// overtaken at most `BACKFILL_DEPTH` times before the drain reverts
    /// to strict head-of-line. A head that can never fit is rejected once
    /// the cluster is idle at full capacity (so nothing it could wait for
    /// remains).
    fn drain_queue(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        if self.overload_active() {
            return;
        }
        while let Some(&key) = self.queue.iter().next() {
            let id = key.3;
            if let Some((h, offer)) = self.try_place(id) {
                self.queue.remove(&key);
                self.hol_head = None;
                self.hol_skips = 0;
                let d = self.admit_app(id, h, offer, now, ctx);
                self.ledger().decisions.push(d);
                continue;
            }
            let idle = self.vmms.iter().all(|v| v.reservation_count() == 0);
            let undipped = (self.threshold_at(now.as_us()) - self.base_threshold).abs() < EPS;
            if idle && undipped {
                self.queue.remove(&key);
                self.hol_head = None;
                self.hol_skips = 0;
                let d = self.reject_app(
                    id,
                    RejectReason::DemandExceedsCluster {
                        demand_cpu: self.spec(id).demand_cpu,
                        host_capacity: self.base_threshold,
                    },
                    now,
                    ctx,
                );
                self.ledger().decisions.push(d);
                continue;
            }
            // Head is blocked on capacity: bounded backfill behind it.
            if self.hol_head != Some(id) {
                self.hol_head = Some(id);
                self.hol_skips = 0;
            }
            if self.hol_skips < BACKFILL_DEPTH {
                let behind: Vec<_> =
                    self.queue.iter().skip(1).take(BACKFILL_DEPTH).copied().collect();
                for k in behind {
                    if self.hol_skips >= BACKFILL_DEPTH {
                        break;
                    }
                    if let Some((h, offer)) = self.try_place(k.3) {
                        self.queue.remove(&k);
                        self.hol_skips += 1;
                        self.obs.inc(self.m.backfilled, 1);
                        let d = self.admit_app(k.3, h, offer, now, ctx);
                        self.ledger().decisions.push(d);
                    }
                }
            }
            break;
        }
    }

    // ---- policing ------------------------------------------------------

    /// One strike escalation for `id`. Strike 1 throttles, 2 demotes,
    /// 3 evicts. A `violation` event always precedes the action.
    fn escalate(&mut self, id: AppId, now: SimTime, ctx: &mut Ctx<'_>) {
        let rec = self.recs.get_mut(&id).expect("escalating unknown app");
        rec.strikes += 1;
        let strikes = rec.strikes;
        let usage = rec.last_usage.unwrap_or(0.0);
        let envelope = rec.grant.cpu_share;
        self.obs.publish(
            self.event(now, "violation")
                .with("app", id)
                .with("strike", strikes)
                .with("usage", usage)
                .with("envelope", envelope),
        );
        self.obs.inc(self.m.violations, 1);
        match strikes {
            1 => {
                let rec = self.recs.get_mut(&id).expect("rec exists");
                rec.throttled_until = Some(now.as_us() + THROTTLE_DWELL_US);
                rec.grace_until = now.as_us() + GRACE_US;
                let clamp = Self::limits_of(rec.grant);
                let actor = rec.actor;
                ctx.send_now(
                    actor,
                    Message::new(
                        MSG_THROTTLE,
                        CTRL_BYTES,
                        ClampBody { limits: clamp, pause: false },
                    ),
                );
                self.obs.publish(self.event(now, "throttle").with("app", id));
                self.obs.inc(self.m.throttled, 1);
            }
            2 => {
                let rec = self.recs.get_mut(&id).expect("rec exists");
                rec.grace_until = now.as_us() + GRACE_US;
                rec.tier_now = (rec.tier_now + 1).min(N_TIERS - 1);
                let new = Self::scaled(rec.grant, DEMOTE_FRAC);
                let (host, tier) = (rec.host, rec.tier_now);
                rec.grant = new;
                rec.base_grant = Self::scaled(rec.base_grant, DEMOTE_FRAC);
                let actor = rec.actor;
                self.vmms[host].resize(&Self::res_name(id), new);
                ctx.send_now(
                    actor,
                    Message::new(
                        MSG_DEMOTE,
                        CTRL_BYTES,
                        GrantBody { limits: Self::limits_of(new) },
                    ),
                );
                self.obs
                    .publish(self.event(now, "demote").with("app", id).with("tier", tier as u64));
                self.obs.inc(self.m.demoted, 1);
            }
            _ => {
                let rec = self.retire(id, AppState::Evicted, None);
                if let Some(start) = rec.ep_start {
                    self.obs.observe(
                        self.m.violation_duration_us,
                        now.as_us().saturating_sub(start) as f64,
                    );
                }
                self.vmms[rec.host].release(&Self::res_name(id));
                ctx.send_now(rec.actor, Message::signal(MSG_EVICT, CTRL_BYTES));
                self.obs.publish(self.event(now, "evict").with("app", id));
                self.obs.inc(self.m.evicted, 1);
            }
        }
    }

    fn police_apps(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let t = now.as_us();
        let ids: Vec<AppId> = self.recs.keys().copied().collect();
        for id in ids {
            let (over, expire) = {
                let rec = match self.recs.get(&id) {
                    Some(r) if r.state == AppState::Running => r,
                    _ => continue,
                };
                let expire = matches!(rec.throttled_until, Some(u) if t >= u);
                let over = t >= rec.grace_until
                    && match rec.last_usage {
                        Some(u) => u > rec.grant.cpu_share * (1.0 + USAGE_TOLERANCE) + 0.005,
                        None => false,
                    };
                (over, expire)
            };
            if expire {
                let actor = {
                    let rec = self.recs.get_mut(&id).expect("rec exists");
                    rec.throttled_until = None;
                    rec.actor
                };
                ctx.send_now(actor, Message::signal(MSG_RELAX, CTRL_BYTES));
                self.obs.publish(self.event(now, "relax").with("app", id));
            }
            if over {
                let escalates = {
                    let rec = self.recs.get_mut(&id).expect("rec exists");
                    rec.streak += 1;
                    if rec.ep_start.is_none() {
                        rec.ep_start = Some(t);
                    }
                    rec.streak.is_multiple_of(VIOLATION_STREAK)
                };
                if escalates {
                    self.escalate(id, now, ctx);
                }
            } else {
                let cleared = {
                    let rec = self.recs.get_mut(&id).expect("rec exists");
                    if rec.streak > 0 {
                        rec.streak = 0;
                        rec.ep_start.take()
                    } else {
                        None
                    }
                };
                if let Some(start) = cleared {
                    let dur = t.saturating_sub(start);
                    self.obs.observe(self.m.violation_duration_us, dur as f64);
                    self.obs.publish(
                        self.event(now, "violation_clear").with("app", id).with("duration_us", dur),
                    );
                }
            }
        }
    }

    // ---- overload ------------------------------------------------------

    /// Pick and shed victims until committed fits capacity. The victim is
    /// always from the lowest-priority occupied tier; within a tier, the
    /// lightest weight, latest arrival, highest id goes first.
    fn shed_until_fits(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        loop {
            let capacity = self.capacity();
            if self.committed() <= capacity + EPS {
                return;
            }
            let victim = self
                .recs
                .iter()
                .filter(|(_, r)| r.state == AppState::Running)
                .max_by_key(|(id, r)| {
                    let w = self.specs[id].weight;
                    let arr = self.specs[id].arrival_us;
                    (r.tier_now, Reverse(w), arr, **id)
                })
                .map(|(id, _)| *id);
            let Some(id) = victim else { return };
            let kind = self.spec(id).kind;
            let (tier, actor, grant, host) = {
                let rec = self.recs.get_mut(&id).expect("victim exists");
                rec.state = AppState::Shed;
                rec.shed_count += 1;
                (rec.tier_now, rec.actor, rec.grant, rec.host)
            };
            let pause = kind == WorkloadKind::Bulk;
            let clamp = if pause {
                Limits::unconstrained()
            } else {
                Limits::unconstrained()
                    .with_cpu(SHED_FLOOR_CPU)
                    .with_net((grant.net_bps * 0.1).max(1_000.0))
            };
            self.vmms[host].release(&Self::res_name(id));
            ctx.send_now(
                actor,
                Message::new(MSG_SHED, CTRL_BYTES, ClampBody { limits: clamp, pause }),
            );
            self.shed_stack.push(id);
            self.obs.publish(
                self.event(now, "shed")
                    .with("app", id)
                    .with("tier", tier as u64)
                    .with("kind", kind.name()),
            );
            self.obs.inc(self.m.shed, 1);
        }
    }

    /// Scale every running survivor's envelope down once per overload
    /// episode, re-pricing its configuration at the degraded grant.
    fn degrade_survivors(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let ids: Vec<AppId> = self
            .recs
            .iter()
            .filter(|(_, r)| r.state == AppState::Running && !r.degraded)
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            let spec = self.spec(id).clone();
            let rec = self.recs.get_mut(&id).expect("survivor exists");
            let new = Self::scaled(rec.grant, DEGRADE_FRAC);
            rec.degraded = true;
            rec.grace_until = now.as_us() + GRACE_US;
            let total_frac = rec.fraction * DEGRADE_FRAC;
            rec.grant = new;
            let (host, actor) = (rec.host, rec.actor);
            self.vmms[host].resize(&Self::res_name(id), new);
            let config =
                self.pricer.price_any(&spec, total_frac).map(|p| p.config_key).unwrap_or_default();
            ctx.send_now(
                actor,
                Message::new(MSG_DEGRADE, CTRL_BYTES, GrantBody { limits: Self::limits_of(new) }),
            );
            self.obs.publish(
                self.event(now, "degrade")
                    .with("app", id)
                    .with("cpu", new.cpu_share)
                    .with("config", config),
            );
        }
    }

    /// Recover the most recently shed app if it fits back with margin.
    fn try_recover_top(&mut self, now: SimTime, ctx: &mut Ctx<'_>) -> bool {
        let Some(&id) = self.shed_stack.last() else { return true };
        let res = self.recs[&id].base_grant;
        if self.committed() + res.cpu_share * RECOVER_MARGIN > self.capacity() + EPS {
            return false;
        }
        let name = Self::res_name(id);
        let Some(host) = Self::place(&mut self.vmms, &name, res) else { return false };
        self.shed_stack.pop();
        let rec = self.recs.get_mut(&id).expect("shed app exists");
        rec.state = AppState::Running;
        rec.host = host;
        rec.grant = res;
        rec.degraded = false;
        rec.grace_until = now.as_us() + GRACE_US;
        let (actor, tier) = (rec.actor, rec.tier_now);
        ctx.send_now(
            actor,
            Message::new(MSG_RECOVER, CTRL_BYTES, GrantBody { limits: Self::limits_of(res) }),
        );
        self.obs.publish(self.event(now, "recover").with("app", id).with("tier", tier as u64));
        self.obs.inc(self.m.recovered, 1);
        self.next_recover_us = now.as_us() + MIN_DWELL_US;
        true
    }

    /// Restore one degraded survivor to its pre-overload envelope.
    fn try_restore_one(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let id = match self.recs.iter().find(|(_, r)| r.state == AppState::Running && r.degraded) {
            Some((id, _)) => *id,
            None => return,
        };
        let (base, grant, host) = {
            let r = &self.recs[&id];
            (r.base_grant, r.grant, r.host)
        };
        let extra = (base.cpu_share - grant.cpu_share).max(0.0);
        if self.committed() + extra * RECOVER_MARGIN > self.capacity() + EPS {
            return;
        }
        let name = Self::res_name(id);
        self.vmms[host].release(&name);
        if self.vmms[host].admit(&name, base).is_err() {
            // No room to grow back yet; reinstall the degraded grant.
            self.vmms[host].resize(&name, grant);
            return;
        }
        let rec = self.recs.get_mut(&id).expect("rec exists");
        rec.grant = base;
        rec.degraded = false;
        rec.grace_until = now.as_us() + GRACE_US;
        let actor = rec.actor;
        ctx.send_now(
            actor,
            Message::new(MSG_RESTORE, CTRL_BYTES, GrantBody { limits: Self::limits_of(base) }),
        );
        self.obs.publish(self.event(now, "restore").with("app", id).with("cpu", base.cpu_share));
        self.next_restore_us = now.as_us() + MIN_DWELL_US;
    }

    fn overload_step(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let t = now.as_us();
        let overloaded = self.committed() > self.capacity() + EPS;
        match self.breaker.state() {
            BreakerState::Closed => {
                if overloaded && t >= self.hold_until {
                    if self.breaker.on_failure(now) {
                        self.ledger().overload_opens += 1;
                        self.obs.publish(
                            self.event(now, "overload_open")
                                .with("committed", self.committed())
                                .with("capacity", self.capacity()),
                        );
                        self.shed_until_fits(now, ctx);
                        self.degrade_survivors(now, ctx);
                    }
                } else if !overloaded {
                    self.breaker.on_success();
                    if !self.shed_stack.is_empty() {
                        if t >= self.next_recover_us {
                            self.try_recover_top(now, ctx);
                        }
                    } else if t >= self.next_restore_us {
                        self.try_restore_one(now, ctx);
                    }
                }
            }
            BreakerState::Open | BreakerState::HalfOpen => {
                if overloaded {
                    self.breaker.on_failure(now);
                    self.shed_until_fits(now, ctx);
                } else if self.breaker.can_attempt(now) {
                    if self.shed_stack.is_empty() || self.try_recover_top(now, ctx) {
                        if self.breaker.on_success() {
                            self.ledger().overload_closes += 1;
                            self.hold_until = t + MIN_DWELL_US;
                            self.obs.publish(
                                self.event(now, "overload_close")
                                    .with("committed", self.committed())
                                    .with("capacity", self.capacity()),
                            );
                        }
                    } else {
                        self.breaker.on_failure(now);
                    }
                }
            }
        }
    }

    fn tick(&mut self, now: SimTime, ctx: &mut Ctx<'_>) {
        let t = now.as_us();
        let th = self.threshold_at(t);
        for vmm in &mut self.vmms {
            vmm.cpu_threshold = th;
        }
        let committed = self.committed();
        let capacity = self.capacity();
        let dt = t.saturating_sub(self.last_tick_us) as f64;
        self.last_tick_us = t;
        {
            let mut ledger = self.ledger();
            ledger.committed_integral += committed * dt;
            ledger.capacity_integral += capacity * dt;
            if !self.queue.is_empty() {
                ledger.busy_committed_integral += committed * dt;
                ledger.busy_capacity_integral += capacity * dt;
            }
        }
        self.obs.set(self.m.committed_cpu, committed);
        self.obs.set(self.m.capacity_cpu, capacity);
        self.obs.set(self.m.running, self.running_count() as f64);
        self.obs.set(self.m.queue_depth, self.queue.len() as f64);

        self.police_apps(now, ctx);
        self.overload_step(now, ctx);
        self.drain_queue(now, ctx);

        if self.terminal < self.specs.len() {
            ctx.set_timer(POLICE_PERIOD_US, TAG_POLICE);
        }
    }
}

impl Actor for Arbiter {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(POLICE_PERIOD_US, TAG_POLICE);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag == TAG_POLICE {
            let now = ctx.now();
            self.tick(now, ctx);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        match msg.tag {
            MSG_REQ => {
                let b: &ReqBody = msg.expect_body();
                self.handle_request(b.id, from, now, ctx);
            }
            MSG_USAGE => {
                let b: &UsageBody = msg.expect_body();
                if let Some(rec) = self.recs.get_mut(&b.id) {
                    rec.last_usage = b.cpu;
                }
            }
            MSG_DONE => {
                let b: &ReqBody = msg.expect_body();
                let id = b.id;
                let live = self.recs.get(&id).map(|r| r.state);
                // An app that already left, or was never admitted, has
                // nothing to finish.
                if matches!(live, Some(AppState::Running | AppState::Shed)) {
                    let rec = self.retire(id, AppState::Done, Some(now.as_us()));
                    if rec.state == AppState::Shed {
                        self.shed_stack.retain(|&s| s != id);
                    }
                    self.vmms[rec.host].release(&Self::res_name(id));
                    self.obs.publish(self.event(now, "done").with("app", id));
                }
            }
            other => panic!("arbiter: unexpected message tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::tests::{spec, starved_db};
    use crate::admission::PRICINGS;
    use crate::storm::{gen_specs, run_storm, StormOpts};
    use obs::EventFilter;
    use visapp::{model_db, LoadGenOpts, QosProfile};

    #[test]
    fn offers_are_a_fresh_pricers_answers() {
        let opts = LoadGenOpts::new(1);
        // On `starved_db` a 10 kB/s demand only satisfies Interactive's
        // fallback preference: gold gets no offer, bronze a rank >= 1 one.
        let cases = [
            (Arc::new(model_db(&opts)), 0.5, opts.link_bps / 2.0),
            (Arc::new(starved_db()), 1.0, 10_000.0),
        ];
        for (db, cpu, net) in cases {
            let pricer = Pricer::new(&db);
            for profile in [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput] {
                for tier in 0..N_TIERS {
                    let spec = spec(tier, cpu, net, profile);
                    let fresh = Pricer::new(&db);
                    let want = FAIR_SHARE_FRACTIONS.map(|fraction| {
                        fresh.price(&spec, fraction).map(|priced| Offer {
                            fraction,
                            res: Arbiter::scaled(demand(&spec), fraction),
                            priced,
                        })
                    });
                    assert_eq!(price_offers(&pricer, &spec), want, "{profile:?} tier {tier}");
                }
            }
        }
        let pricer = Pricer::new(&Arc::new(starved_db()));
        let gold = spec(0, 1.0, 10_000.0, QosProfile::Interactive);
        assert_eq!(price_offers(&pricer, &gold), [None, None, None]);
        let bronze = AppSpec { tier: 2, ..gold };
        assert!(price_offers(&pricer, &bronze)
            .iter()
            .all(|o| o.as_ref().is_some_and(|o| o.priced.rank >= 1)));
    }

    /// The parent priced inside `try_place`, so every police tick re-priced
    /// the blocked head and its backfill candidates: ~15 000 pricings for a
    /// 256-app storm whose apps and degrades ask ~780 distinct questions.
    #[test]
    fn storm_prices_each_app_once() {
        let mut opts = StormOpts::new(96)
            .with_seed(5)
            .with_cluster_hosts(2)
            .with_surges(vec![(500_000, 500_000, 4.0)])
            .with_dips(vec![(1_500_000, 800_000, 0.4)])
            .with_rogue_every(7);
        opts.mean_gap_us = 10_000;
        let db = Arc::new(model_db(&opts.load_opts()));
        PRICINGS.with(|n| n.set(0));
        let r = run_storm(&opts, &db);
        let pricings = PRICINGS.with(|n| n.get());

        assert_eq!(r.obs.events_dropped(), 0, "the degrade count below needs every event");
        let degrades = r
            .obs
            .events_filtered(&EventFilter::any().source(Source::Arbiter).kind("degrade"))
            .len();
        assert!(r.counters.queued > 0 && r.counters.backfilled > 0, "must saturate");
        assert!(r.counters.shed > 0 && degrades > 0, "the dip must shed and degrade");
        let bound = (FAIR_SHARE_FRACTIONS.len() * opts.apps + degrades) as u64;
        assert!(
            pricings <= bound,
            "{pricings} pricings for {} apps, {degrades} degrades",
            opts.apps
        );

        // Fewer pricings, same answers: every admission carries what a
        // fresh pricer says about its spec at the fraction it was granted.
        let specs = gen_specs(&opts);
        let fresh = Pricer::new(&db);
        for d in &r.decisions {
            if let AdmissionDecision::Admitted { app, grant, fraction, config_key, rank, .. } = d {
                let spec = &specs[*app as usize];
                assert_eq!(*grant, Arbiter::scaled(demand(spec), *fraction), "app {app}");
                let priced = PricedGrant { config_key: config_key.clone(), rank: *rank };
                assert_eq!(fresh.price(spec, *fraction), Some(priced), "app {app}");
            }
        }
    }

    /// An app turned away at request may still report usage and
    /// completion afterwards (a client that never heard the verdict).
    /// Neither report reaches its row or adds a decision.
    #[test]
    fn late_reports_from_a_rejected_app_change_nothing() {
        struct Script {
            arbiter: ActorId,
            id: AppId,
            heard: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for Script {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send_now(
                    self.arbiter,
                    Message::new(MSG_REQ, CTRL_BYTES, ReqBody { id: self.id }),
                );
            }
            fn on_message(&mut self, _from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
                self.heard.lock().unwrap().push(msg.tag);
                let usage = UsageBody { id: self.id, cpu: Some(0.9) };
                ctx.send_now(self.arbiter, Message::new(MSG_USAGE, CTRL_BYTES, usage));
                ctx.send_now(
                    self.arbiter,
                    Message::new(MSG_DONE, CTRL_BYTES, ReqBody { id: self.id }),
                );
            }
        }
        let mut sim = simnet::Sim::new();
        let arb_host = sim.add_host("arbiter", 1.0, 1 << 30);
        let app_host = sim.add_host("app0", 1.0, 1 << 30);
        sim.set_link(app_host, arb_host, 12_500_000.0, 200);
        // Gold on `starved_db` has no offer at any fraction.
        let gold = spec(0, 1.0, 10_000.0, QosProfile::Interactive);
        let ledger = LedgerHandle::default();
        let arbiter = sim.spawn(
            arb_host,
            Box::new(Arbiter::new(
                vec![gold.clone()],
                Pricer::new(&Arc::new(starved_db())),
                1,
                1e6,
                1 << 30,
                Vec::new(),
                StormOpts::default().queue_cap,
                Obs::new(),
                ledger.clone(),
            )),
        );
        let heard = Arc::default();
        sim.spawn(app_host, Box::new(Script { arbiter, id: gold.id, heard: Arc::clone(&heard) }));
        sim.run_until_idle();

        assert_eq!(*heard.lock().unwrap(), [MSG_REJECT]);
        let ledger = ledger.lock().unwrap();
        let row = &ledger.apps[&gold.id];
        assert_eq!((row.state, row.finish_us), (AppState::Rejected, None));
        assert!(
            matches!(
                ledger.decisions[..],
                [AdmissionDecision::Rejected {
                    reason: RejectReason::QosUnsatisfiable { rank_required: 0 },
                    ..
                }]
            ),
            "{:?}",
            ledger.decisions
        );
    }
}
