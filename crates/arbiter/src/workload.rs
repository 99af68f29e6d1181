//! Workload actors: the synthetic bulk worker, the null sink it uploads
//! to, and the [`AppActor`] wrapper that joins any workload to the
//! arbiter's control plane.
//!
//! The wrapper owns a [`Sandboxed`] inner actor but does **not** start it
//! until the arbiter admits the app: `on_start` only arms the arrival
//! timer, and the inner's `on_start` runs from the `MSG_ADMIT` handler.
//! All control traffic is routed on message tags ([`crate::msg`]); every
//! other message and timer is forwarded verbatim into the sandbox, so the
//! wrapper is transparent to the application underneath.
//!
//! Determinism notes: the wrapper mutates only its *own* sandbox's
//! [`LimitsHandle`] and shared cells, so no cross-actor shared-memory
//! writes exist; control handlers use `send_now` exclusively and never
//! touch the action queue the sandbox multiplexes.

use std::sync::{Arc, Mutex};

use sandbox::{Limits, LimitsHandle, SandboxStats, Sandboxed};
use simnet::{Actor, ActorId, Ctx, Message, SimTime};
use visapp::{Client, StatsHandle};

use crate::app::AppId;
use crate::msg::{
    self, ClampBody, GrantBody, ReqBody, UsageBody, CTRL_BYTES, MSG_ADMIT, MSG_DEGRADE, MSG_DEMOTE,
    MSG_DONE, MSG_EVICT, MSG_KICK, MSG_RECOVER, MSG_REJECT, MSG_RELAX, MSG_REQ, MSG_RESTORE,
    MSG_SHED, MSG_THROTTLE, MSG_USAGE,
};

/// Wrapper timer: ask the arbiter for admission. Below the visapp retry
/// tag range (1000+) and clear of the client's fixed tags (10..=40).
const TAG_ARRIVE: u64 = 901;
/// Wrapper timer: report sandbox usage to the arbiter.
const TAG_REPORT: u64 = 902;
/// Bulk worker unit-boundary continuation.
const TAG_UNIT: u64 = 1;

/// Shared bulk-worker state, read by the wrapper (done detection) and the
/// storm harness (progress accounting). Written only by the worker and
/// its wrapper.
#[derive(Debug, Default)]
pub struct BulkState {
    pub units_done: u64,
    /// The worker observed `paused` at a unit boundary and stopped
    /// issuing work; it needs a kick to resume.
    pub parked: bool,
    /// Set by overload shedding; checked at every unit boundary.
    pub paused: bool,
    /// Set on eviction; the worker never resumes.
    pub abort: bool,
    pub finished_at: Option<SimTime>,
}

/// Handle to a bulk worker's shared state.
pub type BulkCell = Arc<Mutex<BulkState>>;

/// Absorbs bulk uploads on a server host.
pub struct NullSink;

impl Actor for NullSink {}

/// The synthetic bulk workload: `units_total` iterations of
/// compute-then-upload against a [`NullSink`], paced by a timer. Runs
/// inside a [`Sandboxed`], so the admitted envelope shapes both the
/// compute and the upload.
///
/// The pace gap is an idle *timer* wait, not a `Ctx::sleep`: the kernel
/// delivers queued messages only to a fully idle actor, and a sleeping
/// actor is not idle. Sleep-paced workers would never surface an idle
/// window, so arbiter control traffic (throttle, degrade, evict) could
/// not reach them until they finished — timer pacing opens a delivery
/// window at every unit boundary.
pub struct BulkWorker {
    pub sink: ActorId,
    pub units_total: u64,
    /// Work per unit, in `Ctx::compute` units (us at reference speed).
    pub work_per_unit: f64,
    /// Upload size per unit, bytes.
    pub bytes_per_unit: u64,
    /// Idle gap between units, us.
    pub pace_us: u64,
    pub cell: BulkCell,
}

impl BulkWorker {
    fn start_unit(&mut self, ctx: &mut Ctx<'_>) {
        {
            let mut st = self.cell.lock().unwrap_or_else(|e| e.into_inner());
            if st.abort {
                return;
            }
            if st.paused {
                st.parked = true;
                return;
            }
        }
        ctx.compute(self.work_per_unit);
        ctx.send(self.sink, Message::signal(0, self.bytes_per_unit));
        ctx.continue_with(TAG_UNIT);
    }
}

impl Actor for BulkWorker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start_unit(ctx);
    }

    fn on_continue(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        let done = {
            let mut st = self.cell.lock().unwrap_or_else(|e| e.into_inner());
            st.units_done += 1;
            if st.units_done >= self.units_total && st.finished_at.is_none() {
                st.finished_at = Some(ctx.now());
            }
            st.units_done >= self.units_total
        };
        if !done {
            if self.pace_us > 0 {
                ctx.set_timer(self.pace_us, TAG_UNIT);
            } else {
                self.start_unit(ctx);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag == TAG_UNIT {
            self.start_unit(ctx);
        }
    }

    fn on_message(&mut self, _from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        if msg.tag == MSG_KICK {
            self.start_unit(ctx);
        }
    }
}

/// The wrapped workload.
#[allow(clippy::large_enum_variant)] // one Workload per app actor; size is fine
pub enum Workload {
    Session(Sandboxed<Client>),
    Bulk(Sandboxed<BulkWorker>),
}

/// Lifecycle phase of the wrapper (the arbiter holds the authoritative
/// per-app record; this only gates forwarding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Waiting,
    Requested,
    Running,
    Shed,
    Rejected,
    Evicted,
}

/// One application under arbiter control: defers its sandboxed inner
/// until admission, reports usage, and applies the arbiter's envelope
/// changes to the sandbox limits.
pub struct AppActor {
    id: AppId,
    arbiter: ActorId,
    arrival_us: u64,
    report_period_us: u64,
    rogue: bool,
    inner: Workload,
    limits: LimitsHandle,
    stats: SandboxStats,
    /// Session progress, for done detection.
    session_stats: Option<StatsHandle>,
    /// Bulk progress, for done detection and pause/park handshakes.
    bulk_cell: Option<BulkCell>,
    /// What the app itself would run at absent a clamp: the granted
    /// envelope for honest apps, unconstrained for rogues.
    requested: Limits,
    phase: Phase,
    done_sent: bool,
}

impl AppActor {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: AppId,
        arbiter: ActorId,
        arrival_us: u64,
        report_period_us: u64,
        rogue: bool,
        inner: Workload,
        limits: LimitsHandle,
        stats: SandboxStats,
        session_stats: Option<StatsHandle>,
        bulk_cell: Option<BulkCell>,
    ) -> Self {
        AppActor {
            id,
            arbiter,
            arrival_us,
            report_period_us,
            rogue,
            inner,
            limits,
            stats,
            session_stats,
            bulk_cell,
            requested: Limits::unconstrained(),
            phase: Phase::Waiting,
            done_sent: false,
        }
    }

    /// Wrap a visapp client session.
    #[allow(clippy::too_many_arguments)]
    pub fn session(
        id: AppId,
        arbiter: ActorId,
        arrival_us: u64,
        report_period_us: u64,
        client: Client,
        limits: LimitsHandle,
        stats: SandboxStats,
        session_stats: StatsHandle,
    ) -> Self {
        let inner = Workload::Session(Sandboxed::new(client, limits.clone(), stats.clone()));
        Self::new(
            id,
            arbiter,
            arrival_us,
            report_period_us,
            false,
            inner,
            limits,
            stats,
            Some(session_stats),
            None,
        )
    }

    /// Wrap a bulk worker. `rogue` makes the wrapper restore unconstrained
    /// limits whenever the arbiter is not actively clamping it.
    #[allow(clippy::too_many_arguments)]
    pub fn bulk(
        id: AppId,
        arbiter: ActorId,
        arrival_us: u64,
        report_period_us: u64,
        rogue: bool,
        worker: BulkWorker,
        limits: LimitsHandle,
        stats: SandboxStats,
    ) -> Self {
        let cell = worker.cell.clone();
        let inner = Workload::Bulk(Sandboxed::new(worker, limits.clone(), stats.clone()));
        Self::new(
            id,
            arbiter,
            arrival_us,
            report_period_us,
            rogue,
            inner,
            limits,
            stats,
            None,
            Some(cell),
        )
    }

    fn forwarding(&self) -> bool {
        matches!(self.phase, Phase::Running | Phase::Shed)
    }

    fn finished_at(&self) -> Option<SimTime> {
        match (&self.session_stats, &self.bulk_cell) {
            (Some(h), _) => h.with(|s| s.finished_at),
            (_, Some(c)) => c.lock().unwrap_or_else(|e| e.into_inner()).finished_at,
            _ => None,
        }
    }

    /// Adopt a new contract envelope: honest apps request exactly the
    /// grant; rogues keep requesting everything.
    fn adopt_grant(&mut self, grant: Limits) {
        self.requested = if self.rogue { Limits::unconstrained() } else { grant };
        self.limits.set(self.requested);
    }

    fn start_inner(&mut self, ctx: &mut Ctx<'_>) {
        match &mut self.inner {
            Workload::Session(s) => s.on_start(ctx),
            Workload::Bulk(b) => b.on_start(ctx),
        }
    }

    fn forward_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        match &mut self.inner {
            Workload::Session(s) => s.on_message(from, msg, ctx),
            Workload::Bulk(b) => b.on_message(from, msg, ctx),
        }
    }

    fn forward_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match &mut self.inner {
            Workload::Session(s) => s.on_timer(tag, ctx),
            Workload::Bulk(b) => b.on_timer(tag, ctx),
        }
    }

    fn forward_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match &mut self.inner {
            Workload::Session(s) => s.on_continue(tag, ctx),
            Workload::Bulk(b) => b.on_continue(tag, ctx),
        }
    }

    fn handle_ctrl(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            MSG_ADMIT => {
                let g: &GrantBody = msg.expect_body();
                self.adopt_grant(g.limits);
                self.phase = Phase::Running;
                self.start_inner(ctx);
                ctx.set_timer(self.report_period_us, TAG_REPORT);
            }
            MSG_REJECT => self.phase = Phase::Rejected,
            MSG_THROTTLE => {
                let c: &ClampBody = msg.expect_body();
                self.limits.set(c.limits);
            }
            MSG_RELAX => self.limits.set(self.requested),
            MSG_DEMOTE | MSG_DEGRADE | MSG_RESTORE => {
                let g: &GrantBody = msg.expect_body();
                self.adopt_grant(g.limits);
            }
            MSG_SHED => {
                let c: &ClampBody = msg.expect_body();
                self.phase = Phase::Shed;
                if c.pause {
                    if let Some(cell) = &self.bulk_cell {
                        cell.lock().unwrap_or_else(|e| e.into_inner()).paused = true;
                    }
                } else {
                    self.limits.set(c.limits);
                }
            }
            MSG_RECOVER => {
                let g: &GrantBody = msg.expect_body();
                self.adopt_grant(g.limits);
                self.phase = Phase::Running;
                let needs_kick = match &self.bulk_cell {
                    Some(cell) => {
                        let mut st = cell.lock().unwrap_or_else(|e| e.into_inner());
                        st.paused = false;
                        std::mem::take(&mut st.parked)
                    }
                    None => false,
                };
                if needs_kick {
                    // Parked workers have an idle sandbox; wake them
                    // directly (never crosses the kernel).
                    self.forward_message(self.arbiter, Message::signal(MSG_KICK, 0), ctx);
                }
            }
            MSG_EVICT => {
                self.phase = Phase::Evicted;
                if let Some(cell) = &self.bulk_cell {
                    cell.lock().unwrap_or_else(|e| e.into_inner()).abort = true;
                }
            }
            other => panic!("app {}: unexpected control tag {other}", self.id),
        }
    }
}

impl Actor for AppActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.arrival_us, TAG_ARRIVE);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            TAG_ARRIVE => {
                self.phase = Phase::Requested;
                ctx.send_now(
                    self.arbiter,
                    Message::new(MSG_REQ, CTRL_BYTES, ReqBody { id: self.id }),
                );
            }
            TAG_REPORT => {
                // May fire mid-quantum: only `send_now`/`set_timer` here
                // (neither touches the action queue the sandbox owns).
                if !self.forwarding() || self.done_sent {
                    return;
                }
                if let Some(t) = self.finished_at() {
                    self.done_sent = true;
                    let _ = t;
                    ctx.send_now(
                        self.arbiter,
                        Message::new(MSG_DONE, CTRL_BYTES, ReqBody { id: self.id }),
                    );
                    return;
                }
                ctx.send_now(
                    self.arbiter,
                    Message::new(
                        MSG_USAGE,
                        CTRL_BYTES,
                        UsageBody { id: self.id, cpu: self.stats.cpu_share() },
                    ),
                );
                ctx.set_timer(self.report_period_us, TAG_REPORT);
            }
            t if self.forwarding() => self.forward_timer(t, ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        if msg::is_ctrl(msg.tag) {
            self.handle_ctrl(&msg, ctx);
        } else if self.forwarding() {
            self.forward_message(from, msg, ctx);
        }
    }

    fn on_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        // Sandbox quantum continuations must always reach the sandbox;
        // only a dead (evicted/rejected) app swallows them.
        if self.phase != Phase::Evicted && self.phase != Phase::Rejected {
            self.forward_continue(tag, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Sim;

    /// A bare bulk worker (no arbiter) finishes all units and paces
    /// deterministically under a sandbox limit.
    #[test]
    fn bulk_worker_completes_units() {
        let mut sim = Sim::new();
        let hw = sim.add_host("worker", 1.0, 1 << 30);
        let hs = sim.add_host("sink", 1.0, 1 << 30);
        sim.set_link(hw, hs, 12_500_000.0, 100);
        let sink = sim.spawn(hs, Box::new(NullSink));
        let cell: BulkCell = Arc::default();
        let worker = BulkWorker {
            sink,
            units_total: 5,
            work_per_unit: 20_000.0,
            bytes_per_unit: 10_000,
            pace_us: 5_000,
            cell: cell.clone(),
        };
        let lh = LimitsHandle::new(Limits::cpu(0.5));
        sim.spawn(hw, Box::new(Sandboxed::new(worker, lh, SandboxStats::new(100_000))));
        sim.run_until_idle();
        let st = cell.lock().unwrap();
        assert_eq!(st.units_done, 5);
        let t = st.finished_at.expect("must finish").as_us();
        // 5 units of 20ms work at 50% share (40ms each) + 4 pace gaps
        // (the final unit finishes at its boundary, before any pace).
        assert!(t >= 220_000, "finished too fast: {t}us");
    }

    /// Pausing at a unit boundary parks the worker; a kick resumes it.
    #[test]
    fn bulk_worker_parks_and_resumes() {
        struct Kicker {
            cell: BulkCell,
            target: ActorId,
        }
        impl Actor for Kicker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(30_000, 1);
                ctx.set_timer(200_000, 2);
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                let mut st = self.cell.lock().unwrap();
                if tag == 1 {
                    st.paused = true;
                } else {
                    st.paused = false;
                    if std::mem::take(&mut st.parked) {
                        drop(st);
                        ctx.send_now(self.target, Message::signal(MSG_KICK, 0));
                    }
                }
            }
        }
        let mut sim = Sim::new();
        let hw = sim.add_host("worker", 1.0, 1 << 30);
        let hs = sim.add_host("sink", 1.0, 1 << 30);
        sim.set_link(hw, hs, 12_500_000.0, 100);
        let sink = sim.spawn(hs, Box::new(NullSink));
        let cell: BulkCell = Arc::default();
        let worker = BulkWorker {
            sink,
            units_total: 8,
            work_per_unit: 10_000.0,
            bytes_per_unit: 1_000,
            pace_us: 1_000,
            cell: cell.clone(),
        };
        let lh = LimitsHandle::new(Limits::unconstrained());
        let wid = sim.spawn(hw, Box::new(Sandboxed::new(worker, lh, SandboxStats::new(100_000))));
        let ctl_host = sim.add_host("kicker", 1.0, 1 << 30);
        sim.set_link(ctl_host, hw, 12_500_000.0, 100);
        sim.spawn(ctl_host, Box::new(Kicker { cell: cell.clone(), target: wid }));
        sim.run_until_idle();
        let st = cell.lock().unwrap();
        assert_eq!(st.units_done, 8, "worker must finish after resume");
        let t = st.finished_at.unwrap().as_us();
        assert!(t >= 200_000, "pause window must delay completion, finished at {t}us");
    }
}
