//! The simulation kernel: event loop, hosts, actors, and the [`Ctx`]
//! interface actors use to interact with the simulated world.
//!
//! # Model
//!
//! - **Hosts** have a speed (work-units per microsecond) and carry a fluid
//!   proportional-share CPU scheduler ([`crate::cpu::CpuSched`]).
//! - **Actors** live on hosts and execute their enqueued actions serially.
//!   `Compute` actions contend for the host CPU; `Send` actions go through
//!   directed FIFO [`crate::link::Link`]s; `Sleep` idles; `Continue`
//!   re-enters the actor.
//! - **Events** are totally ordered by `(time, sequence)`; given identical
//!   inputs a run is bit-for-bit reproducible.
//!
//! # Interposition
//!
//! [`Ctx::drain_actions`] removes and returns the actions an actor has
//! enqueued but not yet started. This is the hook the `sandbox` crate uses
//! to emulate the paper's Win32 API interception: a wrapper actor invokes
//! the wrapped application actor, captures the actions it produced, and
//! re-emits them chopped/delayed to enforce resource limits — all without
//! the kernel knowing.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::accounting::{Accounting, Dir, Snapshot, Transfer};
use crate::actor::{Action, Actor, ActorId, HostId};
use crate::cpu::CpuSched;
use crate::fault::DropReason;
use crate::link::{FlowSched, Link, LinkMode};
use crate::message::Message;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};

mod queue;

use queue::EventQueue;

/// Default one-way latency for messages between actors on the same host.
pub const DEFAULT_LOCAL_LATENCY_US: u64 = 5;

/// A host: a named machine with a CPU and memory.
pub(crate) struct Host {
    pub name: String,
    pub sched: CpuSched,
    pub mem_capacity: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Running {
    Idle,
    Compute,
    Sleep,
}

pub(crate) struct ActorState {
    host: HostId,
    fifo: VecDeque<Action>,
    inbox: VecDeque<(ActorId, Message)>,
    running: Running,
    weight: f64,
    cpu_cap: Option<f64>,
    mem_limit: Option<u64>,
    /// Slowdown per unit of memory overcommit (see [`Sim::set_mem_limit`]).
    mem_penalty_k: f64,
    compute_started: SimTime,
    sleep_started: SimTime,
    pub acct: Accounting,
    alive: bool,
    /// Dead because its host crashed (revivable by a host restart), as
    /// opposed to a permanent [`Sim::kill`].
    crashed: bool,
    /// Incarnation number: bumped on every crash so timers armed by a
    /// previous incarnation are ignored after a restart.
    incarnation: u64,
}

impl ActorState {
    /// A freshly spawned, idle, live actor on `host`.
    fn new(host: HostId) -> Self {
        ActorState {
            host,
            fifo: VecDeque::new(),
            inbox: VecDeque::new(),
            running: Running::Idle,
            weight: 1.0,
            cpu_cap: None,
            mem_limit: None,
            mem_penalty_k: 4.0,
            compute_started: SimTime::ZERO,
            sleep_started: SimTime::ZERO,
            acct: Accounting::default(),
            alive: true,
            crashed: false,
            incarnation: 0,
        }
    }
}

pub(crate) enum Ev {
    Start(ActorId),
    Restart(ActorId),
    CpuNext {
        host: usize,
        epoch: u64,
    },
    FlowNext {
        src: usize,
        dst: usize,
        epoch: u64,
    },
    Deliver {
        src: ActorId,
        dst: ActorId,
        msg: Message,
        queued: SimTime,
    },
    Timer {
        actor: ActorId,
        tag: u64,
        incarnation: u64,
    },
    Wake {
        actor: ActorId,
    },
    /// A scheduled script (see [`Sim::at`]).
    Script(Box<dyn FnOnce(&mut Sim) + Send>),
}

/// Schedule-perturbation budget for [`DrainMode::Explore`].
///
/// `seed == 0` is the identity plan: no permutation, no skew — a run under
/// `DrainMode::Explore(ExplorePlan::new(0))` is bit-for-bit identical to
/// [`DrainMode::Batched`]. Any other seed deterministically perturbs the
/// schedule: same plan, same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExplorePlan {
    /// Seed for the perturbation stream; `0` disables all perturbation.
    pub seed: u64,
    /// Upper bound on extra delay injected into each timer fire (us),
    /// modeling clock skew and timer coalescing. `0` leaves timers exact.
    pub timer_skew_us: u64,
}

impl ExplorePlan {
    /// A plan that permutes same-timestamp delivery order but leaves
    /// timers exact. `seed == 0` yields the identity plan.
    pub const fn new(seed: u64) -> Self {
        ExplorePlan { seed, timer_skew_us: 0 }
    }

    /// Additionally skew every timer by up to `skew_us`.
    pub const fn with_timer_skew_us(mut self, skew_us: u64) -> Self {
        self.timer_skew_us = skew_us;
        self
    }

    /// True when this plan perturbs nothing.
    pub fn is_identity(&self) -> bool {
        self.seed == 0
    }
}

/// How the kernel drains its event queue.
///
/// [`DrainMode::Heap`] and [`DrainMode::Batched`] process events in
/// identical `(time, insertion)` order, so a run is bit-for-bit identical
/// under either; they differ only in data structure.
/// [`DrainMode::Batched`] is the default and the fast path for deep
/// queues (thousands of concurrent sessions); [`DrainMode::Heap`] is the
/// original one-entry-at-a-time binary heap, kept as the measurable
/// baseline for the batched path (see `bench/src/bin/load_bench.rs`).
/// [`DrainMode::Explore`] is the batched queue under a seeded
/// [`ExplorePlan`], for simulation-test exploration (see `adapt-dst`);
/// [`DrainMode::Batched`] is that same queue under the identity plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainMode {
    /// Pop entries one at a time from a `(time, seq)`-ordered binary heap.
    /// Every pop sifts the heap: O(log n) comparisons moving whole
    /// entries, paid once per event.
    Heap,
    /// Bucket events by timestamp: a min-heap of *distinct* times plus a
    /// FIFO bucket per time. All events at the earliest time are drained
    /// in one pass — timestamp-aligned storms (N sessions' 10 ms monitor
    /// timers) cost one heap operation per distinct time instead of one
    /// per event.
    #[default]
    Batched,
    /// The batched queue under a deterministic schedule perturbation: each
    /// same-timestamp bucket is Fisher-Yates-permuted by a per-bucket
    /// stream derived from the plan seed, and timer fires are skewed by a
    /// bounded extra delay. Every ordering it produces is a legal
    /// `(time, insertion)` schedule of *some* execution — the exploration
    /// never invents impossible interleavings, only reachable ones.
    Explore(ExplorePlan),
}

/// The simulation: hosts, links, actors, and the event queue.
pub struct Sim {
    now: SimTime,
    mode: DrainMode,
    /// Pending events, in the representation `mode` selects.
    queue: EventQueue,
    hosts: Vec<Host>,
    links: HashMap<(usize, usize), Link>,
    /// Links operating in fluid fair-share mode.
    flow_scheds: HashMap<(usize, usize), FlowSched>,
    /// In-flight fair-share transmissions:
    /// flow id -> (src, dst, msg, queued, jitter_us).
    inflight: HashMap<u64, (ActorId, ActorId, Message, SimTime, u64)>,
    next_flow_id: u64,
    /// Per-directed-link message loss: probability and a deterministic RNG.
    loss: HashMap<(usize, usize), (f64, StdRng)>,
    /// Per-directed-link latency jitter: max extra us and a deterministic RNG.
    jitter: HashMap<(usize, usize), (u64, StdRng)>,
    /// Directed links currently inside a scheduled down window.
    down_links: HashSet<(usize, usize)>,
    default_bw_bps: f64,
    default_latency_us: u64,
    local_latency_us: u64,
    actors: Vec<Option<Box<dyn Actor>>>,
    states: Vec<ActorState>,
    pub trace: Trace,
    events_handled: u64,
    event_limit: Option<u64>,
    /// Optional wire interposition: every transmitted message passes
    /// through this hook before entering the (simulated) network. `None`
    /// (the default) costs one branch; see [`Sim::set_wire_hook`].
    wire_hook: Option<WireHook>,
}

/// A wire interposition function: `(src, dst, msg) -> msg`.
///
/// Installed with [`Sim::set_wire_hook`]; called synchronously inside
/// [`Ctx::send`]/[`Ctx::send_now`] delivery for every message, before any
/// tracing or link modelling. The returned message continues through the
/// normal path, so a hook that returns its input verbatim is invisible to
/// the simulation. Harnesses use this to detour traffic through a real
/// transport (encode → socket → decode) while the kernel keeps owning
/// virtual time.
pub type WireHook = Arc<dyn Fn(ActorId, ActorId, Message) -> Message + Send + Sync>;

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// An empty simulation. Default inter-host links are 100 Mbps Ethernet
    /// with 100us latency (the paper's testbed network).
    pub fn new() -> Self {
        Sim {
            now: SimTime::ZERO,
            mode: DrainMode::default(),
            queue: EventQueue::new(DrainMode::default()),
            hosts: Vec::new(),
            links: HashMap::new(),
            flow_scheds: HashMap::new(),
            inflight: HashMap::new(),
            next_flow_id: 0,
            loss: HashMap::new(),
            jitter: HashMap::new(),
            down_links: HashSet::new(),
            default_bw_bps: 12_500_000.0, // 100 Mbit/s in bytes/s
            default_latency_us: 100,
            local_latency_us: DEFAULT_LOCAL_LATENCY_US,
            actors: Vec::new(),
            states: Vec::new(),
            trace: Trace::default(),
            events_handled: 0,
            event_limit: None,
            wire_hook: None,
        }
    }

    /// Interpose on every transmitted message (see [`WireHook`]). A
    /// hook that returns the message unchanged leaves the simulation
    /// bit-for-bit identical; `None` restores the direct path.
    pub fn set_wire_hook(&mut self, hook: Option<WireHook>) {
        self.wire_hook = hook;
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Add a host. `speed` is in work-units per microsecond (1.0 is the
    /// reference machine), `mem_capacity` in bytes.
    pub fn add_host(&mut self, name: &str, speed: f64, mem_capacity: u64) -> HostId {
        self.hosts.push(Host { name: name.to_string(), sched: CpuSched::new(speed), mem_capacity });
        HostId(self.hosts.len() - 1)
    }

    /// Spawn an actor on `host`. Its `on_start` runs at the current time
    /// (after every event already queued at that time), so a script may
    /// spawn mid-run.
    pub fn spawn(&mut self, host: HostId, actor: Box<dyn Actor>) -> ActorId {
        assert!(host.0 < self.hosts.len(), "unknown host {host}");
        let id = ActorId(self.actors.len());
        self.actors.push(Some(actor));
        self.states.push(ActorState::new(host));
        self.queue.push(self.now, Ev::Start(id));
        id
    }

    /// Configure both directions of the link between `a` and `b`.
    pub fn set_link(&mut self, a: HostId, b: HostId, bw_bytes_per_sec: f64, latency_us: u64) {
        self.set_link_directed(a, b, bw_bytes_per_sec, latency_us);
        self.set_link_directed(b, a, bw_bytes_per_sec, latency_us);
    }

    /// Configure one direction of a link.
    pub fn set_link_directed(
        &mut self,
        src: HostId,
        dst: HostId,
        bw_bytes_per_sec: f64,
        latency_us: u64,
    ) {
        self.links.insert((src.0, dst.0), Link::new(bw_bytes_per_sec, latency_us));
    }

    /// Change the bandwidth of an existing (or default) link at run time.
    /// Affects transmissions that start after this call (FIFO mode) or
    /// immediately reshapes all in-flight flows (fair-share mode).
    pub fn set_link_bandwidth(&mut self, src: HostId, dst: HostId, bw_bytes_per_sec: f64) {
        let (dbw, dlat) = (self.default_bw_bps, self.default_latency_us);
        self.links
            .entry((src.0, dst.0))
            .or_insert_with(|| Link::new(dbw, dlat))
            .set_bandwidth(bw_bytes_per_sec);
        if self.flow_scheds.contains_key(&(src.0, dst.0)) {
            self.sync_flows(src.0, dst.0);
            let fs = self.flow_scheds.get_mut(&(src.0, dst.0)).unwrap();
            fs.set_bandwidth(bw_bytes_per_sec);
            self.schedule_next_flow(src.0, dst.0);
        }
    }

    /// Switch the `src -> dst` link to the given sharing mode. In
    /// [`LinkMode::FairShare`] every in-flight message progresses at
    /// `bandwidth / n` simultaneously (fluid per-flow fair queuing)
    /// instead of FIFO serialization.
    pub fn set_link_mode(&mut self, src: HostId, dst: HostId, mode: LinkMode) {
        let key = (src.0, dst.0);
        match mode {
            LinkMode::Fifo => {
                assert!(
                    self.flow_scheds.get(&key).is_none_or(|f| f.in_flight() == 0),
                    "cannot switch modes with flows in flight"
                );
                self.flow_scheds.remove(&key);
            }
            LinkMode::FairShare => {
                let bw = self.link_capacity_bps(src, dst);
                self.flow_scheds.entry(key).or_insert_with(|| FlowSched::new(bw));
            }
        }
    }

    /// Inject message loss on the `src -> dst` link: each message is
    /// dropped independently with probability `p`, using a deterministic
    /// RNG seeded by `seed` (failure injection for robustness tests).
    /// `p = 0` removes the injection.
    pub fn set_link_loss(&mut self, src: HostId, dst: HostId, p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range: {p}");
        if p == 0.0 {
            self.loss.remove(&(src.0, dst.0));
        } else {
            self.loss.insert((src.0, dst.0), (p, StdRng::seed_from_u64(seed)));
        }
    }

    /// Add uniform random extra delivery latency in `[0, max_us]` to every
    /// message on the directed `src -> dst` link, drawn from a
    /// deterministic RNG seeded by `seed`. `max_us = 0` removes it.
    pub fn set_link_jitter(&mut self, src: HostId, dst: HostId, max_us: u64, seed: u64) {
        if max_us == 0 {
            self.jitter.remove(&(src.0, dst.0));
        } else {
            self.jitter.insert((src.0, dst.0), (max_us, StdRng::seed_from_u64(seed)));
        }
    }

    /// Take the directed `src -> dst` link down (or bring it back up).
    /// While down, every message transmitted on it is dropped and traced
    /// as [`TraceEvent::MsgDropped`]. State changes are traced as
    /// [`TraceEvent::LinkDown`] / [`TraceEvent::LinkUp`].
    pub fn set_link_down(&mut self, src: HostId, dst: HostId, down: bool) {
        let key = (src.0, dst.0);
        if down {
            if self.down_links.insert(key) {
                self.trace.emit(self.now, TraceEvent::LinkDown { src, dst });
            }
        } else if self.down_links.remove(&key) {
            self.trace.emit(self.now, TraceEvent::LinkUp { src, dst });
        }
    }

    /// Is the directed `src -> dst` link inside a down window?
    pub fn is_link_down(&self, src: HostId, dst: HostId) -> bool {
        self.down_links.contains(&(src.0, dst.0))
    }

    /// Full capacity (bytes/second) of the `src -> dst` link, as a
    /// system-wide monitor would report it.
    pub fn link_capacity_bps(&self, src: HostId, dst: HostId) -> f64 {
        self.links.get(&(src.0, dst.0)).map(|l| l.bw_bytes_per_sec()).unwrap_or(self.default_bw_bps)
    }

    // ------------------------------------------------------------------
    // Resource controls (an ideal fair-share OS interface)
    // ------------------------------------------------------------------

    /// Hard-cap the fraction of its host CPU an actor may use.
    pub fn set_cpu_cap(&mut self, a: ActorId, cap: Option<f64>) {
        let host = self.states[a.0].host.0;
        self.states[a.0].cpu_cap = cap;
        if self.states[a.0].running == Running::Compute {
            self.sync_host(host);
            self.hosts[host].sched.retune(a, None, Some(cap));
            self.schedule_next_cpu(host);
        }
        self.trace.emit(self.now, TraceEvent::CapChange { actor: a, cap });
    }

    /// Set an actor's proportional-share weight.
    pub fn set_weight(&mut self, a: ActorId, weight: f64) {
        let host = self.states[a.0].host.0;
        self.states[a.0].weight = weight;
        if self.states[a.0].running == Running::Compute {
            self.sync_host(host);
            self.hosts[host].sched.retune(a, Some(weight), None);
            self.schedule_next_cpu(host);
        }
    }

    /// Limit an actor's simulated physical memory. When its allocation
    /// exceeds the limit, compute actions are inflated by
    /// `1 + k * overcommit_fraction`, modeling paging slowdown.
    pub fn set_mem_limit(&mut self, a: ActorId, limit: Option<u64>) {
        self.states[a.0].mem_limit = limit;
    }

    /// Tune the paging-penalty coefficient `k` (default 4.0).
    pub fn set_mem_penalty_k(&mut self, a: ActorId, k: f64) {
        self.states[a.0].mem_penalty_k = k.max(0.0);
    }

    /// Terminate an actor: any active computation is aborted, queued
    /// actions and pending messages are dropped, and future deliveries,
    /// timers, and wakeups addressed to it are ignored. Models a process
    /// being killed (e.g. a competing tenant evicted by the VMM).
    pub fn kill(&mut self, a: ActorId) {
        if !self.states[a.0].alive {
            return;
        }
        let host = self.states[a.0].host.0;
        self.sync_host(host);
        if self.states[a.0].running == Running::Compute {
            self.hosts[host].sched.abort(a);
            self.schedule_next_cpu(host);
        }
        let st = &mut self.states[a.0];
        st.alive = false;
        st.running = Running::Idle;
        st.fifo.clear();
        st.inbox.clear();
    }

    /// Is the actor still alive (not killed)?
    pub fn is_alive(&self, a: ActorId) -> bool {
        self.states[a.0].alive
    }

    /// Crash every actor on `host`: computation is aborted, queues are
    /// cleared, and timers armed before the crash are cancelled. Unlike
    /// [`Sim::kill`], crashed actors can be revived by
    /// [`Sim::restart_host`]. Traced as [`TraceEvent::HostCrash`].
    pub fn crash_host(&mut self, host: HostId) {
        let mut any = false;
        for i in 0..self.states.len() {
            if self.states[i].host != host || !self.states[i].alive {
                continue;
            }
            any = true;
            let a = ActorId(i);
            self.sync_host(host.0);
            if self.states[i].running == Running::Compute {
                self.hosts[host.0].sched.abort(a);
                self.schedule_next_cpu(host.0);
            }
            let st = &mut self.states[i];
            st.alive = false;
            st.crashed = true;
            st.incarnation += 1;
            st.running = Running::Idle;
            st.fifo.clear();
            st.inbox.clear();
        }
        if any {
            self.trace.emit(self.now, TraceEvent::HostCrash { host });
        }
    }

    /// Restart a crashed host: every actor that died in a [`Sim::crash_host`]
    /// comes back alive and its [`Actor::on_restart`] runs (by default that
    /// re-runs `on_start`, modeling a process restart). Actors removed with
    /// [`Sim::kill`] stay dead. Traced as [`TraceEvent::HostRestart`].
    pub fn restart_host(&mut self, host: HostId) {
        let mut any = false;
        for i in 0..self.states.len() {
            let st = &mut self.states[i];
            if st.host != host || !st.crashed {
                continue;
            }
            any = true;
            st.alive = true;
            st.crashed = false;
            self.queue.push(self.now, Ev::Restart(ActorId(i)));
        }
        if any {
            self.trace.emit(self.now, TraceEvent::HostRestart { host });
        }
    }

    // ------------------------------------------------------------------
    // Observation
    // ------------------------------------------------------------------

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Install a runaway-loop backstop: the simulation panics (with the
    /// newest kernel events from the attached obs bus, if there is one)
    /// after handling this many events. Useful for debugging livelocked
    /// actor protocols.
    pub fn set_event_limit(&mut self, limit: Option<u64>) {
        self.event_limit = limit;
    }

    /// Route every kernel trace event onto `obs`'s shared event bus as a
    /// structured `Source::Simnet` event (see [`crate::trace`]): the only
    /// place kernel events are recorded.
    pub fn attach_obs(&mut self, obs: &obs::Obs) {
        self.trace.attach_obs(obs);
    }

    pub fn host_of(&self, a: ActorId) -> HostId {
        self.states[a.0].host
    }

    pub fn host_name(&self, h: HostId) -> &str {
        &self.hosts[h.0].name
    }

    pub fn host_speed(&self, h: HostId) -> f64 {
        self.hosts[h.0].sched.speed()
    }

    pub fn host_mem_capacity(&self, h: HostId) -> u64 {
        self.hosts[h.0].mem_capacity
    }

    /// Accounting snapshot for `a`, first syncing its host's CPU fluid
    /// model to the current time so counters are exact.
    pub fn snapshot(&mut self, a: ActorId) -> Snapshot {
        let host = self.states[a.0].host.0;
        self.sync_host(host);
        self.states[a.0].acct.snapshot()
    }

    /// Run `f` against the full (synced) accounting record of `a`.
    ///
    /// Named `read_*`, not `with_*`: the `with_*` prefix is reserved for
    /// consuming builder steps (`mut self -> Self`); this is a scoped
    /// accessor.
    pub fn read_accounting<R>(&mut self, a: ActorId, f: impl FnOnce(&Accounting) -> R) -> R {
        let host = self.states[a.0].host.0;
        self.sync_host(host);
        f(&self.states[a.0].acct)
    }

    /// Transfers of `a` delivered at or after `since` (most recent last).
    pub fn transfers_since(&mut self, a: ActorId, since: SimTime) -> Vec<Transfer> {
        self.read_accounting(a, |acct| {
            acct.transfers.iter().filter(|t| t.delivered >= since).copied().collect()
        })
    }

    // ------------------------------------------------------------------
    // Driving the simulation
    // ------------------------------------------------------------------

    /// Schedule `f` to run at absolute time `t` with full control of the
    /// simulation (used by experiment scripts to vary resources). It runs
    /// after every event already queued at `t`, on the thread driving the
    /// simulation; the `Send` bound only keeps a `Sim` that holds the
    /// script `Send` (see [`Actor`]).
    pub fn at(&mut self, t: SimTime, f: impl FnOnce(&mut Sim) + Send + 'static) {
        assert!(t >= self.now, "cannot schedule in the past ({t} < {})", self.now);
        self.queue.push(t, Ev::Script(Box::new(f)));
    }

    /// Process events until the queue is exhausted.
    pub fn run_until_idle(&mut self) {
        self.drain(SimTime::MAX);
    }

    /// Process events up to and including time `t`; the clock ends at `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.drain(t);
        if t > self.now {
            self.now = t;
        }
    }

    /// The drain loop: handle every event at or before `bound` in queue
    /// order, leaving the clock at the last one handled. Both ways of
    /// driving a simulation (to idle, to a time) are this loop with a
    /// different bound.
    fn drain(&mut self, bound: SimTime) {
        while let Some((t, ev)) = self.queue.pop(bound) {
            debug_assert!(t >= self.now);
            self.now = t;
            self.handle(ev);
        }
    }

    /// Process events for `dur_us` more microseconds of simulated time.
    pub fn run_for(&mut self, dur_us: u64) {
        let t = self.now + dur_us;
        self.run_until(t);
    }

    /// True when no further events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.len() == 0
    }

    /// Number of events currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the event queue has ever been in this simulation. The same
    /// number under every [`DrainMode`] whose schedule is the reference
    /// one (`Heap`, `Batched`, the identity `Explore` plan).
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak()
    }

    /// The active [`DrainMode`].
    pub fn drain_mode(&self) -> DrainMode {
        self.mode
    }

    /// Select the event-queue drain strategy. Only allowed while the queue
    /// is empty (typically right after [`Sim::new`], before spawning), so
    /// events never have to migrate between representations.
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.queue.set_mode(mode);
        self.mode = mode;
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        self.events_handled += 1;
        if let Some(limit) = self.event_limit {
            if self.events_handled > limit {
                let tail = match self.trace.obs() {
                    None => "no obs attached".to_string(),
                    Some(obs) => obs
                        .events_filtered(&obs::EventFilter::any().source(obs::Source::Simnet))
                        .iter()
                        .rev()
                        .filter_map(|e| TraceEvent::from_obs(e))
                        .filter(|(_, e)| !matches!(e, TraceEvent::TimerFired { .. }))
                        .take(40)
                        .map(|(t, e)| format!("{t} {e:?}"))
                        .collect::<Vec<_>>()
                        .join("\n"),
                };
                panic!(
                    "event limit {limit} exceeded at {} — runaway loop? trace tail (newest first):\n{tail}",
                    self.now
                );
            }
        }
        match ev {
            Ev::Start(a) => {
                if self.states[a.0].alive {
                    self.dispatch(a, |actor, ctx| actor.on_start(ctx));
                    self.pump(a);
                }
            }
            Ev::Restart(a) => {
                if self.states[a.0].alive {
                    self.dispatch(a, |actor, ctx| actor.on_restart(ctx));
                    self.pump(a);
                }
            }
            Ev::CpuNext { host, epoch } => {
                if self.hosts[host].sched.epoch == epoch {
                    self.sync_host(host);
                    self.schedule_next_cpu(host);
                }
            }
            Ev::FlowNext { src, dst, epoch } => {
                if self.flow_scheds.get(&(src, dst)).is_some_and(|f| f.epoch == epoch) {
                    self.sync_flows(src, dst);
                    self.schedule_next_flow(src, dst);
                }
            }
            Ev::Deliver { src, dst, msg, queued } => {
                if !self.states[dst.0].alive {
                    let now = self.now;
                    self.trace.emit(
                        now,
                        TraceEvent::MsgDropped {
                            src,
                            dst,
                            bytes: msg.wire_bytes,
                            reason: DropReason::ReceiverDead,
                        },
                    );
                    return;
                }
                let bytes = msg.wire_bytes;
                let now = self.now;
                let t_recv =
                    Transfer { peer: src, dir: Dir::Received, bytes, queued, delivered: now };
                self.states[dst.0].acct.record_transfer(t_recv);
                if src.0 < self.states.len() {
                    let t_sent =
                        Transfer { peer: dst, dir: Dir::Sent, bytes, queued, delivered: now };
                    self.states[src.0].acct.record_transfer(t_sent);
                }
                self.trace.emit(now, TraceEvent::MsgDelivered { src, dst, bytes });
                let st = &mut self.states[dst.0];
                if st.running == Running::Idle && st.fifo.is_empty() && st.inbox.is_empty() {
                    self.dispatch(dst, |actor, ctx| actor.on_message(src, msg, ctx));
                    self.pump(dst);
                } else {
                    st.inbox.push_back((src, msg));
                }
            }
            Ev::Timer { actor, tag, incarnation } => {
                if self.states[actor.0].alive && self.states[actor.0].incarnation == incarnation {
                    self.trace.emit(self.now, TraceEvent::TimerFired { actor, tag });
                    self.dispatch(actor, |a, ctx| a.on_timer(tag, ctx));
                    self.pump(actor);
                }
            }
            Ev::Wake { actor } => {
                let st = &mut self.states[actor.0];
                if st.running == Running::Sleep {
                    st.acct.sleep_wall_us += self.now.since(st.sleep_started) as f64;
                    st.running = Running::Idle;
                    self.pump(actor);
                }
            }
            Ev::Script(f) => f(self),
        }
    }

    /// Advance `host`'s fluid CPU model to `self.now`, moving accumulated
    /// usage into per-actor accounting and finishing completed runs.
    fn sync_host(&mut self, host: usize) {
        let now = self.now;
        let done = self.hosts[host].sched.advance(now);
        for (a, cpu_us, work) in self.hosts[host].sched.drain_usage() {
            let acct = &mut self.states[a.0].acct;
            acct.cpu_time_us += cpu_us;
            acct.work_done += work;
        }
        for a in done.finished {
            self.finish_compute(a);
        }
    }

    fn finish_compute(&mut self, a: ActorId) {
        let st = &mut self.states[a.0];
        debug_assert_eq!(st.running, Running::Compute);
        st.acct.compute_wall_us += self.now.since(st.compute_started) as f64;
        st.running = Running::Idle;
        self.trace.emit(self.now, TraceEvent::ComputeEnd { actor: a });
        self.pump(a);
    }

    fn schedule_next_cpu(&mut self, host: usize) {
        if let Some(t) = self.hosts[host].sched.next_completion() {
            let epoch = self.hosts[host].sched.epoch;
            self.queue.push(t, Ev::CpuNext { host, epoch });
        }
    }

    /// Advance a fair-share link to `now`, scheduling deliveries for every
    /// flow that completed.
    fn sync_flows(&mut self, src: usize, dst: usize) {
        let now = self.now;
        let latency =
            self.links.get(&(src, dst)).map(|l| l.latency_us).unwrap_or(self.default_latency_us);
        let done = match self.flow_scheds.get_mut(&(src, dst)) {
            Some(fs) => fs.advance(now),
            None => return,
        };
        for id in done {
            if let Some((s, d, msg, queued, jitter_us)) = self.inflight.remove(&id) {
                let t = now + latency + jitter_us;
                self.queue.push(t, Ev::Deliver { src: s, dst: d, msg, queued });
            }
        }
    }

    fn schedule_next_flow(&mut self, src: usize, dst: usize) {
        if let Some(fs) = self.flow_scheds.get(&(src, dst)) {
            if let Some(t) = fs.next_completion() {
                let epoch = fs.epoch;
                self.queue.push(t, Ev::FlowNext { src, dst, epoch });
            }
        }
    }

    /// Paging-slowdown multiplier for an actor's compute actions.
    fn mem_penalty(&self, a: ActorId) -> f64 {
        let st = &self.states[a.0];
        match st.mem_limit {
            Some(limit) if limit > 0 && st.acct.mem_used > limit => {
                let over = (st.acct.mem_used - limit) as f64 / limit as f64;
                1.0 + st.mem_penalty_k * over
            }
            _ => 1.0,
        }
    }

    /// Execute `a`'s action queue until it blocks (compute/sleep) or drains.
    fn pump(&mut self, a: ActorId) {
        loop {
            if self.states[a.0].running != Running::Idle || !self.states[a.0].alive {
                return;
            }
            match self.states[a.0].fifo.pop_front() {
                Some(Action::Compute { work }) => {
                    let eff = work * self.mem_penalty(a);
                    if eff <= 1e-9 {
                        continue;
                    }
                    let host = self.states[a.0].host.0;
                    self.sync_host(host);
                    // sync_host may have re-entered pump for completed
                    // actors, but never for `a` (it is Idle with no run).
                    let (weight, cap) = {
                        let st = &self.states[a.0];
                        (st.weight, st.cpu_cap)
                    };
                    self.hosts[host].sched.start(a, eff, weight, cap);
                    let st = &mut self.states[a.0];
                    st.running = Running::Compute;
                    st.compute_started = self.now;
                    self.trace.emit(self.now, TraceEvent::ComputeStart { actor: a, work: eff });
                    self.schedule_next_cpu(host);
                    return;
                }
                Some(Action::Send { dst, msg }) => {
                    self.transmit(a, dst, msg);
                }
                Some(Action::Sleep { us }) => {
                    if us == 0 {
                        continue;
                    }
                    let st = &mut self.states[a.0];
                    st.running = Running::Sleep;
                    st.sleep_started = self.now;
                    let t = self.now + us;
                    self.queue.push(t, Ev::Wake { actor: a });
                    return;
                }
                Some(Action::Continue { tag }) => {
                    self.dispatch(a, |actor, ctx| actor.on_continue(tag, ctx));
                }
                None => {
                    // Queue drained: deliver one pending inbound message.
                    if let Some((from, msg)) = self.states[a.0].inbox.pop_front() {
                        self.dispatch(a, |actor, ctx| actor.on_message(from, msg, ctx));
                    } else {
                        return;
                    }
                }
            }
        }
    }

    /// Put a message on the wire from `src` to `dst`.
    fn transmit(&mut self, src: ActorId, dst: ActorId, msg: Message) {
        assert!(dst.0 < self.states.len(), "send to unknown actor {dst}");
        let msg = match &self.wire_hook {
            Some(hook) => hook(src, dst, msg),
            None => msg,
        };
        let hs = self.states[src.0].host.0;
        let hd = self.states[dst.0].host.0;
        let bytes = msg.wire_bytes;
        self.trace.emit(self.now, TraceEvent::MsgSent { src, dst, bytes });
        if hs != hd && self.down_links.contains(&(hs, hd)) {
            // The link is inside a scheduled down window: nothing gets
            // through (and nothing occupies the wire).
            let now = self.now;
            self.trace.emit(
                now,
                TraceEvent::MsgDropped { src, dst, bytes, reason: DropReason::LinkDown },
            );
            return;
        }
        if let Some((p, rng)) = self.loss.get_mut(&(hs, hd)) {
            if rng.gen::<f64>() < *p {
                // The message still occupied the wire (sender-side cost),
                // but never arrives.
                if hs != hd {
                    let (dbw, dlat) = (self.default_bw_bps, self.default_latency_us);
                    self.links
                        .entry((hs, hd))
                        .or_insert_with(|| Link::new(dbw, dlat))
                        .schedule(self.now, bytes);
                }
                let now = self.now;
                self.trace.emit(
                    now,
                    TraceEvent::MsgDropped { src, dst, bytes, reason: DropReason::Loss },
                );
                return;
            }
        }
        // Latency jitter is sampled per message at transmit time so the
        // random stream is independent of delivery interleaving.
        let jitter_us = match self.jitter.get_mut(&(hs, hd)) {
            Some((max, rng)) => rng.gen_range(0..=*max),
            None => 0,
        };
        if hs != hd && self.flow_scheds.contains_key(&(hs, hd)) {
            // Fluid fair-share path: register the flow; delivery happens
            // when its last byte leaves the wire, plus latency (and jitter).
            self.sync_flows(hs, hd);
            let id = self.next_flow_id;
            self.next_flow_id += 1;
            self.inflight.insert(id, (src, dst, msg, self.now, jitter_us));
            self.flow_scheds.get_mut(&(hs, hd)).unwrap().start(id, bytes);
            self.schedule_next_flow(hs, hd);
            return;
        }
        let deliver_at = if hs == hd {
            self.now + self.local_latency_us
        } else {
            let (dbw, dlat) = (self.default_bw_bps, self.default_latency_us);
            let link = self.links.entry((hs, hd)).or_insert_with(|| Link::new(dbw, dlat));
            link.schedule(self.now, bytes).deliver
        } + jitter_us;
        let queued = self.now;
        self.queue.push(deliver_at, Ev::Deliver { src, dst, msg, queued });
    }

    /// Take the actor out of its slot, run `f` with a [`Ctx`], put it back.
    fn dispatch(&mut self, a: ActorId, f: impl FnOnce(&mut Box<dyn Actor>, &mut Ctx<'_>)) {
        let mut actor =
            self.actors[a.0].take().unwrap_or_else(|| panic!("reentrant dispatch on {a}"));
        {
            let mut ctx = Ctx { sim: self, id: a };
            f(&mut actor, &mut ctx);
        }
        self.actors[a.0] = Some(actor);
    }
}

/// The interface an actor uses to interact with the simulation from inside
/// an event handler. Enqueue-style methods ([`Ctx::compute`], [`Ctx::send`],
/// [`Ctx::sleep`], [`Ctx::continue_with`]) append to the actor's serial
/// action queue; the rest act immediately.
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    pub id: ActorId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Enqueue a CPU demand of `work` work-units.
    pub fn compute(&mut self, work: f64) {
        assert!(work.is_finite() && work >= 0.0, "invalid work {work}");
        self.sim.states[self.id.0].fifo.push_back(Action::Compute { work });
    }

    /// Enqueue a message send (ordered after earlier actions).
    pub fn send(&mut self, dst: ActorId, msg: Message) {
        self.sim.states[self.id.0].fifo.push_back(Action::Send { dst, msg });
    }

    /// Enqueue an idle period of `us` microseconds.
    pub fn sleep(&mut self, us: u64) {
        self.sim.states[self.id.0].fifo.push_back(Action::Sleep { us });
    }

    /// Enqueue a continuation: `on_continue(tag)` fires after all earlier
    /// actions complete.
    pub fn continue_with(&mut self, tag: u64) {
        self.sim.states[self.id.0].fifo.push_back(Action::Continue { tag });
    }

    /// Send immediately, bypassing the action queue (control-plane traffic
    /// such as monitoring reports).
    pub fn send_now(&mut self, dst: ActorId, msg: Message) {
        let id = self.id;
        self.sim.transmit(id, dst, msg);
    }

    /// Fire `on_timer(tag)` after `delay_us` (fires even while busy).
    /// Timers do not survive a host crash: they are cancelled when the
    /// actor's incarnation changes.
    pub fn set_timer(&mut self, delay_us: u64, tag: u64) {
        let t = self.sim.now + delay_us;
        let id = self.id;
        let incarnation = self.sim.states[id.0].incarnation;
        self.sim.queue.push(t, Ev::Timer { actor: id, tag, incarnation });
    }

    /// Allocate simulated memory.
    pub fn alloc(&mut self, bytes: u64) {
        self.sim.states[self.id.0].acct.alloc(bytes);
    }

    /// Release simulated memory.
    pub fn free(&mut self, bytes: u64) {
        self.sim.states[self.id.0].acct.free(bytes);
    }

    /// Snapshot of this actor's own accounting (synced to now).
    pub fn my_snapshot(&mut self) -> Snapshot {
        let id = self.id;
        self.sim.snapshot(id)
    }

    /// Snapshot of another actor's accounting.
    pub fn snapshot_of(&mut self, a: ActorId) -> Snapshot {
        self.sim.snapshot(a)
    }

    /// This actor's recent transfers delivered at or after `since`.
    pub fn transfers_since(&mut self, since: SimTime) -> Vec<Transfer> {
        let id = self.id;
        self.sim.transfers_since(id, since)
    }

    /// The most recent inbound transfer recorded for this actor. Inside
    /// `on_message` this is the transfer that carried the message being
    /// handled (delivery records it immediately before dispatch).
    pub fn last_received(&self) -> Option<Transfer> {
        self.sim.states[self.id.0]
            .acct
            .transfers
            .iter()
            .rev()
            .find(|t| t.dir == Dir::Received)
            .copied()
    }

    /// Host this actor runs on.
    pub fn my_host(&self) -> HostId {
        self.sim.states[self.id.0].host
    }

    /// Host of another actor.
    pub fn host_of(&self, a: ActorId) -> HostId {
        self.sim.host_of(a)
    }

    /// Full speed of a host (system-wide monitor: maximum CPU capacity).
    pub fn host_speed(&self, h: HostId) -> f64 {
        self.sim.host_speed(h)
    }

    /// Full capacity of the `src -> dst` link in bytes/second (system-wide
    /// monitor: maximum network capacity).
    pub fn link_capacity_bps(&self, src: HostId, dst: HostId) -> f64 {
        self.sim.link_capacity_bps(src, dst)
    }

    /// Remove and return every not-yet-started action of this actor.
    /// This is the interposition hook used by the sandbox (see module docs).
    pub fn drain_actions(&mut self) -> Vec<Action> {
        self.sim.states[self.id.0].fifo.drain(..).collect()
    }

    /// Re-enqueue a previously drained action (interposition re-emit).
    pub fn push_action(&mut self, action: Action) {
        self.sim.states[self.id.0].fifo.push_back(action);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Computes `work` on start, then records its completion time.
    struct Worker {
        work: f64,
        done_at: Arc<Mutex<Option<SimTime>>>,
    }
    impl Actor for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(self.work);
            ctx.continue_with(1);
        }
        fn on_continue(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            *self.done_at.lock().unwrap() = Some(ctx.now());
        }
    }

    #[test]
    fn single_worker_runs_at_full_speed() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: done.clone() }));
        sim.run_until_idle();
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn two_workers_share_the_cpu() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let d1 = Arc::new(Mutex::new(None));
        let d2 = Arc::new(Mutex::new(None));
        sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: d1.clone() }));
        sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: d2.clone() }));
        sim.run_until_idle();
        // Both run at 50% until t=2s.
        assert_eq!(*d1.lock().unwrap(), Some(SimTime::from_secs(2)));
        assert_eq!(*d2.lock().unwrap(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn cpu_cap_slows_a_worker() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: done.clone() }));
        sim.set_cpu_cap(a, Some(0.5));
        sim.run_until_idle();
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_secs(2)));
        let snap = sim.snapshot(a);
        assert!((snap.cpu_time_us - 1_000_000.0).abs() < 1.0);
        assert!((snap.compute_wall_us - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn cap_change_mid_run_takes_effect() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: done.clone() }));
        // Full speed for 0.5s (half the work), then capped to 25%:
        // remaining 0.5s of work takes 2s -> finish at 2.5s.
        sim.at(SimTime::from_ms(500), move |s| s.set_cpu_cap(a, Some(0.25)));
        sim.run_until_idle();
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_ms(2500)));
    }

    /// Echo server: replies to each message with the same wire size.
    struct Echo;
    impl Actor for Echo {
        fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
            ctx.send(from, Message::signal(msg.tag + 100, msg.wire_bytes));
        }
    }

    struct Pinger {
        server: ActorId,
        bytes: u64,
        rtt: Arc<Mutex<Option<u64>>>,
        sent_at: SimTime,
    }
    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent_at = ctx.now();
            ctx.send(self.server, Message::signal(1, self.bytes));
        }
        fn on_message(&mut self, _from: ActorId, _msg: Message, ctx: &mut Ctx<'_>) {
            *self.rtt.lock().unwrap() = Some(ctx.now().since(self.sent_at));
        }
    }

    #[test]
    fn request_reply_over_link() {
        let mut sim = Sim::new();
        let hc = sim.add_host("client", 1.0, 1 << 30);
        let hs = sim.add_host("server", 1.0, 1 << 30);
        // 1 MB/s, 1000us latency each way.
        sim.set_link(hc, hs, 1_000_000.0, 1000);
        let server = sim.spawn(hs, Box::new(Echo));
        let rtt = Arc::new(Mutex::new(None));
        sim.spawn(
            hc,
            Box::new(Pinger { server, bytes: 500_000, rtt: rtt.clone(), sent_at: SimTime::ZERO }),
        );
        sim.run_until_idle();
        // Each direction: 0.5s serialization + 1ms latency.
        assert_eq!(*rtt.lock().unwrap(), Some(2 * (500_000 + 1000)));
    }

    #[test]
    fn local_messages_use_local_latency() {
        let mut sim = Sim::new();
        let h = sim.add_host("one", 1.0, 1 << 30);
        let server = sim.spawn(h, Box::new(Echo));
        let rtt = Arc::new(Mutex::new(None));
        sim.spawn(
            h,
            Box::new(Pinger { server, bytes: 500_000, rtt: rtt.clone(), sent_at: SimTime::ZERO }),
        );
        sim.run_until_idle();
        assert_eq!(*rtt.lock().unwrap(), Some(2 * DEFAULT_LOCAL_LATENCY_US));
    }

    /// Sets a periodic timer and counts firings.
    struct Ticker {
        period: u64,
        limit: u32,
        count: Arc<Mutex<u32>>,
    }
    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, 0);
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            *self.count.lock().unwrap() += 1;
            if *self.count.lock().unwrap() < self.limit {
                ctx.set_timer(self.period, 0);
            }
        }
    }

    #[test]
    fn timers_fire_periodically() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let count = Arc::new(Mutex::new(0));
        sim.spawn(h, Box::new(Ticker { period: dur::ms(10), limit: 5, count: count.clone() }));
        sim.run_until_idle();
        assert_eq!(*count.lock().unwrap(), 5);
        assert_eq!(sim.now(), SimTime::from_ms(50));
    }

    #[test]
    fn timer_fires_while_computing() {
        struct Busy {
            fired_at: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(dur::ms(100), 7);
                ctx.compute(1_000_000.0); // 1s of work
            }
            fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                assert_eq!(tag, 7);
                *self.fired_at.lock().unwrap() = Some(ctx.now());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let fired = Arc::new(Mutex::new(None));
        sim.spawn(h, Box::new(Busy { fired_at: fired.clone() }));
        sim.run_until_idle();
        // The timer fired mid-compute, not after it.
        assert_eq!(*fired.lock().unwrap(), Some(SimTime::from_ms(100)));
    }

    #[test]
    fn messages_wait_for_busy_actor() {
        struct SlowReceiver {
            got_at: Arc<Mutex<Vec<SimTime>>>,
        }
        impl Actor for SlowReceiver {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.compute(1_000_000.0); // busy until t=1s
            }
            fn on_message(&mut self, _f: ActorId, _m: Message, ctx: &mut Ctx<'_>) {
                self.got_at.lock().unwrap().push(ctx.now());
            }
        }
        struct Sender {
            dst: ActorId,
        }
        impl Actor for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.dst, Message::signal(1, 0));
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let got = Arc::new(Mutex::new(Vec::new()));
        let rcv = sim.spawn(h, Box::new(SlowReceiver { got_at: got.clone() }));
        sim.spawn(h, Box::new(Sender { dst: rcv }));
        sim.run_until_idle();
        assert_eq!(got.lock().unwrap().as_slice(), &[SimTime::from_secs(1)]);
    }

    #[test]
    fn sleep_accrues_sleep_wall_time() {
        struct Sleeper;
        impl Actor for Sleeper {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.sleep(dur::ms(250));
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let a = sim.spawn(h, Box::new(Sleeper));
        sim.run_until_idle();
        let snap = sim.snapshot(a);
        assert!((snap.sleep_wall_us - 250_000.0).abs() < 1e-9);
    }

    #[test]
    fn memory_overcommit_inflates_compute() {
        struct Hog {
            done: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for Hog {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.alloc(2_000_000); // 2 MB used vs 1 MB limit
                ctx.compute(1_000_000.0);
                ctx.continue_with(0);
            }
            fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.done.lock().unwrap() = Some(ctx.now());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Hog { done: done.clone() }));
        sim.set_mem_limit(a, Some(1_000_000));
        sim.run_until_idle();
        // Overcommit fraction 1.0, k=4 -> 5x slowdown -> 5s.
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn scripted_events_run_at_their_time() {
        let mut sim = Sim::new();
        let _h = sim.add_host("ref", 1.0, 1 << 30);
        let log = Arc::new(Mutex::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        sim.at(SimTime::from_secs(2), move |s| l2.lock().unwrap().push(s.now()));
        sim.at(SimTime::from_secs(1), move |s| l1.lock().unwrap().push(s.now()));
        sim.run_until_idle();
        assert_eq!(log.lock().unwrap().as_slice(), &[SimTime::from_secs(1), SimTime::from_secs(2)]);
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        sim.spawn(h, Box::new(Worker { work: 10_000_000.0, done_at: done.clone() }));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(done.lock().unwrap().is_none());
        sim.run_until_idle();
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn snapshot_is_accurate_mid_run() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Worker { work: 10_000_000.0, done_at: done }));
        sim.set_cpu_cap(a, Some(0.5));
        sim.run_until(SimTime::from_secs(2));
        let snap = sim.snapshot(a);
        // Held 50% of the CPU for 2s -> 1s of CPU time.
        assert!((snap.cpu_time_us - 1_000_000.0).abs() < 1.0, "{snap:?}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        fn run() -> (SimTime, f64) {
            let mut sim = Sim::new();
            let h = sim.add_host("ref", 1.0, 1 << 30);
            let hs = sim.add_host("srv", 0.7, 1 << 30);
            sim.set_link(h, hs, 2_000_000.0, 500);
            let server = sim.spawn(hs, Box::new(Echo));
            let rtt = Arc::new(Mutex::new(None));
            let a = sim
                .spawn(h, Box::new(Pinger { server, bytes: 123_456, rtt, sent_at: SimTime::ZERO }));
            sim.run_until_idle();
            let s = sim.snapshot(a);
            (sim.now(), s.cpu_time_us + s.bytes_recv as f64)
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn drain_and_reemit_actions() {
        struct Inner;
        impl Actor for Inner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.compute(100.0);
                ctx.sleep(50);
            }
        }
        struct Interposer {
            inner: Inner,
            seen: Arc<Mutex<usize>>,
        }
        impl Actor for Interposer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.inner.on_start(ctx);
                let actions = ctx.drain_actions();
                *self.seen.lock().unwrap() = actions.len();
                for a in actions {
                    ctx.push_action(a);
                }
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let seen = Arc::new(Mutex::new(0));
        sim.spawn(h, Box::new(Interposer { inner: Inner, seen: seen.clone() }));
        sim.run_until_idle();
        assert_eq!(*seen.lock().unwrap(), 2);
        assert_eq!(sim.now(), SimTime::from_us(150));
    }
}

#[cfg(test)]
mod drain_tests {
    use super::*;
    use crate::time::dur;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Pings a peer every `period`, logging (time, tick#) on each fire.
    /// Many of these with the same period produce timestamp-aligned storms
    /// — the regime batched draining targets.
    struct AlignedTicker {
        peer: Option<ActorId>,
        period: u64,
        limit: u32,
        ticks: u32,
        log: Arc<Mutex<Vec<(SimTime, usize, u64)>>>,
        me: usize,
    }
    impl Actor for AlignedTicker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.period, self.me as u64);
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
            self.ticks += 1;
            self.log.lock().unwrap().push((ctx.now(), self.me, tag));
            if let Some(peer) = self.peer {
                ctx.send_now(peer, Message::signal(tag, 64));
            }
            if self.ticks < self.limit {
                ctx.set_timer(self.period, tag);
            }
        }
        fn on_message(&mut self, from: ActorId, _m: Message, ctx: &mut Ctx<'_>) {
            self.log.lock().unwrap().push((ctx.now(), self.me, u64::MAX - from.0 as u64));
        }
    }

    fn storm(mode: DrainMode) -> (Vec<(SimTime, usize, u64)>, SimTime, u64) {
        storm_driven(mode, Sim::run_until_idle)
    }

    fn storm_driven(
        mode: DrainMode,
        drive: impl FnOnce(&mut Sim),
    ) -> (Vec<(SimTime, usize, u64)>, SimTime, u64) {
        let mut sim = Sim::new();
        sim.set_drain_mode(mode);
        let h = sim.add_host("h", 1.0, 1 << 30);
        let h2 = sim.add_host("h2", 1.0, 1 << 30);
        sim.set_link(h, h2, 1_000_000.0, 100);
        let log = Arc::new(Mutex::new(Vec::new()));
        // Each ticker pings the previously spawned one, so timer storms
        // interleave with message deliveries across both hosts.
        let mut prev: Option<ActorId> = None;
        for i in 0..16 {
            let host = if i % 2 == 0 { h } else { h2 };
            prev = Some(sim.spawn(
                host,
                Box::new(AlignedTicker {
                    peer: prev,
                    period: dur::ms(10),
                    limit: 8,
                    ticks: 0,
                    log: log.clone(),
                    me: i,
                }),
            ));
        }
        drive(&mut sim);
        let l = log.lock().unwrap().clone();
        (l, sim.now(), sim.events_handled())
    }

    #[test]
    fn bounded_driving_matches_idle_driving_in_every_mode() {
        // The period is 10 ms, so 7 ms steps land both on and off the
        // timer grid.
        for mode in [DrainMode::Heap, DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))] {
            let (idle_log, idle_end, idle_events) = storm(mode);
            let (log, _, events) = storm_driven(mode, |sim| {
                while !sim.is_idle() {
                    sim.run_for(dur::ms(7));
                }
                assert!(sim.now() >= idle_end);
            });
            assert_eq!(log, idle_log, "{mode:?}");
            assert_eq!(events, idle_events, "{mode:?}");
        }
    }

    #[test]
    fn batched_and_heap_modes_are_bit_identical() {
        let a = storm(DrainMode::Heap);
        let b = storm(DrainMode::Batched);
        assert_eq!(a, b);
    }

    #[test]
    fn default_mode_is_batched() {
        let sim = Sim::new();
        assert_eq!(sim.drain_mode(), DrainMode::Batched);
    }

    #[test]
    fn queue_depth_tracks_pending_events() {
        for mode in [DrainMode::Heap, DrainMode::Batched] {
            let mut sim = Sim::new();
            sim.set_drain_mode(mode);
            let _h = sim.add_host("h", 1.0, 1 << 30);
            for i in 0..10 {
                sim.at(SimTime::from_ms(10 + i), |_s| {});
            }
            assert_eq!(sim.queue_depth(), 10, "{mode:?}");
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?}");
            assert!(!sim.is_idle());
            sim.run_until(SimTime::from_ms(14));
            assert_eq!(sim.queue_depth(), 5, "{mode:?}");
            sim.run_until_idle();
            assert!(sim.is_idle());
            assert_eq!(sim.queue_depth(), 0, "{mode:?}");
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?}");
            // The peak belongs to the simulation, not the representation.
            sim.set_drain_mode(DrainMode::Heap);
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?} -> Heap");
        }
    }

    #[test]
    fn same_timestamp_events_keep_insertion_order() {
        for mode in [DrainMode::Heap, DrainMode::Batched] {
            let mut sim = Sim::new();
            sim.set_drain_mode(mode);
            let _h = sim.add_host("h", 1.0, 1 << 30);
            let log = Arc::new(Mutex::new(Vec::new()));
            let t = SimTime::from_ms(5);
            for i in 0..50u32 {
                let l = log.clone();
                sim.at(t, move |_s| l.lock().unwrap().push(i));
            }
            // An event scheduled *during* the batch at the same time must
            // run after the whole batch, as it would with higher seq.
            let l = log.clone();
            sim.at(t, move |s| {
                let l2 = l.clone();
                s.at(t, move |_s| l2.lock().unwrap().push(999));
            });
            sim.run_until_idle();
            let want: Vec<u32> = (0..50).chain([999]).collect();
            assert_eq!(log.lock().unwrap().as_slice(), want.as_slice(), "{mode:?}");
        }
    }

    #[test]
    fn explore_identity_plan_matches_batched_and_heap() {
        let heap = storm(DrainMode::Heap);
        let batched = storm(DrainMode::Batched);
        let explore = storm(DrainMode::Explore(ExplorePlan::new(0)));
        assert_eq!(heap, batched);
        assert_eq!(batched, explore);
    }

    #[test]
    fn explore_same_plan_is_deterministic() {
        let plan = ExplorePlan::new(7).with_timer_skew_us(300);
        let a = storm(DrainMode::Explore(plan));
        let b = storm(DrainMode::Explore(plan));
        assert_eq!(a, b);
    }

    #[test]
    fn explore_seeds_reach_distinct_legal_schedules() {
        let base = storm(DrainMode::Batched);
        let mut saw_different = false;
        for seed in 1..=8u64 {
            let p = storm(DrainMode::Explore(ExplorePlan::new(seed)));
            // Permutation alone reorders same-timestamp handling; it can
            // never change what happens or when the run ends.
            assert_eq!(p.1, base.1, "seed {seed} changed the end time");
            assert_eq!(p.2, base.2, "seed {seed} changed the event count");
            saw_different |= p.0 != base.0;
        }
        assert!(saw_different, "no seed in 1..=8 perturbed the schedule");
    }

    #[test]
    fn explore_timer_skew_moves_fires_off_the_grid() {
        let plan = ExplorePlan::new(3).with_timer_skew_us(500);
        let (log, _, _) = storm(DrainMode::Explore(plan));
        assert!(
            log.iter().any(|(t, _, _)| t.as_us() % 10_000 != 0),
            "500us skew left every fire on the 10 ms grid"
        );
    }

    /// Two actors that bounce one message forever: a runaway loop.
    struct PingPong {
        peer: Option<ActorId>,
    }
    impl Actor for PingPong {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(peer) = self.peer {
                ctx.send(peer, Message::signal(0, 8));
            }
        }
        fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
            ctx.send(from, msg);
        }
    }

    #[test]
    #[should_panic(expected = "MsgSent")]
    fn event_limit_panic_shows_the_bus_tail() {
        let obs = obs::Obs::new();
        let mut sim = Sim::new();
        sim.attach_obs(&obs);
        sim.set_event_limit(Some(50));
        let h = sim.add_host("h", 1.0, 1 << 30);
        let a = sim.spawn(h, Box::new(PingPong { peer: None }));
        sim.spawn(h, Box::new(PingPong { peer: Some(a) }));
        sim.run_until_idle();
    }

    #[test]
    #[should_panic(expected = "empty event queue")]
    fn set_drain_mode_rejects_pending_events() {
        let mut sim = Sim::new();
        let _h = sim.add_host("h", 1.0, 1 << 30);
        sim.at(SimTime::from_ms(1), |_s| {});
        sim.set_drain_mode(DrainMode::Heap);
    }
}

#[cfg(test)]
mod kill_tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    struct Worker {
        work: f64,
        done: Arc<Mutex<Option<SimTime>>>,
    }
    impl Actor for Worker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(self.work);
            ctx.continue_with(0);
        }
        fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
            *self.done.lock().unwrap() = Some(ctx.now());
        }
    }

    #[test]
    fn killed_actor_stops_and_frees_the_cpu() {
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let d1 = Arc::new(Mutex::new(None));
        let d2 = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done: d1.clone() }));
        sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done: d2.clone() }));
        // Both at 50% until the kill at 0.5s (0.25s of work each done);
        // the survivor then runs at 100% and finishes at 0.5 + 0.75 = 1.25s.
        sim.at(SimTime::from_ms(500), move |s| s.kill(a));
        sim.run_until_idle();
        assert!(d1.lock().unwrap().is_none(), "killed actor never completes");
        assert_eq!(*d2.lock().unwrap(), Some(SimTime::from_ms(1250)));
        assert!(!sim.is_alive(a));
    }

    #[test]
    fn messages_to_dead_actors_are_dropped() {
        struct Sender {
            dst: ActorId,
        }
        impl Actor for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.sleep(1000);
                ctx.send(self.dst, Message::signal(1, 10));
            }
        }
        struct Receiver {
            got: Arc<Mutex<u32>>,
        }
        impl Actor for Receiver {
            fn on_message(&mut self, _f: ActorId, _m: Message, _ctx: &mut Ctx<'_>) {
                *self.got.lock().unwrap() += 1;
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let got = Arc::new(Mutex::new(0));
        let r = sim.spawn(h, Box::new(Receiver { got: got.clone() }));
        sim.spawn(h, Box::new(Sender { dst: r }));
        sim.at(SimTime::from_us(500), move |s| s.kill(r));
        sim.run_until_idle();
        assert_eq!(*got.lock().unwrap(), 0);
    }

    #[test]
    fn kill_is_idempotent_and_timers_ignored() {
        struct Timed {
            fired: Arc<Mutex<u32>>,
        }
        impl Actor for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(1_000, 0);
                ctx.set_timer(10_000, 0);
            }
            fn on_timer(&mut self, _t: u64, _ctx: &mut Ctx<'_>) {
                *self.fired.lock().unwrap() += 1;
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let fired = Arc::new(Mutex::new(0));
        let a = sim.spawn(h, Box::new(Timed { fired: fired.clone() }));
        sim.at(SimTime::from_us(5_000), move |s| {
            s.kill(a);
            s.kill(a); // idempotent
        });
        sim.run_until_idle();
        assert_eq!(*fired.lock().unwrap(), 1, "only the pre-kill timer fires");
    }
}

#[cfg(test)]
mod fairshare_tests {
    use super::*;
    use crate::link::LinkMode;
    use std::sync::Arc;
    use std::sync::Mutex;

    struct Blast {
        dst: ActorId,
        bytes: u64,
        at_us: u64,
    }
    impl Actor for Blast {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.sleep(self.at_us);
            ctx.send(self.dst, Message::signal(0, self.bytes));
        }
    }

    struct Sink {
        got: Arc<Mutex<Vec<(SimTime, u64)>>>,
    }
    impl Actor for Sink {
        fn on_message(&mut self, _f: ActorId, m: Message, ctx: &mut Ctx<'_>) {
            self.got.lock().unwrap().push((ctx.now(), m.wire_bytes));
        }
    }

    fn two_flows(mode: LinkMode) -> Vec<(SimTime, u64)> {
        let mut sim = Sim::new();
        let h1 = sim.add_host("a", 1.0, 1 << 30);
        let h2 = sim.add_host("b", 1.0, 1 << 30);
        sim.set_link(h1, h2, 1_000_000.0, 0);
        sim.set_link_mode(h1, h2, mode);
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.spawn(h2, Box::new(Sink { got: got.clone() }));
        sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 1_000_000, at_us: 0 }));
        sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 1_000_000, at_us: 0 }));
        sim.run_until_idle();
        let v = got.lock().unwrap().clone();
        v
    }

    #[test]
    fn fair_share_finishes_flows_together() {
        let fifo = two_flows(LinkMode::Fifo);
        assert_eq!(fifo[0].0, SimTime::from_secs(1));
        assert_eq!(fifo[1].0, SimTime::from_secs(2));
        let fair = two_flows(LinkMode::FairShare);
        assert_eq!(fair[0].0, SimTime::from_secs(2));
        assert_eq!(fair[1].0, SimTime::from_secs(2));
    }

    #[test]
    fn fair_share_single_flow_matches_fifo() {
        for mode in [LinkMode::Fifo, LinkMode::FairShare] {
            let mut sim = Sim::new();
            let h1 = sim.add_host("a", 1.0, 1 << 30);
            let h2 = sim.add_host("b", 1.0, 1 << 30);
            sim.set_link(h1, h2, 2_000_000.0, 500);
            sim.set_link_mode(h1, h2, mode);
            let got = Arc::new(Mutex::new(Vec::new()));
            let sink = sim.spawn(h2, Box::new(Sink { got: got.clone() }));
            sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 1_000_000, at_us: 0 }));
            sim.run_until_idle();
            assert_eq!(got.lock().unwrap()[0].0, SimTime::from_us(500_500), "{mode:?}");
        }
    }

    #[test]
    fn late_joiner_shares_fairly() {
        let mut sim = Sim::new();
        let h1 = sim.add_host("a", 1.0, 1 << 30);
        let h2 = sim.add_host("b", 1.0, 1 << 30);
        sim.set_link(h1, h2, 1_000_000.0, 0);
        sim.set_link_mode(h1, h2, LinkMode::FairShare);
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.spawn(h2, Box::new(Sink { got: got.clone() }));
        sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 1_000_000, at_us: 0 }));
        sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 250_000, at_us: 500_000 }));
        sim.run_until_idle();
        let got = got.lock().unwrap();
        // Joiner (250K at half rate from 0.5s) finishes at 1.0s; the big
        // flow's remaining 250K then runs alone: 1.25s.
        assert_eq!(got[0], (SimTime::from_secs(1), 250_000));
        assert_eq!(got[1], (SimTime::from_us(1_250_000), 1_000_000));
    }

    #[test]
    fn bandwidth_change_reshapes_in_flight_flows() {
        let mut sim = Sim::new();
        let h1 = sim.add_host("a", 1.0, 1 << 30);
        let h2 = sim.add_host("b", 1.0, 1 << 30);
        sim.set_link(h1, h2, 1_000_000.0, 0);
        sim.set_link_mode(h1, h2, LinkMode::FairShare);
        let got = Arc::new(Mutex::new(Vec::new()));
        let sink = sim.spawn(h2, Box::new(Sink { got: got.clone() }));
        sim.spawn(h1, Box::new(Blast { dst: sink, bytes: 1_000_000, at_us: 0 }));
        // Halve the bandwidth halfway through: 0.5s at 1 MB/s, then
        // 500K remaining at 0.5 MB/s -> 1s more -> total 1.5s.
        sim.at(SimTime::from_ms(500), move |s| {
            s.set_link_bandwidth(HostId(0), HostId(1), 500_000.0)
        });
        sim.run_until_idle();
        assert_eq!(got.lock().unwrap()[0].0, SimTime::from_us(1_500_000));
    }
}
