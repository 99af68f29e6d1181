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
//! [`Ctx::intercept`] runs a handler and takes back only the actions it
//! enqueued, leaving the actor's in-flight actions in place. This is the
//! hook the `sandbox` crate uses to emulate the paper's Win32 API
//! interception: a wrapper actor invokes the wrapped application actor,
//! captures the actions it produced, and re-emits them chopped/delayed to
//! enforce resource limits — all without the kernel knowing.
//!
//! # Per-actor observations
//!
//! An actor keeps three observations and nothing else: the CPU time it
//! received ([`Sim::cpu_time_us`], read by the sandbox's usage sampler),
//! the memory it has allocated ([`Ctx::mem_used`], read by the sandbox's
//! paging model) and when its latest inbound message was queued
//! ([`Ctx::last_received`]). Higher layers *infer* resource availability
//! from these, never from the limits they run under, as the paper's
//! monitoring agent must. Message traffic is published as `msg_sent` /
//! `msg_delivered` events on an attached obs bus ([`Sim::attach_obs`]),
//! not counted here.

use std::collections::vec_deque::Drain;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use obs::det::SplitMix64;
use obs::{FieldType, Obs, Shape, Source, PACKED_SLOTS};

use crate::actor::{Action, Actor, ActorId, HostId};
use crate::cpu::CpuSched;
use crate::fault::DropReason;
use crate::link::{Faults, Link, LinkState};
use crate::message::Message;
use crate::time::SimTime;

mod queue;

use queue::EventQueue;

/// Default one-way latency for messages between actors on the same host.
pub(crate) const DEFAULT_LOCAL_LATENCY_US: u64 = 5;

/// Bandwidth of a link nobody configured: 100 Mbit/s, in bytes/second
/// (the paper's testbed Ethernet).
const DEFAULT_BW_BPS: f64 = 12_500_000.0;

/// One-way latency of a link nobody configured, in microseconds.
const DEFAULT_LATENCY_US: u64 = 100;

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
    /// CPU time received, in microseconds of a whole processor.
    cpu_time_us: f64,
    /// Simulated bytes of memory the actor has allocated.
    mem_used: u64,
    /// When the most recently delivered inbound message was queued
    /// (`None` before the first delivery).
    last_received: Option<SimTime>,
    /// False from a crash of its host until the host restarts.
    alive: bool,
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
            cpu_time_us: 0.0,
            mem_used: 0,
            last_received: None,
            alive: true,
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
    pub(crate) fn is_identity(&self) -> bool {
        self.seed == 0
    }
}

/// How the kernel drains its event queue: the one batched queue, in
/// `(time, insertion)` order ([`DrainMode::Batched`], the default) or under
/// a seeded perturbation of that order ([`DrainMode::Explore`], for
/// simulation-test exploration; see `adapt-dst`). `Batched` is `Explore`
/// under the identity plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DrainMode {
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

impl DrainMode {
    /// The schedule perturbation this mode applies.
    fn plan(self) -> ExplorePlan {
        match self {
            DrainMode::Batched => ExplorePlan::default(),
            DrainMode::Explore(plan) => plan,
        }
    }
}

// The kernel's bus events, one shape per kind and fixed string (see
// `Sim::attach_obs`).
const fn simnet(kind: &'static str, fields: &'static [(&'static str, FieldType)]) -> Shape {
    Shape::new(Source::Simnet, kind, fields)
}
const ACTOR: (&str, FieldType) = ("actor", FieldType::U64);
const SRC: (&str, FieldType) = ("src", FieldType::U64);
const DST: (&str, FieldType) = ("dst", FieldType::U64);
const BYTES: (&str, FieldType) = ("bytes", FieldType::U64);
const HOST: (&str, FieldType) = ("host", FieldType::U64);
const fn reason(r: DropReason) -> (&'static str, FieldType) {
    ("reason", FieldType::Str(r.name()))
}
static COMPUTE_START: Shape = simnet("compute_start", &[ACTOR, ("work", FieldType::F64)]);
static COMPUTE_END: Shape = simnet("compute_end", &[ACTOR]);
static MSG_SENT: Shape = simnet("msg_sent", &[SRC, DST, BYTES]);
static MSG_DELIVERED: Shape = simnet("msg_delivered", &[SRC, DST, BYTES]);
static DROPPED_LOSS: Shape = simnet("msg_dropped", &[SRC, DST, BYTES, reason(DropReason::Loss)]);
static DROPPED_LINK_DOWN: Shape =
    simnet("msg_dropped", &[SRC, DST, BYTES, reason(DropReason::LinkDown)]);
static DROPPED_RECEIVER_DEAD: Shape =
    simnet("msg_dropped", &[SRC, DST, BYTES, reason(DropReason::ReceiverDead)]);
static LINK_DOWN: Shape = simnet("link_down", &[SRC, DST]);
static LINK_UP: Shape = simnet("link_up", &[SRC, DST]);
static HOST_CRASH: Shape = simnet("host_crash", &[HOST]);
static HOST_RESTART: Shape = simnet("host_restart", &[HOST]);
static TIMER_FIRED: Shape = simnet("timer_fired", &[ACTOR, ("tag", FieldType::U64)]);

/// The simulation: hosts, links, actors, and the event queue.
pub struct Sim {
    now: SimTime,
    /// Pending events, under the plan of the [`DrainMode`] last set.
    queue: EventQueue,
    /// One CPU model per host, indexed by `HostId`.
    hosts: Vec<CpuSched>,
    /// Scratch list of the actors a [`CpuSched::advance`] finished, kept
    /// so a completion allocates nothing (see `sync_host`).
    finished: Vec<ActorId>,
    /// One record per directed host pair that was configured, faulted or
    /// used: its link and its faults.
    links: HashMap<(usize, usize), LinkState>,
    actors: Vec<Option<Box<dyn Actor>>>,
    states: Vec<ActorState>,
    /// The bus kernel events are published to (see [`Sim::attach_obs`]).
    obs: Option<Obs>,
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
            queue: EventQueue::new(ExplorePlan::default()),
            hosts: Vec::new(),
            finished: Vec::new(),
            links: HashMap::new(),
            actors: Vec::new(),
            states: Vec::new(),
            obs: None,
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
    /// reference machine). The kernel models a host's CPU only: `name`
    /// labels it for the caller, and memory (`mem_capacity`, in bytes) is
    /// the sandbox's model, so it keeps neither.
    pub fn add_host(&mut self, _name: &str, speed: f64, _mem_capacity: u64) -> HostId {
        self.hosts.push(CpuSched::new(speed));
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

    /// Configure one direction of a link. Faults injected on it stay.
    pub(crate) fn set_link_directed(
        &mut self,
        src: HostId,
        dst: HostId,
        bw_bytes_per_sec: f64,
        latency_us: u64,
    ) {
        self.link_state(src, dst).link = Link::new(bw_bytes_per_sec, latency_us);
    }

    /// Change the bandwidth of an existing (or default) link at run time.
    /// Affects transmissions that start after this call.
    pub fn set_link_bandwidth(&mut self, src: HostId, dst: HostId, bw_bytes_per_sec: f64) {
        self.link_state(src, dst).link.set_bandwidth(bw_bytes_per_sec);
    }

    /// Inject message loss on the `src -> dst` link: each message is
    /// dropped independently with probability `p`, using a deterministic
    /// RNG seeded by `seed` (failure injection for robustness tests).
    /// `p = 0` removes the injection.
    pub(crate) fn set_link_loss(&mut self, src: HostId, dst: HostId, p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range: {p}");
        self.faults(src, dst).loss = (p != 0.0).then(|| (p, SplitMix64::new(seed)));
    }

    /// Add uniform random extra delivery latency in `[0, max_us]` to every
    /// message on the directed `src -> dst` link, drawn from a
    /// deterministic RNG seeded by `seed`. `max_us = 0` removes it.
    pub(crate) fn set_link_jitter(&mut self, src: HostId, dst: HostId, max_us: u64, seed: u64) {
        self.faults(src, dst).jitter = (max_us != 0).then(|| (max_us, SplitMix64::new(seed)));
    }

    /// Take the directed `src -> dst` link down (or bring it back up).
    /// While down, every message transmitted on it is dropped
    /// (`msg_dropped`, reason `link_down`). State changes publish
    /// `link_down` / `link_up`.
    pub(crate) fn set_link_down(&mut self, src: HostId, dst: HostId, down: bool) {
        let faults = self.faults(src, dst);
        if faults.down != down {
            faults.down = down;
            let shape = if down { &LINK_DOWN } else { &LINK_UP };
            self.emit(shape, [src.0 as u64, dst.0 as u64, 0]);
        }
    }

    /// Is the directed `src -> dst` link inside a down window?
    pub fn is_link_down(&self, src: HostId, dst: HostId) -> bool {
        self.links.get(&(src.0, dst.0)).and_then(|s| s.faults.as_ref()).is_some_and(|f| f.down)
    }

    /// Full capacity (bytes/second) of the `src -> dst` link, as a
    /// system-wide monitor would report it.
    pub fn link_capacity_bps(&self, src: HostId, dst: HostId) -> f64 {
        self.links.get(&(src.0, dst.0)).map_or(DEFAULT_BW_BPS, |s| s.link.bw_bytes_per_sec())
    }

    /// The record of the directed `src -> dst` pair, created with a
    /// default link on first use.
    fn link_state(&mut self, src: HostId, dst: HostId) -> &mut LinkState {
        self.links
            .entry((src.0, dst.0))
            .or_insert_with(|| LinkState::new(Link::new(DEFAULT_BW_BPS, DEFAULT_LATENCY_US)))
    }

    /// The faults of the directed `src -> dst` pair, created empty on
    /// first use.
    fn faults(&mut self, src: HostId, dst: HostId) -> &mut Faults {
        self.link_state(src, dst).faults.get_or_insert_default()
    }

    // ------------------------------------------------------------------
    // Resource controls
    // ------------------------------------------------------------------

    /// Set an actor's proportional-share weight.
    pub fn set_weight(&mut self, a: ActorId, weight: f64) {
        let host = self.states[a.0].host.0;
        self.states[a.0].weight = weight;
        if self.states[a.0].running == Running::Compute {
            self.sync_host(host);
            self.hosts[host].retune(a, weight);
            self.schedule_next_cpu(host);
        }
    }

    /// Is the actor still alive (not crashed)?
    pub fn is_alive(&self, a: ActorId) -> bool {
        self.states[a.0].alive
    }

    /// Crash every actor on `host`: computation is aborted, queues are
    /// cleared, and timers armed before the crash are cancelled; a
    /// [`Sim::restart_host`] revives them. Publishes `host_crash`.
    pub(crate) fn crash_host(&mut self, host: HostId) {
        let mut any = false;
        for i in 0..self.states.len() {
            if self.states[i].host != host || !self.states[i].alive {
                continue;
            }
            any = true;
            let a = ActorId(i);
            self.sync_host(host.0);
            if self.states[i].running == Running::Compute {
                self.hosts[host.0].abort(a);
                self.schedule_next_cpu(host.0);
            }
            let st = &mut self.states[i];
            st.alive = false;
            st.incarnation += 1;
            st.running = Running::Idle;
            st.fifo.clear();
            st.inbox.clear();
        }
        if any {
            self.emit(&HOST_CRASH, [host.0 as u64, 0, 0]);
        }
    }

    /// Restart a crashed host: every actor that died in a [`Sim::crash_host`]
    /// comes back alive and its [`Actor::on_restart`] runs (by default that
    /// re-runs `on_start`, modeling a process restart). Publishes
    /// `host_restart`.
    pub(crate) fn restart_host(&mut self, host: HostId) {
        let mut any = false;
        for i in 0..self.states.len() {
            let st = &mut self.states[i];
            if st.host != host || st.alive {
                continue;
            }
            any = true;
            st.alive = true;
            self.queue.push(self.now, Ev::Restart(ActorId(i)));
        }
        if any {
            self.emit(&HOST_RESTART, [host.0 as u64, 0, 0]);
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

    /// Publish every kernel event onto `obs`'s shared event bus as a
    /// structured `Source::Simnet` event: the only place kernel events are
    /// recorded. Each kind is one `static` [`Shape`] in this module, and a
    /// kernel event goes onto the bus packed: it is built into an
    /// [`obs::Event`] only when a reader asks for it.
    ///
    /// | kind | fields | shape |
    /// |---|---|---|
    /// | `compute_start` | `actor`, `work` (f64, work-units) | `COMPUTE_START` |
    /// | `compute_end` | `actor` | `COMPUTE_END` |
    /// | `msg_sent`, `msg_delivered` | `src`, `dst` (actors), `bytes` | `MSG_SENT`, `MSG_DELIVERED` |
    /// | `msg_dropped` | `src`, `dst`, `bytes`, `reason` ([`DropReason::name`]) | `DROPPED_LOSS`, `DROPPED_LINK_DOWN`, `DROPPED_RECEIVER_DEAD` |
    /// | `link_down`, `link_up` | `src`, `dst` (hosts) | `LINK_DOWN`, `LINK_UP` |
    /// | `host_crash`, `host_restart` | `host` | `HOST_CRASH`, `HOST_RESTART` |
    /// | `timer_fired` | `actor`, `tag` | `TIMER_FIRED` |
    ///
    /// Ids and counts are `u64` values.
    pub fn attach_obs(&mut self, obs: &Obs) {
        self.obs = Some(obs.clone());
    }

    /// Publish one kernel event of `shape` stamped with the current time;
    /// `vals` fill its `u64`/`f64` fields in order (`f64` as bits).
    fn emit(&self, shape: &'static Shape, vals: [u64; PACKED_SLOTS]) {
        if let Some(obs) = &self.obs {
            obs.publish_packed(self.now.as_us(), shape, vals);
        }
    }

    pub fn host_speed(&self, h: HostId) -> f64 {
        self.hosts[h.0].speed()
    }

    /// CPU time `a` has received, in microseconds of a whole processor,
    /// first syncing its host's CPU fluid model to the current time so the
    /// count is exact.
    pub fn cpu_time_us(&mut self, a: ActorId) -> f64 {
        self.sync_host(self.states[a.0].host.0);
        self.states[a.0].cpu_time_us
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

    /// Number of events currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the event queue has ever been in this simulation. The same
    /// number under `Batched` and the identity `Explore` plan.
    pub fn peak_queue_depth(&self) -> usize {
        self.queue.peak()
    }

    /// Select the event-queue drain strategy. Only allowed while the queue
    /// is empty (typically right after [`Sim::new`], before spawning), so
    /// no queued event was ordered under another plan.
    pub fn set_drain_mode(&mut self, mode: DrainMode) {
        self.queue.set_plan(mode.plan());
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        self.events_handled += 1;
        if let Some(limit) = self.event_limit {
            if self.events_handled > limit {
                let tail = match &self.obs {
                    None => "no obs attached".to_string(),
                    Some(obs) => obs
                        .events_filtered(&obs::EventFilter::any().source(Source::Simnet))
                        .iter()
                        .rev()
                        .filter(|e| e.kind != "timer_fired")
                        .take(40)
                        .map(|e| format!("{} {} {:?}", SimTime::from_us(e.at_us), e.kind, e.fields))
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
                if self.hosts[host].epoch == epoch {
                    self.sync_host(host);
                    self.schedule_next_cpu(host);
                }
            }
            Ev::Deliver { src, dst, msg, queued } => {
                let bytes = msg.wire_bytes;
                if !self.states[dst.0].alive {
                    self.emit_drop(src, dst, bytes, DropReason::ReceiverDead);
                    return;
                }
                self.states[dst.0].last_received = Some(queued);
                self.emit(&MSG_DELIVERED, [src.0 as u64, dst.0 as u64, bytes]);
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
                    self.emit(&TIMER_FIRED, [actor.0 as u64, tag, 0]);
                    self.dispatch(actor, |a, ctx| a.on_timer(tag, ctx));
                    self.pump(actor);
                }
            }
            Ev::Wake { actor } => {
                let st = &mut self.states[actor.0];
                if st.running == Running::Sleep {
                    st.running = Running::Idle;
                    self.pump(actor);
                }
            }
            Ev::Script(f) => f(self),
        }
    }

    /// Advance `host`'s fluid CPU model to `self.now`, crediting each
    /// run's CPU time to its actor and finishing completed runs.
    fn sync_host(&mut self, host: usize) {
        // The scratch list is taken, not borrowed: a finish re-enters
        // `pump`, which may sync a host again on an empty list of its own.
        let mut done = std::mem::take(&mut self.finished);
        let states = &mut self.states;
        self.hosts[host].advance(
            self.now,
            |a, cpu_us| {
                states[a.0].cpu_time_us += cpu_us;
            },
            &mut done,
        );
        for &a in &done {
            self.finish_compute(a);
        }
        done.clear();
        self.finished = done;
    }

    fn finish_compute(&mut self, a: ActorId) {
        let st = &mut self.states[a.0];
        debug_assert_eq!(st.running, Running::Compute);
        st.running = Running::Idle;
        self.emit(&COMPUTE_END, [a.0 as u64, 0, 0]);
        self.pump(a);
    }

    fn schedule_next_cpu(&mut self, host: usize) {
        if let Some(t) = self.hosts[host].next_completion() {
            let epoch = self.hosts[host].epoch;
            self.queue.push(t, Ev::CpuNext { host, epoch });
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
                    if work <= 1e-9 {
                        continue;
                    }
                    let host = self.states[a.0].host.0;
                    self.sync_host(host);
                    // sync_host may have re-entered pump for completed
                    // actors, but never for `a` (it is Idle with no run).
                    self.hosts[host].start(a, work, self.states[a.0].weight);
                    self.states[a.0].running = Running::Compute;
                    self.emit(&COMPUTE_START, [a.0 as u64, work.to_bits(), 0]);
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
                    self.states[a.0].running = Running::Sleep;
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

    fn emit_drop(&self, src: ActorId, dst: ActorId, bytes: u64, reason: DropReason) {
        let shape = match reason {
            DropReason::Loss => &DROPPED_LOSS,
            DropReason::LinkDown => &DROPPED_LINK_DOWN,
            DropReason::ReceiverDead => &DROPPED_RECEIVER_DEAD,
        };
        self.emit(shape, [src.0 as u64, dst.0 as u64, bytes]);
    }

    /// Put a message on the wire from `src` to `dst`.
    fn transmit(&mut self, src: ActorId, dst: ActorId, msg: Message) {
        assert!(dst.0 < self.states.len(), "send to unknown actor {dst}");
        let msg = match &self.wire_hook {
            Some(hook) => hook(src, dst, msg),
            None => msg,
        };
        let hs = self.states[src.0].host;
        let hd = self.states[dst.0].host;
        let bytes = msg.wire_bytes;
        self.emit(&MSG_SENT, [src.0 as u64, dst.0 as u64, bytes]);
        let now = self.now;
        let fate = if hs == hd {
            // A host's pair with itself has a record only if it was faulted.
            match self.links.get_mut(&(hs.0, hd.0)) {
                Some(state) => state.carry(now, bytes, Some(DEFAULT_LOCAL_LATENCY_US)),
                None => Ok(now + DEFAULT_LOCAL_LATENCY_US),
            }
        } else {
            self.link_state(hs, hd).carry(now, bytes, None)
        };
        match fate {
            Ok(at) => self.queue.push(at, Ev::Deliver { src, dst, msg, queued: now }),
            Err(reason) => self.emit_drop(src, dst, bytes, reason),
        }
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
        self.sim.states[self.id.0].mem_used += bytes;
    }

    /// Release simulated memory (saturating at zero).
    pub fn free(&mut self, bytes: u64) {
        let used = &mut self.sim.states[self.id.0].mem_used;
        *used = used.saturating_sub(bytes);
    }

    /// Simulated bytes of memory this actor has allocated. Like
    /// [`Ctx::cpu_time_of`], it first syncs the host's CPU model to now:
    /// the sync can complete other actors' runs, and the sandbox's pinned
    /// schedules were computed with it in place.
    pub fn mem_used(&mut self) -> u64 {
        let id = self.id;
        self.sim.sync_host(self.sim.states[id.0].host.0);
        self.sim.states[id.0].mem_used
    }

    /// CPU time `a` has received, synced to now (see [`Sim::cpu_time_us`]).
    pub fn cpu_time_of(&mut self, a: ActorId) -> f64 {
        self.sim.cpu_time_us(a)
    }

    /// When the most recently delivered inbound message of this actor was
    /// queued. Inside `on_message` for a message delivered straight to an
    /// idle actor that is the handled message's own queued time; a message
    /// that waited in the inbox while the actor was busy sees the time of
    /// the latest delivery instead.
    pub fn last_received(&self) -> Option<SimTime> {
        self.sim.states[self.id.0].last_received
    }

    /// Host this actor runs on.
    pub fn my_host(&self) -> HostId {
        self.sim.states[self.id.0].host
    }

    /// Full speed of a host (system-wide monitor: maximum CPU capacity).
    pub fn host_speed(&self, h: HostId) -> f64 {
        self.sim.host_speed(h)
    }

    /// Run `f` (typically a wrapped actor's handler) and take back the
    /// actions it enqueued, in order. Actions queued before the call stay
    /// in place. This is the interposition hook used by the sandbox (see
    /// module docs).
    pub fn intercept(&mut self, f: impl FnOnce(&mut Ctx<'_>)) -> Drain<'_, Action> {
        let mark = self.sim.states[self.id.0].fifo.len();
        f(self);
        self.sim.states[self.id.0].fifo.drain(mark..)
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
    fn weight_change_mid_run_takes_effect() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let d1 = Arc::new(Mutex::new(None));
        let d2 = Arc::new(Mutex::new(None));
        let a = sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: d1.clone() }));
        sim.spawn(h, Box::new(Worker { work: 1_000_000.0, done_at: d2.clone() }));
        // Half each for 0.5s (a quarter of each worker's work), then 3:1:
        // `a`'s remaining 0.75s of work at 75% ends at 1.5s, and the other
        // worker's last 0.5s runs alone -> 2.0s.
        sim.at(SimTime::from_ms(500), move |s| s.set_weight(a, 3.0));
        sim.run_until_idle();
        assert_eq!(*d1.lock().unwrap(), Some(SimTime::from_ms(1500)));
        assert_eq!(*d2.lock().unwrap(), Some(SimTime::from_secs(2)));
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

    /// Pinned: two messages that wait in the inbox of a computing actor
    /// both see the queued time of the *latest* delivery (B's), not their
    /// own — every committed digest was computed with this reading.
    #[test]
    fn last_received_is_the_latest_delivery_for_inbox_messages() {
        type Seen = Arc<Mutex<Vec<(u64, SimTime, Option<SimTime>)>>>;
        struct Busy {
            seen: Seen,
        }
        impl Actor for Busy {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.compute(1_000_000.0); // busy until t=1s
            }
            fn on_message(&mut self, _f: ActorId, m: Message, ctx: &mut Ctx<'_>) {
                let queued = ctx.last_received();
                self.seen.lock().unwrap().push((m.tag, ctx.now(), queued));
            }
        }
        struct TwoSends {
            dst: ActorId,
        }
        impl Actor for TwoSends {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.dst, Message::signal(1, 10)); // A, queued at 0
                ctx.sleep(300);
                ctx.send(self.dst, Message::signal(2, 10)); // B, queued at 300us
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let rcv = sim.spawn(h, Box::new(Busy { seen: seen.clone() }));
        sim.spawn(h, Box::new(TwoSends { dst: rcv }));
        sim.run_until_idle();
        let b_queued = Some(SimTime::from_us(300));
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[(1, SimTime::from_secs(1), b_queued), (2, SimTime::from_secs(1), b_queued)]
        );
    }

    #[test]
    fn sleep_accrues_no_cpu_time() {
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
        assert_eq!(sim.now(), SimTime::from_ms(250));
        assert_eq!(sim.cpu_time_us(a), 0.0);
    }

    #[test]
    fn memory_tracking() {
        type Seen = Arc<Mutex<Vec<u64>>>;
        struct Allocator {
            seen: Seen,
        }
        impl Actor for Allocator {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.alloc(100);
                ctx.alloc(50);
                self.seen.lock().unwrap().push(ctx.mem_used());
                ctx.free(120);
                self.seen.lock().unwrap().push(ctx.mem_used());
                ctx.free(1000);
                self.seen.lock().unwrap().push(ctx.mem_used());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let seen = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(h, Box::new(Allocator { seen: seen.clone() }));
        sim.run_until_idle();
        // `free` saturates at zero.
        assert_eq!(seen.lock().unwrap().as_slice(), &[150, 30, 0]);
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
    fn cpu_time_is_accurate_mid_run() {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let a = sim.spawn(h, Box::new(Worker { work: 10_000_000.0, done_at: Default::default() }));
        sim.spawn(h, Box::new(Worker { work: 10_000_000.0, done_at: Default::default() }));
        sim.run_until(SimTime::from_secs(2));
        let cpu_us = sim.cpu_time_us(a);
        // Held 50% of the CPU for 2s -> 1s of CPU time.
        assert!((cpu_us - 1_000_000.0).abs() < 1.0, "{cpu_us}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        fn run() -> (SimTime, f64, Option<u64>) {
            let mut sim = Sim::new();
            let h = sim.add_host("ref", 1.0, 1 << 30);
            let hs = sim.add_host("srv", 0.7, 1 << 30);
            sim.set_link(h, hs, 2_000_000.0, 500);
            let server = sim.spawn(hs, Box::new(Echo));
            let rtt = Arc::new(Mutex::new(None));
            let pinger =
                Pinger { server, bytes: 123_456, rtt: rtt.clone(), sent_at: SimTime::ZERO };
            let a = sim.spawn(h, Box::new(pinger));
            sim.run_until_idle();
            let rtt = *rtt.lock().unwrap();
            (sim.now(), sim.cpu_time_us(a), rtt)
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
                // The interposer's own action, queued first, stays put.
                ctx.sleep(25);
                let actions: Vec<Action> = ctx.intercept(|c| self.inner.on_start(c)).collect();
                *self.seen.lock().unwrap() = actions.len();
                for a in actions {
                    match a {
                        Action::Compute { work } => ctx.compute(work),
                        Action::Sleep { us } => ctx.sleep(us),
                        other => panic!("unexpected {other:?}"),
                    }
                }
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let seen = Arc::new(Mutex::new(0));
        sim.spawn(h, Box::new(Interposer { inner: Inner, seen: seen.clone() }));
        sim.run_until_idle();
        assert_eq!(*seen.lock().unwrap(), 2);
        assert_eq!(sim.now(), SimTime::from_us(175));
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
        for mode in [DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))] {
            let (idle_log, idle_end, idle_events) = storm(mode);
            let (log, _, events) = storm_driven(mode, |sim| {
                while sim.queue_depth() > 0 {
                    sim.run_until(sim.now() + dur::ms(7));
                }
                assert!(sim.now() >= idle_end);
            });
            assert_eq!(log, idle_log, "{mode:?}");
            assert_eq!(events, idle_events, "{mode:?}");
        }
    }

    #[test]
    fn default_mode_is_batched() {
        assert_eq!(DrainMode::default(), DrainMode::Batched);
    }

    #[test]
    fn queue_depth_tracks_pending_events() {
        for mode in [DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(3))] {
            let mut sim = Sim::new();
            sim.set_drain_mode(mode);
            let _h = sim.add_host("h", 1.0, 1 << 30);
            for i in 0..10 {
                sim.at(SimTime::from_ms(10 + i), |_s| {});
            }
            assert_eq!(sim.queue_depth(), 10, "{mode:?}");
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?}");
            sim.run_until(SimTime::from_ms(14));
            assert_eq!(sim.queue_depth(), 5, "{mode:?}");
            sim.run_until_idle();
            assert_eq!(sim.queue_depth(), 0, "{mode:?}");
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?}");
            // The peak belongs to the simulation, not the plan.
            sim.set_drain_mode(DrainMode::Explore(ExplorePlan::new(5)));
            assert_eq!(sim.peak_queue_depth(), 10, "{mode:?} -> Explore");
        }
    }

    #[test]
    fn same_timestamp_events_keep_insertion_order() {
        for mode in [DrainMode::Batched, DrainMode::Explore(ExplorePlan::new(0))] {
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
    fn explore_identity_plan_matches_batched() {
        let batched = storm(DrainMode::Batched);
        assert_eq!(batched, storm(DrainMode::Explore(ExplorePlan::new(0))));
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
    #[should_panic(
        expected = "msg_sent [(\"src\", U64(1)), (\"dst\", U64(0)), (\"bytes\", U64(8))]"
    )]
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
        sim.set_drain_mode(DrainMode::Explore(ExplorePlan::new(1)));
    }
}

#[cfg(test)]
mod kill_tests {
    use super::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Terminate one actor the way a crash of its host does, leaving its
    /// host-mates running: its computation is aborted, its queued actions
    /// and messages are dropped, and later deliveries and timers addressed
    /// to it are ignored.
    fn kill(sim: &mut Sim, a: ActorId) {
        if !sim.states[a.0].alive {
            return;
        }
        let host = sim.states[a.0].host.0;
        sim.sync_host(host);
        if sim.states[a.0].running == Running::Compute {
            sim.hosts[host].abort(a);
            sim.schedule_next_cpu(host);
        }
        let st = &mut sim.states[a.0];
        st.alive = false;
        st.running = Running::Idle;
        st.fifo.clear();
        st.inbox.clear();
    }

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
        sim.at(SimTime::from_ms(500), move |s| kill(s, a));
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
        sim.at(SimTime::from_us(500), move |s| kill(s, r));
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
            kill(s, a);
            kill(s, a); // idempotent
        });
        sim.run_until_idle();
        assert_eq!(*fired.lock().unwrap(), 1, "only the pre-kill timer fires");
    }
}
