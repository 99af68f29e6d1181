//! Sharded parallel drain for [`DrainMode::Sharded`].
//!
//! The event queue of a [`Sim`] is partitioned into per-host-group shards,
//! each drained as an independent batched sub-simulation on a scoped
//! thread pool. Conservative lookahead keeps the runs equivalent to the
//! sequential schedule:
//!
//! - **Shard assignment.** Hosts are grouped by link connectivity
//!   (union-find). With `shards == 0` every explicitly linked component is
//!   kept whole and components are balanced across `threads` bins; with an
//!   explicit shard count only *zero-latency* links force co-sharding, so
//!   callers (tests) can deliberately cut latency-bearing links. Hosts
//!   marked with [`Sim::mark_observer`] form one extra shard of their own.
//! - **Lookahead.** `L = min latency over explicit cross-shard links` is
//!   the safe horizon increment: a message sent at `t >= m` arrives no
//!   earlier than `t + L`, so every shard may run all events strictly
//!   before `H = m + L` (where `m` is the global minimum next-event time)
//!   without seeing a cross-shard message from this epoch. When no link
//!   crosses a shard boundary there is a single unbounded epoch and any
//!   cross-shard send is an error.
//! - **Barrier merge.** At each epoch barrier the collected cross-shard
//!   deliveries are sorted by `(push time, source shard, per-shard send
//!   sequence)` and spliced into the destination shard's bucket at the
//!   position the push time dictates. When no two events of a bucket share
//!   a push time this reproduces the sequential `(time, seq)` order
//!   bit-for-bit; exact collisions are counted in [`Sim::ambiguous_ties`].
//! - **Observers.** Observer shards run a second, sequential phase after
//!   the worker shards each epoch, so monitor actors that read shared
//!   memory published by workers observe a completed prefix.
//!
//! This module is a child of the kernel so the partition / absorb code can
//! move `Sim`'s private state between the parent and its shards directly.
//!
//! [`DrainMode::Sharded`]: super::DrainMode::Sharded

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use super::{ActorState, Ev, Host, Sim};
use crate::actor::HostId;
use crate::cpu::CpuSched;
use crate::time::SimTime;

/// Environment variable consulted when `DrainMode::Sharded { threads: 0 }`
/// is used: the number of worker threads for sharded drains.
const SIMNET_THREADS_ENV: &str = "SIMNET_THREADS";

/// A resolved sharding decision for one run.
pub(super) struct ShardPlan {
    /// Host index -> shard index, shared with every sub-simulation.
    shard_of_host: Arc<Vec<usize>>,
    n_shards: usize,
    /// Per-shard flag: `true` for the observer shard (runs in phase 2).
    observer: Vec<bool>,
    /// Conservative lookahead: minimum latency over explicit cross-shard
    /// links, `None` when nothing crosses a boundary (single epoch).
    l_cross: Option<u64>,
    /// Resolved worker-thread count (>= 2 when a plan exists).
    threads: usize,
}

/// Sharding state carried by a shard's sub-simulation during a
/// [`DrainMode::Sharded`] run.
pub(super) struct ShardCtx {
    pub(super) my_shard: usize,
    pub(super) shard_of_host: Arc<Vec<usize>>,
    /// Minimum latency over explicit cross-shard links (the conservative
    /// lookahead); `None` when no explicit link crosses a shard boundary,
    /// in which case any cross-shard send is an error.
    pub(super) l_cross: Option<u64>,
    /// Deliveries destined to other shards, in send order, exchanged at
    /// epoch barriers.
    outbox: Vec<OutEntry>,
}

/// One cross-shard delivery awaiting injection at the next barrier.
struct OutEntry {
    dst_shard: usize,
    deliver_t: SimTime,
    push_t: SimTime,
    ev: Ev,
}

impl ShardCtx {
    /// Divert `ev` to the outbox if it is a delivery addressed to a
    /// foreign shard; hand it back otherwise. Only `Deliver` can cross
    /// shards: timers, wakes, and CPU events are host-local by
    /// construction.
    pub(super) fn intercept(
        &mut self,
        states: &[ActorState],
        deliver_t: SimTime,
        push_t: SimTime,
        ev: Ev,
    ) -> Option<Ev> {
        let Ev::Deliver { dst, .. } = &ev else { return Some(ev) };
        let dst_shard = self.shard_of_host[states[dst.0].host.0];
        if dst_shard == self.my_shard {
            return Some(ev);
        }
        self.outbox.push(OutEntry { dst_shard, deliver_t, push_t, ev });
        None
    }
}

impl ActorState {
    /// A placeholder standing in for an actor owned by another shard (or
    /// by the parent during a sharded run): correct host for routing, not
    /// alive, empty queues. Cross-shard `Sent` accounting accumulates here
    /// and is merged into the real actor by [`Sim::absorb_shards`].
    fn skeleton(host: HostId) -> Self {
        ActorState { alive: false, ..ActorState::new(host) }
    }
}

fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    if let Ok(v) = std::env::var(SIMNET_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }
    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Decide how to shard `sim` for `DrainMode::Sharded { threads, shards }`.
/// Returns `None` when the request degenerates to the plain sequential
/// drain (a single shard, or a single thread).
pub(super) fn compute_plan(sim: &Sim, threads: usize, shards: usize) -> Option<ShardPlan> {
    let threads = resolve_threads(threads);
    if threads <= 1 {
        return None;
    }
    let n_hosts = sim.hosts.len();
    let observers = &sim.observer_hosts;
    let mut uf = UnionFind::new(n_hosts);
    for (&(a, b), link) in &sim.links {
        if observers.contains(&a) || observers.contains(&b) {
            continue;
        }
        // Auto mode keeps every linked component whole; an explicit shard
        // count only refuses to cut zero-latency links (no lookahead).
        if shards == 0 || link.latency_us == 0 {
            uf.union(a, b);
        }
    }
    // Components of non-observer hosts, largest first (ties by lowest
    // member) for balanced round-robin placement.
    let mut members: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for h in 0..n_hosts {
        if !observers.contains(&h) {
            members.entry(uf.find(h)).or_default().push(h);
        }
    }
    let mut components: Vec<Vec<usize>> = members.into_values().collect();
    components.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    let n_bins = if shards == 0 { threads } else { shards }.min(components.len());
    if n_bins == 0 {
        return None;
    }
    let mut shard_of_host = vec![usize::MAX; n_hosts];
    for (i, comp) in components.iter().enumerate() {
        for &h in comp {
            shard_of_host[h] = i % n_bins;
        }
    }
    let mut n_shards = n_bins;
    let mut observer = vec![false; n_bins];
    if !observers.is_empty() {
        for &h in observers {
            shard_of_host[h] = n_bins;
        }
        n_shards += 1;
        observer.push(true);
    }
    if n_shards <= 1 || n_bins <= 1 {
        return None;
    }
    let l_cross = sim
        .links
        .iter()
        .filter(|(&(a, b), _)| shard_of_host[a] != shard_of_host[b])
        .map(|(_, link)| link.latency_us)
        .min();
    if l_cross == Some(0) {
        panic!(
            "sharded run: a zero-latency link crosses a shard boundary, so no \
             lookahead is possible — co-shard the hosts or give the link latency"
        );
    }
    Some(ShardPlan { shard_of_host: Arc::new(shard_of_host), n_shards, observer, l_cross, threads })
}

/// Drain every shard of one phase through `bound`. Worker phases use up
/// to `threads` scoped threads with an atomic claim index; the observer
/// phase is always sequential.
fn run_phase(subs: &mut [Sim], plan: &ShardPlan, observer_phase: bool, bound: SimTime) {
    let mut targets: Vec<&mut Sim> = subs
        .iter_mut()
        .enumerate()
        .filter(|(i, _)| plan.observer[*i] == observer_phase)
        .map(|(_, s)| s)
        .collect();
    if targets.is_empty() {
        return;
    }
    if observer_phase || targets.len() == 1 {
        for s in targets {
            s.drain(bound);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<&mut Sim>> = targets.drain(..).map(Mutex::new).collect();
    let n_workers = plan.threads.min(slots.len());
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                slots[i].lock().expect("each slot is claimed by one thread").drain(bound);
            });
        }
    });
}

/// The `DrainMode::Sharded` engine: partition, run barrier epochs until
/// every shard is idle, then fold the shards back into `sim`.
pub(super) fn run_until_idle(sim: &mut Sim, plan: &ShardPlan) {
    let mut subs = sim.partition_into(plan);
    let mut epochs: u64 = 0;
    let mut cross_msgs: u64 = 0;
    while let Some(m) = subs.iter().filter_map(|s| s.queue.next_time()).min() {
        // Everything strictly before the horizon `m + L` is safe to run;
        // `L >= 1` (a zero-latency cut is refused by `compute_plan`).
        let bound = plan.l_cross.map_or(SimTime::MAX, |l| m + (l - 1));
        run_phase(&mut subs, plan, false, bound);
        run_phase(&mut subs, plan, true, bound);
        epochs += 1;
        let mut out: Vec<(usize, OutEntry)> = Vec::new();
        for (si, sub) in subs.iter_mut().enumerate() {
            let ctx = sub.shard_ctx.as_mut().expect("sub-simulations carry a shard context");
            out.extend(ctx.outbox.drain(..).map(|e| (si, e)));
        }
        if out.is_empty() {
            continue;
        }
        debug_assert!(
            plan.l_cross.is_some(),
            "cross-shard messages without a cross-shard link (transmit should have panicked)"
        );
        cross_msgs += out.len() as u64;
        // Deterministic merge order: push time, then source shard, then
        // the shard's send order (`out` holds each outbox in order and the
        // sort is stable).
        out.sort_by_key(|&(si, ref e)| (e.push_t, si));
        for (_, e) in out {
            debug_assert!(
                e.deliver_t > bound,
                "lookahead violation: cross-shard delivery at {} inside the epoch ending {bound}",
                e.deliver_t
            );
            let dst = &mut subs[e.dst_shard];
            debug_assert!(e.deliver_t >= dst.now, "barrier delivery in the past");
            if dst.queue.splice(e.deliver_t, e.push_t, e.ev) {
                dst.ambiguous_ties += 1;
            }
        }
    }
    let ties: u64 = subs.iter().map(|s| s.ambiguous_ties).sum();
    sim.absorb_shards(subs, plan);
    if let Some(obs) = sim.trace.obs() {
        let obs = obs.clone();
        let e = obs.counter("simnet.shard.epochs");
        let x = obs.counter("simnet.shard.cross_msgs");
        let t = obs.counter("simnet.shard.ties");
        obs.inc(e, epochs);
        obs.inc(x, cross_msgs);
        obs.inc(t, ties);
    }
}

impl Sim {
    pub(super) fn assert_host_local(&self, host: HostId, what: &str) {
        if let Some(ctx) = self.shard_ctx.as_ref() {
            assert!(
                ctx.shard_of_host[host.0] == ctx.my_shard,
                "sharded run: {what}({host}) targets a foreign shard — schedule it with \
                 at_on({host}, ..) so it runs on the owning shard"
            );
        }
    }

    /// Split this simulation into `plan.n_shards` sub-simulations, one per
    /// shard: each takes its hosts, actors, per-src-host link state, and
    /// the pending events routed to it; foreign hosts and actor states are
    /// replaced by skeletons (correct host/topology info, empty queues) so
    /// actor indices stay globally aligned. The parent keeps skeletons and
    /// is restored by [`Sim::absorb_shards`].
    fn partition_into(&mut self, plan: &ShardPlan) -> Vec<Sim> {
        let n = plan.n_shards;
        let host_of: Vec<usize> = self.states.iter().map(|s| s.host.0).collect();
        let mut subs: Vec<Sim> = (0..n)
            .map(|i| {
                let mut s = Sim::new();
                s.now = self.now;
                s.event_limit = self.event_limit;
                s.default_bw_bps = self.default_bw_bps;
                s.default_latency_us = self.default_latency_us;
                s.local_latency_us = self.local_latency_us;
                s.next_flow_id = self.next_flow_id;
                s.wire_hook = self.wire_hook.clone();
                if let Some(o) = self.trace.obs() {
                    s.attach_obs(o);
                }
                s.shard_ctx = Some(ShardCtx {
                    my_shard: i,
                    shard_of_host: plan.shard_of_host.clone(),
                    l_cross: plan.l_cross,
                    outbox: Vec::new(),
                });
                s
            })
            .collect();
        for h in 0..self.hosts.len() {
            let owner = plan.shard_of_host[h];
            for (i, sub) in subs.iter_mut().enumerate() {
                let host = &mut self.hosts[h];
                let stand_in = Host {
                    name: host.name.clone(),
                    sched: CpuSched::new(host.sched.speed()),
                    mem_capacity: host.mem_capacity,
                };
                sub.hosts.push(if i == owner {
                    std::mem::replace(host, stand_in)
                } else {
                    stand_in
                });
            }
        }
        for a in 0..self.states.len() {
            let host = self.states[a].host;
            let owner = plan.shard_of_host[host.0];
            for (i, sub) in subs.iter_mut().enumerate() {
                let skeleton = ActorState::skeleton(host);
                if i == owner {
                    sub.actors.push(self.actors[a].take());
                    sub.states.push(std::mem::replace(&mut self.states[a], skeleton));
                } else {
                    sub.actors.push(None);
                    sub.states.push(skeleton);
                }
            }
        }
        // Per-src-host link state moves to the shard owning the source.
        for (key, link) in std::mem::take(&mut self.links) {
            subs[plan.shard_of_host[key.0]].links.insert(key, link);
        }
        for (key, fs) in std::mem::take(&mut self.flow_scheds) {
            subs[plan.shard_of_host[key.0]].flow_scheds.insert(key, fs);
        }
        for (id, fl) in std::mem::take(&mut self.inflight) {
            subs[plan.shard_of_host[host_of[fl.0 .0]]].inflight.insert(id, fl);
        }
        for (key, l) in std::mem::take(&mut self.loss) {
            subs[plan.shard_of_host[key.0]].loss.insert(key, l);
        }
        for (key, j) in std::mem::take(&mut self.jitter) {
            subs[plan.shard_of_host[key.0]].jitter.insert(key, j);
        }
        for key in std::mem::take(&mut self.down_links) {
            subs[plan.shard_of_host[key.0]].down_links.insert(key);
        }
        // Route pending events to their owning shard, preserving order and
        // push times (no outbox interception: the parent's order within
        // each shard is the sequential order).
        while let Some((t, q)) = self.queue.pop_queued() {
            let host = match &q.ev {
                Ev::Start(a) | Ev::Restart(a) => host_of[a.0],
                Ev::CpuNext { host, .. } => *host,
                Ev::FlowNext { src, .. } => *src,
                Ev::Deliver { dst, .. } => host_of[dst.0],
                Ev::Timer { actor, .. } | Ev::Wake { actor } => host_of[actor.0],
                Ev::Script(Some(h), _) => h.0,
                Ev::Script(None, _) => panic!(
                    "sharded run: a script scheduled with Sim::at has no host affinity \
                     and cannot be partitioned — schedule it with Sim::at_on"
                ),
            };
            subs[plan.shard_of_host[host]].queue.push(t, q.push_t, q.ev);
        }
        subs
    }

    /// Fold the sub-simulations of a completed sharded run back into the
    /// parent: hosts, pre-run actors and their state, link state, and
    /// accounting recorded for foreign actors (cross-shard `Sent`
    /// transfers land on skeletons and are merged into the real actor
    /// here). Actors spawned during the run are shard-local and are
    /// dropped. Kernel events need no merge: shards publish to the shared
    /// obs bus as they run.
    fn absorb_shards(&mut self, mut subs: Vec<Sim>, plan: &ShardPlan) {
        let n_pre = self.states.len();
        let mut peak_sum = 0usize;
        for sub in subs.iter_mut() {
            debug_assert!(sub.is_idle(), "absorbing a shard with pending events");
            self.events_handled += sub.events_handled;
            self.ambiguous_ties += sub.ambiguous_ties;
            peak_sum += sub.queue.peak();
            self.peak_shard_queue_depth = self.peak_shard_queue_depth.max(sub.queue.peak());
            if sub.now > self.now {
                self.now = sub.now;
            }
            self.links.extend(std::mem::take(&mut sub.links));
            self.flow_scheds.extend(std::mem::take(&mut sub.flow_scheds));
            self.inflight.extend(std::mem::take(&mut sub.inflight));
            self.loss.extend(std::mem::take(&mut sub.loss));
            self.jitter.extend(std::mem::take(&mut sub.jitter));
            self.down_links.extend(std::mem::take(&mut sub.down_links));
            self.next_flow_id = self.next_flow_id.max(sub.next_flow_id);
        }
        self.queue.raise_peak(peak_sum);
        for h in 0..self.hosts.len() {
            let owner = plan.shard_of_host[h];
            std::mem::swap(&mut self.hosts[h], &mut subs[owner].hosts[h]);
        }
        for a in 0..n_pre {
            let owner = plan.shard_of_host[self.states[a].host.0];
            self.actors[a] = subs[owner].actors[a].take();
            std::mem::swap(&mut self.states[a], &mut subs[owner].states[a]);
            for (si, sub) in subs.iter_mut().enumerate() {
                if si != owner {
                    self.states[a].acct.merge_foreign(&mut sub.states[a].acct);
                }
            }
        }
    }
}
