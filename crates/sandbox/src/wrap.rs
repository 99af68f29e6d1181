//! The sandbox wrapper: a user-level virtual execution environment.
//!
//! [`Sandboxed`] wraps an application actor and interposes on every action
//! it takes — the simulation analog of the paper's Win32 API interception
//! (§5.1). The wrapped application is unmodified; the wrapper:
//!
//! - **CPU**: chops each `Compute` request into ~10 ms quanta and inserts
//!   idle gaps after each quantum so the application's *average* CPU share
//!   stays at or below the configured cap (the paper dynamically manipulated
//!   process priority every few milliseconds to the same end). Because
//!   limits are re-read every quantum, run-time limit changes take effect
//!   within one quantum.
//! - **Network**: delays sends and the processing of received messages with
//!   token buckets so observed bandwidth matches the configured cap.
//! - **Memory**: inflates compute time once the application's allocation
//!   exceeds its memory limit (paging-slowdown model).
//!
//! While enforcing, the wrapper also *estimates progress* — CPU share and
//! effective bandwidth actually obtained — into a shared [`SandboxStats`],
//! which is exactly the machinery the paper's run-time monitoring agent
//! reuses (§6.1).

use std::collections::VecDeque;

use simnet::{Action, Actor, ActorId, Ctx, Message, SimTime};

use crate::bucket::TokenBucket;
use crate::limits::LimitsHandle;
use crate::progress::{CpuSample, NetSample, SandboxStats};

/// Scheduling quantum for CPU chopping, microseconds.
pub(crate) const QUANTUM_US: u64 = 10_000;

/// Continuation tags reserved by the sandbox. Wrapped applications must not
/// use tags at or above [`TAG_BASE`].
pub const TAG_BASE: u64 = u64::MAX - 16;
const TAG_CHUNK: u64 = TAG_BASE;
const TAG_NEXT: u64 = TAG_BASE + 1;
const TAG_RECV: u64 = TAG_BASE + 2;

/// Paging-penalty coefficient: slowdown = 1 + K * overcommit_fraction.
const MEM_PENALTY_K: f64 = 4.0;

/// An application actor running inside a virtual execution environment.
///
/// ```
/// use sandbox::{Limits, LimitsHandle, SandboxStats, Sandboxed};
/// use simnet::{Actor, Ctx, Sim, SimTime};
///
/// struct OneSecondOfWork;
/// impl Actor for OneSecondOfWork {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         ctx.compute(1_000_000.0);
///     }
/// }
///
/// let mut sim = Sim::new();
/// let host = sim.add_host("pii450", 1.0, 1 << 30);
/// let limits = LimitsHandle::new(Limits::cpu(0.5));
/// sim.spawn(host, Box::new(Sandboxed::new(OneSecondOfWork, limits, SandboxStats::default())));
/// sim.run_until_idle();
/// // 1s of work at a 50% share takes ~2s of wall time.
/// assert!((sim.now().as_secs_f64() - 2.0).abs() < 0.05);
/// ```
pub struct Sandboxed<A: Actor> {
    inner: A,
    limits: LimitsHandle,
    stats: SandboxStats,
    /// Intercepted application actions not yet issued to the kernel.
    queue: VecDeque<Action>,
    /// Remaining raw work of the `Compute` currently being chopped.
    chop_remaining: Option<f64>,
    chunk_start: SimTime,
    chunk_work: f64,
    /// True while kernel actions we issued are outstanding.
    busy: bool,
    pending_recv: VecDeque<(ActorId, Message, SimTime)>,
    send_bucket: Option<TokenBucket>,
    recv_bucket: Option<TokenBucket>,
}

impl<A: Actor> Sandboxed<A> {
    /// Wrap `inner`, constrained by `limits`, reporting progress into
    /// `stats`.
    pub fn new(inner: A, limits: LimitsHandle, stats: SandboxStats) -> Self {
        Sandboxed {
            inner,
            limits,
            stats,
            queue: VecDeque::new(),
            chop_remaining: None,
            chunk_start: SimTime::ZERO,
            chunk_work: 0.0,
            busy: false,
            pending_recv: VecDeque::new(),
            send_bucket: None,
            recv_bucket: None,
        }
    }

    /// The shared progress statistics (CPU share / bandwidth estimates).
    pub fn stats(&self) -> SandboxStats {
        self.stats.clone()
    }

    /// The shared limits handle.
    pub fn limits(&self) -> LimitsHandle {
        self.limits.clone()
    }

    /// Immutable access to the wrapped application.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    fn mem_penalty(&self, ctx: &mut Ctx<'_>) -> f64 {
        match self.limits.get().mem_bytes {
            Some(limit) if limit > 0 => {
                let used = ctx.mem_used();
                if used > limit {
                    1.0 + MEM_PENALTY_K * ((used - limit) as f64 / limit as f64)
                } else {
                    1.0
                }
            }
            _ => 1.0,
        }
    }

    /// Delay (us) required by the send-side token bucket for `bytes`.
    fn send_delay(&mut self, now: SimTime, bytes: u64) -> u64 {
        match self.limits.get().net_send_bps {
            Some(rate) => {
                let b =
                    self.send_bucket.get_or_insert_with(|| TokenBucket::with_default_burst(rate));
                if (b.rate_bps() - rate).abs() > 1e-6 {
                    b.set_rate(now, rate);
                }
                b.acquire(now, bytes)
            }
            None => 0,
        }
    }

    fn recv_delay(&mut self, now: SimTime, bytes: u64) -> u64 {
        match self.limits.get().net_recv_bps {
            Some(rate) => {
                let b =
                    self.recv_bucket.get_or_insert_with(|| TokenBucket::with_default_burst(rate));
                if (b.rate_bps() - rate).abs() > 1e-6 {
                    b.set_rate(now, rate);
                }
                b.acquire(now, bytes)
            }
            None => 0,
        }
    }

    fn deliver_inner_msg(
        &mut self,
        from: ActorId,
        msg: Message,
        queued: SimTime,
        ctx: &mut Ctx<'_>,
    ) {
        self.stats.push_net(NetSample {
            queued,
            processed: ctx.now(),
            bytes: msg.wire_bytes,
            inbound: true,
        });
        self.queue.extend(ctx.intercept(|c| self.inner.on_message(from, msg, c)));
    }

    /// Issue intercepted actions to the kernel until something blocking is
    /// outstanding or the queue drains.
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(!self.busy);
        loop {
            if let Some(rem) = self.chop_remaining {
                let share = self.limits.get().cpu_share.unwrap_or(1.0);
                let speed = ctx.host_speed(ctx.my_host());
                let quantum_work = (share * QUANTUM_US as f64 * speed).max(1.0);
                let chunk = rem.min(quantum_work);
                let left = rem - chunk;
                self.chop_remaining = if left > 1e-9 { Some(left) } else { None };
                let eff = chunk * self.mem_penalty(ctx);
                self.chunk_start = ctx.now();
                self.chunk_work = eff;
                ctx.compute(eff);
                ctx.continue_with(TAG_CHUNK);
                self.busy = true;
                return;
            }
            match self.queue.pop_front() {
                Some(Action::Compute { work }) => {
                    if work > 1e-9 {
                        self.chop_remaining = Some(work);
                    }
                }
                Some(Action::Send { dst, msg }) => {
                    let now = ctx.now();
                    let bytes = msg.wire_bytes;
                    let delay = self.send_delay(now, bytes);
                    self.stats.push_net(NetSample {
                        queued: now,
                        processed: now + delay,
                        bytes,
                        inbound: false,
                    });
                    if delay > 0 {
                        ctx.sleep(delay);
                        ctx.send(dst, msg);
                        ctx.continue_with(TAG_NEXT);
                        self.busy = true;
                        return;
                    }
                    ctx.send(dst, msg);
                }
                Some(Action::Sleep { us }) => {
                    if us > 0 {
                        ctx.sleep(us);
                        ctx.continue_with(TAG_NEXT);
                        self.busy = true;
                        return;
                    }
                }
                Some(Action::Continue { tag }) => {
                    self.queue.extend(ctx.intercept(|c| self.inner.on_continue(tag, c)));
                }
                None => {
                    if let Some((from, msg, queued)) = self.pending_recv.pop_front() {
                        self.deliver_inner_msg(from, msg, queued, ctx);
                        continue;
                    }
                    return;
                }
            }
        }
    }
}

impl<A: Actor> Actor for Sandboxed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.queue.extend(ctx.intercept(|c| self.inner.on_start(c)));
        self.issue(ctx);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // The crash discarded every outstanding kernel action, so the
        // interposition state from the previous incarnation is void.
        self.queue.clear();
        self.chop_remaining = None;
        self.busy = false;
        self.pending_recv.clear();
        self.send_bucket = None;
        self.recv_bucket = None;
        self.queue.extend(ctx.intercept(|c| self.inner.on_restart(c)));
        self.issue(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        debug_assert!(!self.busy, "kernel delivered a message to a busy actor");
        let now = ctx.now();
        let queued = ctx.last_received().unwrap_or(now);
        let delay = self.recv_delay(now, msg.wire_bytes);
        if delay > 0 {
            self.pending_recv.push_back((from, msg, queued));
            ctx.sleep(delay);
            ctx.continue_with(TAG_RECV);
            self.busy = true;
        } else {
            self.deliver_inner_msg(from, msg, queued, ctx);
            self.issue(ctx);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        assert!(tag < TAG_BASE, "application timers must use tags below TAG_BASE");
        // Timers fire even while our own actions (a compute chunk and its
        // continuation) are outstanding in the kernel queue. Those stay in
        // place: only what the application enqueues is taken.
        self.queue.extend(ctx.intercept(|c| self.inner.on_timer(tag, c)));
        if !self.busy {
            self.issue(ctx);
        }
    }

    fn on_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            TAG_CHUNK => {
                self.busy = false;
                let now = ctx.now();
                let elapsed = now.since(self.chunk_start) as f64;
                let speed = ctx.host_speed(ctx.my_host());
                let share = self.limits.get().cpu_share.unwrap_or(1.0);
                let cpu_us = self.chunk_work / speed;
                // Pad the quantum with idle time so the average rate over
                // the whole period matches the requested share.
                let target = self.chunk_work / (speed * share);
                let sleep_us = (target - elapsed).max(0.0).round() as u64;
                self.stats.push_cpu(CpuSample {
                    start: self.chunk_start,
                    end: now + sleep_us,
                    cpu_us,
                });
                if sleep_us > 0 {
                    ctx.sleep(sleep_us);
                    ctx.continue_with(TAG_NEXT);
                    self.busy = true;
                } else {
                    self.issue(ctx);
                }
            }
            TAG_NEXT => {
                self.busy = false;
                self.issue(ctx);
            }
            TAG_RECV => {
                self.busy = false;
                if let Some((from, msg, queued)) = self.pending_recv.pop_front() {
                    self.deliver_inner_msg(from, msg, queued, ctx);
                }
                self.issue(ctx);
            }
            t => {
                // An application continuation re-emitted verbatim (should
                // not normally happen — the queue handles them — but be
                // forgiving).
                self.queue.extend(ctx.intercept(|c| self.inner.on_continue(t, c)));
                if !self.busy {
                    self.issue(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::{LimitSchedule, Limits};
    use simnet::{dur, Sim};
    use std::sync::Arc;
    use std::sync::Mutex;

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

    fn sandboxed_worker(
        work: f64,
        limits: Limits,
    ) -> (Sim, Arc<Mutex<Option<SimTime>>>, LimitsHandle, SandboxStats) {
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(limits);
        let stats = SandboxStats::default();
        let sb = Sandboxed::new(Worker { work, done_at: done.clone() }, lh.clone(), stats.clone());
        sim.spawn(h, Box::new(sb));
        (sim, done, lh, stats)
    }

    #[test]
    fn unconstrained_runs_at_full_speed() {
        let (mut sim, done, _, _) = sandboxed_worker(1_000_000.0, Limits::unconstrained());
        sim.run_until_idle();
        assert_eq!(*done.lock().unwrap(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn half_share_doubles_wall_time() {
        let (mut sim, done, _, stats) = sandboxed_worker(1_000_000.0, Limits::cpu(0.5));
        sim.run_until_idle();
        let t = done.lock().unwrap().unwrap().as_secs_f64();
        assert!((t - 2.0).abs() < 0.02, "expected ~2s, got {t}");
        let share = stats.cpu_share().unwrap();
        assert!((share - 0.5).abs() < 0.02, "estimated share {share}");
    }

    #[test]
    fn ten_percent_share() {
        let (mut sim, done, _, stats) = sandboxed_worker(500_000.0, Limits::cpu(0.1));
        sim.run_until_idle();
        let t = done.lock().unwrap().unwrap().as_secs_f64();
        assert!((t - 5.0).abs() < 0.05, "expected ~5s, got {t}");
        assert!((stats.cpu_share().unwrap() - 0.1).abs() < 0.01);
    }

    #[test]
    fn limit_change_mid_run() {
        // 1s of work: 0.5s at 100% does half, then 40% share makes the
        // remaining 0.5s take 1.25s -> total 1.75s.
        let (mut sim, done, lh, _) = sandboxed_worker(1_000_000.0, Limits::unconstrained());
        LimitSchedule::new().at(SimTime::from_ms(500), Limits::cpu(0.4)).install(&mut sim, &lh);
        sim.run_until_idle();
        let t = done.lock().unwrap().unwrap().as_secs_f64();
        assert!((t - 1.75).abs() < 0.03, "expected ~1.75s, got {t}");
    }

    #[test]
    fn kernel_cap_and_sandbox_cap_agree() {
        // The user-level quantum-chopping sandbox should match an ideal
        // cap closely (this is Figure 3b's claim): a lone actor held to
        // `share` of its host finishes `work / share` in.
        for share in [0.2, 0.5, 0.8] {
            let (mut sim, done, _, _) = sandboxed_worker(1_000_000.0, Limits::cpu(share));
            sim.run_until_idle();
            let sandbox_t = done.lock().unwrap().unwrap().as_secs_f64();
            let ideal_t = 1.0 / share;
            let rel = (sandbox_t - ideal_t).abs() / ideal_t;
            assert!(rel < 0.02, "share {share}: sandbox {sandbox_t} vs ideal {ideal_t}");
        }
    }

    /// Replies to every request with a fixed-size payload.
    struct BlobServer {
        reply_bytes: u64,
    }
    impl Actor for BlobServer {
        fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
            ctx.send(from, Message::signal(msg.tag, self.reply_bytes));
        }
    }

    /// Requests `remaining` replies, one at a time.
    struct Downloader {
        server: ActorId,
        remaining: u32,
        finished: Arc<Mutex<Option<SimTime>>>,
    }
    impl Actor for Downloader {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.server, Message::signal(0, 64));
        }
        fn on_message(&mut self, _f: ActorId, _m: Message, ctx: &mut Ctx<'_>) {
            self.remaining -= 1;
            if self.remaining == 0 {
                *self.finished.lock().unwrap() = Some(ctx.now());
            } else {
                ctx.send(self.server, Message::signal(0, 64));
            }
        }
    }

    #[test]
    fn recv_shaping_limits_effective_bandwidth() {
        let mut sim = Sim::new();
        let hc = sim.add_host("client", 1.0, 1 << 30);
        let hs = sim.add_host("server", 1.0, 1 << 30);
        // Fast physical link: 12.5 MB/s.
        sim.set_link(hc, hs, 12_500_000.0, 100);
        let server = sim.spawn(hs, Box::new(BlobServer { reply_bytes: 100_000 }));
        let finished = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::net(100_000.0)); // 100 KB/s
        let stats = SandboxStats::new(60_000_000);
        let dl = Downloader { server, remaining: 10, finished: finished.clone() };
        sim.spawn(hc, Box::new(Sandboxed::new(dl, lh, stats.clone())));
        sim.run_until_idle();
        let t = finished.lock().unwrap().unwrap().as_secs_f64();
        // 10 x 100 KB = 1 MB at 100 KB/s ~ 10s (burst credit shaves a bit).
        assert!(t > 8.5 && t < 11.0, "shaped download took {t}s");
        let bw = stats.bandwidth_bps(true).unwrap();
        assert!(
            bw > 80_000.0 && bw < 130_000.0,
            "estimated inbound bandwidth {bw} should be near the 100 KB/s cap"
        );
    }

    #[test]
    fn send_shaping_delays_uploads() {
        struct Uploader {
            dst: ActorId,
            done: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for Uploader {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for _ in 0..10 {
                    ctx.send(self.dst, Message::signal(0, 100_000));
                }
                ctx.continue_with(9);
            }
            fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.done.lock().unwrap() = Some(ctx.now());
            }
        }
        struct Sink;
        impl Actor for Sink {}

        let mut sim = Sim::new();
        let hc = sim.add_host("client", 1.0, 1 << 30);
        let hs = sim.add_host("server", 1.0, 1 << 30);
        sim.set_link(hc, hs, 12_500_000.0, 100);
        let sink = sim.spawn(hs, Box::new(Sink));
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits { net_send_bps: Some(100_000.0), ..Limits::default() });
        let up = Uploader { dst: sink, done: done.clone() };
        sim.spawn(hc, Box::new(Sandboxed::new(up, lh, SandboxStats::default())));
        sim.run_until_idle();
        let t = done.lock().unwrap().unwrap().as_secs_f64();
        assert!(t > 8.5, "1 MB at 100 KB/s should take ~10s, got {t}");
    }

    #[test]
    fn memory_limit_inflates_compute() {
        struct Hog {
            done: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for Hog {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.alloc(2_000_000);
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
        let lh = LimitsHandle::new(Limits::unconstrained().with_mem(1_000_000));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(Hog { done: done.clone() }, lh, SandboxStats::default())),
        );
        sim.run_until_idle();
        // Overcommit 1.0, K=4 -> 5x slowdown.
        let t = done.lock().unwrap().unwrap().as_secs_f64();
        assert!((t - 5.0).abs() < 0.05, "expected ~5s, got {t}");
    }

    #[test]
    fn timer_during_chunk_does_not_lose_wrapper_state() {
        // Regression: a timer firing while a compute chunk is outstanding
        // used to steal the wrapper's own continuation from the kernel
        // queue, deadlocking the sandbox.
        struct Periodic {
            done: Arc<Mutex<Option<SimTime>>>,
            ticks: u32,
        }
        impl Actor for Periodic {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(dur::ms(3), 1); // fires mid-chunk
                ctx.compute(500_000.0); // 0.5s of work in many chunks
                ctx.continue_with(0);
            }
            fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
                self.ticks += 1;
                if self.ticks < 100 {
                    ctx.set_timer(dur::ms(3), 1);
                }
            }
            fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.done.lock().unwrap() = Some(ctx.now());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::cpu(0.5));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(
                Periodic { done: done.clone(), ticks: 0 },
                lh,
                SandboxStats::default(),
            )),
        );
        sim.set_event_limit(Some(1_000_000));
        sim.run_until_idle();
        let t = done.lock().unwrap().expect("work must complete despite timers").as_secs_f64();
        assert!((t - 1.0).abs() < 0.05, "0.5s at 50% share ~ 1s, got {t}");
    }

    #[test]
    fn timer_handler_work_is_interposed() {
        // Work enqueued from a timer handler must still be throttled.
        struct TimerWorker {
            done: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for TimerWorker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(dur::ms(1), 1);
            }
            fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
                ctx.compute(100_000.0); // 0.1s of work
                ctx.continue_with(0);
            }
            fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.done.lock().unwrap() = Some(ctx.now());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::cpu(0.25));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(
                TimerWorker { done: done.clone() },
                lh,
                SandboxStats::default(),
            )),
        );
        sim.run_until_idle();
        let t = done.lock().unwrap().expect("must finish").as_secs_f64();
        assert!((t - 0.401).abs() < 0.02, "0.1s at 25% share ~ 0.4s, got {t}");
    }

    #[test]
    fn timers_pass_through_to_inner() {
        struct Timed {
            fired: Arc<Mutex<u32>>,
        }
        impl Actor for Timed {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(dur::ms(5), 3);
                ctx.compute(100_000.0);
            }
            fn on_timer(&mut self, tag: u64, _ctx: &mut Ctx<'_>) {
                assert_eq!(tag, 3);
                *self.fired.lock().unwrap() += 1;
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let fired = Arc::new(Mutex::new(0));
        let lh = LimitsHandle::new(Limits::cpu(0.5));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(Timed { fired: fired.clone() }, lh, SandboxStats::default())),
        );
        sim.run_until_idle();
        assert_eq!(*fired.lock().unwrap(), 1);
    }

    #[test]
    fn issued_send_stays_ahead_of_later_work() {
        // A send the wrapper has already issued sits in the kernel queue
        // when a continuation re-enters the application; intercepting that
        // handler must not pull the send back behind the queued compute.
        struct App {
            dst: ActorId,
        }
        impl Actor for App {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.dst, Message::signal(0, 64));
                ctx.continue_with(1);
                ctx.compute(100_000.0);
            }
            fn on_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                if tag == 1 {
                    ctx.continue_with(2);
                }
            }
        }
        struct Sink {
            got: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for Sink {
            fn on_message(&mut self, _f: ActorId, _m: Message, ctx: &mut Ctx<'_>) {
                *self.got.lock().unwrap() = Some(ctx.now());
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let got = Arc::new(Mutex::new(None));
        let sink = sim.spawn(h, Box::new(Sink { got: got.clone() }));
        let lh = LimitsHandle::new(Limits::unconstrained());
        sim.spawn(h, Box::new(Sandboxed::new(App { dst: sink }, lh, SandboxStats::default())));
        sim.run_until_idle();
        // Local latency only: the send did not wait for the 0.1 s compute.
        assert_eq!(*got.lock().unwrap(), Some(SimTime::from_us(5)));
    }

    #[test]
    fn inner_continuations_preserve_order() {
        struct Seq {
            log: Arc<Mutex<Vec<u64>>>,
        }
        impl Actor for Seq {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.compute(1000.0);
                ctx.continue_with(1);
                ctx.compute(1000.0);
                ctx.continue_with(2);
            }
            fn on_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
                self.log.lock().unwrap().push(tag);
                if tag == 1 {
                    // Enqueue more work mid-stream; must run before tag 2?
                    // No: FIFO semantics — it runs after already-queued
                    // actions, i.e. after compute+continue(2).
                    ctx.continue_with(3);
                }
            }
        }
        let mut sim = Sim::new();
        let h = sim.add_host("ref", 1.0, 1 << 30);
        let log = Arc::new(Mutex::new(Vec::new()));
        let lh = LimitsHandle::new(Limits::cpu(0.5));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(Seq { log: log.clone() }, lh, SandboxStats::default())),
        );
        sim.run_until_idle();
        assert_eq!(log.lock().unwrap().as_slice(), &[1, 2, 3]);
    }
}
