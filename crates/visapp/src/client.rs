//! The active-visualization client actor — the paper's tunable application
//! (Figure 2), optionally driven by the adaptation runtime.
//!
//! The client implements the annotated loop: request an incrementally
//! growing foveal square up to resolution level `l`, decompress, update
//! the display, measure `QoS.response_time` and `QoS.transmit_time`.
//! Between rounds (the task boundary) the embedded
//! [`AdaptiveRuntime`] may switch control parameters; a compression
//! change executes the `transition on c` body by notifying the server.
//!
//! When built with a `verify_store`, the client really decompresses and
//! reconstructs every reply and asserts pixel-exactness at each image
//! completion — the end-to-end correctness check used by the test suite.

use std::sync::Arc;

use adapt_core::{AdaptiveRuntime, Configuration, ResourceKey};
use adapt_transport::{Envelope, SimTransport, Transport};
use compress::Method;
use obs::{Adaptive, CommandRouter, ConfigValue, FnKnob, KnobError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sandbox::SandboxStats;
use simnet::{Actor, ActorId, Ctx, Message, SimTime};
use wavelet::{decode_chunks, Reassembler};

use crate::costs;
use crate::protocol::{self, Reply, Request};
use crate::resilience::{BreakerOpts, BreakerState, CircuitBreaker, RetryPolicy};
use crate::stats::{ImageRecord, RoundRecord, StatsHandle};
use crate::store::ImageStore;
use crate::user_model::UserModel;

/// Timer tag for the monitoring agent (must stay below the sandbox's
/// reserved range).
pub const TAG_MONITOR: u64 = 10;
const CONT_ROUND_DONE: u64 = 20;
/// Timer tag for half-open circuit-breaker probes (must stay below
/// `TAG_RETRY_BASE`, whose range check runs first).
const TAG_BREAKER_PROBE: u64 = 30;
/// Timer tag ending a think-time pause between images.
const TAG_NEXT_IMAGE: u64 = 40;
/// Retransmission timers encode the awaited round as `TAG_RETRY_BASE + round`.
const TAG_RETRY_BASE: u64 = 1_000;

/// The client's view of its control parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VizConfig {
    /// Incremental fovea size `dR` (radius increment per round, pixels).
    pub dr: usize,
    /// Resolution level `l`.
    pub level: usize,
    /// Compression type `c`.
    pub method: Method,
}

/// Why a framework [`Configuration`] could not be interpreted as a
/// [`VizConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A required control parameter is absent.
    MissingParam(&'static str),
    /// A parameter value is outside its meaningful range.
    OutOfRange { param: &'static str, value: i64 },
    /// The compression code does not name a known method.
    UnknownCompression(i64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MissingParam(p) => write!(f, "configuration lacks parameter {p}"),
            ConfigError::OutOfRange { param, value } => {
                write!(f, "parameter {param} = {value} out of range")
            }
            ConfigError::UnknownCompression(code) => {
                write!(f, "unknown compression code {code}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for adapt_core::Error {
    fn from(e: ConfigError) -> Self {
        match e {
            ConfigError::MissingParam(p) => adapt_core::Error::MissingParam(p.to_string()),
            ConfigError::OutOfRange { param, value } => {
                adapt_core::Error::OutOfRange { param: param.to_string(), value }
            }
            ConfigError::UnknownCompression(code) => {
                adapt_core::Error::UnknownValue { param: "c".to_string(), value: code }
            }
        }
    }
}

impl VizConfig {
    /// Into the framework's named-parameter form (`dR`, `l`, `c`).
    pub fn to_configuration(self) -> Configuration {
        Configuration::new(&[
            ("dR", self.dr as i64),
            ("l", self.level as i64),
            ("c", self.method.code()),
        ])
    }

    /// From the framework's named-parameter form, with typed errors for
    /// malformed configurations (e.g. an out-of-spec control message).
    pub fn try_from_configuration(c: &Configuration) -> Result<VizConfig, ConfigError> {
        fn positive(c: &Configuration, name: &'static str) -> Result<usize, ConfigError> {
            let v = c.get(name).ok_or(ConfigError::MissingParam(name))?;
            if v <= 0 {
                return Err(ConfigError::OutOfRange { param: name, value: v });
            }
            Ok(v as usize)
        }
        let code = c.get("c").ok_or(ConfigError::MissingParam("c"))?;
        Ok(VizConfig {
            dr: positive(c, "dR")?,
            level: positive(c, "l")?,
            method: Method::from_code(code).ok_or(ConfigError::UnknownCompression(code))?,
        })
    }

    /// From the framework's named-parameter form. Panics on malformed
    /// configurations (the control space validates them upstream); use
    /// [`VizConfig::try_from_configuration`] where the source is untrusted.
    pub fn from_configuration(c: &Configuration) -> VizConfig {
        match Self::try_from_configuration(c) {
            Ok(v) => v,
            Err(e) => panic!("invalid configuration {c}: {e}"),
        }
    }
}

/// Adaptation wiring: the runtime plus the observation source.
pub struct AdaptSetup {
    pub runtime: AdaptiveRuntime,
    /// Progress estimates from this client's sandbox (the monitoring agent
    /// reuses the virtual-execution-environment machinery, §6.1).
    pub sandbox_stats: SandboxStats,
    pub cpu_key: ResourceKey,
    pub net_key: ResourceKey,
    /// Monitor sampling period (default 10 ms).
    pub period_us: u64,
}

/// Client construction options.
///
/// Build with [`ClientOpts::new`] and the consuming `with_*` methods;
/// struct-literal construction is a deprecated path kept only for
/// backward compatibility (the field set will gain private members).
///
/// ```
/// # use visapp::{ClientOpts, VizConfig};
/// # use compress::Method;
/// # use simnet::ActorId;
/// let opts = ClientOpts::new(ActorId(0))
///     .with_n_images(4)
///     .with_initial(VizConfig { dr: 32, level: 3, method: Method::Lzw })
///     .with_geometry(32, (64, 64), 3)
///     .with_request_timeout(Some(200_000));
/// assert_eq!(opts.n_images, 4);
/// ```
pub struct ClientOpts {
    pub server: ActorId,
    pub n_images: usize,
    pub initial: VizConfig,
    pub user: UserModel,
    /// Radius covering the whole image.
    pub cover_radius: usize,
    pub img_dims: (usize, usize),
    /// The pyramid's finest level (resolution level of the original).
    pub max_level: usize,
    /// When set, really decompress/reconstruct and assert correctness.
    pub verify_store: Option<Arc<ImageStore>>,
    /// Retransmit a request if its reply has not arrived within this time
    /// (needed on lossy links; the server is idempotent).
    pub request_timeout_us: Option<u64>,
    /// Backoff/jitter schedule for those retransmissions.
    pub retry: RetryPolicy,
    /// Circuit breaker guarding the retransmission loop; `None` retries
    /// forever at the backoff schedule.
    pub breaker: Option<BreakerOpts>,
    /// User think time between finishing one image and requesting the
    /// next (us). `None` (the default) moves on immediately — the
    /// behavior of every pre-existing scenario. The load generator sets
    /// this per session to model interactive users.
    pub think_time_us: Option<u64>,
}

impl ClientOpts {
    /// Options for a client of `server`, with small-test defaults: one
    /// 64x64 3-level image at the coarsest-but-one resolution, centered
    /// fovea, no verification, no retransmission, no breaker.
    pub fn new(server: ActorId) -> Self {
        ClientOpts {
            server,
            n_images: 1,
            initial: VizConfig { dr: 32, level: 3, method: Method::Lzw },
            user: UserModel::center(64, 64),
            cover_radius: 32,
            img_dims: (64, 64),
            max_level: 3,
            verify_store: None,
            request_timeout_us: None,
            retry: RetryPolicy::default(),
            breaker: None,
            think_time_us: None,
        }
    }

    pub fn with_n_images(mut self, n: usize) -> Self {
        self.n_images = n;
        self
    }

    pub fn with_initial(mut self, config: VizConfig) -> Self {
        self.initial = config;
        self
    }

    pub fn with_user(mut self, user: UserModel) -> Self {
        self.user = user;
        self
    }

    /// Set the image geometry together: the radius covering a whole image,
    /// the pixel dimensions, and the pyramid's finest level.
    pub fn with_geometry(
        mut self,
        cover_radius: usize,
        img_dims: (usize, usize),
        max_level: usize,
    ) -> Self {
        self.cover_radius = cover_radius;
        self.img_dims = img_dims;
        self.max_level = max_level;
        self
    }

    /// Really decompress/reconstruct every reply against `store`.
    pub fn with_verify_store(mut self, store: Option<Arc<ImageStore>>) -> Self {
        self.verify_store = store;
        self
    }

    pub fn with_request_timeout(mut self, timeout_us: Option<u64>) -> Self {
        self.request_timeout_us = timeout_us;
        self
    }

    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn with_breaker(mut self, breaker: Option<BreakerOpts>) -> Self {
        self.breaker = breaker;
        self
    }

    /// Pause for `think_us` of simulated user think time between images.
    pub fn with_think_time(mut self, think_us: Option<u64>) -> Self {
        self.think_time_us = think_us;
        self
    }
}

struct PendingRound {
    wire_bytes: u64,
    raw_bytes: usize,
    /// Round number from the reply's wire header (for the round record's
    /// `wire_round`; diverges from the sequential counter only if a
    /// duplicate reply is ever applied).
    reply_round: u64,
}

/// The client actor.
pub struct Client {
    opts: ClientOpts,
    cfg: VizConfig,
    stats: StatsHandle,
    adapt: Option<AdaptSetup>,
    image_idx: usize,
    fovea: (usize, usize),
    r: usize,
    prev_r: usize,
    round_no: u64,
    image_started: SimTime,
    round_started: SimTime,
    pending: Option<PendingRound>,
    reassembler: Option<Reassembler>,
    /// Simulated bytes currently allocated for the image being viewed.
    allocated: u64,
    done: bool,
    /// Retransmissions already attempted for the current round (drives
    /// the exponential backoff).
    attempt: u32,
    /// Deterministic jitter source for retry timeouts.
    retry_rng: StdRng,
    /// Live retransmission schedule: the control plane can retune the
    /// backoff of a running client through `client.retry.*` knobs.
    retry: Adaptive<RetryPolicy>,
    breaker: Option<CircuitBreaker>,
    /// The configuration to restore when an open breaker re-closes.
    saved_cfg: Option<VizConfig>,
    /// Outbound message path. All protocol traffic goes through the
    /// transport trait; inside the simulator this is a [`SimTransport`]
    /// flushed at each send site, which replays onto the kernel verbatim.
    link: SimTransport,
}

impl Client {
    pub fn new(opts: ClientOpts, stats: StatsHandle, adapt: Option<AdaptSetup>) -> Self {
        let cfg = match &adapt {
            Some(a) => VizConfig::from_configuration(a.runtime.current()),
            None => opts.initial,
        };
        let retry_rng = StdRng::seed_from_u64(opts.retry.seed);
        let retry = Adaptive::new(opts.retry);
        let breaker = opts.breaker.as_ref().map(CircuitBreaker::new);
        Client {
            cfg,
            opts,
            stats,
            adapt,
            image_idx: 0,
            fovea: (0, 0),
            r: 0,
            prev_r: 0,
            round_no: 0,
            image_started: SimTime::ZERO,
            round_started: SimTime::ZERO,
            pending: None,
            reassembler: None,
            allocated: 0,
            done: false,
            attempt: 0,
            retry_rng,
            retry,
            breaker,
            saved_cfg: None,
            link: SimTransport::new(),
        }
    }

    /// Queue one envelope on the transport and flush it onto the kernel.
    /// Flushing at every send site keeps the action stream identical to
    /// direct `ctx.send` calls (digest-preserving).
    fn post(&mut self, ctx: &mut Ctx<'_>, env: Envelope) {
        self.link.send(env).expect("sim transport is always open");
        self.link.flush_into(ctx);
    }

    /// Working-set size for viewing one image at `level`: the coefficient
    /// frame plus the display buffer at the level's viewing scale, plus a
    /// fixed runtime footprint. Degrading the resolution level shrinks the
    /// working set by ~4x per level — the memory-axis counterpart of the
    /// resolution knob.
    fn working_set_bytes(&self) -> u64 {
        let (w, h) = self.opts.img_dims;
        let shift = self.opts.max_level.saturating_sub(self.cfg.level);
        let view = ((w >> shift).max(1) * (h >> shift).max(1)) as u64;
        view * 5 + 32 * 1024
    }

    pub fn current_config(&self) -> VizConfig {
        self.cfg
    }

    /// Register this client's live-tunable knobs (and its breaker reset
    /// target) on a control router, namespaced under `prefix`:
    ///
    /// - `<prefix>.retry.multiplier` (f64), `<prefix>.retry.max_timeout_us`
    ///   (u64), `<prefix>.retry.jitter_frac` (f64) — field projections of
    ///   the retransmission schedule
    /// - `<prefix>.breaker.failure_threshold`, `<prefix>.breaker.recovery_timeout_us`
    ///   (u64) plus a `ResetBreaker` target at `<prefix>.breaker` — only
    ///   when a breaker is armed
    /// - the adaptive runtime's own knobs (`steering.min_dwell_us`,
    ///   `scheduler.prefs`, unprefixed) — only on an adaptive client
    pub fn register_control(&self, prefix: &str, router: &CommandRouter) {
        let reg = router.registry();
        if let Some(a) = &self.adapt {
            a.runtime.register_knobs(reg);
        }
        reg.register_knob(
            format!("{prefix}.retry.multiplier"),
            FnKnob::new(
                self.retry.clone(),
                "f64",
                |p: &RetryPolicy| ConfigValue::F64(p.multiplier),
                |p, v| {
                    let m = v
                        .as_f64()
                        .ok_or(KnobError::TypeMismatch { expected: "f64", got: v.type_name() })?;
                    if !m.is_finite() || m < 1.0 {
                        return Err(KnobError::BadValue(format!("multiplier {m} must be >= 1")));
                    }
                    p.multiplier = m;
                    Ok(())
                },
            ),
        );
        reg.register_knob(
            format!("{prefix}.retry.max_timeout_us"),
            FnKnob::new(
                self.retry.clone(),
                "u64",
                |p: &RetryPolicy| ConfigValue::U64(p.max_timeout_us),
                |p, v| {
                    let t = v
                        .as_u64()
                        .ok_or(KnobError::TypeMismatch { expected: "u64", got: v.type_name() })?;
                    if t == 0 {
                        return Err(KnobError::BadValue("max_timeout_us must be > 0".into()));
                    }
                    p.max_timeout_us = t;
                    Ok(())
                },
            ),
        );
        reg.register_knob(
            format!("{prefix}.retry.jitter_frac"),
            FnKnob::new(
                self.retry.clone(),
                "f64",
                |p: &RetryPolicy| ConfigValue::F64(p.jitter_frac),
                |p, v| {
                    let j = v
                        .as_f64()
                        .ok_or(KnobError::TypeMismatch { expected: "f64", got: v.type_name() })?;
                    if !j.is_finite() || !(0.0..1.0).contains(&j) {
                        return Err(KnobError::BadValue(format!(
                            "jitter_frac {j} must be in [0, 1)"
                        )));
                    }
                    p.jitter_frac = j;
                    Ok(())
                },
            ),
        );
        if let Some(b) = &self.breaker {
            reg.register_knob(
                format!("{prefix}.breaker.failure_threshold"),
                b.failure_threshold_handle(),
            );
            reg.register_knob(
                format!("{prefix}.breaker.recovery_timeout_us"),
                b.recovery_timeout_handle(),
            );
            router.register_reset(format!("{prefix}.breaker"), b.reset_signal());
        }
    }

    fn begin_image(&mut self, ctx: &mut Ctx<'_>) {
        self.fovea = self.opts.user.next_fovea();
        self.r = self.cfg.dr.min(self.opts.cover_radius);
        self.prev_r = 0;
        self.image_started = ctx.now();
        let ws = self.working_set_bytes();
        ctx.alloc(ws);
        self.allocated += ws;
        if let Some(store) = &self.opts.verify_store {
            let (w, h) = self.opts.img_dims;
            self.reassembler = Some(Reassembler::new(w, h, store.levels()));
        }
        self.begin_round(ctx);
    }

    fn begin_round(&mut self, ctx: &mut Ctx<'_>) {
        self.round_started = ctx.now();
        self.attempt = 0;
        self.send_request(ctx);
    }

    /// The cheapest configuration in the client's geometry: coarsest
    /// resolution, whole-fovea increments (fewest round trips), keeping
    /// the current compression method. Used when the breaker opens and
    /// [`BreakerOpts::degraded`] is unset.
    fn lowest_cost_config(&self) -> VizConfig {
        VizConfig { dr: self.opts.cover_radius.max(1), level: 1, method: self.cfg.method }
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_>) {
        let msg = protocol::request_msg(Request {
            image_id: self.image_idx,
            cx: self.fovea.0,
            cy: self.fovea.1,
            r: self.r,
            prev_r: self.prev_r,
            level: self.cfg.level,
            round: self.round_no,
        });
        let server = self.opts.server;
        self.post(ctx, Envelope::to(server, msg));
        if let Some(base) = self.opts.request_timeout_us {
            let policy = self.retry.load();
            let timeout = policy.timeout_us(base, self.attempt, &mut self.retry_rng);
            ctx.set_timer(timeout, TAG_RETRY_BASE + self.round_no);
        }
    }

    /// Apply any pending operator `ResetBreaker` command at a
    /// deterministic point. Returns `true` when the reset re-closed a
    /// tripped breaker (the degraded configuration is restored and the
    /// close recorded, exactly as for an organic probe success).
    fn poll_breaker_reset(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let Some(b) = self.breaker.as_mut() else { return false };
        if !b.poll_reset() {
            return false;
        }
        let now = ctx.now();
        self.stats.record_breaker_close(now);
        if let Some(saved) = self.saved_cfg.take() {
            self.cfg = saved;
            self.stats.record_config(now, self.cfg.to_configuration());
        }
        true
    }

    /// The task boundary: apply any pending reconfiguration and execute
    /// transition actions.
    fn boundary(&mut self, ctx: &mut Ctx<'_>) {
        self.poll_breaker_reset(ctx);
        // While the breaker is non-closed the client is pinned to its
        // degraded configuration; scheduler decisions resume on re-close.
        if self.breaker.as_ref().is_some_and(|b| b.state() != BreakerState::Closed) {
            return;
        }
        let Some(adapt) = self.adapt.as_mut() else { return };
        let now = ctx.now();
        if let Some(ev) = adapt.runtime.at_boundary(now) {
            // Steering validated the switch against the control space; a
            // config the application cannot interpret is skipped, not fatal.
            let Ok(new_cfg) = VizConfig::try_from_configuration(&ev.new) else { return };
            let method_changed = new_cfg.method != self.cfg.method;
            self.cfg = new_cfg;
            self.stats.record_config(now, ev.new.clone());
            for action in &ev.actions {
                match action {
                    adapt_core::TransitionAction::NotifyHost { host, param } => {
                        if host == "server" && param == "c" && method_changed {
                            let msg = protocol::set_compression_msg(self.cfg.method);
                            let server = self.opts.server;
                            self.post(ctx, Envelope::to(server, msg));
                        }
                    }
                    adapt_core::TransitionAction::SetLocal { .. } => {
                        // Local knobs already applied via self.cfg.
                    }
                }
            }
        }
    }

    fn finish_image(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.free(self.allocated);
        self.allocated = 0;
        let rounds_for_image =
            self.stats.with(|s| s.rounds.iter().filter(|r| r.image_id == self.image_idx).count());
        self.stats.record_image(ImageRecord {
            image_id: self.image_idx,
            started: self.image_started,
            finished: now,
            rounds: rounds_for_image,
        });
        // End-to-end verification: the reassembled image at the requested
        // level must match the server's pyramid exactly.
        if let (Some(re), Some(store)) = (&self.reassembler, &self.opts.verify_store) {
            let got = re.reconstruct(self.cfg.level);
            let want = store.pyramid(self.image_idx).reconstruct(self.cfg.level);
            assert_eq!(
                got, want,
                "image {} not reconstructed exactly at level {}",
                self.image_idx, self.cfg.level
            );
        }
        self.boundary(ctx);
        self.image_idx += 1;
        if self.image_idx < self.opts.n_images {
            match self.opts.think_time_us {
                Some(think) if think > 0 => ctx.set_timer(think, TAG_NEXT_IMAGE),
                _ => self.begin_image(ctx),
            }
        } else {
            self.done = true;
            self.stats.record_finished(now);
            if let Some(a) = &self.adapt {
                self.stats.record_adapt_summary(a.runtime.monitor.estimate());
            }
            let server = self.opts.server;
            self.post(ctx, Envelope::to(server, Message::signal(protocol::TAG_DISCONNECT, 32)));
        }
    }
}

impl Actor for Client {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let initial = self.cfg.to_configuration();
        self.stats.record_config(ctx.now(), initial);
        let (server, method) = (self.opts.server, self.cfg.method);
        self.post(ctx, Envelope::to(server, protocol::connect_msg(method)));
        if let Some(a) = &self.adapt {
            ctx.set_timer(a.period_us, TAG_MONITOR);
        }
        self.begin_image(ctx);
    }

    fn on_message(&mut self, _from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        if msg.tag == protocol::TAG_RESOURCE_REPORT {
            // A remote monitoring agent's estimate: feed it to our runtime
            // (ignored unless the spec watches that resource).
            if let Some(a) = self.adapt.as_mut() {
                let Ok(rep) = msg.decode::<protocol::ResourceReport>() else { return };
                let kind = match rep.kind {
                    0 => adapt_core::ResourceKind::CpuShare,
                    1 => adapt_core::ResourceKind::NetworkBps,
                    _ => adapt_core::ResourceKind::MemBytes,
                };
                let key = ResourceKey::new(&rep.component, kind);
                a.runtime.observe(ctx.now(), &key, rep.value);
            }
            return;
        }
        if msg.tag != protocol::TAG_REPLY {
            return;
        }
        let Ok(reply) = msg.decode::<Reply>() else { return };
        // Stale or duplicate replies (e.g. a retransmission race) must be
        // dropped, never applied twice.
        #[cfg(not(dst_canary))]
        let stale = reply.image_id != self.image_idx
            || reply.round != self.round_no
            || self.pending.is_some();
        // Canary bug for the simulation-test explorer (`adapt-dst`): a
        // plausible off-by-one in the dedup guard that only rejects
        // *future* rounds, so a late duplicate of an already-applied round
        // slips through and is applied twice. Compiled in solely under
        // `--cfg dst_canary`; the explorer must find it, shrink it, and
        // the committed repro replays it.
        #[cfg(dst_canary)]
        let stale = reply.image_id != self.image_idx
            || reply.round > self.round_no
            || self.pending.is_some();
        if stale {
            self.stats.record_dup_reply(ctx.now());
            return;
        }
        // A live reply: the path works again.
        self.attempt = 0;
        if let Some(b) = self.breaker.as_mut() {
            if b.on_success() {
                self.stats.record_breaker_close(ctx.now());
                if let Some(saved) = self.saved_cfg.take() {
                    self.cfg = saved;
                    let now = ctx.now();
                    let restored = self.cfg.to_configuration();
                    self.stats.record_config(now, restored);
                }
            }
        }
        // Real decompression + reassembly when verifying.
        if let Some(re) = self.reassembler.as_mut() {
            let raw = reply.compression.decompress(&reply.payload).expect("corrupt reply payload");
            assert_eq!(raw.len(), reply.raw_bytes);
            for chunk in decode_chunks(&raw).expect("malformed chunk payload") {
                re.apply(&chunk);
            }
        }
        self.pending = Some(PendingRound {
            wire_bytes: msg.wire_bytes,
            raw_bytes: reply.raw_bytes,
            reply_round: reply.round,
        });
        // Display repaints the requested square at the *viewing* scale of
        // the requested level: degrading resolution shrinks both the data
        // and the repaint cost (one quarter per level).
        let shift = 2 * self.opts.max_level.saturating_sub(self.cfg.level);
        let shown = (reply.region.area() >> shift).max(1);
        ctx.compute(costs::client_round_work(
            reply.ncoeffs,
            reply.raw_bytes,
            shown,
            reply.compression,
        ));
        ctx.continue_with(CONT_ROUND_DONE);
    }

    fn on_continue(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag != CONT_ROUND_DONE {
            return;
        }
        let Some(pending) = self.pending.take() else { return };
        let now = ctx.now();
        self.stats.record_round(RoundRecord {
            image_id: self.image_idx,
            round: self.round_no,
            wire_round: pending.reply_round,
            started: self.round_started,
            finished: now,
            wire_bytes: pending.wire_bytes,
            raw_bytes: pending.raw_bytes,
            level: self.cfg.level,
            dr: self.cfg.dr,
        });
        self.prev_r = self.r;
        self.round_no += 1;
        if self.r >= self.opts.cover_radius {
            self.finish_image(ctx);
        } else {
            self.boundary(ctx);
            self.r = (self.r + self.cfg.dr).min(self.opts.cover_radius);
            self.begin_round(ctx);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if (TAG_RETRY_BASE..sandbox::TAG_BASE).contains(&tag) {
            // A request's reply is overdue: retransmit if we are still
            // awaiting exactly that round (the server is idempotent — its
            // session cache serves the same bytes again).
            let awaited = tag - TAG_RETRY_BASE;
            if !self.done && self.pending.is_none() && self.round_no == awaited {
                self.stats.record_timeout();
                self.attempt += 1;
                self.poll_breaker_reset(ctx);
                let now = ctx.now();
                let mut blocked = false;
                let mut opened = false;
                if let Some(b) = self.breaker.as_mut() {
                    opened = b.on_failure(now);
                    blocked = !b.can_attempt(now);
                }
                if opened {
                    self.stats.record_breaker_open(now);
                    if self.saved_cfg.is_none() {
                        // Degrade: ride out the outage in the cheapest
                        // configuration so the half-open probes (and the
                        // first post-recovery rounds) cost as little as
                        // possible.
                        self.saved_cfg = Some(self.cfg);
                        self.cfg = self
                            .opts
                            .breaker
                            .as_ref()
                            .and_then(|o| o.degraded)
                            .unwrap_or_else(|| self.lowest_cost_config());
                        let degraded = self.cfg.to_configuration();
                        self.stats.record_config(now, degraded);
                    }
                }
                if blocked {
                    // Breaker open: stop retransmitting; probe when the
                    // recovery window elapses.
                    let wait = self.breaker.as_ref().map_or(1, |b| b.recovery_timeout_us()).max(1);
                    ctx.set_timer(wait, TAG_BREAKER_PROBE);
                    return;
                }
                self.stats.record_retry();
                self.send_request(ctx);
            }
            return;
        }
        if tag == TAG_BREAKER_PROBE {
            if self.done || self.pending.is_some() {
                return;
            }
            // An operator reset closes the breaker here, at the probe
            // timer — the only timer still pending during a full outage.
            // When that happens the client must resume transmitting
            // immediately (the early-return below would otherwise strand
            // it with no timer armed), so fall through to the send path.
            let reset = self.poll_breaker_reset(ctx);
            if !reset && self.breaker.as_ref().is_none_or(|b| b.state() == BreakerState::Closed) {
                // Stale probe timer: the breaker already re-closed (or was
                // never armed) and normal rounds resumed — a probe now
                // would inject a duplicate request.
                return;
            }
            let now = ctx.now();
            let can = self.breaker.as_mut().is_none_or(|b| b.can_attempt(now));
            if can {
                // Half-open probe (or post-reset resumption). The server
                // may have crashed and lost our session since we last
                // spoke: re-announce the compression method before
                // re-asking for the round.
                let (server, method) = (self.opts.server, self.cfg.method);
                self.post(ctx, Envelope::to(server, protocol::connect_msg(method)));
                self.stats.record_retry();
                self.send_request(ctx);
            } else {
                let wait = self.breaker.as_ref().map_or(1, |b| b.recovery_timeout_us()).max(1);
                ctx.set_timer(wait, TAG_BREAKER_PROBE);
            }
            return;
        }
        if tag == TAG_NEXT_IMAGE {
            // Think time over: start the next image (unless a crash path
            // already ended the run).
            if !self.done {
                self.begin_image(ctx);
            }
            return;
        }
        if tag != TAG_MONITOR {
            return;
        }
        if self.done {
            return;
        }
        let now = ctx.now();
        if let Some(a) = self.adapt.as_mut() {
            if let Some(share) = a.sandbox_stats.cpu_share() {
                a.runtime.observe(now, &a.cpu_key, share);
            }
            if let Some(bw) = a.sandbox_stats.bandwidth_bps(true) {
                a.runtime.observe(now, &a.net_key, bw);
            }
            a.runtime.tick(now);
            let period = a.period_us;
            ctx.set_timer(period, TAG_MONITOR);
        }
    }
}
