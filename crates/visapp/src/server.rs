//! The active-visualization server actor.
//!
//! Holds the wavelet image store; serves incremental foveal region
//! requests, compressing replies with the per-client compression method
//! (changed mid-session by `SetCompression` control messages — the
//! server-side effect of the client's `transition on c`).
//!
//! Requests are idempotent: each client session caches the last
//! `(request, reply)` pair, keyed by the request's monotonic round
//! number, so a retransmitted request (lossy links, client timeouts) is
//! answered from the cache without re-extracting or re-compressing.
//! A reply copies no payload bytes: it shares the store's prepared
//! payload, and the cache keeps the sent message itself.
//! Malformed or unknown messages are counted and dropped rather than
//! fatal, and a host restart (fault injection) clears all session state —
//! clients re-announce themselves when their probes get through.

use std::collections::HashMap;
use std::sync::Arc;

use compress::Method;
use sandbox::SandboxStats;
use simnet::{Actor, ActorId, Ctx, Message};
use wavelet::Rect;

use crate::costs;
use crate::protocol::{self, Reply, Request, ResourceReport};
use crate::store::ImageStore;

/// Periodic resource reporting to connected clients: the server-side
/// monitoring agent shares its availability estimate with the remote
/// instances (§6.1).
pub struct Reporter {
    /// Reporting period, microseconds.
    pub period_us: u64,
    /// This server instance's progress estimates (from its sandbox).
    pub stats: SandboxStats,
    /// Component name used in the reports (normally "server").
    pub component: String,
}

const TAG_REPORT: u64 = 1;

/// Per-client session state.
#[derive(Debug, Default)]
struct Session {
    compression: Option<Method>,
    /// Last request and the reply message sent for it: the idempotency
    /// cache that makes client retransmissions safe and cheap.
    cached: Option<(Request, Message)>,
    /// Retransmissions answered from the cache.
    dups: u64,
}

/// The server actor.
pub struct Server {
    store: Arc<ImageStore>,
    sessions: HashMap<ActorId, Session>,
    requests_served: u64,
    duplicate_requests: u64,
    dropped_msgs: u64,
    reporter: Option<Reporter>,
    had_clients: bool,
    obs: Option<ServerObs>,
}

/// Pre-registered metric targets so the request path stays allocation-free.
struct ServerObs {
    obs: obs::Obs,
    request_span: obs::MetricId,
    requests: obs::MetricId,
    duplicates: obs::MetricId,
    dropped: obs::MetricId,
}

impl Server {
    pub fn new(store: Arc<ImageStore>) -> Self {
        Server {
            store,
            sessions: HashMap::new(),
            requests_served: 0,
            duplicate_requests: 0,
            dropped_msgs: 0,
            reporter: None,
            had_clients: false,
            obs: None,
        }
    }

    /// Attach a monitoring reporter; estimates go to every connected client.
    pub fn with_reporter(mut self, reporter: Reporter) -> Self {
        self.reporter = Some(reporter);
        self
    }

    /// Mirror server telemetry into `obs`: per-request service latency on
    /// the `"visapp.request"` histogram plus served/duplicate/dropped
    /// counters.
    pub fn with_obs(mut self, obs: &obs::Obs) -> Self {
        self.obs = Some(ServerObs {
            obs: obs.clone(),
            request_span: obs.histogram("visapp.request"),
            requests: obs.counter("server.requests"),
            duplicates: obs.counter("server.duplicates"),
            dropped: obs.counter("server.dropped_msgs"),
        });
        self
    }

    fn count(&self, pick: impl Fn(&ServerObs) -> obs::MetricId) {
        if let Some(h) = &self.obs {
            h.obs.inc(pick(h), 1);
        }
    }

    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Retransmitted requests answered from the idempotency cache.
    pub fn duplicate_requests(&self) -> u64 {
        self.duplicate_requests
    }

    /// Unknown-tag or undecodable messages discarded.
    pub fn dropped_msgs(&self) -> u64 {
        self.dropped_msgs
    }

    fn method_for(&self, client: ActorId) -> Method {
        self.sessions.get(&client).and_then(|s| s.compression).unwrap_or(Method::Raw)
    }
}

impl Actor for Server {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(rep) = &self.reporter {
            ctx.set_timer(rep.period_us, TAG_REPORT);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag != TAG_REPORT {
            return;
        }
        // Stop reporting (and let the simulation drain) once the session
        // is over: every previously connected client has disconnected.
        if self.had_clients && self.sessions.is_empty() {
            return;
        }
        if let Some(rep) = &self.reporter {
            if let Some(share) = rep.stats.cpu_share() {
                let component = rep.component.clone();
                let clients: Vec<ActorId> = self.sessions.keys().copied().collect();
                for client in clients {
                    let msg = protocol::resource_report_msg(ResourceReport {
                        component: component.clone(),
                        kind: 0,
                        value: share,
                    });
                    // Control-plane traffic: ahead of the action queue.
                    ctx.send_now(client, msg);
                }
            }
        }
        if let Some(rep) = &self.reporter {
            let period = rep.period_us;
            ctx.set_timer(period, TAG_REPORT);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
        match msg.tag {
            protocol::TAG_CONNECT => {
                let Ok(c) = msg.decode::<protocol::Connect>() else {
                    self.dropped_msgs += 1;
                    self.count(|h| h.dropped);
                    return;
                };
                self.sessions.entry(from).or_default().compression = Some(c.compression);
                self.had_clients = true;
            }
            protocol::TAG_SET_COMPRESSION => {
                let Ok(c) = msg.decode::<protocol::SetCompression>() else {
                    self.dropped_msgs += 1;
                    self.count(|h| h.dropped);
                    return;
                };
                if let Some(sess) = self.sessions.get_mut(&from) {
                    sess.compression = Some(c.compression);
                }
            }
            protocol::TAG_REQUEST => {
                // Clone the handle into a local so the RAII span borrows
                // it rather than `self` (the reply path needs `&mut self`).
                let span_obs = self.obs.as_ref().map(|h| (h.obs.clone(), h.request_span));
                let _span = span_obs.as_ref().map(|(o, id)| o.span(*id));
                let Ok(req) = msg.decode::<Request>() else {
                    self.dropped_msgs += 1;
                    self.count(|h| h.dropped);
                    return;
                };
                let req = req.clone();
                // Idempotent retransmissions: answer repeats of the last
                // request from the session cache, skipping the extraction
                // and compression work (the bytes are already prepared).
                let mut cached_hit = None;
                if let Some(sess) = self.sessions.get_mut(&from) {
                    if let Some((cached_req, cached_reply)) = &sess.cached {
                        if *cached_req == req {
                            sess.dups += 1;
                            cached_hit = Some(cached_reply.clone());
                        }
                    }
                }
                if let Some(reply) = cached_hit {
                    self.duplicate_requests += 1;
                    self.count(|h| h.duplicates);
                    ctx.send(from, reply);
                    return;
                }
                self.requests_served += 1;
                self.count(|h| h.requests);
                let method = self.method_for(from);
                let (w, h) = self.store.dims();
                let region = Rect::fovea(req.cx, req.cy, req.r, w, h);
                let exclude = if req.prev_r > 0 {
                    Rect::fovea(req.cx, req.cy, req.prev_r, w, h)
                } else {
                    Rect::empty()
                };
                let level = req.level.min(self.store.levels());
                let prepared = self.store.prepare(req.image_id, region, level, exclude, method);
                let reply = protocol::reply_msg(Reply {
                    image_id: req.image_id,
                    round: req.round,
                    compression: method,
                    payload: prepared.payload.clone(),
                    raw_bytes: prepared.raw_bytes,
                    ncoeffs: prepared.ncoeffs,
                    region,
                });
                if let Some(sess) = self.sessions.get_mut(&from) {
                    sess.cached = Some((req, reply.clone()));
                }
                // Charge extraction + compression work, then transmit.
                ctx.compute(costs::server_reply_work(prepared.ncoeffs, prepared.raw_bytes, method));
                ctx.send(from, reply);
            }
            protocol::TAG_DISCONNECT => {
                self.sessions.remove(&from);
            }
            _ => {
                // Unknown tags are dropped, not fatal: under fault
                // injection a peer may be mid-restart or speaking a newer
                // protocol revision.
                self.dropped_msgs += 1;
                self.count(|h| h.dropped);
            }
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // A crashed host loses all in-memory session state; clients
        // re-establish it (re-connect, re-request) via their retry and
        // breaker-probe paths.
        self.sessions.clear();
        self.had_clients = false;
        self.on_start(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Sim, SimTime};
    use std::sync::Arc;
    use std::sync::Mutex;

    /// What a scripted client saw of one reply: round, wire bytes, raw
    /// bytes and the payload handle it received.
    type Seen = (u64, u64, usize, Arc<[u8]>);

    /// Scripted client driving the server directly.
    struct Probe {
        server: ActorId,
        log: Arc<Mutex<Vec<Seen>>>,
        step: usize,
    }
    impl Actor for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(self.server, protocol::connect_msg(Method::Bzip));
            ctx.send(
                self.server,
                protocol::request_msg(Request {
                    image_id: 0,
                    cx: 32,
                    cy: 32,
                    r: 16,
                    prev_r: 0,
                    level: 3,
                    round: 0,
                }),
            );
        }
        fn on_message(&mut self, _from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
            let reply = msg.expect_body::<Reply>();
            let seen = (reply.round, msg.wire_bytes, reply.raw_bytes, reply.payload.clone());
            self.log.lock().unwrap().push(seen);
            self.step += 1;
            match self.step {
                1 => {
                    // Incremental ring request.
                    ctx.send(
                        self.server,
                        protocol::request_msg(Request {
                            image_id: 0,
                            cx: 32,
                            cy: 32,
                            r: 32,
                            prev_r: 16,
                            level: 3,
                            round: 1,
                        }),
                    );
                }
                2 => {
                    // Switch compression, then ask for a fresh region.
                    ctx.send(self.server, protocol::set_compression_msg(Method::Raw));
                    ctx.send(
                        self.server,
                        protocol::request_msg(Request {
                            image_id: 1,
                            cx: 32,
                            cy: 32,
                            r: 32,
                            prev_r: 0,
                            level: 3,
                            round: 2,
                        }),
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn serves_rings_and_honors_compression_switch() {
        let mut sim = Sim::new();
        let hs = sim.add_host("server", 1.0, 1 << 30);
        let hc = sim.add_host("client", 1.0, 1 << 30);
        sim.set_link(hs, hc, 1_000_000.0, 100);
        let store = Arc::new(ImageStore::generate(2, 64, 3, 7));
        let server = sim.spawn(hs, Box::new(Server::new(store.clone())));
        let log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(hc, Box::new(Probe { server, log: log.clone(), step: 0 }));
        sim.run_until_idle();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3);
        // Reply sizes are exactly what the store prepares for each method;
        // the third reply (after the switch to Raw) is raw + header.
        // (Compression-ratio claims live in the store/compress tests —
        // tiny ring payloads may not amortize a Huffman table.)
        let (_, wire0, raw0, _) = log[0];
        let (_, wire1, raw1, _) = log[1];
        let (_, wire2, raw2, _) = log[2];
        assert!(raw0 > 0 && raw1 > 0);
        assert_eq!(wire2 as usize, raw2 + protocol::REPLY_HEADER_BYTES as usize);
        let full = Rect::fovea(32, 32, 16, 64, 64);
        let ring_outer = Rect::fovea(32, 32, 32, 64, 64);
        let p0 = store.prepare(0, full, 3, Rect::empty(), Method::Bzip);
        let p1 = store.prepare(0, ring_outer, 3, full, Method::Bzip);
        let p2 = store.prepare(1, ring_outer, 3, Rect::empty(), Method::Raw);
        assert_eq!(wire0, p0.payload.len() as u64 + protocol::REPLY_HEADER_BYTES);
        assert_eq!(wire1, p1.payload.len() as u64 + protocol::REPLY_HEADER_BYTES);
        // No copies: each reply carries the store's own payload allocation.
        for (seen, prepared) in log.iter().zip([&p0, &p1, &p2]) {
            assert!(Arc::ptr_eq(&seen.3, &prepared.payload), "round {} copied", seen.0);
        }
        // Server did simulated work: time advanced beyond pure transfer.
        assert!(sim.now() > SimTime::ZERO);
    }

    #[test]
    fn unknown_tag_is_dropped_not_fatal() {
        // Garbage tags (a confused or newer peer) must not kill the
        // server: it drops them and keeps serving real requests.
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let store = Arc::new(ImageStore::generate(1, 64, 3, 7));
        let server = sim.spawn(h, Box::new(Server::new(store)));
        struct Bad {
            server: ActorId,
            got_reply: Arc<Mutex<bool>>,
        }
        impl Actor for Bad {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.server, Message::signal(999, 8));
                ctx.send(self.server, protocol::connect_msg(Method::Raw));
                ctx.send(
                    self.server,
                    protocol::request_msg(Request {
                        image_id: 0,
                        cx: 32,
                        cy: 32,
                        r: 16,
                        prev_r: 0,
                        level: 3,
                        round: 0,
                    }),
                );
            }
            fn on_message(&mut self, _from: ActorId, msg: Message, _ctx: &mut Ctx<'_>) {
                if msg.tag == protocol::TAG_REPLY {
                    *self.got_reply.lock().unwrap() = true;
                }
            }
        }
        let got_reply = Arc::new(Mutex::new(false));
        sim.spawn(h, Box::new(Bad { server, got_reply: got_reply.clone() }));
        sim.run_until_idle();
        assert!(
            *got_reply.lock().unwrap(),
            "server survived the unknown tag and served the request"
        );
    }

    #[test]
    fn retransmitted_request_is_answered_from_cache() {
        // The same request twice: both get the same reply, sharing the
        // store's payload, and the second costs no server compute
        // (idempotency cache).
        let mut sim = Sim::new();
        let hs = sim.add_host("server", 1.0, 1 << 30);
        let hc = sim.add_host("client", 1.0, 1 << 30);
        sim.set_link(hs, hc, 1_000_000.0, 100);
        let store = Arc::new(ImageStore::generate(1, 64, 3, 7));
        let server = sim.spawn(hs, Box::new(Server::new(store.clone())));
        struct Retry {
            server: ActorId,
            replies: Arc<Mutex<Vec<Seen>>>,
            sent_dup: bool,
        }
        fn the_request() -> Request {
            Request { image_id: 0, cx: 32, cy: 32, r: 16, prev_r: 0, level: 3, round: 0 }
        }
        impl Actor for Retry {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.server, protocol::connect_msg(Method::Bzip));
                ctx.send(self.server, protocol::request_msg(the_request()));
            }
            fn on_message(&mut self, _from: ActorId, msg: Message, ctx: &mut Ctx<'_>) {
                let reply = msg.expect_body::<Reply>();
                let seen = (reply.round, msg.wire_bytes, reply.raw_bytes, reply.payload.clone());
                self.replies.lock().unwrap().push(seen);
                if !self.sent_dup {
                    self.sent_dup = true;
                    // Pretend the first reply was lost: retransmit.
                    ctx.send(self.server, protocol::request_msg(the_request()));
                }
            }
        }
        let replies = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(hc, Box::new(Retry { server, replies: replies.clone(), sent_dup: false }));
        sim.run_until_idle();
        let replies = replies.lock().unwrap();
        assert_eq!(replies.len(), 2, "both the request and its retransmission were answered");
        assert_eq!(replies[0], replies[1], "cached reply is byte-identical");
        let p = store.prepare(0, Rect::fovea(32, 32, 16, 64, 64), 3, Rect::empty(), Method::Bzip);
        for seen in replies.iter() {
            assert!(Arc::ptr_eq(&seen.3, &p.payload), "a reply copied the prepared payload");
        }
    }
}
