//! [`SocketTransport`]: real loopback I/O over TCP (or a Unix domain
//! socket where the platform has them).
//!
//! Wire format: one [`frame`](crate::frame) per envelope; payloads are
//! serialized by the application's [`WireCodec`]. All I/O is
//! non-blocking — `send` queues into a write buffer and flushes whatever
//! the kernel accepts, `try_recv` drains readable bytes into a read
//! buffer and decodes at most one complete frame per call.
//!
//! ## Reconnect state machine
//!
//! A client-side transport (one built with [`SocketTransport::dial`])
//! remembers its peer address. When the connection drops — the peer
//! closed, an I/O error, a framing error — the transport enters the
//! *backoff* state: [`SocketTransport::poll_reconnect`] refuses to dial
//! until the current backoff window (from [`RetryPolicy::timeout_us`],
//! attempt-indexed, jittered, capped) has elapsed, then attempts one
//! dial. Success resets the attempt counter and bumps
//! `transport.reconnects`; failure schedules the next window. Accepted
//! (server-side) transports have no peer address and never reconnect —
//! the listener accepts a fresh connection instead.
//!
//! ## Observability
//!
//! With [`SocketTransport::with_obs`], the transport maintains counters
//! `transport.bytes` (total on-wire bytes, both directions, plus the
//! `transport.bytes_sent` / `transport.bytes_recv` split),
//! `transport.reconnects`, and `transport.decode_errors` (framing or
//! codec rejections). Metric ids are resolved once at attach time; the
//! hot path is an atomic add per flush/drain.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use obs::det::SplitMix64;
use obs::{MetricId, Obs};
use simnet::ActorId;

use crate::frame::{decode_frame, encode_frame, Frame};
use crate::{Envelope, RetryPolicy, TransportError, WireCodec};

/// Base backoff for the first reconnect attempt, microseconds.
const RECONNECT_BASE_US: u64 = 10_000;

/// An address a socket transport can dial or a listener can announce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SocketAddrSpec {
    /// TCP endpoint (loopback in all shipped harnesses).
    Tcp(SocketAddr),
    /// Unix domain socket path.
    #[cfg(unix)]
    Uds(PathBuf),
}

impl std::fmt::Display for SocketAddrSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketAddrSpec::Tcp(a) => write!(f, "tcp://{a}"),
            #[cfg(unix)]
            SocketAddrSpec::Uds(p) => write!(f, "uds://{}", p.display()),
        }
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener, PathBuf),
}

/// Accepts inbound transport connections.
pub struct SocketListener {
    inner: ListenerKind,
}

impl SocketListener {
    /// Bind a loopback TCP listener on an OS-assigned port (port 0 —
    /// never a fixed port, so parallel CI runs cannot collide).
    pub fn bind_tcp() -> io::Result<Self> {
        let l = TcpListener::bind(("127.0.0.1", 0))?;
        Ok(SocketListener { inner: ListenerKind::Tcp(l) })
    }

    /// Bind a Unix-domain listener at `path` (removed first if stale).
    #[cfg(unix)]
    pub fn bind_uds(path: PathBuf) -> io::Result<Self> {
        let _ = std::fs::remove_file(&path);
        let l = UnixListener::bind(&path)?;
        Ok(SocketListener { inner: ListenerKind::Uds(l, path) })
    }

    /// The address peers should dial.
    pub fn local_spec(&self) -> io::Result<SocketAddrSpec> {
        match &self.inner {
            ListenerKind::Tcp(l) => Ok(SocketAddrSpec::Tcp(l.local_addr()?)),
            #[cfg(unix)]
            ListenerKind::Uds(_, p) => Ok(SocketAddrSpec::Uds(p.clone())),
        }
    }

    /// Block until one peer connects; wrap the connection in a transport.
    /// Accepted transports never auto-reconnect (accept again instead).
    pub fn accept(&self, codec: Arc<dyn WireCodec>) -> io::Result<SocketTransport> {
        let stream = match &self.inner {
            ListenerKind::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                StreamKind::Tcp(s)
            }
            #[cfg(unix)]
            ListenerKind::Uds(l, _) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                StreamKind::Uds(s)
            }
        };
        Ok(SocketTransport::from_stream(stream, codec))
    }
}

#[cfg(unix)]
impl Drop for SocketListener {
    fn drop(&mut self) {
        if let ListenerKind::Uds(_, p) = &self.inner {
            let _ = std::fs::remove_file(p);
        }
    }
}

enum StreamKind {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl StreamKind {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            StreamKind::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            StreamKind::Uds(s) => s.write(buf),
        }
    }

    fn shutdown(&mut self) {
        match self {
            StreamKind::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            StreamKind::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

fn dial(spec: &SocketAddrSpec) -> io::Result<StreamKind> {
    match spec {
        SocketAddrSpec::Tcp(addr) => {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(StreamKind::Tcp(s))
        }
        #[cfg(unix)]
        SocketAddrSpec::Uds(path) => {
            let s = UnixStream::connect(path)?;
            s.set_nonblocking(true)?;
            Ok(StreamKind::Uds(s))
        }
    }
}

struct Counters {
    obs: Obs,
    bytes: MetricId,
    bytes_sent: MetricId,
    bytes_recv: MetricId,
    reconnects: MetricId,
    decode_errors: MetricId,
}

/// A connection-oriented, non-blocking message transport over one real
/// socket connection.
///
/// Outbound envelopes are queued and inbound ones surfaced; neither
/// direction ever blocks the caller. Connection lifecycle is explicit:
/// [`connect`](SocketTransport::connect) (re)establishes the link,
/// [`close`](SocketTransport::close) tears it down, and send/recv report
/// [`TransportError::NotConnected`] in between.
pub struct SocketTransport {
    stream: Option<StreamKind>,
    peer: Option<SocketAddrSpec>,
    codec: Arc<dyn WireCodec>,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
    retry: RetryPolicy,
    retry_rng: SplitMix64,
    attempt: u32,
    next_attempt_at: Option<Instant>,
    counters: Option<Counters>,
}

impl SocketTransport {
    fn from_parts(
        stream: Option<StreamKind>,
        peer: Option<SocketAddrSpec>,
        codec: Arc<dyn WireCodec>,
    ) -> Self {
        let retry = RetryPolicy::default();
        SocketTransport {
            stream,
            peer,
            codec,
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            retry_rng: SplitMix64::new(retry.seed),
            retry,
            attempt: 0,
            next_attempt_at: None,
            counters: None,
        }
    }

    fn from_stream(stream: StreamKind, codec: Arc<dyn WireCodec>) -> Self {
        Self::from_parts(Some(stream), None, codec)
    }

    /// A client-side transport that dials `peer` on [`SocketTransport::connect`]
    /// and reconnects with backoff after failures. Not yet connected.
    pub fn dial(peer: SocketAddrSpec, codec: Arc<dyn WireCodec>) -> Self {
        Self::from_parts(None, Some(peer), codec)
    }

    /// Use `policy` for reconnect backoff (reseeds the jitter RNG).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry_rng = SplitMix64::new(policy.seed);
        self.retry = policy;
        self
    }

    /// Attach per-connection counters to `obs` (ids resolved once here).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.counters = Some(Counters {
            bytes: obs.counter("transport.bytes"),
            bytes_sent: obs.counter("transport.bytes_sent"),
            bytes_recv: obs.counter("transport.bytes_recv"),
            reconnects: obs.counter("transport.reconnects"),
            decode_errors: obs.counter("transport.decode_errors"),
            obs: obs.clone(),
        });
        self
    }

    /// Reconnect attempts made since the last successful connect.
    pub fn reconnect_attempts(&self) -> u32 {
        self.attempt
    }

    fn count_sent(&self, n: u64) {
        if let Some(c) = &self.counters {
            c.obs.inc(c.bytes, n);
            c.obs.inc(c.bytes_sent, n);
        }
    }

    fn count_recv(&self, n: u64) {
        if let Some(c) = &self.counters {
            c.obs.inc(c.bytes, n);
            c.obs.inc(c.bytes_recv, n);
        }
    }

    fn count_decode_error(&self) {
        if let Some(c) = &self.counters {
            c.obs.inc(c.decode_errors, 1);
        }
    }

    /// Drop the connection and arm the backoff timer (client side only).
    fn mark_disconnected(&mut self) {
        if let Some(mut s) = self.stream.take() {
            s.shutdown();
        }
        self.wbuf.clear();
        self.rbuf.clear();
        if self.peer.is_some() {
            let wait = self.retry.timeout_us(RECONNECT_BASE_US, self.attempt, &mut self.retry_rng);
            self.attempt = self.attempt.saturating_add(1);
            self.next_attempt_at = Some(Instant::now() + Duration::from_micros(wait));
        }
    }

    /// Client-side reconnect poll. Returns `Ok(true)` when a new
    /// connection was established by this call, `Ok(false)` when already
    /// connected or still inside the backoff window.
    pub fn poll_reconnect(&mut self) -> Result<bool, TransportError> {
        if self.stream.is_some() {
            return Ok(false);
        }
        let Some(peer) = self.peer.clone() else {
            return Err(TransportError::NotConnected);
        };
        if let Some(at) = self.next_attempt_at {
            if Instant::now() < at {
                return Ok(false);
            }
        }
        match dial(&peer) {
            Ok(s) => {
                self.stream = Some(s);
                let reconnecting = self.attempt > 0;
                self.attempt = 0;
                self.next_attempt_at = None;
                if reconnecting {
                    if let Some(c) = &self.counters {
                        c.obs.inc(c.reconnects, 1);
                    }
                }
                Ok(true)
            }
            Err(e) => {
                let wait =
                    self.retry.timeout_us(RECONNECT_BASE_US, self.attempt, &mut self.retry_rng);
                self.attempt = self.attempt.saturating_add(1);
                self.next_attempt_at = Some(Instant::now() + Duration::from_micros(wait));
                Err(TransportError::Io(e))
            }
        }
    }

    /// Push buffered outbound bytes into the socket until it would block.
    fn flush_wbuf(&mut self) -> Result<(), TransportError> {
        while !self.wbuf.is_empty() {
            let (head, _) = self.wbuf.as_slices();
            let stream = self.stream.as_mut().ok_or(TransportError::NotConnected)?;
            match stream.write(head) {
                Ok(0) => {
                    self.mark_disconnected();
                    return Err(TransportError::Closed);
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                    self.count_sent(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.mark_disconnected();
                    return Err(TransportError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// Pull readable bytes into the read buffer until the socket would
    /// block. Returns `Closed` on EOF.
    fn fill_rbuf(&mut self) -> Result<(), TransportError> {
        let mut chunk = [0u8; 8192];
        loop {
            let stream = self.stream.as_mut().ok_or(TransportError::NotConnected)?;
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: surface frames already buffered before failing.
                    if self.rbuf.is_empty() {
                        self.mark_disconnected();
                        return Err(TransportError::Closed);
                    }
                    return Ok(());
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.count_recv(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.mark_disconnected();
                    return Err(TransportError::Io(e));
                }
            }
        }
    }

    /// Queue (and opportunistically flush) one envelope.
    pub fn send(&mut self, env: Envelope) -> Result<(), TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::NotConnected);
        }
        let payload = match self.codec.encode(&env.msg) {
            Ok(p) => p,
            Err(e) => {
                self.count_decode_error();
                return Err(TransportError::Codec(e));
            }
        };
        let frame = Frame {
            to: env.to.0 as u64,
            tag: env.msg.tag,
            wire_bytes: env.msg.wire_bytes,
            deadline_us: env.deadline_us,
            payload,
        };
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        self.wbuf.extend(bytes);
        self.flush_wbuf()
    }

    /// Poll for one inbound envelope; `Ok(None)` means nothing is ready.
    pub fn try_recv(&mut self) -> Result<Option<Envelope>, TransportError> {
        // Opportunistically push any back-pressured outbound bytes first.
        if self.stream.is_some() && !self.wbuf.is_empty() {
            self.flush_wbuf()?;
        }
        self.fill_rbuf()?;
        match decode_frame(&self.rbuf) {
            Ok(None) => Ok(None),
            Ok(Some((frame, used))) => {
                self.rbuf.drain(..used);
                match self.codec.decode(frame.tag, frame.wire_bytes, &frame.payload) {
                    Ok(msg) => {
                        let mut env = Envelope::to(ActorId(frame.to as usize), msg);
                        env.deadline_us = frame.deadline_us;
                        Ok(Some(env))
                    }
                    Err(e) => {
                        self.count_decode_error();
                        Err(TransportError::Codec(e))
                    }
                }
            }
            Err(e) => {
                // Byte-stream framing cannot resynchronize after garbage:
                // count it and drop the connection.
                self.count_decode_error();
                self.mark_disconnected();
                Err(TransportError::Frame(e))
            }
        }
    }

    /// Is the underlying channel currently usable?
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// (Re)establish the underlying channel.
    pub fn connect(&mut self) -> Result<(), TransportError> {
        if self.stream.is_some() {
            return Ok(());
        }
        let peer = self.peer.clone().ok_or(TransportError::NotConnected)?;
        let s = dial(&peer)?;
        self.stream = Some(s);
        self.attempt = 0;
        self.next_attempt_at = None;
        Ok(())
    }

    /// Tear the channel down; queued inbound envelopes are discarded.
    pub fn close(&mut self) {
        if let Some(mut s) = self.stream.take() {
            s.shutdown();
        }
        self.wbuf.clear();
        self.rbuf.clear();
        self.peer = None;
        self.next_attempt_at = None;
        self.attempt = 0;
    }
}
