//! The socket-mirror session harness: run the adaptive application with
//! every message detoured through a real loopback connection.
//!
//! The simulation kernel keeps owning virtual time and actor scheduling;
//! what changes is the wire. A [`simnet::WireHook`] intercepts each
//! transmitted message and synchronously round-trips it through a
//! [`SocketTransport`]: encode with [`VizCodec`] → length-prefixed frame
//! → loopback TCP (or UDS) → echo peer → decode back into a typed
//! message, which then continues through the normal delivery path. A
//! faithful codec/framing stack therefore reproduces the simnet run's
//! adaptive decision sequence *exactly* — and that equality is what
//! [`decision_sequence`] lets harnesses assert.
//!
//! This is the "spec → profile → schedule → steer over real sockets"
//! proof: the profiled database, the scheduler's choices, and the
//! steering messages all traverse genuine kernel sockets, byte-serialized
//! and reconstructed, with zero tolerance for codec drift.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use adapt_transport::{Envelope, SocketAddrSpec, SocketListener, SocketTransport, WireCodec};
use simnet::WireHook;

use crate::stats::RunStats;
use crate::wire::{messages_equal, VizCodec};

/// Which kind of socket carries the mirrored traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorBackend {
    /// Loopback TCP on an OS-assigned port.
    Tcp,
    /// Unix domain socket in the system temp directory.
    Uds,
}

impl MirrorBackend {
    pub fn name(self) -> &'static str {
        match self {
            MirrorBackend::Tcp => "tcp",
            MirrorBackend::Uds => "uds",
        }
    }
}

/// Live counters for a mirror session (shared with the hook).
#[derive(Debug, Default)]
struct MirrorCounters {
    messages: AtomicU64,
    wire_bytes: AtomicU64,
}

/// Handle returned beside the hook: counters plus the echo thread.
pub struct MirrorHandle {
    counters: Arc<MirrorCounters>,
    backend: MirrorBackend,
    echo: Option<thread::JoinHandle<u64>>,
}

/// What the mirror saw, reported after [`MirrorHandle::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirrorReport {
    pub backend: &'static str,
    /// Messages detoured through the socket.
    pub messages: u64,
    /// Framed bytes that crossed the socket, one direction.
    pub wire_bytes: u64,
    /// Messages the echo peer reflected (must equal `messages`).
    pub echoed: u64,
}

impl MirrorHandle {
    /// Join the echo peer (it exits when the hook — and with it the
    /// client connection — is dropped) and report the totals.
    pub fn finish(mut self) -> MirrorReport {
        let echoed = self.echo.take().map(|h| h.join().expect("echo peer panicked")).unwrap_or(0);
        MirrorReport {
            backend: self.backend.name(),
            messages: self.counters.messages.load(Ordering::SeqCst),
            wire_bytes: self.counters.wire_bytes.load(Ordering::SeqCst),
            echoed,
        }
    }
}

/// Build a wire hook that round-trips every message through a real
/// loopback socket, plus the handle to join/inspect afterwards.
///
/// Errors only on socket setup (bind/accept/dial) — e.g. UDS on a
/// platform without it — so callers can skip gracefully.
pub fn socket_mirror_hook(backend: MirrorBackend) -> io::Result<(WireHook, MirrorHandle)> {
    let listener = match backend {
        MirrorBackend::Tcp => SocketListener::bind_tcp()?,
        MirrorBackend::Uds => {
            #[cfg(unix)]
            {
                let path = std::env::temp_dir().join(format!(
                    "visapp-mirror-{}-{:x}.sock",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.subsec_nanos())
                        .unwrap_or(0)
                ));
                SocketListener::bind_uds(path)?
            }
            #[cfg(not(unix))]
            {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix domain sockets are not available on this platform",
                ));
            }
        }
    };
    let spec: SocketAddrSpec = listener.local_spec()?;
    let codec: Arc<dyn WireCodec> = Arc::new(VizCodec);

    // Echo peer: accept one connection, reflect every envelope verbatim,
    // exit (returning the echo count) when the client side goes away.
    let echo_codec = codec.clone();
    let echo = thread::spawn(move || {
        let mut peer = match listener.accept(echo_codec) {
            Ok(p) => p,
            Err(_) => return 0,
        };
        let mut echoed = 0u64;
        loop {
            match peer.try_recv() {
                Ok(Some(env)) => {
                    if peer.send(env).is_err() {
                        return echoed;
                    }
                    echoed += 1;
                }
                Ok(None) => thread::sleep(Duration::from_micros(200)),
                Err(_) => return echoed,
            }
        }
    });

    let client = SocketTransport::connect(&spec, codec)?;

    let counters = Arc::new(MirrorCounters::default());
    let hook_counters = counters.clone();
    let client = Mutex::new(client);
    let hook: WireHook = Arc::new(move |_src, dst, msg| {
        let mut t = client.lock().expect("mirror transport poisoned");
        let framed = t.send(Envelope::to(dst, msg.clone())).expect("mirror send failed");
        // Synchronous round trip: exactly one envelope is in flight, so
        // the next received envelope is ours.
        let deadline = Instant::now() + Duration::from_secs(30);
        let echoed = loop {
            match t.try_recv() {
                Ok(Some(env)) => break env,
                Ok(None) => {
                    assert!(Instant::now() < deadline, "mirror echo timed out");
                    thread::sleep(Duration::from_micros(100));
                }
                Err(e) => panic!("mirror recv failed: {e}"),
            }
        };
        assert_eq!(echoed.to, dst, "mirror returned a foreign envelope");
        assert!(
            messages_equal(&msg, &echoed.msg),
            "socket round-trip altered message tag {}",
            msg.tag
        );
        hook_counters.messages.fetch_add(1, Ordering::SeqCst);
        hook_counters.wire_bytes.fetch_add(framed as u64, Ordering::SeqCst);
        // Deliver the *reconstructed* message: every byte the simulation
        // acts on truly crossed the socket.
        echoed.msg
    });

    Ok((hook, MirrorHandle { counters, backend, echo: Some(echo) }))
}

/// The adaptive decision sequence of a run, rendered canonically: each
/// configuration change as `t_us=<time> <configuration>`. Two runs made
/// the same decisions iff these sequences are equal.
pub fn decision_sequence(stats: &RunStats) -> Vec<String> {
    stats.config_history.iter().map(|(t, cfg)| format!("t_us={} {}", t.as_us(), cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{ActorId, Message};

    #[test]
    fn mirror_hook_round_trips_protocol_messages() {
        let (hook, handle) = socket_mirror_hook(MirrorBackend::Tcp).expect("tcp mirror");
        let msg = crate::protocol::connect_msg(compress::Method::Lzw);
        let back = hook(ActorId(0), ActorId(1), msg.clone());
        assert!(messages_equal(&msg, &back));
        let sig = Message::signal(crate::protocol::TAG_DISCONNECT, 32);
        let back = hook(ActorId(1), ActorId(0), sig.clone());
        assert!(messages_equal(&sig, &back));
        drop(hook);
        let report = handle.finish();
        assert_eq!(report.messages, 2);
        assert_eq!(report.echoed, 2);
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn uds_mirror_works_or_skips_gracefully() {
        match socket_mirror_hook(MirrorBackend::Uds) {
            Ok((hook, handle)) => {
                let msg = crate::protocol::set_compression_msg(compress::Method::Bzip);
                let back = hook(ActorId(0), ActorId(1), msg.clone());
                assert!(messages_equal(&msg, &back));
                drop(hook);
                assert_eq!(handle.finish().echoed, 1);
            }
            Err(e) => eprintln!("skipping UDS mirror test: {e}"),
        }
    }
}
