//! Real-socket integration tests: an echo peer over loopback TCP (and
//! UDS where the platform supports it), and how a connection ends: a
//! peer's close, garbage on the wire, a peer that closes mid-frame.

use std::io::Write;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adapt_transport::{
    encode_frame, ByteReader, ByteWriter, CodecError, Envelope, Frame, SocketAddrSpec,
    SocketListener, SocketTransport, TransportError, WireCodec,
};
use simnet::{ActorId, Message};

/// Test codec over raw `Vec<u8>` bodies (marker byte + bytes).
struct RawCodec;

impl WireCodec for RawCodec {
    fn encode(&self, msg: &Message) -> Result<Vec<u8>, CodecError> {
        let mut w = ByteWriter::new();
        match msg.body::<Vec<u8>>() {
            Some(body) => {
                w.u8(1);
                w.bytes(body);
            }
            None => w.u8(0),
        }
        Ok(w.into_vec())
    }

    fn decode(&self, tag: u64, wire_bytes: u64, payload: &[u8]) -> Result<Message, CodecError> {
        let mut r = ByteReader::new(payload);
        let msg = match r.u8()? {
            0 => Message::signal(tag, wire_bytes),
            1 => Message::new(tag, wire_bytes, r.bytes()?.to_vec()),
            _ => return Err(CodecError::Malformed("bad payload marker")),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Poll `t.try_recv()` until an envelope arrives or the deadline passes.
fn recv_within(t: &mut SocketTransport, window: Duration) -> Option<Envelope> {
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        match t.try_recv() {
            Ok(Some(env)) => return Some(env),
            Ok(None) => thread::sleep(Duration::from_millis(1)),
            Err(e) => panic!("recv failed: {e}"),
        }
    }
    None
}

/// Accept one connection and echo `n` envelopes back verbatim; the
/// thread returns the framed bytes it sent back.
fn echo_once(listener: &SocketListener, n: usize) -> thread::JoinHandle<usize> {
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut server = listener.accept(codec).expect("accept");
    thread::spawn(move || {
        let (mut echoed, mut bytes) = (0, 0);
        let deadline = Instant::now() + Duration::from_secs(10);
        while echoed < n && Instant::now() < deadline {
            match server.try_recv() {
                Ok(Some(env)) => {
                    bytes += server.send(env).expect("echo send");
                    echoed += 1;
                }
                Ok(None) => thread::sleep(Duration::from_millis(1)),
                Err(TransportError::Closed) => break,
                Err(e) => panic!("server recv failed: {e}"),
            }
        }
        bytes
    })
}

fn run_echo_session(listener: SocketListener) {
    let spec = listener.local_spec().expect("local spec");
    let handle = thread::spawn(move || echo_once(&listener, 3).join().unwrap());

    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut client = SocketTransport::connect(&spec, codec).expect("connect");
    assert!(client.is_connected());

    // One signal, one small body, one body big enough to span several
    // read chunks — all with distinct envelope metadata.
    let bodies: Vec<Message> = vec![
        Message::signal(10, 64),
        Message::new(11, 256, vec![7u8; 100]),
        Message::new(12, 1 << 16, (0..40_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
    ];
    let mut sent = 0;
    for (i, msg) in bodies.iter().enumerate() {
        let env = Envelope::to(ActorId(5), msg.clone()).with_deadline(1_000 + i as u64);
        sent += client.send(env).expect("send");
    }
    for (i, sent) in bodies.iter().enumerate() {
        let env = recv_within(&mut client, Duration::from_secs(10)).expect("echo reply");
        assert_eq!(env.to, ActorId(5), "actor id survives the round trip");
        assert_eq!(env.deadline_us, Some(1_000 + i as u64));
        assert_eq!(env.msg.tag, sent.tag);
        assert_eq!(env.msg.wire_bytes, sent.wire_bytes);
        assert_eq!(env.msg.body::<Vec<u8>>(), sent.body::<Vec<u8>>());
    }
    let echoed = handle.join().unwrap();

    // `send` counted real framed bytes, and the echo returned exactly
    // what was sent.
    assert!(sent > 40_000, "sent {sent}");
    assert_eq!(echoed, sent, "echo returns exactly what was sent");

    client.close();
    assert!(!client.is_connected());
    assert!(matches!(
        client.send(Envelope::to(ActorId(0), Message::signal(1, 8))),
        Err(TransportError::NotConnected)
    ));
}

#[test]
fn tcp_echo_roundtrip() {
    run_echo_session(SocketListener::bind_tcp().expect("bind tcp"));
}

#[test]
fn uds_echo_roundtrip_or_graceful_skip() {
    #[cfg(unix)]
    {
        let path = std::env::temp_dir().join(format!("adapt-uds-{}.sock", std::process::id()));
        match SocketListener::bind_uds(path) {
            Ok(l) => run_echo_session(l),
            Err(e) => eprintln!("skipping UDS echo test: bind failed: {e}"),
        }
    }
    #[cfg(not(unix))]
    eprintln!("skipping UDS echo test: not a unix platform");
}

/// Poll `t.try_recv()` until it fails or `window` passes; the error, or
/// `None` on a timeout. Envelopes received on the way are pushed to `got`.
fn recv_until_err(
    t: &mut SocketTransport,
    window: Duration,
    got: &mut Vec<Envelope>,
) -> Option<TransportError> {
    let deadline = Instant::now() + window;
    while Instant::now() < deadline {
        match t.try_recv() {
            Ok(Some(env)) => got.push(env),
            Ok(None) => thread::sleep(Duration::from_millis(1)),
            Err(e) => return Some(e),
        }
    }
    None
}

/// Connect a transport to a raw TCP peer that writes `bytes` and closes.
fn raw_peer_writes_then_closes(bytes: Vec<u8>) -> SocketTransport {
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().unwrap();
    let writer = thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.write_all(&bytes).unwrap();
    });
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let client = SocketTransport::connect(&SocketAddrSpec::Tcp(addr), codec).expect("connect");
    writer.join().unwrap();
    client
}

/// One valid frame carrying a 100-byte body, as the wire holds it.
fn frame_bytes(tag: u64) -> Vec<u8> {
    let msg = Message::new(tag, 256, vec![9u8; 100]);
    let frame = Frame {
        to: 3,
        tag,
        wire_bytes: msg.wire_bytes,
        deadline_us: None,
        payload: RawCodec.encode(&msg).unwrap(),
    };
    let mut out = Vec::new();
    encode_frame(&frame, &mut out);
    out
}

#[test]
fn a_dropped_connection_stays_down() {
    let listener = SocketListener::bind_tcp().expect("bind tcp");
    let spec = listener.local_spec().expect("local spec");
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut client = SocketTransport::connect(&spec, codec).expect("connect");
    // The kernel backlog completes the handshake before accept; accept
    // it, then slam it shut server-side.
    drop(listener.accept(Arc::new(RawCodec)).expect("accept"));

    let err = recv_until_err(&mut client, Duration::from_secs(5), &mut Vec::new());
    assert!(
        matches!(err, Some(TransportError::Closed) | Some(TransportError::Io(_))),
        "never observed the drop: {err:?}"
    );
    assert!(!client.is_connected());
    // Nothing re-dials: every later call reports the connection gone.
    assert!(matches!(client.try_recv(), Err(TransportError::NotConnected)));
    assert!(matches!(
        client.send(Envelope::to(ActorId(1), Message::signal(99, 8))),
        Err(TransportError::NotConnected)
    ));
}

#[test]
fn garbage_on_the_wire_tears_the_connection_down() {
    let mut client = raw_peer_writes_then_closes(b"definitely not a frame header".to_vec());
    let err = recv_until_err(&mut client, Duration::from_secs(5), &mut Vec::new());
    assert!(matches!(err, Some(TransportError::Frame(_))), "garbage never rejected: {err:?}");
    assert!(!client.is_connected(), "framing errors are fatal to the connection");
}

#[test]
fn a_peer_that_closes_mid_frame_is_reported_closed() {
    let mut client = raw_peer_writes_then_closes(frame_bytes(4)[..20].to_vec());
    let mut got = Vec::new();
    let err = recv_until_err(&mut client, Duration::from_secs(5), &mut got);
    assert!(err.is_some(), "a close after a partial frame was never reported");
    assert!(matches!(err, Some(TransportError::Closed)), "{err:?}");
    assert!(got.is_empty(), "a partial frame is not a message");
    assert!(!client.is_connected());
}

#[test]
fn frames_buffered_before_a_close_are_delivered_first() {
    let mut bytes = frame_bytes(5);
    bytes.extend_from_slice(&frame_bytes(6)[..30]);
    let mut client = raw_peer_writes_then_closes(bytes);
    let mut got = Vec::new();
    let err = recv_until_err(&mut client, Duration::from_secs(5), &mut got);
    assert!(matches!(err, Some(TransportError::Closed)), "{err:?}");
    assert_eq!(got.len(), 1, "the complete frame, then the close");
    assert_eq!(got[0].msg.tag, 5);
    assert_eq!(got[0].to, ActorId(3));
    assert_eq!(got[0].msg.body::<Vec<u8>>(), Some(&vec![9u8; 100]));
}
