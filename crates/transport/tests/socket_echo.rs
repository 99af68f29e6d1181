//! Real-socket integration tests: an echo peer over loopback TCP (and
//! UDS where the platform supports it), plus reconnect-with-backoff.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adapt_transport::{
    ByteReader, ByteWriter, CodecError, Envelope, SocketAddrSpec, SocketListener, SocketTransport,
    TransportError, WireCodec,
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

/// Accept one connection and echo `n` envelopes back verbatim.
fn echo_once(listener: &SocketListener, n: usize) -> thread::JoinHandle<()> {
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut server = listener.accept(codec).expect("accept");
    thread::spawn(move || {
        let mut echoed = 0;
        let deadline = Instant::now() + Duration::from_secs(10);
        while echoed < n && Instant::now() < deadline {
            match server.try_recv() {
                Ok(Some(env)) => {
                    server.send(env).expect("echo send");
                    echoed += 1;
                }
                Ok(None) => thread::sleep(Duration::from_millis(1)),
                Err(TransportError::Closed) => break,
                Err(e) => panic!("server recv failed: {e}"),
            }
        }
    })
}

fn run_echo_session(listener: SocketListener) {
    let spec = listener.local_spec().expect("local spec");
    let handle = thread::spawn(move || echo_once(&listener, 3).join().unwrap());

    let obs = obs::Obs::new();
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut client = SocketTransport::dial(spec, codec).with_obs(&obs);
    assert!(!client.is_connected());
    assert!(matches!(
        client.send(Envelope::to(ActorId(0), Message::signal(1, 8))),
        Err(TransportError::NotConnected)
    ));
    client.connect().expect("connect");
    assert!(client.is_connected());

    // One signal, one small body, one body big enough to span several
    // read chunks — all with distinct envelope metadata.
    let bodies: Vec<Message> = vec![
        Message::signal(10, 64),
        Message::new(11, 256, vec![7u8; 100]),
        Message::new(12, 1 << 16, (0..40_000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()),
    ];
    for (i, msg) in bodies.iter().enumerate() {
        let env = Envelope::to(ActorId(5), msg.clone()).with_deadline(1_000 + i as u64);
        client.send(env).expect("send");
    }
    for (i, sent) in bodies.iter().enumerate() {
        let env = recv_within(&mut client, Duration::from_secs(10)).expect("echo reply");
        assert_eq!(env.to, ActorId(5), "actor id survives the round trip");
        assert_eq!(env.deadline_us, Some(1_000 + i as u64));
        assert_eq!(env.msg.tag, sent.tag);
        assert_eq!(env.msg.wire_bytes, sent.wire_bytes);
        assert_eq!(env.msg.body::<Vec<u8>>(), sent.body::<Vec<u8>>());
    }
    handle.join().unwrap();

    // Counters saw real traffic in both directions, and no decode errors.
    let bytes = obs.counter_value(obs.lookup("transport.bytes").unwrap());
    let sent = obs.counter_value(obs.lookup("transport.bytes_sent").unwrap());
    let recv = obs.counter_value(obs.lookup("transport.bytes_recv").unwrap());
    assert!(sent > 40_000, "sent {sent}");
    assert_eq!(recv, sent, "echo returns exactly what was sent");
    assert_eq!(bytes, sent + recv);
    assert_eq!(obs.counter_value(obs.lookup("transport.decode_errors").unwrap()), 0);

    client.close();
    assert!(!client.is_connected());
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

#[test]
fn reconnect_with_backoff_after_peer_drop() {
    let listener = SocketListener::bind_tcp().expect("bind tcp");
    let spec = listener.local_spec().expect("local spec");

    let obs = obs::Obs::new();
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let retry = adapt_transport::RetryPolicy {
        multiplier: 2.0,
        max_timeout_us: 50_000,
        jitter_frac: 0.0,
        seed: 1,
    };
    let mut client = SocketTransport::dial(spec, codec).with_obs(&obs).with_retry(retry);

    // First connection: dial (the kernel backlog completes the handshake
    // before accept), accept it, then slam it shut server-side.
    {
        client.connect().expect("connect");
        let server = listener.accept(Arc::new(RawCodec)).expect("accept");
        drop(server);
    }
    // The client discovers the drop on its next recv...
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.try_recv() {
            Err(TransportError::Closed) | Err(TransportError::Io(_)) => break,
            Ok(None) => {
                assert!(Instant::now() < deadline, "never observed the drop");
                thread::sleep(Duration::from_millis(1));
            }
            other => panic!("unexpected recv outcome: {other:?}"),
        }
    }
    assert!(!client.is_connected());
    assert!(client.reconnect_attempts() > 0, "backoff armed");

    // ...and reconnects once the backoff window elapses.
    let accepter = thread::spawn(move || listener.accept(Arc::new(RawCodec)).expect("re-accept"));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.poll_reconnect() {
            Ok(true) => break,
            Ok(false) | Err(TransportError::Io(_)) => {
                assert!(Instant::now() < deadline, "never reconnected");
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("reconnect failed hard: {e}"),
        }
    }
    assert!(client.is_connected());
    assert_eq!(client.reconnect_attempts(), 0, "attempt counter reset on success");
    assert_eq!(obs.counter_value(obs.lookup("transport.reconnects").unwrap()), 1);

    // The revived link carries traffic.
    let mut server = accepter.join().unwrap();
    client.send(Envelope::to(ActorId(1), Message::signal(99, 8))).expect("send after reconnect");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match server.try_recv() {
            Ok(Some(env)) => {
                assert_eq!(env.msg.tag, 99);
                break;
            }
            Ok(None) => {
                assert!(Instant::now() < deadline, "message never arrived");
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("server recv failed: {e}"),
        }
    }
}

#[test]
fn garbage_on_the_wire_tears_the_connection_down() {
    use std::io::Write;

    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().unwrap();
    let writer = thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.write_all(b"definitely not a frame header").unwrap();
    });

    let obs = obs::Obs::new();
    let codec: Arc<dyn WireCodec> = Arc::new(RawCodec);
    let mut client = SocketTransport::dial(SocketAddrSpec::Tcp(addr), codec).with_obs(&obs);
    client.connect().expect("connect");
    writer.join().unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match client.try_recv() {
            Err(TransportError::Frame(_)) => break,
            Ok(None) => {
                assert!(Instant::now() < deadline, "garbage never rejected");
                thread::sleep(Duration::from_millis(1));
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert!(!client.is_connected(), "framing errors are fatal to the connection");
    assert_eq!(obs.counter_value(obs.lookup("transport.decode_errors").unwrap()), 1);
}
