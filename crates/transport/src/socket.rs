//! [`SocketTransport`]: real loopback I/O over TCP (or a Unix domain
//! socket where the platform has them).
//!
//! Wire format: one [`frame`](crate::frame) per envelope; payloads are
//! serialized by the application's [`WireCodec`]. All I/O is
//! non-blocking — `send` queues into a write buffer and flushes whatever
//! the kernel accepts, `try_recv` drains readable bytes into a read
//! buffer and decodes at most one complete frame per call.
//!
//! A transport connects once: [`SocketTransport::connect`] dials and
//! [`SocketListener::accept`] accepts, and the connection lives until the
//! peer closes it, an I/O or framing error drops it, or
//! [`SocketTransport::close`] tears it down. Nothing re-dials; after the
//! drop every call reports [`TransportError::NotConnected`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::Arc;

use simnet::ActorId;

use crate::frame::{decode_frame, encode_frame, Frame};
use crate::{Envelope, TransportError, WireCodec};

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

/// A connection-oriented, non-blocking message transport over one real
/// socket connection.
///
/// Outbound envelopes are queued and inbound ones surfaced; neither
/// direction ever blocks the caller.
pub struct SocketTransport {
    stream: Option<StreamKind>,
    codec: Arc<dyn WireCodec>,
    rbuf: Vec<u8>,
    wbuf: VecDeque<u8>,
    /// The peer closed its side: no more bytes will arrive, so once the
    /// complete frames in `rbuf` are delivered the connection is dropped.
    eof: bool,
}

impl SocketTransport {
    fn from_stream(stream: StreamKind, codec: Arc<dyn WireCodec>) -> Self {
        SocketTransport {
            stream: Some(stream),
            codec,
            rbuf: Vec::new(),
            wbuf: VecDeque::new(),
            eof: false,
        }
    }

    /// Dial `peer` and wrap the connection in a transport.
    pub fn connect(peer: &SocketAddrSpec, codec: Arc<dyn WireCodec>) -> io::Result<Self> {
        let stream = match peer {
            SocketAddrSpec::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                StreamKind::Tcp(s)
            }
            #[cfg(unix)]
            SocketAddrSpec::Uds(path) => {
                let s = UnixStream::connect(path)?;
                s.set_nonblocking(true)?;
                StreamKind::Uds(s)
            }
        };
        Ok(Self::from_stream(stream, codec))
    }

    /// Push buffered outbound bytes into the socket until it would block.
    fn flush_wbuf(&mut self) -> Result<(), TransportError> {
        while !self.wbuf.is_empty() {
            let (head, _) = self.wbuf.as_slices();
            let stream = self.stream.as_mut().ok_or(TransportError::NotConnected)?;
            match stream.write(head) {
                Ok(0) => {
                    self.close();
                    return Err(TransportError::Closed);
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.close();
                    return Err(TransportError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// Pull readable bytes into the read buffer until the socket would
    /// block or the peer closes its side (which sets `eof`).
    fn fill_rbuf(&mut self) -> Result<(), TransportError> {
        let mut chunk = [0u8; 8192];
        while !self.eof {
            let stream = self.stream.as_mut().ok_or(TransportError::NotConnected)?;
            match stream.read(&mut chunk) {
                Ok(0) => self.eof = true,
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.close();
                    return Err(TransportError::Io(e));
                }
            }
        }
        Ok(())
    }

    /// Queue (and opportunistically flush) one envelope. Returns the
    /// framed length queued: [`HEADER_BYTES`](crate::HEADER_BYTES) plus
    /// the encoded payload.
    pub fn send(&mut self, env: Envelope) -> Result<usize, TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::NotConnected);
        }
        let frame = Frame {
            to: env.to.0 as u64,
            tag: env.msg.tag,
            wire_bytes: env.msg.wire_bytes,
            deadline_us: env.deadline_us,
            payload: self.codec.encode(&env.msg)?,
        };
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let len = bytes.len();
        self.wbuf.extend(bytes);
        self.flush_wbuf()?;
        Ok(len)
    }

    /// Poll for one inbound envelope; `Ok(None)` means nothing is ready.
    /// Once the peer has closed and every complete frame it sent has been
    /// delivered, the connection is dropped and this returns
    /// [`TransportError::Closed`] (a trailing partial frame is discarded).
    pub fn try_recv(&mut self) -> Result<Option<Envelope>, TransportError> {
        if self.stream.is_none() {
            return Err(TransportError::NotConnected);
        }
        // Opportunistically push any back-pressured outbound bytes first.
        if !self.wbuf.is_empty() {
            self.flush_wbuf()?;
        }
        self.fill_rbuf()?;
        match decode_frame(&self.rbuf) {
            Ok(None) if self.eof => {
                self.close();
                Err(TransportError::Closed)
            }
            Ok(None) => Ok(None),
            Ok(Some((frame, used))) => {
                self.rbuf.drain(..used);
                let msg = self.codec.decode(frame.tag, frame.wire_bytes, &frame.payload)?;
                let mut env = Envelope::to(ActorId(frame.to as usize), msg);
                env.deadline_us = frame.deadline_us;
                Ok(Some(env))
            }
            Err(e) => {
                // Byte-stream framing cannot resynchronize after garbage:
                // drop the connection.
                self.close();
                Err(TransportError::Frame(e))
            }
        }
    }

    /// Is the underlying channel currently usable?
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Tear the channel down; bytes queued in either direction are
    /// discarded.
    pub fn close(&mut self) {
        if let Some(mut s) = self.stream.take() {
            s.shutdown();
        }
        self.wbuf.clear();
        self.rbuf.clear();
        self.eof = false;
    }
}
