//! # adapt-transport — message transport for the adaptation loop
//!
//! The paper's adaptation protocol is transport-agnostic: the monitor,
//! scheduler, and steering agent negotiate configurations over whatever
//! channel connects the components. This crate carries typed
//! [`Envelope`]s (destination + payload + optional deadline) over a
//! [`SocketTransport`]: real loopback I/O over TCP (or a Unix domain
//! socket where available) with length-prefixed [`frame`]s, a pluggable [`WireCodec`] that reconstructs
//! typed `simnet::Message` payloads so `Message::decode` keeps working on
//! the receiving side, per-connection obs counters, and
//! reconnect-with-backoff driven by [`RetryPolicy`].
//!
//! Inside the simulator the actors send through `simnet::Ctx` directly
//! (`send`, or `send_now` for control-plane traffic); the socket mirror in
//! `visapp::socket` replays such a session's messages over this crate.
//!
//! Everything is non-blocking: `send` queues and flushes what the kernel
//! accepts, `try_recv` returns `Ok(None)` rather than waiting.

#![forbid(unsafe_code)]

pub mod codec;
pub mod frame;
pub mod retry;
pub mod socket;

pub use codec::{ByteReader, ByteWriter, CodecError, WireCodec};
pub use frame::{decode_frame, encode_frame, Frame, FrameError, HEADER_BYTES};
pub use retry::RetryPolicy;
pub use socket::{SocketAddrSpec, SocketListener, SocketTransport};

use simnet::{ActorId, Message};

/// A typed unit of transmission: where the message is going, the message
/// itself, and an optional delivery deadline (simulation microseconds;
/// advisory — carried on the wire so the receiving side can shed work that
/// can no longer be useful).
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Destination actor. Over a socket the connection itself selects the
    /// peer; the id is carried in the frame header so the envelope
    /// round-trips intact. On the receive side this is the *sender*.
    pub to: ActorId,
    /// The application message (tag, simulated wire size, typed payload).
    pub msg: Message,
    /// Optional deadline, microseconds of simulation time.
    pub deadline_us: Option<u64>,
}

impl Envelope {
    /// An envelope with no deadline.
    pub fn to(dst: ActorId, msg: Message) -> Self {
        Envelope { to: dst, msg, deadline_us: None }
    }

    /// Attach a delivery deadline (simulation microseconds).
    pub fn with_deadline(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }
}

/// Why a transport operation failed.
#[derive(Debug)]
pub enum TransportError {
    /// The transport has no live connection (and reconnect is not due yet).
    NotConnected,
    /// The peer closed the connection cleanly.
    Closed,
    /// A frame on the wire was malformed (framing layer).
    Frame(FrameError),
    /// A well-framed payload failed to decode into a typed message.
    Codec(CodecError),
    /// An underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::NotConnected => write!(f, "transport is not connected"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::Frame(e) => write!(f, "framing error: {e}"),
            TransportError::Codec(e) => write!(f, "codec error: {e}"),
            TransportError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Frame(e) => Some(e),
            TransportError::Codec(e) => Some(e),
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for TransportError {
    fn from(e: FrameError) -> Self {
        TransportError::Frame(e)
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}
