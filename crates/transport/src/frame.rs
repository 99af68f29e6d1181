//! Length-prefixed wire framing for [`SocketTransport`](crate::SocketTransport).
//!
//! Every envelope becomes one frame: a fixed 40-byte header followed by
//! the codec-encoded payload. All integers are little-endian.
//!
//! ```text
//! offset  size  field
//!      0     2  magic       0xAD 0x7A
//!      2     1  version     0x01
//!      3     1  reserved    0x00
//!      4     8  to          destination ActorId (u64)
//!     12     8  tag         Message tag
//!     20     8  wire_bytes  simulated wire size (kept so the envelope
//!                           round-trips bit-identically)
//!     28     8  deadline    deadline_us, u64::MAX encodes None
//!     36     4  len         payload byte length (u32)
//!     40   len  payload     codec-encoded message body
//! ```
//!
//! Decoding is incremental: [`decode_frame`] consumes a byte buffer that
//! may hold a partial frame (`Ok(None)`), exactly one frame, or several
//! back-to-back frames, returning how many bytes each complete frame
//! consumed so the caller can drain a read buffer in place.

/// Frame header magic: distinguishes our traffic from stray bytes.
pub const MAGIC: [u8; 2] = [0xAD, 0x7A];

/// Current framing version.
pub const VERSION: u8 = 0x01;

/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 40;

/// Upper bound on a single frame's payload (16 MiB). A length field above
/// this is treated as corruption, not an allocation request.
pub(crate) const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Sentinel for "no deadline" in the header's deadline field.
const NO_DEADLINE: u64 = u64::MAX;

/// One decoded frame: the envelope header fields plus the raw payload
/// bytes (still codec-encoded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination (or, on the receive side, source) actor id.
    pub to: u64,
    /// Message tag.
    pub tag: u64,
    /// Simulated wire size carried through verbatim.
    pub wire_bytes: u64,
    /// Optional deadline, microseconds.
    pub deadline_us: Option<u64>,
    /// Codec-encoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte sequence is not a valid frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown framing version.
    BadVersion(u8),
    /// The declared payload length exceeds `MAX_FRAME_BYTES`.
    Oversized(u64),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Oversized(n) => {
                write!(f, "frame payload of {n} bytes exceeds limit of {MAX_FRAME_BYTES}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Serialize one frame into `out`.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.reserve(HEADER_BYTES + frame.payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(0);
    out.extend_from_slice(&frame.to.to_le_bytes());
    out.extend_from_slice(&frame.tag.to_le_bytes());
    out.extend_from_slice(&frame.wire_bytes.to_le_bytes());
    out.extend_from_slice(&frame.deadline_us.unwrap_or(NO_DEADLINE).to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// Try to decode one frame from the front of `buf`.
///
/// - `Ok(Some((frame, consumed)))` — a complete frame; the caller should
///   drop the first `consumed` bytes of the buffer.
/// - `Ok(None)` — the buffer holds only a prefix of a frame; read more.
/// - `Err(_)` — the buffer front is not a valid frame; the connection
///   should be torn down (byte-stream framing cannot resynchronize).
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    if buf.len() < 2 {
        // Not enough bytes even for the magic — but if what we do have
        // already mismatches, fail now rather than waiting forever.
        if !buf.is_empty() && buf[0] != MAGIC[0] {
            return Err(FrameError::BadMagic);
        }
        return Ok(None);
    }
    if buf[0..2] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    if buf.len() < 3 {
        return Ok(None);
    }
    if buf[2] != VERSION {
        return Err(FrameError::BadVersion(buf[2]));
    }
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[36..40].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len as u64));
    }
    let total = HEADER_BYTES + len;
    if buf.len() < total {
        return Ok(None);
    }
    let deadline = read_u64(buf, 28);
    let frame = Frame {
        to: read_u64(buf, 4),
        tag: read_u64(buf, 12),
        wire_bytes: read_u64(buf, 20),
        deadline_us: if deadline == NO_DEADLINE { None } else { Some(deadline) },
        payload: buf[HEADER_BYTES..total].to_vec(),
    };
    Ok(Some((frame, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: Vec<u8>) -> Frame {
        Frame { to: 3, tag: 0x51, wire_bytes: 4096, deadline_us: Some(1_500_000), payload }
    }

    #[test]
    fn roundtrip_with_and_without_deadline() {
        for deadline in [Some(7u64), None] {
            let f = Frame { deadline_us: deadline, ..sample(vec![1, 2, 3, 4, 5]) };
            let mut bytes = Vec::new();
            encode_frame(&f, &mut bytes);
            assert_eq!(bytes.len(), HEADER_BYTES + 5);
            let (decoded, used) = decode_frame(&bytes).unwrap().unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(decoded, f);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let f = sample(Vec::new());
        let mut bytes = Vec::new();
        encode_frame(&f, &mut bytes);
        let (decoded, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(used, HEADER_BYTES);
        assert_eq!(decoded, f);
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let f = sample(vec![9; 32]);
        let mut bytes = Vec::new();
        encode_frame(&f, &mut bytes);
        for cut in [0, 1, 2, 3, 8, HEADER_BYTES - 1, HEADER_BYTES, bytes.len() - 1] {
            assert_eq!(decode_frame(&bytes[..cut]).unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn back_to_back_frames_drain_in_order() {
        let a = sample(vec![1, 1, 1]);
        let b = Frame { tag: 0x52, ..sample(vec![2, 2]) };
        let mut bytes = Vec::new();
        encode_frame(&a, &mut bytes);
        encode_frame(&b, &mut bytes);
        let (first, used) = decode_frame(&bytes).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = decode_frame(&bytes[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn garbage_is_rejected() {
        assert_eq!(decode_frame(&[0x00, 0x01, 0x02]), Err(FrameError::BadMagic));
        // First byte alone already rules the stream out.
        assert_eq!(decode_frame(&[0x00]), Err(FrameError::BadMagic));
        let mut bytes = Vec::new();
        encode_frame(&sample(vec![1]), &mut bytes);
        bytes[2] = 0x7f;
        assert_eq!(decode_frame(&bytes), Err(FrameError::BadVersion(0x7f)));
    }

    #[test]
    fn oversized_length_is_corruption_not_allocation() {
        let mut bytes = Vec::new();
        encode_frame(&sample(vec![1]), &mut bytes);
        bytes[36..40].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&bytes), Err(FrameError::Oversized(u32::MAX as u64)));
    }
}
