//! The client-server wire protocol of the active visualization
//! application.
//!
//! Matches the paper's pseudocode: the client establishes a connection,
//! notifies the server of the compression type, then repeatedly requests
//! a square foveal area `(x, y, r)` up to resolution level `l`; the server
//! answers with the (possibly compressed) wavelet coefficients of the
//! *new* portion of that area.

use std::sync::Arc;

use compress::Method;
use simnet::Message;
use wavelet::Rect;

/// Message tags.
pub(crate) const TAG_CONNECT: u64 = 1;
pub(crate) const TAG_SET_COMPRESSION: u64 = 2;
pub(crate) const TAG_REQUEST: u64 = 3;
pub const TAG_REPLY: u64 = 4;
pub(crate) const TAG_DISCONNECT: u64 = 5;
/// A remote monitoring agent's resource-availability estimate (§6.1: the
/// estimate "is supplied to ... other monitoring agents in remote
/// instances of this application").
pub(crate) const TAG_RESOURCE_REPORT: u64 = 6;

/// Wire size of small control messages (bytes).
pub(crate) const CONTROL_MSG_BYTES: u64 = 64;
/// Header overhead on replies, added to the compressed payload size.
pub(crate) const REPLY_HEADER_BYTES: u64 = 64;

/// Connection setup: announces the compression method.
#[derive(Debug, Clone, PartialEq)]
pub struct Connect {
    pub compression: Method,
}

/// Mid-session compression change (the `transition on c` notify action).
#[derive(Debug, Clone, PartialEq)]
pub struct SetCompression {
    pub compression: Method,
}

/// A foveal region request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub image_id: usize,
    /// Fovea center, full-resolution pixel coordinates.
    pub cx: usize,
    pub cy: usize,
    /// Current fovea radius (half the square's side).
    pub r: usize,
    /// Radius already delivered for this image (0 = nothing yet). The
    /// server subtracts the corresponding region, yielding the incremental
    /// ring.
    pub prev_r: usize,
    /// Requested resolution level.
    pub level: usize,
    /// Monotonic round number (echoed in the reply).
    pub round: u64,
}

/// A reply carrying compressed coefficient chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub image_id: usize,
    pub round: u64,
    /// Compression method used for `payload`.
    pub compression: Method,
    /// The actual compressed chunk bytes, shared with the store's cache
    /// (see [`crate::store::Prepared::payload`]).
    pub payload: Arc<[u8]>,
    /// Uncompressed payload size (the client charges decompression work
    /// for this volume; also carried by real protocols for buffer sizing).
    pub raw_bytes: usize,
    /// Number of coefficients carried.
    pub ncoeffs: usize,
    /// Full-resolution region this reply covers (the requested square).
    pub region: Rect,
}

/// Build the simnet message for a request.
pub(crate) fn request_msg(req: Request) -> Message {
    Message::new(TAG_REQUEST, CONTROL_MSG_BYTES, req)
}

/// Build the simnet message for a reply (wire size = header + payload).
pub fn reply_msg(reply: Reply) -> Message {
    let wire = REPLY_HEADER_BYTES + reply.payload.len() as u64;
    Message::new(TAG_REPLY, wire, reply)
}

/// A resource-availability estimate from a remote monitoring agent.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceReport {
    /// Component name (e.g. "server").
    pub component: String,
    /// 0 = cpu share, 1 = network bytes/s, 2 = memory bytes.
    pub kind: u8,
    pub value: f64,
}

/// Build a resource-report message.
pub(crate) fn resource_report_msg(report: ResourceReport) -> Message {
    Message::new(TAG_RESOURCE_REPORT, CONTROL_MSG_BYTES, report)
}

/// Build the connect message.
pub(crate) fn connect_msg(compression: Method) -> Message {
    Message::new(TAG_CONNECT, CONTROL_MSG_BYTES, Connect { compression })
}

/// Build the set-compression control message.
pub(crate) fn set_compression_msg(compression: Method) -> Message {
    Message::new(TAG_SET_COMPRESSION, CONTROL_MSG_BYTES, SetCompression { compression })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrips_through_message() {
        let req = Request { image_id: 3, cx: 128, cy: 128, r: 80, prev_r: 0, level: 4, round: 7 };
        let m = request_msg(req.clone());
        assert_eq!(m.tag, TAG_REQUEST);
        assert_eq!(m.wire_bytes, CONTROL_MSG_BYTES);
        assert_eq!(m.expect_body::<Request>(), &req);
    }

    #[test]
    fn reply_wire_size_tracks_payload() {
        let reply = Reply {
            image_id: 0,
            round: 1,
            compression: Method::Lzw,
            payload: Arc::from(vec![0u8; 1000]),
            raw_bytes: 2000,
            ncoeffs: 500,
            region: Rect::new(0, 0, 64, 64),
        };
        let m = reply_msg(reply);
        assert_eq!(m.wire_bytes, 1000 + REPLY_HEADER_BYTES);
        assert_eq!(m.expect_body::<Reply>().raw_bytes, 2000);
    }

    #[test]
    fn control_messages() {
        let m = connect_msg(Method::Bzip);
        assert_eq!(m.expect_body::<Connect>().compression, Method::Bzip);
        let m = set_compression_msg(Method::Lzw);
        assert_eq!(m.expect_body::<SetCompression>().compression, Method::Lzw);
    }
}
