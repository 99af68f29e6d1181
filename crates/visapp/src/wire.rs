//! [`VizCodec`]: the visapp protocol's wire serialization for socket
//! transports.
//!
//! Inside the simulator, payloads travel as typed `Arc<dyn Any>` bodies;
//! over a real socket they must be bytes. This codec flattens each
//! protocol payload ([`Connect`], [`Request`], [`Reply`], ...) to a
//! little-endian byte layout and rebuilds the identical typed body on
//! the far side, so receivers keep calling `Message::decode::<Reply>()`
//! unchanged regardless of backend.

use std::sync::Arc;

use adapt_transport::{ByteReader, ByteWriter, CodecError, WireCodec};
use compress::Method;
use simnet::Message;
use wavelet::Rect;

use crate::protocol::{
    Connect, Reply, Request, ResourceReport, SetCompression, TAG_CONNECT, TAG_DISCONNECT,
    TAG_REPLY, TAG_REQUEST, TAG_RESOURCE_REPORT, TAG_SET_COMPRESSION,
};

/// Serialization for all six visapp protocol tags.
#[derive(Debug, Default, Clone, Copy)]
pub struct VizCodec;

fn method_byte(m: Method) -> u8 {
    m.code() as u8
}

fn method_from(b: u8) -> Result<Method, CodecError> {
    Method::from_code(b as i64).ok_or(CodecError::Malformed("unknown compression code"))
}

impl WireCodec for VizCodec {
    fn encode(&self, msg: &Message) -> Result<Vec<u8>, CodecError> {
        let mut w = ByteWriter::new();
        match msg.tag {
            TAG_CONNECT => {
                let c =
                    msg.body::<Connect>().ok_or(CodecError::Malformed("connect body missing"))?;
                w.u8(method_byte(c.compression));
            }
            TAG_SET_COMPRESSION => {
                let c = msg
                    .body::<SetCompression>()
                    .ok_or(CodecError::Malformed("set-compression body missing"))?;
                w.u8(method_byte(c.compression));
            }
            TAG_REQUEST => {
                let r =
                    msg.body::<Request>().ok_or(CodecError::Malformed("request body missing"))?;
                w.u64(r.image_id as u64);
                w.u64(r.cx as u64);
                w.u64(r.cy as u64);
                w.u64(r.r as u64);
                w.u64(r.prev_r as u64);
                w.u64(r.level as u64);
                w.u64(r.round);
            }
            TAG_REPLY => {
                let r = msg.body::<Reply>().ok_or(CodecError::Malformed("reply body missing"))?;
                w.u64(r.image_id as u64);
                w.u64(r.round);
                w.u8(method_byte(r.compression));
                w.bytes(&r.payload);
                w.u64(r.raw_bytes as u64);
                w.u64(r.ncoeffs as u64);
                w.u64(r.region.x as u64);
                w.u64(r.region.y as u64);
                w.u64(r.region.w as u64);
                w.u64(r.region.h as u64);
            }
            TAG_DISCONNECT => {
                // Pure signal: no body bytes.
            }
            TAG_RESOURCE_REPORT => {
                let r = msg
                    .body::<ResourceReport>()
                    .ok_or(CodecError::Malformed("resource-report body missing"))?;
                w.str(&r.component);
                w.u8(r.kind);
                w.f64(r.value);
            }
            other => return Err(CodecError::UnknownTag(other)),
        }
        Ok(w.into_vec())
    }

    fn decode(&self, tag: u64, wire_bytes: u64, payload: &[u8]) -> Result<Message, CodecError> {
        let mut r = ByteReader::new(payload);
        let msg = match tag {
            TAG_CONNECT => {
                Message::new(tag, wire_bytes, Connect { compression: method_from(r.u8()?)? })
            }
            TAG_SET_COMPRESSION => {
                Message::new(tag, wire_bytes, SetCompression { compression: method_from(r.u8()?)? })
            }
            TAG_REQUEST => Message::new(
                tag,
                wire_bytes,
                Request {
                    image_id: r.u64()? as usize,
                    cx: r.u64()? as usize,
                    cy: r.u64()? as usize,
                    r: r.u64()? as usize,
                    prev_r: r.u64()? as usize,
                    level: r.u64()? as usize,
                    round: r.u64()?,
                },
            ),
            TAG_REPLY => {
                let image_id = r.u64()? as usize;
                let round = r.u64()?;
                let compression = method_from(r.u8()?)?;
                // One copy, frame slice to shared bytes.
                let payload_bytes = Arc::from(r.bytes()?);
                let raw_bytes = r.u64()? as usize;
                let ncoeffs = r.u64()? as usize;
                let region = Rect::new(
                    r.u64()? as usize,
                    r.u64()? as usize,
                    r.u64()? as usize,
                    r.u64()? as usize,
                );
                Message::new(
                    tag,
                    wire_bytes,
                    Reply {
                        image_id,
                        round,
                        compression,
                        payload: payload_bytes,
                        raw_bytes,
                        ncoeffs,
                        region,
                    },
                )
            }
            TAG_DISCONNECT => Message::signal(tag, wire_bytes),
            TAG_RESOURCE_REPORT => {
                let component = r.str()?.to_string();
                Message::new(
                    tag,
                    wire_bytes,
                    ResourceReport { component, kind: r.u8()?, value: r.f64()? },
                )
            }
            other => return Err(CodecError::UnknownTag(other)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Compare two protocol messages for semantic equality (same tag, wire
/// size, and typed body). Used by round-trip tests and the socket-mirror
/// harness to assert codec fidelity.
pub fn messages_equal(a: &Message, b: &Message) -> bool {
    if a.tag != b.tag || a.wire_bytes != b.wire_bytes {
        return false;
    }
    match a.tag {
        TAG_CONNECT => a.body::<Connect>() == b.body::<Connect>(),
        TAG_SET_COMPRESSION => a.body::<SetCompression>() == b.body::<SetCompression>(),
        TAG_REQUEST => a.body::<Request>() == b.body::<Request>(),
        TAG_REPLY => a.body::<Reply>() == b.body::<Reply>(),
        TAG_DISCONNECT => a.payload.is_none() && b.payload.is_none(),
        TAG_RESOURCE_REPORT => a.body::<ResourceReport>() == b.body::<ResourceReport>(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol;

    fn roundtrip(msg: &Message) -> Message {
        let codec = VizCodec;
        let bytes = codec.encode(msg).expect("encode");
        codec.decode(msg.tag, msg.wire_bytes, &bytes).expect("decode")
    }

    #[test]
    fn every_protocol_message_roundtrips() {
        let msgs = vec![
            protocol::connect_msg(Method::Bzip),
            protocol::set_compression_msg(Method::Lzw),
            protocol::request_msg(Request {
                image_id: 3,
                cx: 128,
                cy: 64,
                r: 40,
                prev_r: 24,
                level: 4,
                round: 17,
            }),
            protocol::reply_msg(Reply {
                image_id: 3,
                round: 17,
                compression: Method::Lzw,
                payload: Arc::from([1, 2, 3, 4, 5].as_slice()),
                raw_bytes: 999,
                ncoeffs: 123,
                region: Rect::new(88, 24, 80, 80),
            }),
            Message::signal(TAG_DISCONNECT, 32),
            protocol::resource_report_msg(ResourceReport {
                component: "server".to_string(),
                kind: 0,
                value: 0.75,
            }),
        ];
        for msg in &msgs {
            let back = roundtrip(msg);
            assert!(messages_equal(msg, &back), "tag {} did not round-trip", msg.tag);
        }
    }

    #[test]
    fn unknown_tags_and_malformed_bytes_are_typed_errors() {
        let codec = VizCodec;
        assert_eq!(
            codec.encode(&Message::signal(999, 8)).unwrap_err(),
            CodecError::UnknownTag(999)
        );
        assert_eq!(codec.decode(999, 8, &[]).unwrap_err(), CodecError::UnknownTag(999));
        // Bad compression code.
        assert!(matches!(
            codec.decode(TAG_CONNECT, 64, &[0x7f]).unwrap_err(),
            CodecError::Malformed(_)
        ));
        // Truncated request.
        assert_eq!(codec.decode(TAG_REQUEST, 64, &[0; 10]).unwrap_err(), CodecError::Truncated);
        // Trailing garbage.
        assert!(matches!(
            codec.decode(TAG_CONNECT, 64, &[0, 0]).unwrap_err(),
            CodecError::Malformed(_)
        ));
    }
}
