//! Property tests for the socket framing layer: arbitrary envelopes
//! round-trip bit-for-bit, truncated streams ask for more bytes, and
//! garbage is rejected rather than misparsed.

use adapt_transport::{
    decode_frame, encode_frame, ByteReader, ByteWriter, CodecError, Frame, WireCodec, HEADER_BYTES,
};
use proptest::prelude::*;
use simnet::Message;

/// Minimal codec for raw `Vec<u8>` payload messages: byte 0 marks
/// whether the message was a pure signal or carried a body.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_roundtrip(
        to in 0u64..1_000_000,
        tag in 0u64..u64::MAX,
        wire in 0u64..u64::MAX,
        deadline in 0u64..u64::MAX,
        has_deadline in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let f = Frame {
            to,
            tag,
            wire_bytes: wire,
            deadline_us: if has_deadline { Some(deadline) } else { None },
            payload,
        };
        let mut bytes = Vec::new();
        encode_frame(&f, &mut bytes);
        let (decoded, used) = decode_frame(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, f);
    }

    #[test]
    fn truncated_streams_never_yield_a_frame(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut_frac in 0.0f64..1.0,
    ) {
        let f = Frame { to: 1, tag: 2, wire_bytes: 3, deadline_us: None, payload };
        let mut bytes = Vec::new();
        encode_frame(&f, &mut bytes);
        // Strictly shorter than the full frame: must never produce a frame.
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        match decode_frame(&bytes[..cut]) {
            Ok(None) | Err(_) => {}
            Ok(Some(_)) => prop_assert!(false, "decoded a frame from a truncated stream"),
        }
    }

    #[test]
    fn garbage_never_panics_and_never_decodes_silently(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Whatever the bytes, decode must return cleanly; if it does
        // produce a frame, the bytes must genuinely start with our header.
        if let Ok(Some((_, used))) = decode_frame(&junk) {
            prop_assert!(used >= HEADER_BYTES);
            prop_assert_eq!(&junk[0..2], &[0xAD, 0x7A]);
        }
    }

    #[test]
    fn message_payloads_roundtrip_through_codec_and_frame(
        tag in 0u64..1_000,
        wire in 0u64..1_000_000,
        body in proptest::collection::vec(any::<u8>(), 0..1024),
        is_signal in any::<bool>(),
    ) {
        let codec = RawCodec;
        let msg = if is_signal {
            Message::signal(tag, wire)
        } else {
            Message::new(tag, wire, body.clone())
        };
        let payload = codec.encode(&msg).unwrap();
        let f = Frame { to: 9, tag: msg.tag, wire_bytes: msg.wire_bytes, deadline_us: None, payload };
        let mut bytes = Vec::new();
        encode_frame(&f, &mut bytes);
        let (decoded, _) = decode_frame(&bytes).unwrap().unwrap();
        let rebuilt = codec.decode(decoded.tag, decoded.wire_bytes, &decoded.payload).unwrap();
        prop_assert_eq!(rebuilt.tag, msg.tag);
        prop_assert_eq!(rebuilt.wire_bytes, msg.wire_bytes);
        if is_signal {
            prop_assert!(rebuilt.payload.is_none());
        } else {
            prop_assert_eq!(rebuilt.body::<Vec<u8>>().unwrap(), &body);
        }
    }

    #[test]
    fn codec_rejects_truncated_and_garbage_payloads(
        body in proptest::collection::vec(any::<u8>(), 1..256),
        cut_frac in 0.0f64..1.0,
    ) {
        let codec = RawCodec;
        let msg = Message::new(7, 64, body);
        let encoded = codec.encode(&msg).unwrap();
        let cut = ((encoded.len() - 1) as f64 * cut_frac) as usize;
        // A strict prefix can only fail (or, for the 1-byte marker alone
        // of an empty vec, it can never equal the full encoding here since
        // body is non-empty).
        prop_assert!(codec.decode(7, 64, &encoded[..cut]).is_err());
        // A bad marker byte is malformed, not a panic.
        let mut bad = encoded.clone();
        bad[0] = 0x7f;
        prop_assert!(codec.decode(7, 64, &bad).is_err());
    }
}
