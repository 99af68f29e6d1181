//! Wire encoding of coefficient chunks for progressive transmission.
//!
//! Chunks are serialized as zigzag varints — small detail coefficients
//! (the common case for natural images) become single bytes, so the byte
//! stream is already compact and the downstream general-purpose compressors
//! (LZW / BWT pipeline, crate `compress`) see realistic, structured input.

use crate::pyramid::{Band, SubbandChunk};
use crate::rect::Rect;

/// Errors from [`decode_chunks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadBand(u8),
    Overflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated"),
            DecodeError::BadBand(b) => write!(f, "invalid band code {b}"),
            DecodeError::Overflow => write!(f, "varint overflow"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Overflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i32) -> u64 {
    ((v as i64) << 1 ^ ((v as i64) >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i32 {
    ((v >> 1) as i64 ^ -((v & 1) as i64)) as i32
}

fn band_code(b: Band) -> u8 {
    match b {
        Band::LL => 0,
        Band::HL => 1,
        Band::LH => 2,
        Band::HH => 3,
    }
}

fn band_from(code: u8) -> Result<Band, DecodeError> {
    Ok(match code {
        0 => Band::LL,
        1 => Band::HL,
        2 => Band::LH,
        3 => Band::HH,
        b => return Err(DecodeError::BadBand(b)),
    })
}

/// Serialize a set of chunks into a byte payload.
pub fn encode_chunks(chunks: &[SubbandChunk]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, chunks.len() as u64);
    for c in chunks {
        out.push(band_code(c.band));
        put_varint(&mut out, c.level as u64);
        put_varint(&mut out, c.rect.x as u64);
        put_varint(&mut out, c.rect.y as u64);
        put_varint(&mut out, c.rect.w as u64);
        put_varint(&mut out, c.rect.h as u64);
        for &v in &c.data {
            put_varint(&mut out, zigzag(v));
        }
    }
    out
}

/// Parse a payload produced by [`encode_chunks`].
pub fn decode_chunks(buf: &[u8]) -> Result<Vec<SubbandChunk>, DecodeError> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)? as usize;
    // Defensive cap: a count field cannot plausibly exceed the buffer size.
    if count > buf.len() {
        return Err(DecodeError::Truncated);
    }
    let mut chunks = Vec::with_capacity(count);
    for _ in 0..count {
        let band = band_from(*buf.get(pos).ok_or(DecodeError::Truncated)?)?;
        pos += 1;
        let level = get_varint(buf, &mut pos)? as usize;
        let x = get_varint(buf, &mut pos)? as usize;
        let y = get_varint(buf, &mut pos)? as usize;
        let w = get_varint(buf, &mut pos)? as usize;
        let h = get_varint(buf, &mut pos)? as usize;
        let area = w.checked_mul(h).ok_or(DecodeError::Overflow)?;
        if area > buf.len().saturating_sub(pos).saturating_mul(5).saturating_add(5) {
            // Each coefficient takes >= 1 byte; reject absurd areas early.
            return Err(DecodeError::Truncated);
        }
        let mut data = Vec::with_capacity(area);
        for _ in 0..area {
            data.push(unzigzag(get_varint(buf, &mut pos)?));
        }
        chunks.push(SubbandChunk { band, level, rect: Rect::new(x, y, w, h), data });
    }
    Ok(chunks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::plasma;
    use crate::pyramid::Pyramid;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1000, -1, 0, 1, 255, i32::MIN, i32::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v, "v={v}");
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn chunk_roundtrip() {
        let img = plasma(64, 64, 5);
        let p = Pyramid::build(&img, 3);
        let chunks = p.chunks_for_region(Rect::new(8, 8, 32, 32), 3, None);
        assert!(!chunks.is_empty());
        let bytes = encode_chunks(&chunks);
        let back = decode_chunks(&bytes).unwrap();
        assert_eq!(back, chunks);
    }

    #[test]
    fn empty_chunk_list() {
        let bytes = encode_chunks(&[]);
        assert_eq!(decode_chunks(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn truncated_payload_errors() {
        let img = plasma(32, 32, 5);
        let p = Pyramid::build(&img, 2);
        let chunks = p.chunks_for_region(Rect::new(0, 0, 32, 32), 2, None);
        let bytes = encode_chunks(&chunks);
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_chunks(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_rejected_not_panicking() {
        // Arbitrary bytes must produce Err, never panic or huge allocations.
        let garbage: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37).wrapping_add(11)).collect();
        let _ = decode_chunks(&garbage);
        let _ = decode_chunks(&[0xff; 16]);
        let _ = decode_chunks(&[4, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f]);
    }

    #[test]
    fn smooth_images_encode_compactly() {
        // Detail coefficients of a smooth image are near zero, so the
        // varint payload should be close to 1 byte/coefficient, while a
        // noise image needs more.
        let smooth = plasma(64, 64, 5);
        let noisy = crate::image::tests::noise(64, 64, 5);
        let region = Rect::new(0, 0, 64, 64);
        let ps = Pyramid::build(&smooth, 3);
        let pn = Pyramid::build(&noisy, 3);
        let bs = encode_chunks(&ps.chunks_for_region(region, 3, None)).len();
        let bn = encode_chunks(&pn.chunks_for_region(region, 3, None)).len();
        assert!(bs < bn, "smooth {bs} vs noisy {bn}");
    }
}
