//! Zero-run-length encoding of MTF output (the RLE2 stage of bzip2,
//! simplified): a zero byte is followed by a varint run length, so the
//! long zero runs MTF produces collapse to a couple of bytes.

use crate::CodecError;

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

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or_else(|| CodecError::corrupt("RLE varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::corrupt("RLE varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encode: `0 x k` becomes `[0, varint(k-1)]`; other bytes are literal.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0usize;
    while i < data.len() {
        let b = data[i];
        if b == 0 {
            let mut run = 1usize;
            while i + run < data.len() && data[i + run] == 0 {
                run += 1;
            }
            out.push(0);
            put_varint(&mut out, (run - 1) as u64);
            i += run;
        } else {
            out.push(b);
            i += 1;
        }
    }
    out
}

/// Inverse of [`encode`].
pub fn decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(data.len());
    let mut pos = 0usize;
    while pos < data.len() {
        let b = data[pos];
        pos += 1;
        if b == 0 {
            let extra = get_varint(data, &mut pos)? as usize;
            // Cap expansion so corrupt input cannot OOM us.
            if extra > (1 << 30) {
                return Err(CodecError::corrupt("RLE run too long"));
            }
            out.extend(std::iter::repeat_n(0u8, extra + 1));
        } else {
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::det::SplitMix64;

    fn roundtrip(data: &[u8]) {
        assert_eq!(decode(&encode(data)).unwrap(), data);
    }

    #[test]
    fn edge_cases() {
        roundtrip(b"");
        roundtrip(&[0]);
        roundtrip(&[0, 0, 0]);
        roundtrip(&[1, 2, 3]);
        roundtrip(&[0, 1, 0, 0, 2, 0]);
    }

    #[test]
    fn long_zero_run_collapses() {
        let data = vec![0u8; 100_000];
        let enc = encode(&data);
        assert!(enc.len() <= 4, "run should collapse to 0 + varint, got {}", enc.len());
        roundtrip(&data);
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = SplitMix64::new(13);
        for _ in 0..20 {
            let data: Vec<u8> = (0..rng.below(5000))
                .map(|_| if rng.next_f64() < 0.7 { 0 } else { rng.next_u64() as u8 })
                .collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn incompressible_data_grows_little() {
        let mut rng = SplitMix64::new(14);
        let data: Vec<u8> = (0..10_000).map(|_| rng.range(1, 255) as u8).collect();
        let enc = encode(&data);
        assert_eq!(enc.len(), data.len(), "no zeros, no overhead");
    }

    #[test]
    fn truncated_run_errors() {
        // A zero marker with its varint cut off.
        assert!(decode(&[5, 0]).is_err());
    }
}
