//! The block-sorting pipeline — the paper's "compression B" (Bzip2).
//!
//! Per block: BWT → MTF → zero-RLE → canonical Huffman. Much better
//! compression than LZW on structured data at several times the CPU cost:
//! the expensive-CPU / low-bandwidth point of Figure 6(a).

use crate::bitio::{BitReader, BitWriter};
use crate::{bwt, huffman, mtf, rle, CodecError};

/// Default block size (bytes). Real bzip2 uses 100k-900k; 100k keeps the
/// rotation sort's working set (about 24 bytes per input byte) in cache
/// while preserving the compression behavior.
pub const DEFAULT_BLOCK: usize = 100_000;

const MAGIC: [u8; 4] = *b"RBZ1";

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
        let byte = *buf.get(*pos).ok_or_else(|| CodecError::corrupt("bzip varint truncated"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError::corrupt("bzip varint overflow"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Compress with the default block size.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_block(data, DEFAULT_BLOCK)
}

/// Compress with an explicit block size (min 1).
pub fn compress_with_block(data: &[u8], block: usize) -> Vec<u8> {
    let block = block.max(1);
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    let blocks: Vec<&[u8]> = data.chunks(block).collect();
    put_varint(&mut out, blocks.len() as u64);
    for b in blocks {
        let (last, primary) = bwt::forward(b);
        let m = mtf::encode(&last);
        let z = rle::encode(&m);
        let mut freqs = vec![0u64; 256];
        for &v in &z {
            freqs[v as usize] += 1;
        }
        let lengths = huffman::build_lengths(&freqs);
        let mut w = BitWriter::new();
        huffman::encode_with(&lengths, &z, &mut w);
        let bits = w.finish();
        put_varint(&mut out, b.len() as u64);
        put_varint(&mut out, primary as u64);
        put_varint(&mut out, z.len() as u64);
        out.extend_from_slice(&lengths);
        put_varint(&mut out, bits.len() as u64);
        out.extend_from_slice(&bits);
    }
    out
}

/// Decompress a payload produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    if data.len() < 4 || data[..4] != MAGIC {
        return Err(CodecError::corrupt("bad bzip magic"));
    }
    let mut pos = 4usize;
    let nblocks = get_varint(data, &mut pos)? as usize;
    if nblocks > data.len() {
        return Err(CodecError::corrupt("implausible block count"));
    }
    let mut out = Vec::new();
    for _ in 0..nblocks {
        let orig_len = get_varint(data, &mut pos)? as usize;
        let primary = get_varint(data, &mut pos)? as usize;
        let zlen = get_varint(data, &mut pos)? as usize;
        if orig_len > (1 << 30) || zlen > (1 << 30) {
            return Err(CodecError::corrupt("implausible block sizes"));
        }
        let lengths = data
            .get(pos..pos + 256)
            .ok_or_else(|| CodecError::corrupt("truncated Huffman table"))?;
        pos += 256;
        let bits_len = get_varint(data, &mut pos)? as usize;
        let bits = pos
            .checked_add(bits_len)
            .and_then(|end| data.get(pos..end))
            .ok_or_else(|| CodecError::corrupt("truncated block payload"))?;
        pos += bits_len;
        // Every symbol costs at least one bit, so the header cannot ask
        // for more symbols (or memory) than the payload could hold.
        if zlen > bits_len * 8 {
            return Err(CodecError::corrupt("symbol count exceeds block payload"));
        }
        let dec = huffman::Decoder::new(lengths)?;
        let mut r = BitReader::new(bits);
        let mut z = Vec::with_capacity(zlen);
        for _ in 0..zlen {
            z.push(dec.decode(&mut r)? as u8);
        }
        let m = rle::decode(&z)?;
        if m.len() != orig_len {
            return Err(CodecError::corrupt("block length mismatch after RLE"));
        }
        let last = mtf::decode(&m);
        let orig = bwt::inverse(&last, primary)?;
        out.extend_from_slice(&orig);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn edge_cases() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(&[0u8; 1000]);
    }

    #[test]
    fn text_roundtrip_and_ratio() {
        let data = b"the quick brown fox jumps over the lazy dog. ".repeat(500);
        let c = compress(&data);
        assert!(c.len() < data.len() / 5, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn beats_lzw_on_structured_data() {
        let data = b"adaptive distributed applications adapt ".repeat(400);
        let b = compress(&data).len();
        let l = crate::lzw::compress(&data).len();
        assert!(b < l, "bzip {b} should beat lzw {l}");
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = StdRng::seed_from_u64(21);
        for len in [1usize, 255, 4096, 150_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn multi_block_boundaries() {
        let mut rng = StdRng::seed_from_u64(22);
        let data: Vec<u8> = (0..2500).map(|_| rng.gen_range(b'a'..b'h')).collect();
        for block in [1usize, 7, 1000, 2499, 2500, 2501, 10_000] {
            let c = compress_with_block(&data, block);
            assert_eq!(decompress(&c).unwrap(), data, "block={block}");
        }
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        assert!(decompress(b"").is_err());
        assert!(decompress(b"NOPE").is_err());
        let mut c = compress(b"hello world hello world hello");
        let mid = c.len() / 2;
        c[mid] ^= 0xff;
        // Either an error or (unlikely) a wrong roundtrip — but never a panic.
        let _ = decompress(&c);
        let c2 = compress(b"hello world");
        assert!(decompress(&c2[..c2.len() - 3]).is_err());
    }
}
