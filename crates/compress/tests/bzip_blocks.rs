//! Byte identity of `bzip::compress_with_block`, whose blocks are encoded
//! on worker threads, against a serial loop over the public stage
//! functions.
//!
//! The lengths 115 462, 197 687 and 263 228 are the multi-block payloads
//! the profiled images produce (two, two and three default blocks); each
//! input here is zigzag-varint data shaped like `encode_chunks` output.
//! CI runs this file with `--release`.

use compress::bitio::BitWriter;
use compress::{bwt, bzip, huffman, mtf, rle};
use obs::det::SplitMix64;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The `RBZ1` stream, one block after another on the calling thread.
fn serial(data: &[u8], block: usize) -> Vec<u8> {
    let blocks: Vec<&[u8]> = data.chunks(block).collect();
    let mut out = b"RBZ1".to_vec();
    put_varint(&mut out, blocks.len() as u64);
    for b in blocks {
        let (last, primary) = bwt::forward(b);
        let z = rle::encode(&mtf::encode(&last));
        let mut freqs = vec![0u64; 256];
        for &v in &z {
            freqs[v as usize] += 1;
        }
        let lengths = huffman::build_lengths(&freqs);
        let mut w = BitWriter::new();
        huffman::encode_with(&lengths, &z, &mut w);
        let bits = w.finish();
        for v in [b.len(), primary, z.len()] {
            put_varint(&mut out, v as u64);
        }
        out.extend_from_slice(&lengths);
        put_varint(&mut out, bits.len() as u64);
        out.extend_from_slice(&bits);
    }
    out
}

/// `len` bytes of zigzag varints of mostly small coefficients, with a
/// larger one now and then.
fn coefficients(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len + 10);
    while out.len() < len {
        let spread = if rng.below(16) == 0 { 600 } else { 12 };
        let v = rng.range(0, 2 * spread) as i64 - spread as i64;
        put_varint(&mut out, (v << 1 ^ v >> 63) as u64);
    }
    out.truncate(len);
    out
}

#[test]
fn blocks_on_workers_equal_the_serial_stream() {
    // (length, block size, blocks)
    let cases = [
        (60_000, bzip::DEFAULT_BLOCK, 1),
        (115_462, bzip::DEFAULT_BLOCK, 2),
        (197_687, bzip::DEFAULT_BLOCK, 2),
        (263_228, bzip::DEFAULT_BLOCK, 3),
        (263_228, 40_000, 7),
        (7, 1, 7),
    ];
    for (seed, (len, block, blocks)) in cases.into_iter().enumerate() {
        let data = coefficients(len, seed as u64);
        assert_eq!(data.chunks(block).count(), blocks);
        let packed = bzip::compress_with_block(&data, block);
        assert!(packed == serial(&data, block), "{len} bytes in blocks of {block}");
        assert_eq!(bzip::decompress(&packed).unwrap(), data);
    }
}
