//! Adversarial round-trip inputs for every codec: the degenerate shapes
//! that historically break block/dictionary compressors — empty input,
//! single bytes, runs of one symbol, alternating symbols that defeat
//! run-length stages, and payloads straddling the bzip block boundary.

use compress::{bzip, lzw, Method};

fn adversarial_inputs() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("empty", Vec::new()),
        ("one zero byte", vec![0]),
        ("one 0xff byte", vec![0xFF]),
        ("two distinct", vec![0, 255]),
        ("all equal short", vec![7; 64]),
        ("all equal long", vec![42; 300_000]),
        ("alternating pair", (0..100_000).map(|i| if i % 2 == 0 { 0xAA } else { 0x55 }).collect()),
        ("all 256 symbols", (0..=255u8).cycle().take(4096).collect()),
        ("sawtooth", (0..200_000).map(|i| (i % 251) as u8).collect()),
        ("single run then noise", {
            let mut v = vec![0u8; 1000];
            v.extend((0..1000).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 24) as u8));
            v
        }),
    ]
}

#[test]
fn every_method_round_trips_adversarial_inputs() {
    for method in Method::ALL {
        for (name, input) in adversarial_inputs() {
            let packed = method.compress(&input);
            let unpacked = method
                .decompress(&packed)
                .unwrap_or_else(|e| panic!("{method:?} failed on {name}: {e}"));
            assert_eq!(unpacked, input, "{method:?} corrupted {name}");
        }
    }
}

#[test]
fn bzip_round_trips_across_block_boundaries() {
    // Tiny block sizes force many blocks over one payload (kept small:
    // block size 1 means one BWT per byte); larger sizes split a bigger
    // payload into one or a few blocks.
    let small: Vec<u8> = (0..2_000u32).map(|i| (i.wrapping_mul(193) % 241) as u8).collect();
    for block in [1, 2, 255] {
        let packed = bzip::compress_with_block(&small, block);
        let unpacked =
            bzip::decompress(&packed).unwrap_or_else(|e| panic!("block size {block} failed: {e}"));
        assert_eq!(unpacked, small, "block size {block} corrupted the payload");
    }
    let data: Vec<u8> = (0..250_000u32).map(|i| (i.wrapping_mul(193) % 241) as u8).collect();
    for block in [4096, bzip::DEFAULT_BLOCK] {
        let packed = bzip::compress_with_block(&data, block);
        let unpacked =
            bzip::decompress(&packed).unwrap_or_else(|e| panic!("block size {block} failed: {e}"));
        assert_eq!(unpacked, data, "block size {block} corrupted the payload");
    }
    for size in [bzip::DEFAULT_BLOCK - 1, bzip::DEFAULT_BLOCK, bzip::DEFAULT_BLOCK + 1] {
        let data: Vec<u8> = (0..size as u32).map(|i| (i % 253) as u8).collect();
        let unpacked = bzip::decompress(&bzip::compress(&data)).expect("boundary payload");
        assert_eq!(unpacked, data, "payload of {size} bytes straddling the block boundary");
    }
}

#[test]
fn decompressors_reject_garbage_without_panicking() {
    // Corrupt/truncated payloads must produce errors, never panics or
    // bogus data that silently round-trips.
    let garbage: Vec<u8> =
        (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
    assert!(lzw::decompress(&garbage).is_err() || bzip::decompress(&garbage).is_err());
    for method in [Method::Lzw, Method::Bzip] {
        let mut packed = method.compress(b"the quick brown fox jumps over the lazy dog");
        packed.truncate(packed.len() / 2);
        // Truncation may error or decode a prefix, but must not panic.
        let _ = method.decompress(&packed);
    }
}

/// An `RBZ1` stream of one block whose header claims `zlen` symbols and
/// `bits_len` payload bytes, followed by `payload`.
fn bzip_block_header(zlen: u64, bits_len: u64, payload: &[u8]) -> Vec<u8> {
    fn varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let mut out = b"RBZ1".to_vec();
    varint(&mut out, 1); // blocks
    varint(&mut out, 1 << 30); // original length
    varint(&mut out, 0); // primary index
    varint(&mut out, zlen);
    out.extend([8u8; 256]); // a complete code: every symbol 8 bits
    varint(&mut out, bits_len);
    out.extend_from_slice(payload);
    out
}

#[test]
fn bzip_rejects_a_symbol_count_its_payload_cannot_hold() {
    // 300 bytes that ask for a 1 GiB symbol buffer: refused from the
    // header, before any allocation sized by it.
    let payload = [0x5Au8; 32];
    let packed = bzip_block_header(1 << 30, payload.len() as u64, &payload);
    assert!(packed.len() < 320);
    let err = bzip::decompress(&packed).expect_err("1 GiB of symbols in 32 bytes");
    assert!(err.message().contains("symbol count"), "{err}");
    // One symbol per bit is the most a payload can hold; one more is not.
    let err = bzip::decompress(&bzip_block_header(257, 32, &payload)).expect_err("257 > 256");
    assert!(err.message().contains("symbol count"), "{err}");
    // A payload length that overflows the offset is a truncation.
    assert!(bzip::decompress(&bzip_block_header(1, u64::MAX, &payload)).is_err());
}
