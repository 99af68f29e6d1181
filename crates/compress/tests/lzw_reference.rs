//! Byte identity of `lzw::compress` against the compressor it replaced.
//!
//! The LZW stream was defined by an encoder that kept its dictionary in a
//! `HashMap<(u32, u8), u32>` and wrote through a byte-at-a-time bit
//! writer; that encoder lives on here as the oracle, with a bit-at-a-time
//! writer of its own, so it shares neither the open-addressed table nor
//! the 32-bit `BitWriter` with the code under test.
//!
//! CI runs this file with `--release`.

use std::collections::HashMap;

use proptest::prelude::*;

use compress::lzw;
use obs::det::SplitMix64;

const CLEAR: u32 = 256;
const EOF: u32 = 257;
const FIRST_FREE: u32 = 258;
const MAX_CODE: u32 = 4095;

/// Data codes written between two CLEARs: `n` runs from `FIRST_FREE` to
/// `MAX_CODE + 1`.
const CODES_PER_TABLE: usize = (MAX_CODE + 1 - FIRST_FREE) as usize;

/// MSB-first bits, one at a time.
#[derive(Default)]
struct Bits {
    buf: Vec<u8>,
    len: usize,
}

impl Bits {
    fn put(&mut self, v: u32, n: u32) {
        for i in (0..n).rev() {
            if self.len.is_multiple_of(8) {
                self.buf.push(0);
            }
            let last = self.buf.len() - 1;
            self.buf[last] |= (((v >> i) & 1) as u8) << (7 - self.len % 8);
            self.len += 1;
        }
    }
}

/// The LZW encoder as it shipped before the open-addressed table. Also
/// returns, for every data code the main loop writes, the input offset of
/// the byte that ended it: a prefix of about that length ends right at
/// that code, which is how the tests below find the width steps.
fn reference(data: &[u8]) -> (Vec<u8>, Vec<usize>) {
    let mut w = Bits::default();
    let mut ends = Vec::new();
    let mut dict: HashMap<(u32, u8), u32> = HashMap::new();
    let (mut width, mut n) = (9u32, FIRST_FREE);
    let bump = |width: &mut u32, n: &mut u32| {
        *n += 1;
        if *n == (1 << *width) && *width < 12 {
            *width += 1;
        }
    };
    w.put(CLEAR, width);
    let mut it = data.iter().enumerate();
    let mut cur: u32 = match it.next() {
        Some((_, &b)) => b as u32,
        None => {
            w.put(EOF, width);
            return (w.buf, ends);
        }
    };
    for (i, &b) in it {
        match dict.get(&(cur, b)) {
            Some(&code) => cur = code,
            None => {
                w.put(cur, width);
                ends.push(i);
                dict.insert((cur, b), n);
                bump(&mut width, &mut n);
                if n > MAX_CODE {
                    w.put(CLEAR, width);
                    dict.clear();
                    (width, n) = (9, FIRST_FREE);
                }
                cur = b as u32;
            }
        }
    }
    w.put(cur, width);
    bump(&mut width, &mut n);
    w.put(EOF, width);
    (w.buf, ends)
}

fn assert_identical(data: &[u8]) {
    let got = lzw::compress(data);
    let (want, _) = reference(data);
    assert!(got == want, "LZW stream differs on {} bytes", data.len());
}

/// Seeded bytes over `symbols` values, with a run now and then so that
/// the dictionary sees long matches as well as short ones.
fn noisy(len: usize, symbols: u64, rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let byte = rng.below(symbols) as u8;
        let run = if rng.below(64) == 0 { 1 + rng.below(40) as usize } else { 1 };
        out.extend(std::iter::repeat_n(byte, run.min(len - out.len())));
    }
    out
}

#[test]
fn identical_on_seeded_inputs() {
    let mut rng = SplitMix64::new(0x12a);
    for symbols in [2, 16, 256] {
        let mut lens = vec![0, 1, 2, 3, 255, 256, 257, 4096, 65_536, 300_000];
        lens.extend((0..4).map(|_| rng.range(0, 300_000) as usize));
        for len in lens {
            assert_identical(&noisy(len, symbols, &mut rng));
        }
    }
}

#[test]
fn identical_around_every_width_step_and_clear() {
    // The k-th data code after a CLEAR leaves n = FIRST_FREE + k; the width
    // steps at n = 512, 1024 and 2048 and the table clears at 4096.
    let steps = [512, 1024, 2048, MAX_CODE + 1].map(|n| (n - FIRST_FREE) as usize);
    let mut rng = SplitMix64::new(0x9_10_11);
    for symbols in [2, 16, 256] {
        let data = noisy(300_000, symbols, &mut rng);
        let (_, ends) = reference(&data);
        assert!(ends.len() > 3 * CODES_PER_TABLE, "{symbols} symbols: under three CLEARs");
        for table in 0..3 {
            for &k in &steps {
                let end = ends[table * CODES_PER_TABLE + k - 1];
                for len in end - 2..=end + 2 {
                    assert_identical(&data[..len]);
                }
            }
        }
    }
}

/// Appends `v` as a LEB128 varint, the way `wavelet::progressive` does.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[test]
fn identical_on_a_zigzag_coefficient_stream() {
    // Shaped like `encode_chunks` output: a chunk count, then per chunk a
    // band byte, level and rectangle varints and zigzag varints of detail
    // coefficients that are mostly small, with a larger one now and then.
    let mut rng = SplitMix64::new(0xc0ef);
    let mut out = Vec::new();
    put_varint(&mut out, 12);
    for chunk in 0..12u64 {
        out.push((chunk % 4) as u8);
        for field in [chunk / 4, 0, 0, 128, 128] {
            put_varint(&mut out, field);
        }
        for _ in 0..128 * 128 {
            let spread = if rng.below(16) == 0 { 600 } else { 12 };
            let v = rng.range(0, 2 * spread) as i64 - spread as i64;
            put_varint(&mut out, (v << 1 ^ v >> 63) as u64);
        }
    }
    assert!(out.len() > 200_000, "{} bytes", out.len());
    assert_identical(&out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..6000)) {
        prop_assert_eq!(lzw::compress(&data), reference(&data).0);
    }

    #[test]
    fn identical_on_small_alphabets(
        symbols in prop_oneof![Just(2u8), Just(3u8), Just(16u8)],
        raw in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let data: Vec<u8> = raw.iter().map(|b| b % symbols).collect();
        prop_assert_eq!(lzw::compress(&data), reference(&data).0);
    }
}
