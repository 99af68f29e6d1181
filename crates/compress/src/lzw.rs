//! LZW with variable-width codes — the paper's "compression A".
//!
//! Classic compress/GIF-style LZW: 256 literals, a CLEAR code (256) and an
//! EOF code (257); code width starts at 9 bits and grows to 12; when the
//! code space fills, CLEAR is emitted and the dictionary resets. Fast,
//! modest compression — the cheap-CPU / higher-bandwidth point in the
//! compression trade-off of Figure 6(a).
//!
//! Width synchronization: both encoder and decoder advance a shared
//! *emission counter* `n` (starting at `FIRST_FREE`) after every data
//! code and widen when `n` reaches `1 << width`. Because the counter
//! depends only on the code stream itself, encoder and decoder widths can
//! never diverge (including around CLEAR, EOF, and the KwKwK case).
//!
//! The encoder's dictionary is a flat open-addressed table (`Dict`);
//! the `HashMap` compressor it replaced is the byte-for-byte oracle in
//! `tests/lzw_reference.rs`.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

const CLEAR: u32 = 256;
const EOF: u32 = 257;
const FIRST_FREE: u32 = 258;
const MIN_WIDTH: u32 = 9;
const MAX_WIDTH: u32 = 12;
const MAX_CODE: u32 = (1 << MAX_WIDTH) - 1;

/// Width/counter state shared (conceptually) by encoder and decoder.
#[derive(Debug, Clone, Copy)]
struct Sync {
    width: u32,
    n: u32,
}

impl Sync {
    fn fresh() -> Self {
        Sync { width: MIN_WIDTH, n: FIRST_FREE }
    }

    /// Advance after a data code has been written/read.
    fn bump(&mut self) {
        self.n += 1;
        if self.n == (1 << self.width) && self.width < MAX_WIDTH {
            self.width += 1;
        }
    }

    /// True when the code space is exhausted and the encoder must CLEAR.
    fn full(&self) -> bool {
        self.n > MAX_CODE
    }
}

/// Slots in the encoder's table: a power of two above twice the
/// `MAX_CODE + 1 - FIRST_FREE` entries it holds between CLEARs.
const SLOT_BITS: u32 = 13;
const SLOTS: usize = 1 << SLOT_BITS;

/// The encoder's dictionary, `(prefix code, byte) -> code`: open addressing
/// with linear probing. A slot holds `prefix << 8 | byte` in its high 20
/// bits and the code in its low `MAX_WIDTH`. A code is at least
/// `FIRST_FREE`, so an occupied slot is never 0, and 0 marks an empty one.
struct Dict {
    slots: [u32; SLOTS],
}

impl Dict {
    fn new() -> Self {
        Dict { slots: [0; SLOTS] }
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }

    /// The code for `(prefix, byte)`, or else the empty slot it goes in.
    fn find(&self, prefix: u32, byte: u8) -> Result<u32, usize> {
        let key = (prefix << 8 | byte as u32) << MAX_WIDTH;
        let mut i = (key.wrapping_mul(0x9e37_79b1) >> (32 - SLOT_BITS)) as usize;
        loop {
            match self.slots[i] {
                0 => return Err(i),
                e if e & !MAX_CODE == key => return Ok(e & MAX_CODE),
                _ => i = (i + 1) % SLOTS,
            }
        }
    }

    fn insert(&mut self, slot: usize, prefix: u32, byte: u8, code: u32) {
        self.slots[slot] = (prefix << 8 | byte as u32) << MAX_WIDTH | code;
    }
}

/// Compress `data` with LZW.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut dict = Dict::new();
    let mut s = Sync::fresh();
    w.put(CLEAR, s.width);
    let mut it = data.iter();
    let mut cur: u32 = match it.next() {
        Some(&b) => b as u32,
        None => {
            w.put(EOF, s.width);
            return w.finish();
        }
    };
    for &b in it {
        match dict.find(cur, b) {
            Ok(code) => cur = code,
            Err(slot) => {
                w.put(cur, s.width);
                dict.insert(slot, cur, b, s.n);
                s.bump();
                if s.full() {
                    w.put(CLEAR, s.width);
                    dict.clear();
                    s = Sync::fresh();
                }
                cur = b as u32;
            }
        }
    }
    w.put(cur, s.width);
    s.bump();
    w.put(EOF, s.width);
    w.finish()
}

/// Decompress an LZW stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    // Dictionary: entries[i] is code FIRST_FREE+i -> (prefix code, suffix).
    let mut entries: Vec<(u32, u8)> = Vec::new();
    let mut s = Sync::fresh();
    let mut prev: Option<u32> = None;

    fn expand(code: u32, entries: &[(u32, u8)], out: &mut Vec<u8>) -> Result<usize, CodecError> {
        let start = out.len();
        let mut c = code;
        loop {
            if c < 256 {
                out.push(c as u8);
                break;
            }
            let idx = (c - FIRST_FREE) as usize;
            let &(prefix, last) =
                entries.get(idx).ok_or_else(|| CodecError::corrupt("LZW code out of range"))?;
            out.push(last);
            c = prefix;
            if out.len() - start > MAX_CODE as usize + 2 {
                return Err(CodecError::corrupt("LZW expansion loop"));
            }
        }
        out[start..].reverse();
        Ok(start)
    }

    loop {
        let code = r.get(s.width).ok_or_else(|| CodecError::corrupt("LZW stream truncated"))?;
        match code {
            EOF => return Ok(out),
            CLEAR => {
                entries.clear();
                s = Sync::fresh();
                prev = None;
            }
            _ => {
                let next_entry = FIRST_FREE + entries.len() as u32;
                if let Some(p) = prev {
                    if code < next_entry {
                        let start = expand(code, &entries, &mut out)?;
                        let first = out[start];
                        entries.push((p, first));
                    } else if code == next_entry {
                        // KwKwK: the new entry is prev + first(prev).
                        let start = expand(p, &entries, &mut out)?;
                        let first = out[start];
                        out.push(first);
                        entries.push((p, first));
                    } else {
                        return Err(CodecError::corrupt("LZW code ahead of dictionary"));
                    }
                } else {
                    if code >= FIRST_FREE {
                        return Err(CodecError::corrupt("LZW non-literal after clear"));
                    }
                    expand(code, &entries, &mut out)?;
                }
                s.bump();
                prev = Some(code);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::det::SplitMix64;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn single_byte() {
        roundtrip(b"x");
    }

    #[test]
    fn repetitive_text_compresses() {
        let data = b"tobeornottobeortobeornot".repeat(100);
        let c = compress(&data);
        assert!(c.len() < data.len() / 2, "{} vs {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn kwkwk_case() {
        // Classic pattern triggering code == next_entry in the decoder.
        roundtrip(b"aaaaaaaaaaaaaaaaaaaaaa");
        roundtrip(b"abababababababababab");
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        roundtrip(&data);
    }

    #[test]
    fn width_boundary_lengths() {
        // Exercise lengths around the 9->10->11->12-bit width transitions
        // and around dictionary resets, where off-by-one bugs live.
        let mut rng = SplitMix64::new(99);
        for len in 200..=280 {
            let data: Vec<u8> = (0..len * 13).map(|_| rng.next_u64() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn random_data_roundtrips() {
        let mut rng = SplitMix64::new(42);
        for len in [1, 2, 100, 4096, 100_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn dictionary_reset_path() {
        // Enough distinct digrams to overflow the 12-bit code space and
        // force CLEAR emission.
        let mut rng = SplitMix64::new(7);
        let data: Vec<u8> = (0..200_000).map(|_| rng.below(16) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn random_compresses_worse_than_structured() {
        let mut rng = SplitMix64::new(3);
        let random: Vec<u8> = (0..10_000).map(|_| rng.next_u64() as u8).collect();
        let structured = b"the quick brown fox jumps over the lazy dog ".repeat(250);
        let cr = compress(&random).len() as f64 / random.len() as f64;
        let cs = compress(&structured[..10_000]).len() as f64 / 10_000.0;
        assert!(cs < cr);
    }

    #[test]
    fn truncated_stream_errors() {
        let c = compress(b"hello world hello world");
        assert!(decompress(&c[..c.len() / 2]).is_err());
        assert!(decompress(&[]).is_err());
    }
}
