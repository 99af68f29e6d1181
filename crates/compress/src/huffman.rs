//! Canonical Huffman coding over a byte alphabet.
//!
//! Final entropy-coding stage of the Bzip2-style pipeline. Code lengths are
//! built with the standard two-queue Huffman construction; codes are
//! assigned canonically so the table serializes as 256 length bytes.

use crate::bitio::{BitReader, BitWriter};
use crate::CodecError;

/// Maximum allowed code length; skewed distributions are flattened by
/// frequency scaling until they fit.
pub const MAX_LEN: u8 = 32;

/// Compute Huffman code lengths for `freqs` (one entry per symbol).
/// Symbols with zero frequency get length 0 (no code).
pub fn build_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut f: Vec<u64> = freqs.to_vec();
    loop {
        let lengths = lengths_once(&f);
        let maxl = lengths.iter().copied().max().unwrap_or(0);
        if maxl <= MAX_LEN {
            return lengths;
        }
        // Flatten: halving (with floor at 1) shortens the deepest paths.
        for v in f.iter_mut() {
            if *v > 0 {
                *v = (*v).div_ceil(2);
            }
        }
    }
}

fn lengths_once(freqs: &[u64]) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let live: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match live.len() {
        0 => return lengths,
        1 => {
            // A single-symbol alphabet still needs one bit on the wire.
            lengths[live[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // Heap of (weight, node). Leaves are 0..n, internal nodes follow.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        live.iter().map(|&i| Reverse((freqs[i], i))).collect();
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut next_node = n;
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().unwrap();
        let Reverse((wb, b)) = heap.pop().unwrap();
        parent.push(usize::MAX); // slot for next_node
        if a < parent.len() {
            parent[a] = next_node;
        }
        if b < parent.len() {
            parent[b] = next_node;
        }
        heap.push(Reverse((wa + wb, next_node)));
        next_node += 1;
    }
    // Depth of each leaf = number of parent hops to the root.
    for &i in &live {
        let mut d = 0u32;
        let mut node = i;
        while parent[node] != usize::MAX {
            node = parent[node];
            d += 1;
        }
        lengths[i] = d.min(255) as u8;
    }
    lengths
}

/// Canonical codes from lengths: symbols sorted by (length, symbol) get
/// consecutive codes. Returns `(code, len)` per symbol (len 0 = unused).
pub fn canonical_codes(lengths: &[u8]) -> Vec<(u32, u8)> {
    let maxl = lengths.iter().copied().max().unwrap_or(0) as usize;
    let mut count = vec![0u32; maxl + 1];
    for &l in lengths {
        if l > 0 {
            count[l as usize] += 1;
        }
    }
    let mut first = vec![0u32; maxl + 2];
    let mut code = 0u32;
    for l in 1..=maxl {
        code = (code + count[l - 1]) << 1;
        first[l] = code;
    }
    let mut next = first.clone();
    let mut out = vec![(0u32, 0u8); lengths.len()];
    for (sym, &l) in lengths.iter().enumerate() {
        if l > 0 {
            out[sym] = (next[l as usize], l);
            next[l as usize] += 1;
        }
    }
    out
}

/// Encode `data` (bytes) with the canonical code for `lengths`.
/// Panics if a byte has no code — callers must build lengths from the same
/// data's frequencies.
pub fn encode_with(lengths: &[u8], data: &[u8], w: &mut BitWriter) {
    let codes = canonical_codes(lengths);
    for &b in data {
        let (code, len) = codes[b as usize];
        assert!(len > 0, "symbol {b} has no Huffman code");
        w.put(code, len as u32);
    }
}

/// Canonical decoding tables.
pub struct Decoder {
    /// `first_code[l]`, `first_index[l]` per length l, plus sorted symbols.
    first_code: Vec<u32>,
    first_index: Vec<u32>,
    count: Vec<u32>,
    symbols: Vec<u16>,
    max_len: usize,
}

impl Decoder {
    #[allow(clippy::needless_range_loop)] // `l` indexes several parallel tables
    pub fn new(lengths: &[u8]) -> Result<Decoder, CodecError> {
        let maxl = lengths.iter().copied().max().unwrap_or(0) as usize;
        if maxl == 0 {
            return Ok(Decoder {
                first_code: vec![],
                first_index: vec![],
                count: vec![],
                symbols: vec![],
                max_len: 0,
            });
        }
        if maxl > MAX_LEN as usize {
            return Err(CodecError::corrupt("Huffman length too large"));
        }
        let mut count = vec![0u32; maxl + 1];
        for &l in lengths {
            if l > 0 {
                count[l as usize] += 1;
            }
        }
        // Kraft check: over-subscribed tables are corrupt.
        let mut kraft: u64 = 0;
        for l in 1..=maxl {
            kraft += (count[l] as u64) << (maxl - l);
        }
        if kraft > 1u64 << maxl {
            return Err(CodecError::corrupt("Huffman table over-subscribed"));
        }
        let mut first_code = vec![0u32; maxl + 1];
        let mut first_index = vec![0u32; maxl + 1];
        let mut code = 0u32;
        let mut index = 0u32;
        for l in 1..=maxl {
            code = (code + if l >= 2 { count[l - 1] } else { 0 }) << 1;
            // Recompute as in canonical_codes: first[l] = (first[l-1]+count[l-1])<<1
            first_code[l] = code;
            first_index[l] = index;
            index += count[l];
        }
        // Symbols sorted by (length, symbol).
        let mut symbols = Vec::with_capacity(index as usize);
        for l in 1..=maxl {
            for (sym, &sl) in lengths.iter().enumerate() {
                if sl as usize == l {
                    symbols.push(sym as u16);
                }
            }
        }
        Ok(Decoder { first_code, first_index, count, symbols, max_len: maxl })
    }

    /// Decode one symbol.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
        if self.max_len == 0 {
            return Err(CodecError::corrupt("empty Huffman table"));
        }
        let mut code = 0u32;
        for l in 1..=self.max_len {
            let bit = r.get_bit().ok_or_else(|| CodecError::corrupt("Huffman stream truncated"))?;
            code = (code << 1) | bit;
            let c = self.count[l];
            if c > 0 && code >= self.first_code[l] && code < self.first_code[l] + c {
                let idx = self.first_index[l] + (code - self.first_code[l]);
                return Ok(self.symbols[idx as usize]);
            }
        }
        Err(CodecError::corrupt("invalid Huffman code"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::det::SplitMix64;

    fn roundtrip(data: &[u8]) {
        let mut freqs = vec![0u64; 256];
        for &b in data {
            freqs[b as usize] += 1;
        }
        let lengths = build_lengths(&freqs);
        let mut w = BitWriter::new();
        encode_with(&lengths, data, &mut w);
        let bits = w.finish();
        let dec = Decoder::new(&lengths).unwrap();
        let mut r = BitReader::new(&bits);
        let out: Vec<u8> = (0..data.len()).map(|_| dec.decode(&mut r).unwrap() as u8).collect();
        assert_eq!(out, data);
    }

    #[test]
    fn simple_roundtrip() {
        roundtrip(b"abracadabra");
        roundtrip(b"mississippi river banks");
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[7u8; 100]);
        let mut freqs = vec![0u64; 256];
        freqs[7] = 100;
        let lengths = build_lengths(&freqs);
        assert_eq!(lengths[7], 1);
        assert!(lengths.iter().enumerate().all(|(i, &l)| i == 7 || l == 0));
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = SplitMix64::new(5);
        for len in [1usize, 10, 1000, 50_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn skewed_distribution_roundtrip() {
        // Exponentially skewed frequencies stress the length limiter.
        let mut data = Vec::new();
        for (i, reps) in (0u8..40).zip((0..40).map(|k| 1usize << (k.min(20)))) {
            data.extend(std::iter::repeat_n(i, reps));
        }
        roundtrip(&data);
        let mut freqs = vec![0u64; 256];
        for &b in &data {
            freqs[b as usize] += 1;
        }
        let lengths = build_lengths(&freqs);
        assert!(lengths.iter().all(|&l| l <= MAX_LEN));
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let mut freqs = vec![0u64; 256];
        freqs[0] = 1000;
        freqs[1] = 10;
        freqs[2] = 10;
        freqs[3] = 10;
        let lengths = build_lengths(&freqs);
        assert!(lengths[0] < lengths[1]);
    }

    #[test]
    fn kraft_inequality_holds() {
        let mut rng = SplitMix64::new(11);
        let freqs: Vec<u64> = (0..256).map(|_| rng.below(1000)).collect();
        let lengths = build_lengths(&freqs);
        let maxl = *lengths.iter().max().unwrap() as u32;
        let kraft: u64 =
            lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (maxl - l as u32)).sum();
        assert!(kraft <= 1u64 << maxl, "Kraft violated: {kraft} > 2^{maxl}");
    }

    #[test]
    fn compression_beats_raw_for_skewed_data() {
        let data: Vec<u8> =
            std::iter::repeat_n(b'a', 9000).chain(std::iter::repeat_n(b'b', 1000)).collect();
        let mut freqs = vec![0u64; 256];
        for &b in &data {
            freqs[b as usize] += 1;
        }
        let lengths = build_lengths(&freqs);
        let mut w = BitWriter::new();
        encode_with(&lengths, &data, &mut w);
        let bits = w.finish();
        assert!(bits.len() < data.len() / 4, "{} vs {}", bits.len(), data.len());
    }

    #[test]
    fn corrupt_table_rejected() {
        // All 256 symbols with length 1 massively violates Kraft.
        let lengths = vec![1u8; 256];
        assert!(Decoder::new(&lengths).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let mut freqs = vec![0u64; 256];
        freqs[b'a' as usize] = 5;
        freqs[b'b' as usize] = 3;
        let lengths = build_lengths(&freqs);
        let dec = Decoder::new(&lengths).unwrap();
        let empty: [u8; 0] = [];
        let mut r = BitReader::new(&empty);
        assert!(dec.decode(&mut r).is_err());
    }
}
