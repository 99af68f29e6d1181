//! Bit-level I/O, MSB-first, shared by the LZW and Huffman coders.

/// Write bits into a growing byte buffer, most significant bit first.
#[derive(Debug, Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet in `buf`: the low `nbits` bits of `acc`, 0..8 between
    /// calls. Whatever sits above them is stale.
    nbits: u32,
    acc: u64,
}

impl BitWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the low `n` bits of `v` (MSB of those bits first). `n <= 32`.
    pub fn put(&mut self, v: u32, n: u32) {
        assert!(n <= 32);
        // At most 7 + 32 live bits: the shift loses only stale ones.
        self.acc = self.acc << n | (v as u64 & ((1 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            self.nbits -= 8;
            self.buf.push((self.acc >> self.nbits) as u8);
        }
    }

    /// Flush (zero-padding the final byte) and return the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.buf.push((self.acc << (8 - self.nbits)) as u8);
        }
        self.buf
    }
}

/// Read bits from a byte slice, MSB-first.
#[derive(Debug)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    /// Read `n` bits (`n <= 32`); `None` if the stream is exhausted.
    pub fn get(&mut self, n: u32) -> Option<u32> {
        assert!(n <= 32);
        if self.pos + n as usize > self.buf.len() * 8 {
            return None;
        }
        let mut v = 0u32;
        for _ in 0..n {
            let byte = self.buf[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u32;
            self.pos += 1;
        }
        Some(v)
    }

    /// Read one bit.
    pub(crate) fn get_bit(&mut self) -> Option<u32> {
        self.get(1)
    }

    /// Bits remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0xDEAD, 16);
        w.put(1, 1);
        w.put(0x3FF, 10);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3), Some(0b101));
        assert_eq!(r.get(16), Some(0xDEAD));
        assert_eq!(r.get(1), Some(1));
        assert_eq!(r.get(10), Some(0x3FF));
    }

    #[test]
    fn put_matches_bit_at_a_time() {
        // Every width at every byte phase, with bits set above the `n`
        // that `put` must ignore.
        let mut w = BitWriter::new();
        let mut bits = Vec::new();
        let mut v = 0x9E37_79B9u32;
        for round in 0..8 {
            for n in 0..=32u32 {
                v = v.wrapping_mul(1_664_525).wrapping_add(1_013_904_223 + round);
                w.put(v, n);
                bits.extend((0..n).rev().map(|i| (v >> i) & 1));
                assert_eq!(bits_written(&w), bits.len());
            }
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), bits.len().div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &bit in &bits {
            assert_eq!(r.get_bit(), Some(bit));
        }
        while let Some(pad) = r.get_bit() {
            assert_eq!(pad, 0);
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut w = BitWriter::new();
        w.put(0xF, 4);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(8), Some(0xF0)); // includes padding
        assert_eq!(r.get(1), None);
    }

    /// Whole bits written so far: the flushed bytes plus the pending bits.
    fn bits_written(w: &BitWriter) -> usize {
        w.buf.len() * 8 + w.nbits as usize
    }

    #[test]
    fn bit_len_counts() {
        let mut w = BitWriter::new();
        assert_eq!(bits_written(&w), 0);
        w.put(0, 5);
        assert_eq!(bits_written(&w), 5);
        w.put(0, 5);
        assert_eq!(bits_written(&w), 10);
    }

    #[test]
    fn remaining_decreases() {
        let data = [0xAB, 0xCD];
        let mut r = BitReader::new(&data);
        assert_eq!(r.remaining(), 16);
        r.get(5);
        assert_eq!(r.remaining(), 11);
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        for b in [1, 0, 1, 1, 0, 0, 1, 0, 1] {
            w.put(b, 1);
        }
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        let got: Vec<u32> = (0..9).map(|_| r.get_bit().unwrap()).collect();
        assert_eq!(got, vec![1, 0, 1, 1, 0, 0, 1, 0, 1]);
    }
}
