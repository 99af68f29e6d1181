//! The harness's own SplitMix64 stream and FNV-1a hash.
//!
//! Deliberately not imported from the program under test: the copies in
//! `visapp::load` and the per-report digests are due to move (ROADMAP
//! item 2), and the benchmark's inputs and digests must not move with
//! them.

#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// FNV-1a over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn mix_f64(&mut self, v: f64) {
        self.mix(v.to_bits());
    }

    pub fn mix_str(&mut self, s: &str) {
        for b in s.bytes() {
            self.mix(b as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_and_hashes_are_pinned() {
        // Reference values of splitmix64(seed 0) and FNV-1a 64.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        let mut same = SplitMix64::new(7);
        let mut again = SplitMix64::new(7);
        assert_eq!(same.range(10, 20), again.range(10, 20));
        assert!((0.0..1.0).contains(&same.next_f64()));
        let mut h = Fnv::new();
        h.mix_str("a");
        // FNV-1a of the 8 little-endian bytes 0x61,0,0,0,0,0,0,0.
        let mut want = 0xcbf2_9ce4_8422_2325u64;
        for b in [0x61u8, 0, 0, 0, 0, 0, 0, 0] {
            want = (want ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(h.finish(), want);
    }
}
