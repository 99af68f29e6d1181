//! The workspace's deterministic primitives: one seeded stream and one
//! digest. Every seeded draw in the workspace goes through
//! [`SplitMix64`] — the kernel's loss and jitter maps and explore mode,
//! retry jitter, the synthetic image generators, the load generator, the
//! arbiter storm, the simulation-test explorer — and every committed
//! digest through [`Fnv64`]. They live here, at the bottom of the
//! dependency graph, so that crates with no business depending on the
//! simulator (`wavelet`) share the one path.
//!
//! Both are self-contained on purpose (no external RNG crate, no
//! `std::hash`): every pinned digest (the load, arbiter and explorer rows
//! of `crates/bench/tests/digest_contract.rs`, the DST repros, the
//! `wire_bytes` hashes) is a function of these exact bit streams, and an
//! external crate's stream or hasher is free to change between versions.

/// splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo` when `hi <= lo`, without
    /// drawing. The modulo bias is irrelevant at the ranges in use
    /// (~2^16 out of 2^64).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }

    /// Uniform in `[0, n)`; `0` when `n == 0`, without drawing.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// FNV-1a 64 hasher. Digests feed integers through [`Fnv64::write_u64`]
/// (little-endian, so they are platform-stable) and deliberately exclude
/// floats and wall-clock values.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The string's bytes followed by its length, so `"ab", "c"` and
    /// `"a", "bc"` digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_known_answers() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_str("ab");
        c.write_str("c");
        let mut d = Fnv64::new();
        d.write_str("a");
        d.write_str("bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn splitmix_known_answer() {
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn degenerate_ranges_return_the_floor_without_drawing() {
        let mut r = SplitMix64::new(7);
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(9, 3), 9);
        assert_eq!(r.below(0), 0);
        assert_eq!(r.next_u64(), SplitMix64::new(7).next_u64());
    }
}
