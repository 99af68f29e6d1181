//! Move-to-front coding: turns the BWT's locally-clustered output into a
//! stream dominated by small values (especially zero).

/// MTF-encode `data` (returns a new buffer).
pub fn encode(data: &[u8]) -> Vec<u8> {
    // `rank[b]` is where byte `b` sits in the move-to-front list. Moving
    // `b` to the front pushes every byte ahead of it one place back: a
    // branch-free sweep over 256 lanes, the same cost wherever `b` was.
    let mut rank: [u8; 256] = std::array::from_fn(|b| b as u8);
    data.iter()
        .map(|&b| {
            let pos = rank[b as usize];
            for r in &mut rank {
                *r += u8::from(*r < pos);
            }
            rank[b as usize] = 0;
            pos
        })
        .collect()
}

/// Inverse of [`encode`].
pub fn decode(data: &[u8]) -> Vec<u8> {
    let mut table: Vec<u8> = (0..=255).collect();
    let mut out = Vec::with_capacity(data.len());
    for &p in data {
        let pos = p as usize;
        let b = table[pos];
        out.push(b);
        table.copy_within(0..pos, 1);
        table[0] = b;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_random() {
        let mut rng = StdRng::seed_from_u64(4);
        for len in [0usize, 1, 100, 10_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(decode(&encode(&data)), data);
        }
    }

    #[test]
    fn runs_become_zeros() {
        let data = b"aaaabbbbcccc";
        let enc = encode(data);
        // After the first occurrence of each byte, repeats encode as 0.
        assert_eq!(enc.iter().filter(|&&v| v == 0).count(), 9);
    }

    #[test]
    fn first_occurrence_is_table_index() {
        let enc = encode(&[0u8, 1, 2]);
        assert_eq!(enc, vec![0, 1, 2]);
        let enc = encode(&[255u8]);
        assert_eq!(enc, vec![255]);
    }

    #[test]
    fn clustered_data_skews_small() {
        let mut rng = StdRng::seed_from_u64(6);
        // Clustered: long runs of few symbols (BWT-like).
        let mut data = Vec::new();
        for _ in 0..200 {
            let b: u8 = rng.gen_range(b'a'..b'f');
            data.extend(std::iter::repeat_n(b, rng.gen_range(5..20)));
        }
        let enc = encode(&data);
        let small = enc.iter().filter(|&&v| v < 8).count();
        assert!(small as f64 > 0.9 * enc.len() as f64);
    }
}
