//! Byte identity of `bwt::forward` against the sorter it replaced.
//!
//! The `RBZ1` stream was defined by a rotation sort that took the suffix
//! array of the *doubled* block; that sorter lives on here as the oracle.
//! Its order fixes more than the last column: on a periodic block the
//! identical rotations come out in descending start order (suffix `i + p`
//! of the doubled block is a proper prefix of suffix `i`), which decides
//! the primary index the stream stores.
//!
//! The 100 000-byte cases run the oracle's ~18 comparison sorts of 200 000
//! keys; CI runs this file with `--release`.

use proptest::prelude::*;

use compress::{bwt, bzip};

/// Prefix-doubling suffix array over `s`, one comparison sort per round.
fn suffix_array(s: &[u8]) -> Vec<u32> {
    let n = s.len();
    if n == 0 {
        return Vec::new();
    }
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<i64> = s.iter().map(|&b| b as i64).collect();
    let mut tmp = vec![0i64; n];
    let mut k = 1usize;
    loop {
        let key = |i: u32| -> (i64, i64) {
            let i = i as usize;
            let second = if i + k < n { rank[i + k] } else { -1 };
            (rank[i], second)
        };
        sa.sort_unstable_by_key(|&i| key(i));
        tmp[sa[0] as usize] = 0;
        for w in 1..n {
            let prev = sa[w - 1];
            let cur = sa[w];
            tmp[cur as usize] = tmp[prev as usize] + i64::from(key(prev) != key(cur));
        }
        rank.copy_from_slice(&tmp);
        if rank[sa[n - 1] as usize] as usize == n - 1 {
            break;
        }
        k *= 2;
        if k >= n {
            // All ranks distinct at the next doubling by construction.
            sa.sort_unstable_by_key(|&i| rank[i as usize]);
            break;
        }
    }
    sa
}

/// The forward BWT as first shipped: rotation order = order of the
/// suffixes of `data + data` that start in `[0, n)`.
fn reference_forward(data: &[u8]) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    if n == 1 {
        return (data.to_vec(), 0);
    }
    let doubled = [data, data].concat();
    let mut last = Vec::with_capacity(n);
    let mut primary = 0usize;
    for start in suffix_array(&doubled).into_iter().map(|i| i as usize).filter(|&i| i < n) {
        if start == 0 {
            primary = last.len();
        }
        last.push(data[(start + n - 1) % n]);
    }
    (last, primary)
}

fn assert_identical(data: &[u8]) {
    let (got, want) = (bwt::forward(data), reference_forward(data));
    // Compare the primary first: a 100 kB last column makes a poor message.
    assert_eq!(got.1, want.1, "primary index differs on {} bytes", data.len());
    assert!(got.0 == want.0, "last column differs on {} bytes", data.len());
}

/// Deterministic noise over an alphabet of `symbols`, with a run now and
/// then so that some rotations share long prefixes.
fn noisy(len: usize, symbols: u32, seed: u64) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let byte = ((state >> 33) as u32 % symbols) as u8;
        let run = if (state >> 20) & 0x3f == 0 { 40 } else { 1 };
        out.extend(std::iter::repeat_n(byte, run.min(len - out.len())));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn suffix_array_is_sorted_permutation(data in proptest::collection::vec(any::<u8>(), 1..512)) {
        let sa = suffix_array(&data);
        prop_assert_eq!(sa.len(), data.len());
        let mut seen = vec![false; data.len()];
        for &i in &sa {
            prop_assert!(!seen[i as usize]);
            seen[i as usize] = true;
        }
        for w in sa.windows(2) {
            prop_assert!(data[w[0] as usize..] <= data[w[1] as usize..]);
        }
    }

    #[test]
    fn identical_on_random_bytes(data in proptest::collection::vec(any::<u8>(), 0..3000)) {
        prop_assert_eq!(bwt::forward(&data), reference_forward(&data));
    }

    #[test]
    fn identical_on_small_alphabets(
        symbols in prop_oneof![Just(2u8), Just(3u8), Just(4u8), Just(16u8)],
        raw in proptest::collection::vec(any::<u8>(), 0..3000),
    ) {
        let data: Vec<u8> = raw.iter().map(|b| b % symbols).collect();
        prop_assert_eq!(bwt::forward(&data), reference_forward(&data));
    }

    #[test]
    fn identical_on_periodic_inputs(
        unit in proptest::collection::vec(0u8..3, 1..=20),
        repeats in 1usize..=30,
    ) {
        // A unit drawn from three symbols is often periodic itself, and a
        // one-byte unit is the all-equal block.
        let data = unit.repeat(repeats);
        prop_assert_eq!(bwt::forward(&data), reference_forward(&data));
    }
}

#[test]
fn identical_on_every_tiny_ternary_string() {
    for len in 0..=7u32 {
        for code in 0..3u32.pow(len) {
            let data: Vec<u8> = (0..len).map(|i| (code / 3u32.pow(i) % 3) as u8).collect();
            assert_identical(&data);
        }
    }
}

#[test]
fn identical_on_a_full_block_and_one_byte_more() {
    assert_identical(&noisy(bzip::DEFAULT_BLOCK, 256, 1));
    assert_identical(&noisy(bzip::DEFAULT_BLOCK + 1, 16, 2));
}

#[test]
fn identical_on_long_periodic_blocks() {
    // Identical rotations in bulk: the tie order sets the primary index.
    assert_identical(&noisy(20_000, 4, 3).repeat(5));
    assert_identical(&vec![9u8; 30_000]);
    assert_identical(&b"ab".repeat(15_000));
}
