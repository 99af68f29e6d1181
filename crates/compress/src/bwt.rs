//! Burrows–Wheeler transform, forward and inverse.
//!
//! Forward: the `n` cyclic rotations are sorted directly by prefix
//! doubling (no doubled copy, no sentinel). A radix sort orders them by
//! their first four bytes; each later round `h = 4, 8, ..` re-sorts only
//! the groups of rotations still equal in their first `h` bytes, by the
//! group of the rotation `h` places on, and the sort stops once no group
//! has two members: one or two rounds on noisy data, `log2 n` rounds of
//! comparison sorts (`O(n log^2 n)`) only when most of the block repeats.
//! The output is the last column plus the primary index (the row holding
//! the original string). Inverse: the standard LF-mapping reconstruction.

use crate::CodecError;

/// Bits per digit of the opening radix sort: three digits cover the
/// 32-bit key.
const DIGIT_BITS: u32 = 11;

/// `sorted` holds `key << 32 | start` for the rotations that belong at
/// `order[lo..]`, in key order. Place them, number each run of equal keys
/// by the position it begins at, and list the runs of two or more in
/// `open` as `lo..hi` ranges of `order`.
fn place(
    sorted: &[u64],
    lo: usize,
    order: &mut [u32],
    group: &mut [u32],
    open: &mut Vec<(usize, usize)>,
) {
    let mut run = lo;
    for (pos, &item) in (lo..).zip(sorted) {
        if item >> 32 != sorted[run - lo] >> 32 {
            if pos - run > 1 {
                open.push((run, pos));
            }
            run = pos;
        }
        order[pos] = item as u32;
        group[item as u32 as usize] = run as u32;
    }
    let hi = lo + sorted.len();
    if hi - run > 1 {
        open.push((run, hi));
    }
}

/// Sort the cyclic rotations of `data` (at least one byte, fewer than
/// 2^32). Returns `(order, group)`: the rotation starts in sorted order,
/// and for each start the position in `order` of the first rotation equal
/// to it. Rotations are equal only when the block is periodic; they sit
/// together in `order`, in no particular order among themselves.
fn sort_rotations(data: &[u8]) -> (Vec<u32>, Vec<u32>) {
    let n = data.len();

    // Round 0: radix-sort `first four bytes << 32 | start`, least
    // significant digit of the bytes first. The key of rotation i is that
    // of rotation i + 1 shifted down a byte, with data[i] on top.
    let mut key = (0..4).fold(0u32, |key, k| key << 8 | data[k % n] as u32);
    let mut items = vec![0u64; n];
    for i in (0..n).rev() {
        key = (data[i] as u32) << 24 | key >> 8;
        items[i] = (key as u64) << 32 | i as u64;
    }
    let mut spare = vec![0u64; n];
    for shift in (32..64).step_by(DIGIT_BITS as usize) {
        let digit = |item: u64| (item >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        let mut next = [0u32; 1 << DIGIT_BITS];
        for &item in &items {
            next[digit(item)] += 1;
        }
        let mut acc = 0u32;
        for slot in &mut next {
            acc += std::mem::replace(slot, acc);
        }
        for &item in &items {
            let slot = &mut next[digit(item)];
            spare[*slot as usize] = item;
            *slot += 1;
        }
        std::mem::swap(&mut items, &mut spare);
    }
    drop(spare);

    // `group[s]` numbers a group by where it begins in `order`, so a group
    // that splits renumbers nobody outside itself.
    let mut order = vec![0u32; n];
    let mut group = vec![0u32; n];
    let mut open = Vec::new();
    place(&items, 0, &mut order, &mut group, &mut open);

    // Round h: the members of an open group agree on h bytes, so the group
    // of the rotation h places on orders them by the next h. A group number
    // always agrees with the true order, so reading one that an earlier
    // group of the same round has already refined is harmless; a group's
    // own keys are all read before any of its numbers is rewritten.
    let mut keyed = items;
    let mut still_open = Vec::new();
    let mut h = 4;
    while !open.is_empty() && h < n {
        for &(lo, hi) in &open {
            keyed.clear();
            keyed.extend(order[lo..hi].iter().map(|&s| {
                let i = s as usize + h;
                (group[if i >= n { i - n } else { i }] as u64) << 32 | s as u64
            }));
            keyed.sort_unstable();
            place(&keyed, lo, &mut order, &mut group, &mut still_open);
        }
        std::mem::swap(&mut open, &mut still_open);
        still_open.clear();
        h *= 2;
    }
    (order, group)
}

/// Forward BWT: returns `(last_column, primary_index)`.
pub fn forward(data: &[u8]) -> (Vec<u8>, usize) {
    let n = data.len();
    if n == 0 {
        return (Vec::new(), 0);
    }
    assert!(u32::try_from(n).is_ok(), "BWT block of {n} bytes exceeds 32-bit indices");
    let (order, group) = sort_rotations(data);
    let last = order.iter().map(|&start| data[(start as usize + n - 1) % n]).collect();
    // Equal rotations share a last byte, so only the primary index sees
    // their order. The stream format was fixed by a sorter that emitted
    // them in descending start order, which puts rotation 0 last in its
    // group.
    let primary = order
        .iter()
        .rposition(|&start| group[start as usize] == group[0])
        .expect("rotation 0 is in its own group");
    (last, primary)
}

/// Inverse BWT.
pub fn inverse(last: &[u8], primary: usize) -> Result<Vec<u8>, CodecError> {
    let n = last.len();
    if n == 0 {
        return Ok(Vec::new());
    }
    if primary >= n {
        return Err(CodecError::corrupt("BWT primary index out of range"));
    }
    // starts[c] = first row whose first column is byte c.
    let mut count = [0usize; 256];
    for &b in last {
        count[b as usize] += 1;
    }
    let mut starts = [0usize; 256];
    let mut acc = 0usize;
    for c in 0..256 {
        starts[c] = acc;
        acc += count[c];
    }
    // LF mapping: row i -> row of the rotation one step earlier.
    let mut lf = vec![0u32; n];
    let mut seen = [0usize; 256];
    for (i, &b) in last.iter().enumerate() {
        let c = b as usize;
        lf[i] = (starts[c] + seen[c]) as u32;
        seen[c] += 1;
    }
    let mut out = vec![0u8; n];
    let mut row = primary;
    for k in (0..n).rev() {
        out[k] = last[row];
        row = lf[row] as usize;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::det::SplitMix64;

    fn roundtrip(data: &[u8]) {
        let (last, primary) = forward(data);
        assert_eq!(last.len(), data.len());
        let back = inverse(&last, primary).unwrap();
        assert_eq!(back, data, "roundtrip failed for {:?}", data);
    }

    #[test]
    fn known_example() {
        // The canonical "banana" example: rotations sorted, last column.
        let (last, primary) = forward(b"banana");
        let back = inverse(&last, primary).unwrap();
        assert_eq!(back, b"banana");
        // BWT of banana groups like characters.
        assert_eq!(last.iter().filter(|&&b| b == b'n').count(), 2);
    }

    #[test]
    fn edge_cases() {
        roundtrip(b"");
        roundtrip(b"x");
        roundtrip(b"xy");
        roundtrip(b"yx");
    }

    #[test]
    fn periodic_inputs() {
        // Equal rotations exercise tie-breaking.
        roundtrip(b"aaaaaaaa");
        roundtrip(b"abababab");
        roundtrip(b"abcabcabcabc");
    }

    #[test]
    fn random_roundtrip() {
        let mut rng = SplitMix64::new(8);
        for len in [3usize, 17, 256, 4096, 40_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn low_entropy_roundtrip() {
        let mut rng = SplitMix64::new(9);
        let data: Vec<u8> = (0..20_000).map(|_| b'a' + rng.below(4) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn bwt_groups_similar_context() {
        // On English-like text, the BWT output has longer same-byte runs
        // than the input — the property MTF+RLE exploits.
        let data = b"the quick brown fox jumps over the lazy dog ".repeat(50);
        let (last, _) = forward(&data);
        let runs = |s: &[u8]| s.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(runs(&last) > runs(&data) * 2, "{} vs {}", runs(&last), runs(&data));
    }

    #[test]
    fn bad_primary_rejected() {
        assert!(inverse(b"abc", 5).is_err());
    }
}
