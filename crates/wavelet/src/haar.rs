//! Integer Haar wavelet transform (the S-transform), 1-D and 2-D.
//!
//! The S-transform is the integer-to-integer variant of the Haar wavelet:
//! for a pair `(a, b)` it produces detail `h = a - b` and approximation
//! `l = b + (h >> 1)` (floor of the mean). It is exactly invertible over
//! integers, so the multiresolution pyramid is lossless — matching the
//! paper's wavelet image store, which must reproduce the original image at
//! the highest resolution.
//!
//! The 2-D transform is the standard Mallat construction: one level
//! transforms rows then columns of the current approximation block,
//! splitting it into LL (approximation), LH, HL, HH (detail) quadrants
//! stored in place.

/// Forward S-transform of a pair: returns `(low, high)`.
#[inline]
pub fn fwd_pair(a: i32, b: i32) -> (i32, i32) {
    let h = a - b;
    let l = b + (h >> 1);
    (l, h)
}

/// Inverse S-transform: recovers `(a, b)` from `(low, high)`.
#[inline]
pub fn inv_pair(l: i32, h: i32) -> (i32, i32) {
    let b = l - (h >> 1);
    let a = h + b;
    (a, b)
}

/// One forward level over `row[0..n]` (`n` even): approximations land in
/// `row[0..n/2]`, details in `row[n/2..n]`.
pub(crate) fn fwd_1d(row: &mut [i32], n: usize, scratch: &mut Vec<i32>) {
    debug_assert!(n.is_multiple_of(2) && n <= row.len());
    scratch.clear();
    scratch.resize(n, 0);
    let half = n / 2;
    for i in 0..half {
        let (l, h) = fwd_pair(row[2 * i], row[2 * i + 1]);
        scratch[i] = l;
        scratch[half + i] = h;
    }
    row[..n].copy_from_slice(&scratch[..n]);
}

/// Inverse of [`fwd_1d`].
pub(crate) fn inv_1d(row: &mut [i32], n: usize, scratch: &mut Vec<i32>) {
    debug_assert!(n.is_multiple_of(2) && n <= row.len());
    scratch.clear();
    scratch.resize(n, 0);
    let half = n / 2;
    for i in 0..half {
        let (a, b) = inv_pair(row[i], row[half + i]);
        scratch[2 * i] = a;
        scratch[2 * i + 1] = b;
    }
    row[..n].copy_from_slice(&scratch[..n]);
}

/// One forward 2-D level on the `bw x bh` top-left block of a `stride`-wide
/// matrix: rows then columns. After this, the block's quadrants are
/// LL (top-left), HL (top-right), LH (bottom-left), HH (bottom-right).
pub(crate) fn fwd_2d_level(data: &mut [i32], stride: usize, bw: usize, bh: usize) {
    debug_assert!(bw.is_multiple_of(2) && bh.is_multiple_of(2));
    let mut scratch = Vec::with_capacity(bw.max(bh));
    // Rows.
    for y in 0..bh {
        fwd_1d(&mut data[y * stride..y * stride + bw], bw, &mut scratch);
    }
    // Columns.
    let mut col = vec![0i32; bh];
    for x in 0..bw {
        for (y, c) in col.iter_mut().enumerate() {
            *c = data[y * stride + x];
        }
        fwd_1d(&mut col, bh, &mut scratch);
        for (y, c) in col.iter().enumerate() {
            data[y * stride + x] = *c;
        }
    }
}

/// Inverse of [`fwd_2d_level`].
pub(crate) fn inv_2d_level(data: &mut [i32], stride: usize, bw: usize, bh: usize) {
    debug_assert!(bw.is_multiple_of(2) && bh.is_multiple_of(2));
    let mut scratch = Vec::with_capacity(bw.max(bh));
    // Columns first (reverse order of forward).
    let mut col = vec![0i32; bh];
    for x in 0..bw {
        for (y, c) in col.iter_mut().enumerate() {
            *c = data[y * stride + x];
        }
        inv_1d(&mut col, bh, &mut scratch);
        for (y, c) in col.iter().enumerate() {
            data[y * stride + x] = *c;
        }
    }
    // Rows.
    for y in 0..bh {
        inv_1d(&mut data[y * stride..y * stride + bw], bw, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::det::SplitMix64;

    #[test]
    fn pair_roundtrip_exhaustive_small() {
        for a in -64..64 {
            for b in -64..64 {
                let (l, h) = fwd_pair(a, b);
                assert_eq!(inv_pair(l, h), (a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn pair_roundtrip_extremes() {
        for &(a, b) in
            &[(255, 0), (0, 255), (255, 255), (-1000, 1000), (i32::MIN / 4, i32::MAX / 4)]
        {
            let (l, h) = fwd_pair(a, b);
            assert_eq!(inv_pair(l, h), (a, b));
        }
    }

    #[test]
    fn one_d_roundtrip() {
        let mut rng = SplitMix64::new(1);
        let orig: Vec<i32> = (0..64).map(|_| rng.below(1024) as i32 - 512).collect();
        let mut row = orig.clone();
        let mut scratch = Vec::new();
        fwd_1d(&mut row, 64, &mut scratch);
        assert_ne!(row, orig);
        inv_1d(&mut row, 64, &mut scratch);
        assert_eq!(row, orig);
    }

    #[test]
    fn one_d_constant_signal_has_zero_details() {
        let mut row = vec![7i32; 16];
        let mut scratch = Vec::new();
        fwd_1d(&mut row, 16, &mut scratch);
        assert!(row[8..].iter().all(|&h| h == 0));
        assert!(row[..8].iter().all(|&l| l == 7));
    }

    #[test]
    fn two_d_roundtrip() {
        let mut rng = SplitMix64::new(2);
        let (w, h) = (16, 8);
        let orig: Vec<i32> = (0..w * h).map(|_| rng.below(256) as i32).collect();
        let mut data = orig.clone();
        fwd_2d_level(&mut data, w, w, h);
        assert_ne!(data, orig);
        inv_2d_level(&mut data, w, w, h);
        assert_eq!(data, orig);
    }

    #[test]
    fn two_d_partial_block_with_stride() {
        // Transform only the top-left 4x4 of an 8x8 matrix; the rest must
        // be untouched.
        let mut data: Vec<i32> = (0..64).collect();
        let orig = data.clone();
        fwd_2d_level(&mut data, 8, 4, 4);
        for y in 0..8 {
            for x in 0..8 {
                if x >= 4 || y >= 4 {
                    assert_eq!(data[y * 8 + x], orig[y * 8 + x], "({x},{y}) modified");
                }
            }
        }
        inv_2d_level(&mut data, 8, 4, 4);
        assert_eq!(data, orig);
    }

    #[test]
    fn ll_quadrant_approximates_mean() {
        // A flat 4x4 block of value 100: LL should be all 100s, details 0.
        let mut data = vec![100i32; 16];
        fwd_2d_level(&mut data, 4, 4, 4);
        for y in 0..2 {
            for x in 0..2 {
                assert_eq!(data[y * 4 + x], 100);
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                if x >= 2 || y >= 2 {
                    assert_eq!(data[y * 4 + x], 0);
                }
            }
        }
    }
}
