//! Grayscale images and deterministic synthetic image generators.
//!
//! The paper's active-visualization server stores "large images" as wavelet
//! coefficients. We have no proprietary image corpus, so these generators
//! produce deterministic synthetic images with controllable size and
//! spatial-frequency content (which controls compressibility). All
//! generators are seeded, so every experiment is reproducible.

use obs::det::SplitMix64;

/// An 8-bit grayscale image, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    pub width: usize,
    pub height: usize,
    pub data: Vec<u8>,
}

impl Image {
    /// A black image.
    pub fn blank(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image { width, height, data: vec![0; width * height] }
    }

    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> u8) -> Self {
        let mut img = Image::blank(width, height);
        for y in 0..height {
            for x in 0..width {
                img.data[y * width + x] = f(x, y);
            }
        }
        img
    }

    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }
}

/// Multi-octave value noise ("plasma"): smooth large-scale structure with
/// fine detail, a reasonable stand-in for photographic content.
///
/// The five octave grids are drawn first, in stream order, with each
/// column's grid cell and blend weight per octave; then each output row
/// sums its octaves in a `width`-long buffer. A row's cell and weight
/// depend only on `y` and the octave, so the pixel loop reads two grid
/// rows as slices. Every pixel still evaluates the same expressions and
/// adds its octaves in the same order (Rust does not contract them into
/// FMA), so the image is bit-identical to the per-pixel loop kept as the
/// oracle in `tests/plasma_reference.rs`.
pub fn plasma(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = SplitMix64::new(seed);
    // Grid cell and smoothstep weight (C1 continuity) of `i` of `n`.
    let cell = |i: usize, n: usize, cells: usize| {
        let f = i as f64 / n as f64 * cells as f64;
        let c = f as usize;
        let t = f - c as f64;
        (c, t * t * (3.0 - 2.0 * t))
    };
    let mut amplitude = 1.0f64;
    let mut total_amp = 0.0f64;
    // Per octave: cells per side, grid, column cells and weights, amplitude.
    let mut octaves = Vec::with_capacity(5);
    for o in 0..5 {
        let cells = 1usize << (o + 2); // 4, 8, 16, ...
        let (gw, gh) = (cells + 2, cells + 2);
        let grid: Vec<f64> = (0..gw * gh).map(|_| rng.next_f64()).collect();
        let cols: Vec<(usize, f64)> = (0..width).map(|x| cell(x, width, cells)).collect();
        octaves.push((cells, grid, cols, amplitude));
        total_amp += amplitude;
        amplitude *= 0.5;
    }
    let mut img = Image::blank(width, height);
    let mut acc = vec![0.0f64; width];
    for (y, out) in img.data.chunks_exact_mut(width).enumerate() {
        acc.fill(0.0);
        for (cells, grid, cols, amplitude) in &octaves {
            let gw = cells + 2;
            let (iy, sy) = cell(y, height, *cells);
            let (g0, g1) = (&grid[iy * gw..][..gw], &grid[(iy + 1) * gw..][..gw]);
            for (a, &(ix, sx)) in acc.iter_mut().zip(cols) {
                let v0 = g0[ix] * (1.0 - sx) + g0[ix + 1] * sx;
                let v1 = g1[ix] * (1.0 - sx) + g1[ix + 1] * sx;
                *a += amplitude * (v0 * (1.0 - sy) + v1 * sy);
            }
        }
        for (dst, &v) in out.iter_mut().zip(&acc) {
            *dst = ((v / total_amp) * 255.0).clamp(0.0, 255.0) as u8;
        }
    }
    img
}

/// Plasma plus uniform sensor noise of amplitude `amp` — a stand-in for
/// photographic content. Pure plasma is unrealistically smooth (dictionary
/// coders do anomalously well on it); a few counts of noise restores the
/// entropy balance real images have.
pub fn photo(width: usize, height: usize, seed: u64, amp: i32) -> Image {
    let base = plasma(width, height, seed);
    if amp <= 0 {
        return base;
    }
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    // `rng.range(0, 2 * amp)` is a draw modulo `2 * amp + 1`.
    let span = Modulus::new(2 * amp as u64 + 1);
    let mut img = base;
    for v in img.data.iter_mut() {
        // Uniform in `[-amp, amp]`.
        let n = span.rem(rng.next_u64()) as i32 - amp;
        *v = (*v as i32 + n).clamp(0, 255) as u8;
    }
    img
}

/// `x % d` for a divisor fixed ahead of a loop, by a precomputed
/// reciprocal instead of a 64-bit division per call.
///
/// With `m = (2^64 - 1) / d`, `2^64 - d <= m * d < 2^64`, so the
/// estimate `q = x * m / 2^64` (high half of the 128-bit product) is
/// `x / d` or one less, and one conditional subtraction leaves the exact
/// remainder for every `x` and every `d >= 1`.
#[derive(Debug, Clone, Copy)]
struct Modulus {
    d: u64,
    m: u64,
}

impl Modulus {
    fn new(d: u64) -> Modulus {
        assert!(d > 0, "modulus of zero");
        Modulus { d, m: u64::MAX / d }
    }

    #[inline]
    fn rem(self, x: u64) -> u64 {
        let q = ((x as u128 * self.m as u128) >> 64) as u64;
        let r = x - q * self.d;
        if r >= self.d {
            r - self.d
        } else {
            r
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A checkerboard with `cell` pixel squares (sharp edges, moderate entropy).
    pub(crate) fn checkerboard(width: usize, height: usize, cell: usize) -> Image {
        let cell = cell.max(1);
        Image::from_fn(width, height, |x, y| {
            if ((x / cell) + (y / cell)).is_multiple_of(2) {
                230
            } else {
                25
            }
        })
    }

    /// Uniform random noise (incompressible; worst case for the codecs).
    pub(crate) fn noise(width: usize, height: usize, seed: u64) -> Image {
        let mut rng = SplitMix64::new(seed);
        let mut img = Image::blank(width, height);
        for b in img.data.iter_mut() {
            *b = rng.next_u64() as u8;
        }
        img
    }

    /// A horizontal gradient (very compressible).
    pub(crate) fn gradient(width: usize, height: usize) -> Image {
        Image::from_fn(width, height, |x, _| ((x * 255) / width.max(1)) as u8)
    }

    /// Mean squared error between two images of identical dimensions.
    fn mse(a: &Image, b: &Image) -> f64 {
        assert_eq!((a.width, a.height), (b.width, b.height), "MSE requires identical dimensions");
        let sum: f64 = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| {
                let d = x as f64 - y as f64;
                d * d
            })
            .sum();
        sum / a.data.len() as f64
    }

    /// Peak signal-to-noise ratio in dB; `f64::INFINITY` for identical images.
    pub(crate) fn psnr(a: &Image, b: &Image) -> f64 {
        let mse = mse(a, b);
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }

    /// Downsample by a 2x box filter: the reference a coarse level is held to.
    pub(crate) fn downsample2(img: &Image) -> Image {
        let w = (img.width / 2).max(1);
        let h = (img.height / 2).max(1);
        Image::from_fn(w, h, |x, y| {
            let (x2, y2) = (x * 2, y * 2);
            let mut sum = 0u32;
            let mut n = 0u32;
            for dy in 0..2 {
                for dx in 0..2 {
                    let (xx, yy) = (x2 + dx, y2 + dy);
                    if xx < img.width && yy < img.height {
                        sum += img.get(xx, yy) as u32;
                        n += 1;
                    }
                }
            }
            (sum / n.max(1)) as u8
        })
    }

    #[test]
    fn from_fn_and_get_set() {
        let mut img = Image::from_fn(4, 2, |x, y| (x + 10 * y) as u8);
        assert_eq!(img.get(3, 1), 13);
        img.set(0, 0, 99);
        assert_eq!(img.get(0, 0), 99);
        assert_eq!(img.data.len(), 8);
    }

    #[test]
    fn mse_and_psnr() {
        let a = gradient(16, 16);
        let b = a.clone();
        assert_eq!(mse(&a, &b), 0.0);
        assert_eq!(psnr(&a, &b), f64::INFINITY);
        let c = Image::blank(16, 16);
        assert!(mse(&a, &c) > 0.0);
        assert!(psnr(&a, &c).is_finite());
    }

    #[test]
    #[should_panic(expected = "identical dimensions")]
    fn mse_dimension_mismatch_panics() {
        let _ = mse(&gradient(8, 8), &gradient(4, 4));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(plasma(32, 32, 7), plasma(32, 32, 7));
        assert_eq!(noise(32, 32, 7), noise(32, 32, 7));
        assert_ne!(plasma(32, 32, 7), plasma(32, 32, 8));
    }

    /// Known answers: every store, payload and `wire_bytes` hash starts
    /// from these generators, so a change to the stream or to how a draw
    /// maps onto it must show up here first.
    #[test]
    fn generators_are_pinned() {
        let fnv = |img: Image| {
            let mut h = obs::det::Fnv64::new();
            h.write(&img.data);
            h.finish()
        };
        assert_eq!(fnv(noise(64, 64, 5)), 0x421e_5334_d752_091d);
        assert_eq!(fnv(plasma(64, 64, 1)), 0xbbb6_f785_3f77_7850);
    }

    #[test]
    fn modulus_matches_the_remainder_operator() {
        // Every divisor `photo` uses up to amplitude 2 048 (and every
        // divisor below it), plus the extremes, each against the
        // numerators where an estimate could be off by one — around
        // multiples of `d` at both ends of the range — and a seeded
        // stream.
        let mut rng = SplitMix64::new(0x5eed);
        let divisors =
            (1..=4097u64).chain([1 << 32, (1 << 32) + 1, u64::MAX / 3, u64::MAX - 1, u64::MAX]);
        for d in divisors {
            let m = Modulus::new(d);
            let top = u64::MAX - u64::MAX % d;
            let edges =
                [0, 1, d - 1, d, d.wrapping_add(1), top.wrapping_sub(1), top, u64::MAX, 1 << 63];
            for x in edges.into_iter().chain((0..256).map(|_| rng.next_u64())) {
                assert_eq!(m.rem(x), x % d, "{x} % {d}");
            }
        }
    }

    #[test]
    fn checkerboard_alternates() {
        let img = checkerboard(8, 8, 2);
        assert_eq!(img.get(0, 0), 230);
        assert_eq!(img.get(2, 0), 25);
        assert_eq!(img.get(2, 2), 230);
    }

    #[test]
    fn plasma_has_mid_range_values() {
        let img = plasma(64, 64, 42);
        let mean: f64 = img.data.iter().map(|&v| v as f64).sum::<f64>() / img.data.len() as f64;
        assert!(mean > 60.0 && mean < 200.0, "plasma mean {mean}");
        // Not constant.
        assert!(img.data.iter().any(|&v| v != img.data[0]));
    }

    #[test]
    fn photo_adds_bounded_noise() {
        let base = plasma(32, 32, 5);
        let ph = photo(32, 32, 5, 4);
        assert_ne!(ph, base);
        for (a, b) in ph.data.iter().zip(&base.data) {
            assert!((*a as i32 - *b as i32).abs() <= 4 || *a == 0 || *a == 255);
        }
        assert_eq!(photo(32, 32, 5, 4), photo(32, 32, 5, 4), "deterministic");
        assert_eq!(photo(32, 32, 5, 0), base, "amp 0 is pure plasma");
    }

    #[test]
    fn downsample_halves_dimensions() {
        let img = gradient(16, 8);
        let d = downsample2(&img);
        assert_eq!((d.width, d.height), (8, 4));
    }
}
