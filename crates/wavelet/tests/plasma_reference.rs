//! Bit identity of `image::plasma` and `image::photo` against the
//! per-pixel loop they replaced.
//!
//! Every store, payload and `wire_bytes` digest starts from these
//! generators, so the hoisted loop must produce the same bytes on every
//! shape: square and not, wider and taller, down to one pixel.
//!
//! CI runs this file with `--release`.

use obs::det::SplitMix64;
use wavelet::image::{photo, plasma, Image};

/// `plasma` as it shipped before the hoisted loop: every pixel recomputes
/// its column and row cell and weights, for every octave.
fn reference_plasma(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = SplitMix64::new(seed);
    let octaves = 5usize;
    let mut acc = vec![0.0f64; width * height];
    let mut amplitude = 1.0f64;
    let mut total_amp = 0.0f64;
    for o in 0..octaves {
        let cells = 1usize << (o + 2);
        let gw = cells + 2;
        let gh = cells + 2;
        let grid: Vec<f64> = (0..gw * gh).map(|_| rng.next_f64()).collect();
        for y in 0..height {
            for x in 0..width {
                let fx = x as f64 / width as f64 * cells as f64;
                let fy = y as f64 / height as f64 * cells as f64;
                let (ix, iy) = (fx as usize, fy as usize);
                let (tx, ty) = (fx - ix as f64, fy - iy as f64);
                let (sx, sy) = (tx * tx * (3.0 - 2.0 * tx), ty * ty * (3.0 - 2.0 * ty));
                let g = |gx: usize, gy: usize| grid[gy * gw + gx];
                let v0 = g(ix, iy) * (1.0 - sx) + g(ix + 1, iy) * sx;
                let v1 = g(ix, iy + 1) * (1.0 - sx) + g(ix + 1, iy + 1) * sx;
                acc[y * width + x] += amplitude * (v0 * (1.0 - sy) + v1 * sy);
            }
        }
        total_amp += amplitude;
        amplitude *= 0.5;
    }
    let mut img = Image::blank(width, height);
    for (dst, &v) in img.data.iter_mut().zip(&acc) {
        *dst = ((v / total_amp) * 255.0).clamp(0.0, 255.0) as u8;
    }
    img
}

/// `photo` over the reference plasma: the same sensor-noise pass.
fn reference_photo(width: usize, height: usize, seed: u64, amp: i32) -> Image {
    let mut img = reference_plasma(width, height, seed);
    if amp <= 0 {
        return img;
    }
    let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    for v in img.data.iter_mut() {
        let n = rng.range(0, 2 * amp as u64) as i32 - amp;
        *v = (*v as i32 + n).clamp(0, 255) as u8;
    }
    img
}

const SHAPES: [(usize, usize); 7] =
    [(512, 512), (256, 256), (64, 64), (96, 40), (40, 96), (3, 7), (1, 1)];

#[test]
fn plasma_is_bit_identical_to_the_per_pixel_loop() {
    for (w, h) in SHAPES {
        for seed in [0, 1, 7, 0xdead_beef] {
            assert!(plasma(w, h, seed) == reference_plasma(w, h, seed), "{w}x{h} seed {seed}");
        }
    }
}

#[test]
fn photo_is_bit_identical_to_the_per_pixel_loop() {
    for (w, h) in SHAPES {
        for (seed, amp) in [(3, 16), (42, 4), (9, 0)] {
            assert!(
                photo(w, h, seed, amp) == reference_photo(w, h, seed, amp),
                "{w}x{h} seed {seed} amp {amp}"
            );
        }
    }
}
