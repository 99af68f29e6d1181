//! Multiresolution image pyramids and region-of-interest coefficient
//! extraction.
//!
//! The server stores each image as an L-level integer Haar decomposition in
//! the standard Mallat layout. "Resolution level" follows the paper: level
//! 0 is the coarsest stored approximation, level `L` the original image.
//! [`Pyramid::chunks_for_region`] extracts exactly the coefficient chunks a
//! client needs to reconstruct a given spatial region at a given resolution
//! level, optionally excluding an already-transmitted region — this is the
//! progressive foveal transmission path.
//!
//! The client side is [`Reassembler`]: it accumulates chunks into a sparse
//! coefficient frame and reconstructs viewable images. Because the Haar
//! transform has strictly local (non-overlapping) support, a region
//! reconstructed from its chunks is pixel-exact inside that region.

use crate::haar::{fwd_2d_level, inv_2d_level};
use crate::image::Image;
use crate::rect::Rect;

/// A wavelet subband.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// Coarsest approximation (exists only at level 0).
    LL,
    /// Horizontal detail.
    HL,
    /// Vertical detail.
    LH,
    /// Diagonal detail.
    HH,
}

/// A rectangle of coefficients from one subband at one level.
/// `rect` is in band-local coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SubbandChunk {
    pub band: Band,
    pub level: usize,
    pub rect: Rect,
    pub data: Vec<i32>,
}

impl SubbandChunk {
    /// Number of coefficients carried.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// An L-level integer Haar decomposition of one image.
///
/// ```
/// use wavelet::{image::plasma, Pyramid, Reassembler, Rect};
///
/// let img = plasma(64, 64, 7);
/// let pyramid = Pyramid::build(&img, 3);
/// // Lossless at the finest level:
/// assert_eq!(pyramid.reconstruct(3), img);
/// // A foveal region transfers exactly the coefficients it needs:
/// let region = Rect::fovea(32, 32, 10, 64, 64);
/// let chunks = pyramid.chunks_for_region(region, 3, None);
/// let mut client = Reassembler::new(64, 64, 3);
/// for c in &chunks {
///     client.apply(c);
/// }
/// let view = client.reconstruct(3);
/// assert_eq!(view.get(32, 32), img.get(32, 32));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pyramid {
    width: usize,
    height: usize,
    levels: usize,
    coeffs: Vec<i32>,
}

impl Pyramid {
    /// Decompose `img` with `levels` transform steps. Dimensions must be
    /// divisible by `2^levels`.
    pub fn build(img: &Image, levels: usize) -> Pyramid {
        assert!(levels > 0, "need at least one level");
        assert!(
            img.width.is_multiple_of(1 << levels) && img.height.is_multiple_of(1 << levels),
            "dimensions {}x{} not divisible by 2^{levels}",
            img.width,
            img.height
        );
        let mut coeffs: Vec<i32> = img.data.iter().map(|&v| v as i32).collect();
        for k in 0..levels {
            fwd_2d_level(&mut coeffs, img.width, img.width >> k, img.height >> k);
        }
        Pyramid { width: img.width, height: img.height, levels, coeffs }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of decomposition steps `L`; valid resolution levels are
    /// `0..=L`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Image dimensions at resolution `level`.
    pub(crate) fn dims_at(&self, level: usize) -> (usize, usize) {
        assert!(level <= self.levels, "level {level} > {}", self.levels);
        let shift = self.levels - level;
        (self.width >> shift, self.height >> shift)
    }

    /// Size of `band` at `level` (band-local). LL exists only at level 0;
    /// detail bands at levels `1..=L` refine level `l-1` to `l`.
    pub(crate) fn band_size(&self, band: Band, level: usize) -> (usize, usize) {
        match band {
            Band::LL => {
                assert_eq!(level, 0, "LL exists only at level 0");
                self.dims_at(0)
            }
            _ => {
                assert!(
                    level >= 1 && level <= self.levels,
                    "detail level {level} out of 1..={}",
                    self.levels
                );
                self.dims_at(level - 1)
            }
        }
    }

    /// Frame-coordinate origin of `band` at `level`.
    pub(crate) fn band_origin(&self, band: Band, level: usize) -> (usize, usize) {
        let (sw, sh) = self.band_size(band, level);
        match band {
            Band::LL => (0, 0),
            Band::HL => (sw, 0),
            Band::LH => (0, sh),
            Band::HH => (sw, sh),
        }
    }

    fn extract_band_rect(&self, band: Band, level: usize, rect: Rect) -> Option<SubbandChunk> {
        if rect.is_empty() {
            return None;
        }
        let (ox, oy) = self.band_origin(band, level);
        let mut data = Vec::with_capacity(rect.area());
        for y in rect.y..rect.y1() {
            let row = (oy + y) * self.width + ox + rect.x;
            data.extend_from_slice(&self.coeffs[row..row + rect.w]);
        }
        Some(SubbandChunk { band, level, rect, data })
    }

    /// Band-local rectangle covering full-resolution region `region` for a
    /// band whose coefficients live `shift` halvings below full resolution.
    fn band_local(&self, region: Rect, shift: usize, band: Band, level: usize) -> Rect {
        let (bw, bh) = self.band_size(band, level);
        region.scale_down(shift).intersect(&Rect::new(0, 0, bw, bh))
    }

    /// All coefficient chunks needed to reconstruct `region` (full-res
    /// pixel coordinates) at resolution `level`, excluding coefficients
    /// already covered by `exclude` (also full-res).
    pub fn chunks_for_region(
        &self,
        region: Rect,
        level: usize,
        exclude: Option<Rect>,
    ) -> Vec<SubbandChunk> {
        assert!(level <= self.levels);
        let mut out = Vec::new();
        let push_band = |band: Band, lvl: usize, shift: usize, out: &mut Vec<SubbandChunk>| {
            let want = self.band_local(region, shift, band, lvl);
            if want.is_empty() {
                return;
            }
            let pieces = match exclude {
                Some(ex) if !ex.is_empty() => {
                    let ex_local = self.band_local(ex, shift, band, lvl);
                    want.subtract(&ex_local)
                }
                _ => vec![want],
            };
            for p in pieces {
                if let Some(c) = self.extract_band_rect(band, lvl, p) {
                    out.push(c);
                }
            }
        };
        // LL at level 0: coefficients sit L halvings down.
        push_band(Band::LL, 0, self.levels, &mut out);
        // Details for levels 1..=level: band at level j has coefficients
        // (L - j + 1) halvings down.
        for j in 1..=level {
            let shift = self.levels - j + 1;
            for band in [Band::HL, Band::LH, Band::HH] {
                push_band(band, j, shift, &mut out);
            }
        }
        out
    }

    /// Reconstruct the full image at `level` (level `L` is lossless).
    pub fn reconstruct(&self, level: usize) -> Image {
        reconstruct_from_frame(&self.coeffs, self.width, self.height, self.levels, level)
    }
}

/// Shared reconstruction: copy the top-left block for `level` out of a
/// Mallat-layout frame and run `level` inverse steps.
pub(crate) fn reconstruct_from_frame(
    frame: &[i32],
    width: usize,
    height: usize,
    levels: usize,
    level: usize,
) -> Image {
    assert!(level <= levels);
    let shift = levels - level;
    let (bw, bh) = (width >> shift, height >> shift);
    let mut block = vec![0i32; bw * bh];
    for y in 0..bh {
        block[y * bw..(y + 1) * bw].copy_from_slice(&frame[y * width..y * width + bw]);
    }
    for step in (0..level).rev() {
        inv_2d_level(&mut block, bw, bw >> step, bh >> step);
    }
    let mut img = Image::blank(bw, bh);
    for (dst, &v) in img.data.iter_mut().zip(&block) {
        *dst = v.clamp(0, 255) as u8;
    }
    img
}

/// Client-side accumulator of [`SubbandChunk`]s.
#[derive(Debug, Clone)]
pub struct Reassembler {
    width: usize,
    height: usize,
    levels: usize,
    frame: Vec<i32>,
}

impl Reassembler {
    pub fn new(width: usize, height: usize, levels: usize) -> Self {
        assert!(
            width.is_multiple_of(1 << levels) && height.is_multiple_of(1 << levels),
            "dimensions not divisible by 2^levels"
        );
        Reassembler { width, height, levels, frame: vec![0; width * height] }
    }

    pub fn levels(&self) -> usize {
        self.levels
    }

    fn band_origin(&self, band: Band, level: usize) -> (usize, usize) {
        // Mirrors Pyramid::band_origin without borrowing a Pyramid.
        let shift = match band {
            Band::LL => self.levels,
            _ => self.levels - level + 1,
        };
        let (sw, sh) = (self.width >> shift, self.height >> shift);
        match band {
            Band::LL => (0, 0),
            Band::HL => (sw, 0),
            Band::LH => (0, sh),
            Band::HH => (sw, sh),
        }
    }

    /// Write a received chunk into the coefficient frame.
    pub fn apply(&mut self, chunk: &SubbandChunk) {
        assert_eq!(chunk.data.len(), chunk.rect.area(), "chunk data does not match its rectangle");
        let (ox, oy) = self.band_origin(chunk.band, chunk.level);
        for (i, y) in (chunk.rect.y..chunk.rect.y1()).enumerate() {
            let src = &chunk.data[i * chunk.rect.w..(i + 1) * chunk.rect.w];
            let at = (oy + y) * self.width + ox + chunk.rect.x;
            self.frame[at..at + chunk.rect.w].copy_from_slice(src);
        }
    }

    /// Reconstruct the (possibly partial) image at `level`.
    pub fn reconstruct(&self, level: usize) -> Image {
        reconstruct_from_frame(&self.frame, self.width, self.height, self.levels, level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::plasma;
    use crate::image::tests::{checkerboard, downsample2, gradient, noise, psnr};

    #[test]
    fn full_reconstruction_is_lossless() {
        for img in [plasma(64, 64, 1), noise(64, 64, 2), checkerboard(64, 64, 5), gradient(64, 64)]
        {
            let p = Pyramid::build(&img, 4);
            let back = p.reconstruct(4);
            assert_eq!(back, img);
        }
    }

    #[test]
    fn non_square_images_work() {
        let img = plasma(128, 32, 3);
        let p = Pyramid::build(&img, 3);
        assert_eq!(p.dims_at(0), (16, 4));
        assert_eq!(p.reconstruct(3), img);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_dimensions_rejected() {
        let _ = Pyramid::build(&gradient(48, 48), 5);
    }

    #[test]
    fn coarse_levels_approximate_downsampling() {
        let img = plasma(64, 64, 9);
        let p = Pyramid::build(&img, 3);
        let lvl2 = p.reconstruct(2);
        assert_eq!((lvl2.width, lvl2.height), (32, 32));
        // The Haar approximation should be close to a box-filtered
        // downsample (floor-mean vs mean differs by <1 per step).
        let psnr = psnr(&lvl2, &downsample2(&img));
        assert!(psnr > 35.0, "psnr {psnr}");
    }

    #[test]
    fn band_layout_covers_frame_exactly() {
        let img = gradient(32, 32);
        let p = Pyramid::build(&img, 3);
        // LL0 + all detail bands must tile the frame without overlap.
        let mut covered = vec![0u8; 32 * 32];
        let mut mark = |origin: (usize, usize), size: (usize, usize)| {
            for y in 0..size.1 {
                for x in 0..size.0 {
                    covered[(origin.1 + y) * 32 + origin.0 + x] += 1;
                }
            }
        };
        mark(p.band_origin(Band::LL, 0), p.band_size(Band::LL, 0));
        for l in 1..=3 {
            for b in [Band::HL, Band::LH, Band::HH] {
                mark(p.band_origin(b, l), p.band_size(b, l));
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn full_region_chunks_rebuild_image_exactly() {
        let img = plasma(64, 64, 11);
        let p = Pyramid::build(&img, 4);
        let full = Rect::new(0, 0, 64, 64);
        let chunks = p.chunks_for_region(full, 4, None);
        let mut r = Reassembler::new(64, 64, 4);
        for c in &chunks {
            r.apply(c);
        }
        assert_eq!(r.reconstruct(4), img);
        assert_eq!(chunks.iter().map(SubbandChunk::len).sum::<usize>(), 64 * 64);
    }

    #[test]
    fn region_chunks_rebuild_region_exactly() {
        let img = plasma(64, 64, 13);
        let p = Pyramid::build(&img, 3);
        let region = Rect::new(16, 8, 24, 32);
        let chunks = p.chunks_for_region(region, 3, None);
        let mut r = Reassembler::new(64, 64, 3);
        for c in &chunks {
            r.apply(c);
        }
        let rebuilt = r.reconstruct(3);
        for y in region.y..region.y1() {
            for x in region.x..region.x1() {
                assert_eq!(rebuilt.get(x, y), img.get(x, y), "pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn incremental_rings_cover_without_duplication() {
        let img = plasma(64, 64, 17);
        let p = Pyramid::build(&img, 3);
        let r1 = Rect::fovea(32, 32, 8, 64, 64);
        let r2 = Rect::fovea(32, 32, 16, 64, 64);
        let first = p.chunks_for_region(r1, 3, None);
        let ring = p.chunks_for_region(r2, 3, Some(r1));
        let mut re = Reassembler::new(64, 64, 3);
        for c in first.iter().chain(&ring) {
            re.apply(c);
        }
        let rebuilt = re.reconstruct(3);
        for y in r2.y..r2.y1() {
            for x in r2.x..r2.x1() {
                assert_eq!(rebuilt.get(x, y), img.get(x, y), "pixel ({x},{y})");
            }
        }
        // The ring must be smaller than a fresh full-region transfer.
        let ring_coeffs: usize = ring.iter().map(SubbandChunk::len).sum();
        let full_coeffs: usize =
            p.chunks_for_region(r2, 3, None).iter().map(SubbandChunk::len).sum();
        assert!(ring_coeffs < full_coeffs);
    }

    #[test]
    fn lower_level_needs_fewer_coefficients() {
        let img = plasma(64, 64, 19);
        let p = Pyramid::build(&img, 4);
        let region = Rect::new(0, 0, 64, 64);
        let count = |level| -> usize {
            p.chunks_for_region(region, level, None).iter().map(SubbandChunk::len).sum()
        };
        let mut prev = 0;
        for level in 0..=4 {
            let n = count(level);
            assert!(n > prev, "level {level}: {n} <= {prev}");
            prev = n;
        }
        // Each level multiplies coefficient count by ~4.
        assert_eq!(count(4), 64 * 64);
        assert_eq!(count(3), 32 * 32);
    }

    #[test]
    fn reassembler_partial_data_still_reconstructs_coarse() {
        let img = plasma(64, 64, 23);
        let p = Pyramid::build(&img, 3);
        let full = Rect::new(0, 0, 64, 64);
        // Send only level-1 data.
        let chunks = p.chunks_for_region(full, 1, None);
        let mut r = Reassembler::new(64, 64, 3);
        for c in &chunks {
            r.apply(c);
        }
        // Level-1 view is exact...
        assert_eq!(r.reconstruct(1), p.reconstruct(1));
        // ...full-level view is only an approximation (details are zero)
        // but still resembles the original.
        let approx = r.reconstruct(3);
        assert!(psnr(&approx, &img) > 20.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn reassembler_rejects_malformed_chunk() {
        let mut r = Reassembler::new(16, 16, 2);
        r.apply(&SubbandChunk {
            band: Band::LL,
            level: 0,
            rect: Rect::new(0, 0, 2, 2),
            data: vec![1, 2, 3], // wrong length
        });
    }
}
