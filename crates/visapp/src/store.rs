//! The server-side image store: images held as wavelet pyramids, with a
//! memoizing compression cache.
//!
//! Images are synthetic (seeded plasma noise) since the paper's corpus is
//! unavailable; the wavelet pyramid, region extraction, and compression
//! are all real computation. Because a profiling sweep re-runs the same
//! transfers under many different resource settings, identical
//! `(image, region, level, exclusion, method)` payloads are memoized —
//! the payload *content* does not depend on resource conditions, only the
//! timing does (which the simulation charges separately).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use compress::Method;
use obs::det::{cores, par_map};
use wavelet::image::photo;
use wavelet::{encode_chunks, Pyramid, Rect};

/// One prepared reply payload.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Compressed bytes (what travels on the wire), shared: every reply
    /// that carries them holds this one allocation.
    pub payload: Arc<[u8]>,
    /// Uncompressed (encoded-chunk) size in bytes.
    pub raw_bytes: usize,
    /// Number of coefficients.
    pub ncoeffs: usize,
}

/// Cache key: `(image, region, level, excluded region, method)`.
type PrepareKey = (usize, Rect, usize, Rect, Method);

/// A cache entry: empty while the first request for its key is still
/// compressing, which later requests for that key wait on.
type PrepareSlot = Arc<OnceLock<Arc<Prepared>>>;

/// The image store.
pub struct ImageStore {
    pyramids: Vec<Pyramid>,
    width: usize,
    height: usize,
    levels: usize,
    cache: Mutex<HashMap<PrepareKey, PrepareSlot>>,
}

impl ImageStore {
    /// Noise amplitude of the synthetic "photographic" images; see
    /// [`wavelet::image::photo`].
    pub const NOISE_AMP: i32 = 16;

    /// Generate `count` photographic (plasma + sensor noise) images of
    /// `size x size` with `levels` pyramid levels, image `i` seeded from
    /// `seed + i`. Images are independent, so they are built on up to
    /// [`cores`] workers, each into its own slot: the store is the same
    /// on any core count.
    pub fn generate(count: usize, size: usize, levels: usize, seed: u64) -> ImageStore {
        assert!(count > 0 && size.is_multiple_of(1 << levels));
        let seeds: Vec<u64> = (0..count as u64).map(|i| seed.wrapping_add(i)).collect();
        let pyramids = par_map(&seeds, cores(), |&s| {
            Pyramid::build(&photo(size, size, s, Self::NOISE_AMP), levels)
        });
        ImageStore {
            pyramids,
            width: size,
            height: size,
            levels,
            cache: Mutex::new(HashMap::new()),
        }
    }

    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    pub fn levels(&self) -> usize {
        self.levels
    }

    pub fn pyramid(&self, id: usize) -> &Pyramid {
        &self.pyramids[id]
    }

    /// The fovea radius at which the whole image is covered (from the
    /// center): half the larger dimension.
    pub fn cover_radius(&self) -> usize {
        self.width.max(self.height) / 2
    }

    /// Prepare (or fetch from cache) the reply payload for a region
    /// request: coefficients of `region \ exclude` at `level`, compressed
    /// with `method`.
    pub fn prepare(
        &self,
        image_id: usize,
        region: Rect,
        level: usize,
        exclude: Rect,
        method: Method,
    ) -> Arc<Prepared> {
        let key = (image_id, region, level, exclude, method);
        // The map lock covers only the lookup; the slot serializes the
        // work per key, so concurrent misses on one key compress it once.
        let slot = {
            let mut cache = self.cache.lock().unwrap();
            let slot = cache.entry(key).or_default();
            if let Some(hit) = slot.get() {
                return hit.clone();
            }
            slot.clone()
        };
        slot.get_or_init(|| {
            let pyr = &self.pyramids[image_id];
            let excl = if exclude.is_empty() { None } else { Some(exclude) };
            let chunks = pyr.chunks_for_region(region, level, excl);
            let ncoeffs: usize = chunks.iter().map(|c| c.len()).sum();
            let raw = encode_chunks(&chunks);
            let raw_bytes = raw.len();
            // The one copy of a payload's bytes: the compressor's output
            // moves behind the shared handle every reply clones.
            let payload = Arc::from(method.compress(&raw));
            Arc::new(Prepared { payload, raw_bytes, ncoeffs })
        })
        .clone()
    }

    /// Number of distinct payloads cached or being prepared (for
    /// tests/stats).
    pub fn cache_len(&self) -> usize {
        self.cache.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ImageStore {
        ImageStore::generate(2, 64, 3, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = store();
        let b = store();
        let r = Rect::new(0, 0, 64, 64);
        let pa = a.prepare(0, r, 3, Rect::empty(), Method::Lzw);
        let pb = b.prepare(0, r, 3, Rect::empty(), Method::Lzw);
        assert_eq!(pa.payload, pb.payload);
        assert_eq!(pa.ncoeffs, 64 * 64);
    }

    #[test]
    fn images_differ() {
        let s = store();
        let r = Rect::new(0, 0, 64, 64);
        let p0 = s.prepare(0, r, 3, Rect::empty(), Method::Raw);
        let p1 = s.prepare(1, r, 3, Rect::empty(), Method::Raw);
        assert_ne!(p0.payload, p1.payload);
    }

    #[test]
    fn cache_hits() {
        let s = store();
        let r = Rect::new(0, 0, 32, 32);
        let a = s.prepare(0, r, 2, Rect::empty(), Method::Bzip);
        assert_eq!(s.cache_len(), 1);
        let b = s.prepare(0, r, 2, Rect::empty(), Method::Bzip);
        assert_eq!(s.cache_len(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        s.prepare(0, r, 2, Rect::empty(), Method::Lzw);
        assert_eq!(s.cache_len(), 2);
    }

    #[test]
    fn concurrent_misses_on_one_key_prepare_it_once() {
        // A payload big enough that eight threads released together
        // overlap inside `prepare`.
        let s = ImageStore::generate(1, 256, 4, 7);
        let r = Rect::new(0, 0, 256, 256);
        let gate = std::sync::Barrier::new(8);
        let got: Vec<Arc<Prepared>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        gate.wait();
                        s.prepare(0, r, 4, Rect::empty(), Method::Bzip)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("prepare panicked")).collect()
        });
        assert_eq!(s.cache_len(), 1);
        assert!(got.iter().all(|p| Arc::ptr_eq(p, &got[0])));
    }

    #[test]
    fn compression_ordering_on_photo_images() {
        let s = store();
        let r = Rect::new(0, 0, 64, 64);
        let raw = s.prepare(0, r, 3, Rect::empty(), Method::Raw);
        let lzw = s.prepare(0, r, 3, Rect::empty(), Method::Lzw);
        let bz = s.prepare(0, r, 3, Rect::empty(), Method::Bzip);
        // On noisy photographic data the block-sorting pipeline compresses;
        // 12-bit LZW may expand slightly at this tiny block size (its
        // dictionary cannot amortize) — the paper's method-B-beats-method-A
        // byte ordering is the invariant that matters.
        assert!(bz.payload.len() < raw.payload.len());
        assert!(bz.payload.len() < lzw.payload.len(), "bzip must beat lzw");
        assert!(lzw.payload.len() < raw.payload.len() * 6 / 5, "lzw expansion bounded");
        assert_eq!(raw.raw_bytes, raw.payload.len());
    }

    #[test]
    fn exclusion_shrinks_payload() {
        let s = store();
        let full = Rect::fovea(32, 32, 24, 64, 64);
        let inner = Rect::fovea(32, 32, 12, 64, 64);
        let whole = s.prepare(0, full, 3, Rect::empty(), Method::Raw);
        let ring = s.prepare(0, full, 3, inner, Method::Raw);
        assert!(ring.ncoeffs < whole.ncoeffs);
        assert!(ring.payload.len() < whole.payload.len());
    }

    #[test]
    fn lower_levels_carry_fewer_bytes() {
        let s = store();
        let r = Rect::new(0, 0, 64, 64);
        let l3 = s.prepare(0, r, 3, Rect::empty(), Method::Raw);
        let l2 = s.prepare(0, r, 2, Rect::empty(), Method::Raw);
        let l1 = s.prepare(0, r, 1, Rect::empty(), Method::Raw);
        assert!(l1.raw_bytes < l2.raw_bytes);
        assert!(l2.raw_bytes < l3.raw_bytes);
    }
}
