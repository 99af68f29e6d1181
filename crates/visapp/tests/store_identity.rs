//! `ImageStore::generate` builds its images on worker threads; each must
//! equal the pyramid one serial `Pyramid::build(&photo(..))` makes for
//! its seed, in its slot, whatever the image count.
//!
//! CI also runs this file with `--release`.

use visapp::ImageStore;
use wavelet::image::photo;
use wavelet::Pyramid;

#[test]
fn generate_equals_serial_builds_in_seed_order() {
    let (size, levels, seed) = (256, 4, 7);
    for count in 1..=5 {
        let store = ImageStore::generate(count, size, levels, seed);
        for i in 0..count {
            let serial =
                Pyramid::build(&photo(size, size, seed + i as u64, ImageStore::NOISE_AMP), levels);
            assert!(*store.pyramid(i) == serial, "image {i} of {count}");
        }
    }
}
