//! The bytes the server puts on the wire are a contract: every committed
//! digest and every client's decompressor depend on them. A change to a
//! compression kernel that alters one byte of a prepared payload fails
//! here, not in a digest three layers up.

use compress::Method;
use simnet::det::Fnv64;
use visapp::store::ImageStore;
use wavelet::Rect;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[test]
fn full_image_payloads_are_pinned() {
    let store = ImageStore::generate(1, 256, 4, 7);
    let whole = Rect::new(0, 0, 256, 256);
    let pinned = [
        (Method::Bzip, 0x936f_46a0_6869_a9ab_u64, 51_047_usize),
        (Method::Lzw, 0x7234_a6ac_ebbc_b356, 59_792),
    ];
    for (method, digest, len) in pinned {
        let p = store.prepare(0, whole, 4, Rect::empty(), method);
        assert_eq!(p.raw_bytes, 65_870);
        assert_eq!(
            (fnv1a(&p.payload), p.payload.len()),
            (digest, len),
            "{method} payload: {:#018x}, {} bytes",
            fnv1a(&p.payload),
            p.payload.len()
        );
    }
}
