//! Property-based tests: every codec stage must roundtrip for arbitrary
//! inputs, and composition properties must hold.

use proptest::prelude::*;

use compress::{bwt, bzip, huffman, lzw, mtf, rle, Method};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lzw_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzw_roundtrips_low_entropy(data in proptest::collection::vec(0u8..4, 0..8192)) {
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&c).unwrap(), data);
    }

    #[test]
    fn bzip_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = bzip::compress(&data);
        prop_assert_eq!(bzip::decompress(&c).unwrap(), data);
    }

    #[test]
    fn bzip_roundtrips_any_block_size(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        block in 1usize..3000,
    ) {
        let c = bzip::compress_with_block(&data, block);
        prop_assert_eq!(bzip::decompress(&c).unwrap(), data);
    }

    #[test]
    fn bwt_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (last, primary) = bwt::forward(&data);
        prop_assert_eq!(last.len(), data.len());
        prop_assert_eq!(bwt::inverse(&last, primary).unwrap(), data);
    }

    #[test]
    fn bwt_is_a_permutation(data in proptest::collection::vec(any::<u8>(), 1..1024)) {
        let (last, _) = bwt::forward(&data);
        let mut a = data.clone();
        let mut b = last.clone();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b, "BWT must permute, not alter, the bytes");
    }

    #[test]
    fn mtf_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(mtf::decode(&mtf::encode(&data)), data);
    }

    #[test]
    fn rle_roundtrips(data in proptest::collection::vec(prop_oneof![Just(0u8), any::<u8>()], 0..4096)) {
        prop_assert_eq!(rle::decode(&rle::encode(&data)).unwrap(), data);
    }

    #[test]
    fn rle_never_grows_zero_heavy_data(runs in proptest::collection::vec((any::<u8>(), 1usize..50), 0..50)) {
        let mut data = Vec::new();
        for (b, n) in runs {
            data.extend(std::iter::repeat_n(b, n));
        }
        let enc = rle::encode(&data);
        // Worst case: one extra varint byte per isolated zero.
        prop_assert!(enc.len() <= data.len() + data.iter().filter(|&&b| b == 0).count());
        prop_assert_eq!(rle::decode(&enc).unwrap(), data);
    }

    #[test]
    fn huffman_roundtrips(data in proptest::collection::vec(any::<u8>(), 1..2048)) {
        let mut freqs = vec![0u64; 256];
        for &b in &data {
            freqs[b as usize] += 1;
        }
        let lengths = huffman::build_lengths(&freqs);
        let mut w = compress::bitio::BitWriter::new();
        huffman::encode_with(&lengths, &data, &mut w);
        let bits = w.finish();
        let dec = huffman::Decoder::new(&lengths).unwrap();
        let mut r = compress::bitio::BitReader::new(&bits);
        for &expect in &data {
            prop_assert_eq!(dec.decode(&mut r).unwrap(), expect as u16);
        }
    }

    #[test]
    fn huffman_lengths_satisfy_kraft(freqs in proptest::collection::vec(0u64..10_000, 256)) {
        let lengths = huffman::build_lengths(&freqs);
        let maxl = lengths.iter().copied().max().unwrap_or(0) as u32;
        prop_assume!(maxl > 0);
        let kraft: u128 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u128 << (maxl - l as u32))
            .sum();
        prop_assert!(kraft <= 1u128 << maxl);
        // Every nonzero-frequency symbol got a code.
        for (i, &f) in freqs.iter().enumerate() {
            prop_assert_eq!(f > 0, lengths[i] > 0, "symbol {}", i);
        }
    }

    #[test]
    fn methods_roundtrip_and_decode_rejects_wrong_method(
        data in proptest::collection::vec(any::<u8>(), 1..1024),
    ) {
        for m in Method::ALL {
            let c = m.compress(&data);
            prop_assert_eq!(m.decompress(&c).unwrap(), data.clone(), "{}", m);
        }
        // Decompressing an LZW stream as bzip must error (magic check).
        let c = Method::Lzw.compress(&data);
        prop_assert!(Method::Bzip.decompress(&c).is_err());
    }

    #[test]
    fn decompress_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any of these may error, none may panic.
        let _ = lzw::decompress(&data);
        let _ = bzip::decompress(&data);
        let _ = rle::decode(&data);
    }
}
