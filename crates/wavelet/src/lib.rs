//! # wavelet — integer Haar codec, multiresolution pyramids, progressive
//! foveal regions
//!
//! Substrate for the paper's *active visualization* application (§2.1):
//! images are stored server-side as wavelet coefficients; the server builds
//! a pyramid "ranging from the finest to the coarsest resolution" and
//! transmits the user's foveal region progressively, coarse-to-fine, with
//! incremental rings as the region grows.
//!
//! - [`Image`] + seeded synthetic generators ([`image::plasma`],
//!   [`image::checkerboard`], [`image::noise`]) stand in for the paper's
//!   image corpus.
//! - [`haar`] implements the lossless integer S-transform (1-D and 2-D).
//! - [`Pyramid`] is the server-side store;
//!   [`Pyramid::chunks_for_region`] extracts exactly the coefficients for a
//!   foveal region at a resolution level, minus an already-sent region.
//! - [`Reassembler`] is the client-side accumulator; reconstruction is
//!   pixel-exact inside received regions.
//! - [`progressive`] provides the compact zigzag-varint wire encoding fed
//!   to the `compress` crate's LZW / BWT pipelines.

#![forbid(unsafe_code)]

pub mod haar;
pub mod image;
pub mod progressive;
pub mod pyramid;
pub mod rect;

pub use image::Image;
pub use progressive::{decode_chunks, encode_chunks, DecodeError};
pub use pyramid::{Band, Pyramid, Reassembler, SubbandChunk};
pub use rect::Rect;
