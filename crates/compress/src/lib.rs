//! # compress — from-scratch LZW and a Bzip2-style block-sorting pipeline
//!
//! The active-visualization application (paper §2.1) "can optionally
//! compress the data before injecting it into the network, reducing
//! network bandwidth at the expense of requiring decompression at the
//! client", choosing between **compression A (LZW)** and **compression B
//! (Bzip2)**. Both are implemented here from scratch:
//!
//! - [`lzw`]: variable-width-code LZW (9–12 bits, CLEAR/EOF codes);
//! - [`bzip`]: BWT ([`bwt`], radix + prefix-doubling rotation sort) → move-to-front
//!   ([`mtf`]) → zero run-length ([`rle`]) → canonical Huffman
//!   ([`huffman`]), blocked at 100 kB;
//! - [`Method`] is the run-time-selectable interface, and
//!   [`CostModel`] its simulated CPU price (reference-machine us/byte),
//!   which is what produces the Figure 6(a) crossover: B compresses better
//!   but costs ~10x the CPU of A.

pub mod bitio;
pub mod bwt;
pub mod bzip;
pub mod huffman;
pub mod lzw;
pub mod method;
pub mod mtf;
pub mod rle;

pub use method::{CostModel, Method};

/// Error from decompression of corrupt or truncated payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    msg: String,
}

impl CodecError {
    pub(crate) fn corrupt(msg: &str) -> Self {
        CodecError { msg: msg.to_string() }
    }

    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}
