//! Simulated CPU costs of the visualization pipeline.
//!
//! Work units are reference-machine microseconds (1 unit = 1 us on the
//! simulated Pentium II 450, host speed 1.0). Constants are calibrated to
//! 1999-era throughput: wavelet extraction and reconstruction run at a few
//! MB/s, display update somewhat faster; compression costs come from
//! [`compress::CostModel`]. At these rates client-side processing is
//! comparable to network time for the paper's bandwidths, which is what
//! makes CPU share a first-class axis of the performance profiles
//! (Figures 5 and 6b).

use compress::Method;

/// Server-side coefficient extraction, per coefficient.
pub(crate) const EXTRACT_PER_COEFF: f64 = 0.12;

/// Client-side inverse-wavelet reconstruction, per received coefficient.
pub(crate) const RECON_PER_COEFF: f64 = 0.50;

/// Client-side display update, per displayed pixel of the updated region.
pub(crate) const DISPLAY_PER_PIXEL: f64 = 0.30;

/// Fixed per-request server overhead: request parsing, pyramid region
/// assembly, buffer management, socket stack — substantial on 1999
/// hardware (~50 ms on the reference machine). This is what makes larger
/// foveal increments (fewer rounds) shorten total transmission time, the
/// dR trade-off of Figure 5.
pub(crate) const SERVER_REQUEST_OVERHEAD: f64 = 50_000.0;

/// Fixed per-round client overhead (interaction polling, repaint setup).
pub(crate) const CLIENT_ROUND_OVERHEAD: f64 = 3_000.0;

/// Server work to prepare one reply: extract `ncoeffs` coefficients and
/// compress `raw_bytes` of encoded payload with `method`.
pub(crate) fn server_reply_work(ncoeffs: usize, raw_bytes: usize, method: Method) -> f64 {
    SERVER_REQUEST_OVERHEAD
        + EXTRACT_PER_COEFF * ncoeffs as f64
        + method.cost().compress_work(raw_bytes)
}

/// Client work to consume one reply: decompress `raw_bytes`, reconstruct
/// `ncoeffs` coefficients, repaint `pixels` pixels.
pub(crate) fn client_round_work(
    ncoeffs: usize,
    raw_bytes: usize,
    pixels: usize,
    method: Method,
) -> f64 {
    CLIENT_ROUND_OVERHEAD
        + method.cost().decompress_work(raw_bytes)
        + RECON_PER_COEFF * ncoeffs as f64
        + DISPLAY_PER_PIXEL * pixels as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bzip_compression_costs_several_times_lzw() {
        // The per-byte compression cost (what differs between methods) is
        // ~7x; fixed per-round overheads are method-independent.
        let bytes = 100_000;
        let lzw =
            Method::Lzw.cost().compress_work(bytes) + Method::Lzw.cost().decompress_work(bytes);
        let bzip =
            Method::Bzip.cost().compress_work(bytes) + Method::Bzip.cost().decompress_work(bytes);
        assert!(bzip > 5.0 * lzw, "bzip {bzip} vs lzw {lzw}");
        let round_lzw = client_round_work(bytes, bytes, bytes, Method::Lzw)
            + server_reply_work(bytes, bytes, Method::Lzw);
        let round_bzip = client_round_work(bytes, bytes, bytes, Method::Bzip)
            + server_reply_work(bytes, bytes, Method::Bzip);
        assert!(round_bzip > round_lzw, "whole rounds still ordered");
    }

    #[test]
    fn work_scales_with_volume() {
        // The variable part grows linearly; fixed overheads cancel out.
        let base = client_round_work(0, 0, 0, Method::Lzw);
        let small = client_round_work(1_000, 1_200, 1_000, Method::Lzw) - base;
        let big = client_round_work(10_000, 12_000, 10_000, Method::Lzw) - base;
        assert!((big / small - 10.0).abs() < 0.5, "{big} vs {small}");
    }
}
