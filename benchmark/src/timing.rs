//! Probe timing. The sandbox VM shows one-sided slowdowns (a busy
//! neighbour, never a speed-up), so every probe reports its fastest
//! batch: the minimum estimates the undisturbed cost.

use std::time::{Duration, Instant};

/// Wall time one probe may spend measuring, after calibration.
const PROBE_BUDGET: Duration = Duration::from_millis(40);
/// Target length of one timed batch.
const BATCH_TARGET: Duration = Duration::from_millis(2);

/// Fastest per-call time of `f`, in nanoseconds.
pub fn per_call_ns(mut f: impl FnMut()) -> f64 {
    // Calibrate: double the batch until it lasts long enough to time.
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= BATCH_TARGET || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut batches = 0;
    while batches < 3 || started.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e9 / n as f64);
        batches += 1;
    }
    best
}

/// Wall seconds of one call to `f`, and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Run `f` `times` times; the fastest wall time in seconds and the last
/// result.
pub fn best_of<T>(times: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut best, mut last) = timed(&mut f);
    for _ in 1..times {
        let (secs, out) = timed(&mut f);
        best = best.min(secs);
        last = out;
    }
    (best, last)
}
