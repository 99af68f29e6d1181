//! The workspace's deterministic primitives: one seeded stream and one
//! digest. Every seeded draw in the workspace goes through
//! [`SplitMix64`] — the kernel's loss and jitter maps and explore mode,
//! retry jitter, the synthetic image generators, the load generator, the
//! arbiter storm, the simulation-test explorer — and every committed
//! digest through [`Fnv64`]. They live here, at the bottom of the
//! dependency graph, so that crates with no business depending on the
//! simulator (`wavelet`) share the one path.
//!
//! Both are self-contained on purpose (no external RNG crate, no
//! `std::hash`): every pinned digest (the load, arbiter and explorer rows
//! of `crates/bench/tests/digest_contract.rs`, the DST repros, the
//! `wire_bytes` hashes) is a function of these exact bit streams, and an
//! external crate's stream or hasher is free to change between versions.
//!
//! [`par_map`] is the workspace's one way to run independent work on
//! threads, and it is deterministic in the same sense: its result is in
//! input order whatever the worker count, so a caller whose items are
//! pure functions of their input produces the same bytes on one core or
//! many. The worker count never enters a simulation or a digest.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo` when `hi <= lo`, without
    /// drawing. The modulo bias is irrelevant at the ranges in use
    /// (~2^16 out of 2^64).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }

    /// Uniform in `[0, n)`; `0` when `n == 0`, without drawing.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// FNV-1a 64 hasher. Digests feed integers through [`Fnv64::write_u64`]
/// (little-endian, so they are platform-stable) and deliberately exclude
/// floats and wall-clock values.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The string's bytes followed by its length, so `"ab", "c"` and
    /// `"a", "bc"` digest differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// The host's core count (`available_parallelism`, 1 if unknown), read
/// once per process.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    /// Whether this thread works for a map of two or more workers.
    static IN_MAP: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a map's worker until dropped, then
/// restores the mark it had (a panic in `f` unwinds through the drop).
struct Marked(bool);

impl Marked {
    fn new() -> Self {
        Marked(IN_MAP.replace(true))
    }
}

impl Drop for Marked {
    fn drop(&mut self) {
        IN_MAP.set(self.0);
    }
}

/// `items.iter().map(f).collect()`, on up to `workers` threads.
///
/// The calling thread works too, and an idle worker pulls the next index
/// from a shared counter, so items start in input order and a slow one
/// holds up no other. Results come back in input order. A panic in `f`
/// reaches the caller once every worker has stopped. The worker count
/// is at most `workers`, [`cores`] and `items.len()`; with one worker
/// the map runs inline and spawns nothing.
///
/// A map called from inside another map's `f` while that map runs on two
/// or more threads runs inline too, so nested maps (profiler runs whose
/// cold payloads compress bzip blocks) share the outer map's threads
/// rather than multiply them. A one-worker map marks nothing, so a map
/// inside it keeps its threads.
pub fn par_map<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(cores()).min(items.len());
    if workers <= 1 || IN_MAP.get() {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices, each once, and publishes no
    // data: results reach this thread through the joins.
    let next = AtomicUsize::new(0);
    let work = || {
        let _marked = Marked::new();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return done };
            done.push((i, f(item)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            done.extend(handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(bytes: &[u8]) -> u64 {
        let mut h = Fnv64::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn fnv_known_answers() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv64::new();
        c.write_str("ab");
        c.write_str("c");
        let mut d = Fnv64::new();
        d.write_str("a");
        d.write_str("bc");
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn splitmix_known_answer() {
        assert_eq!(SplitMix64::new(0).next_u64(), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn par_map_keeps_input_order() {
        for workers in 1..=4 {
            for n in [0usize, 1, 2, 7] {
                let items: Vec<u64> = (0..n as u64).collect();
                let got = par_map(&items, workers, |&x| x * x + 1);
                let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
                assert_eq!(got, want, "workers {workers}, items {n}");
            }
        }
    }

    #[test]
    fn par_map_of_fewer_than_two_items_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for workers in 1..=4 {
            let ran_on = par_map(&[()], workers, |_| std::thread::current().id());
            assert_eq!(ran_on, vec![caller]);
        }
    }

    /// Whether a two-worker map runs its two items at once: each waits
    /// for the other to start, and only two threads at once finish before
    /// the deadline.
    fn two_at_once() -> bool {
        let started = AtomicUsize::new(0);
        let met = par_map(&[0, 1], 2, |_| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while started.load(Ordering::SeqCst) < 2 && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            started.load(Ordering::SeqCst) == 2
        });
        met == [true, true]
    }

    #[test]
    fn par_map_runs_two_items_at_once_on_two_workers() {
        if cores() < 2 {
            return;
        }
        assert!(two_at_once());
    }

    #[test]
    fn a_map_inside_a_parallel_map_runs_on_the_thread_that_called_it() {
        if cores() < 2 {
            return;
        }
        // Items slow enough that a spawned inner worker would take one.
        let inline = par_map(&[0, 1], 2, |_| {
            let outer = std::thread::current().id();
            let ran_on = par_map(&[0, 1, 2], 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                std::thread::current().id()
            });
            ran_on == [outer; 3]
        });
        assert_eq!(inline, vec![true, true]);
        // A one-worker map marks nothing, and a finished map unmarks its
        // caller: maps inside and after them spread again.
        assert_eq!(par_map(&[()], 1, |_| two_at_once()), vec![true]);
        assert!(two_at_once());
    }

    #[test]
    fn par_map_propagates_a_panicking_item() {
        for workers in 1..=4 {
            let items: Vec<u32> = (0..7).collect();
            let caught = std::panic::catch_unwind(|| {
                par_map(&items, workers, |&x| {
                    assert!(x != 5, "item {x}");
                    x
                })
            });
            let panic = caught.expect_err("the panic reaches the caller");
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 5"), "workers {workers}");
        }
    }

    #[test]
    fn degenerate_ranges_return_the_floor_without_drawing() {
        let mut r = SplitMix64::new(7);
        assert_eq!(r.range(5, 5), 5);
        assert_eq!(r.range(9, 3), 9);
        assert_eq!(r.below(0), 0);
        assert_eq!(r.next_u64(), SplitMix64::new(7).next_u64());
    }
}
