//! Hot-path allocation audit: recording a metric against a pre-registered
//! id, and publishing a packed event once the bus ring is full, must not
//! touch the heap. This binary installs a counting global allocator, so it
//! holds exactly one test.

use obs::bus::DEFAULT_RING_CAPACITY;
use obs::{FieldType, Obs, Shape, Source};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

static MSG_SENT: Shape = Shape::new(
    Source::Simnet,
    "msg_sent",
    &[("src", FieldType::U64), ("dst", FieldType::U64), ("bytes", FieldType::U64)],
);

/// The fewest heap allocations `f` performed in any of up to five runs.
///
/// The counting allocator is process-global, so a test-harness thread
/// allocating concurrently (stdio buffers and the like) can leak a few
/// counts into a measurement window. A genuine hot-path allocation repeats
/// on every iteration of `f` (>= 10_000 counts); harness noise is a
/// handful once. So the caller demands one perfectly clean window.
fn cleanest_window(mut f: impl FnMut()) -> u64 {
    let mut min_delta = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCS.load(Ordering::SeqCst);
        f();
        min_delta = min_delta.min(ALLOCS.load(Ordering::SeqCst) - before);
        if min_delta == 0 {
            break;
        }
    }
    min_delta
}

#[test]
fn recording_on_the_hot_path_never_allocates() {
    let obs = Obs::new();
    // Registration (allocates; done once at setup, off the hot path).
    let ticks = obs.counter("monitor.ticks");
    let estimate = obs.gauge("monitor.estimate");
    let predict = obs.histogram("perfdb.predict");

    // Warm up every code path once.
    obs.inc(ticks, 1);
    obs.set(estimate, 0.1);
    obs.observe(predict, 1.0);
    drop(obs.span(predict));

    let min_delta = cleanest_window(|| {
        for i in 0..10_000u64 {
            obs.inc(ticks, 1);
            obs.set(estimate, i as f64 * 0.001);
            obs.observe(predict, (i % 97) as f64);
            let _span = obs.span(predict);
        }
    });
    assert_eq!(
        min_delta, 0,
        "hot-path metric recording performed {min_delta} heap allocations in its cleanest window"
    );

    // Fill the ring (growing it allocates), then publish past it: each
    // packed publish evicts the oldest slot and stores one in its place.
    let ring = DEFAULT_RING_CAPACITY as u64;
    for i in 0..ring {
        obs.publish_packed(i, &MSG_SENT, [i, i + 1, 64]);
    }
    let mut at_us = ring;
    let min_delta = cleanest_window(|| {
        for _ in 0..10_000 {
            obs.publish_packed(at_us, &MSG_SENT, [at_us, at_us + 1, 64]);
            at_us += 1;
        }
    });
    assert!(obs.events_dropped() >= 10_000, "the ring never wrapped");
    assert_eq!(
        min_delta, 0,
        "packed publishes into a full ring performed {min_delta} heap allocations in their \
         cleanest window"
    );
}
