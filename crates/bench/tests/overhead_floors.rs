//! Wall-clock floors: the hot-path costs this repository claims, each as
//! a throughput ratio measured within one process. A check runs its two
//! sides alternately, keeps the fastest of `RUNS` runs of each (noise
//! only ever slows a run down) and asserts the ratio of the two bests.
//! Each floor is 80 % of the ratio measured when the claim was made,
//! except the disabled-exporter one, which is the claim itself. The two
//! `Adaptive` checks read a scalar, which is stored as bits in one
//! `AtomicU64`; their ratios were 0.7546 and 1.0058 when the claim was
//! made, with the value behind a boxed pointer:
//!
//! | check | measured | floor |
//! |---|---|---|
//! | `Adaptive::get` against a plain read | 0.65–0.84 (median 0.78) | 0.60 |
//! | a never-mutated `Adaptive` against a mutated one | 0.95–1.01 | 0.80 |
//! | spans with exporters disabled against no exporter | 0.9931 | 0.95 |
//! | spans with retention enabled against no exporter | 0.4287 | 0.34 |
//!
//! Timing means nothing unoptimized or beside another busy test, so every
//! check is `#[ignore]`d; run them with
//! `cargo test -q --release -p adapt-bench -- --ignored --test-threads=1`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use obs::{Adaptive, Command, CommandRouter, ConfigRegistry, Obs};

/// Runs per side.
const RUNS: usize = 5;
/// Reads per `Adaptive` run.
const READS: u64 = 20_000_000;
/// Spans opened and closed per span run.
const SPANS: u64 = 2_000_000;

fn time(f: impl FnOnce()) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Throughput of `side` relative to `base`, best run against best run,
/// asserted at `floor`.
fn assert_floor(
    check: &str,
    floor: f64,
    mut side: impl FnMut() -> Duration,
    mut base: impl FnMut() -> Duration,
) {
    if cfg!(debug_assertions) {
        panic!("wall-clock floors hold only optimized: add --release");
    }
    let (mut best_side, mut best_base) = (Duration::MAX, Duration::MAX);
    for _ in 0..RUNS {
        best_side = best_side.min(side());
        best_base = best_base.min(base());
    }
    let ratio = best_base.as_secs_f64() / best_side.as_secs_f64();
    eprintln!("{check}: {ratio:.3} (floor {floor})");
    assert!(ratio >= floor, "{check}: {ratio:.3} is below the {floor} floor");
}

/// Sum `READS` values through `read`.
fn reads(read: impl Fn() -> u64) -> Duration {
    time(|| {
        let mut acc = 0u64;
        for _ in 0..READS {
            acc = acc.wrapping_add(black_box(read()));
        }
        black_box(acc);
    })
}

/// Open and close `SPANS` spans on one histogram of `obs`.
fn spans(obs: &Obs) -> Duration {
    let h = obs.histogram("floors.span");
    time(|| {
        for _ in 0..SPANS {
            let _g = black_box(obs.span(h));
        }
    })
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn adaptive_get_keeps_pace_with_a_plain_read() {
    let plain = 7u64;
    let handle = Adaptive::new(7u64);
    handle.set(7); // mutated once: the steady state of a live knob
    assert_floor(
        "Adaptive::get against a plain read",
        0.60,
        || reads(|| black_box(&handle).get()),
        || reads(|| *black_box(&plain)),
    );
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn an_idle_control_plane_costs_a_read_nothing() {
    let idle = Adaptive::new(7u64);
    let mutated = Adaptive::new(7u64);
    mutated.set(7);
    assert_floor(
        "never-mutated against mutated Adaptive::get",
        0.80,
        || reads(|| black_box(&idle).get()),
        || reads(|| black_box(&mutated).get()),
    );
    assert_eq!(idle.version(), 0, "the idle handle was never mutated");
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn disabled_exporters_cost_a_span_nothing() {
    // Exporters exercised, then switched off through the control plane:
    // a production run that is not being scraped right now.
    let obs = Obs::new();
    let registry = ConfigRegistry::new();
    obs.register_export_knobs(&registry);
    let router = CommandRouter::new(registry).with_obs(&obs);
    router.dispatch(0, "floors", Command::set("obs.export.spans", true)).expect("knob on");
    drop(obs.span_named("floors.span"));
    black_box((obs.export_prometheus(), obs.export_otlp_spans()));
    router.dispatch(1, "floors", Command::set("obs.export.spans", false)).expect("knob off");
    obs.clear_spans();
    let baseline = Obs::new();
    assert_floor(
        "spans with exporters disabled against no exporter",
        0.95,
        || spans(&obs),
        || spans(&baseline),
    );
}

#[test]
#[ignore = "wall-clock: run in release on one test thread"]
fn span_retention_costs_a_bounded_factor() {
    let baseline = Obs::new();
    assert_floor(
        "spans with retention enabled against no exporter",
        0.34,
        || {
            // A fresh handle per run: each run grows its own retention
            // buffer, and frees it outside the timed loop.
            let obs = Obs::new();
            obs.set_span_export(true);
            spans(&obs)
        },
        || spans(&baseline),
    );
}
