//! Cluster-arbiter saturation benchmark, written as machine-readable
//! JSON (BENCH_arbiter.json).
//!
//! Sweeps offered load — application count at a fixed cluster size and
//! arrival rate — through the arbiter storm and reports, per point:
//!
//! * **admission outcomes** — admitted / queued / rejected counts and
//!   how the run ended per app (done / evicted);
//! * **overload behaviour** — shed / recovered counts, breaker
//!   open/close totals, and policing activity (violations, throttles,
//!   demotions, evictions — the mix plants one rogue per
//!   `ROGUE_EVERY` apps so policing is exercised under load);
//! * **service quality** — time-averaged cluster utilization, both over
//!   the whole policed interval and over the *busy period* (admission
//!   queue non-empty — packing efficiency under saturation, free of
//!   arrival-ramp and drain-down dilution), the violation rate per
//!   admitted app, and per-tier p99 session response times;
//! * **determinism** — the storm digest.
//!
//! The `"deterministic"` object is a pure function of seeds and is what
//! `scripts/bench_gate.sh` compares against the committed baseline; the
//! `"timing"` object carries wall-clock measurements and is exempt.
//!
//! The bench asserts the acceptance shape in-process: busy-period
//! utilization at the knee (the sweep's maximum) must be >= 0.8, and the
//! top-tier (gold) p99 stays bounded at every point.
//!
//! Usage: `arbiter_bench [output.json]` (default `BENCH_arbiter.json`).
//! `ARBITER_BENCH_FAST=1` shrinks the sweep for smoke runs and skips
//! the knee assertions.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use adapt_bench::arbiter::{bench_opts as opts, HOSTS};
use adapt_core::PerfDb;
use arbiter::{run_storm, AppState, StormReport};
use visapp::model_db;

/// Offered-load sweep: total applications per storm.
const SWEEP: [usize; 6] = [8, 16, 32, 64, 128, 256];
const FAST_SWEEP: [usize; 2] = [8, 32];

/// Gold p99 must stay below this at every sweep point (seconds).
const GOLD_P99_BOUND_S: f64 = 5.0;

struct Point {
    apps: usize,
    report: StormReport,
    wall_secs: f64,
}

fn run_point(apps: usize, db: &Arc<PerfDb>) -> Point {
    let t = Instant::now();
    let report = run_storm(&opts(apps), db);
    Point { apps, report, wall_secs: t.elapsed().as_secs_f64() }
}

fn p99_of(report: &StormReport, tier: u8) -> Option<f64> {
    report.p99_response_s.iter().find(|(t, _)| *t == tier).map(|(_, v)| *v)
}

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_arbiter.json".into());
    let fast = std::env::var("ARBITER_BENCH_FAST").is_ok_and(|v| v == "1");
    let sweep: &[usize] = if fast { &FAST_SWEEP } else { &SWEEP };

    let db = Arc::new(model_db(&opts(SWEEP[0]).load_opts()));
    println!("pricing database: {} records (analytic model), shared across every storm", db.len());

    let mut points = Vec::new();
    for &apps in sweep {
        println!("storm: {apps} apps on {HOSTS} hosts...");
        let p = run_point(apps, &db);
        let r = &p.report;
        println!(
            "  end {:.2}s  util {:.3}  busy-util {:.3}  admitted {}  queued {}  \
             backfilled {}  shed {}  \
             recovered {}  evicted {}  violations {}  digest {:016x}",
            r.end.as_secs_f64(),
            r.utilization,
            r.busy_utilization,
            r.counters.admitted,
            r.counters.queued,
            r.counters.backfilled,
            r.counters.shed,
            r.counters.recovered,
            r.counters.evicted,
            r.counters.violations,
            r.digest()
        );
        points.push(p);
    }

    let knee = points.last().expect("non-empty sweep");
    for p in &points {
        if let Some(p99) = p99_of(&p.report, 0) {
            assert!(p99 < GOLD_P99_BOUND_S, "gold p99 {p99:.3}s unbounded at {} apps", p.apps);
        }
    }
    if !fast {
        assert!(
            knee.report.busy_utilization >= 0.8,
            "knee busy-period utilization {:.3} below the 0.8 acceptance floor",
            knee.report.busy_utilization
        );
    }
    println!(
        "knee: {} apps at busy-period utilization {:.3} (floor 0.8{}), \
         whole-run utilization {:.3}",
        knee.apps,
        knee.report.busy_utilization,
        if fast { ", not asserted in fast mode" } else { "" },
        knee.report.utilization,
    );

    let mut s = String::new();
    s.push_str("{\n\"bench\": \"arbiter\",\n\"deterministic\": {\n  \"sweep\": [\n");
    for (i, p) in points.iter().enumerate() {
        let r = &p.report;
        let c = &r.counters;
        let admitted = c.admitted.max(1);
        let _ = write!(
            s,
            "    {{\"apps\": {}, \"admitted\": {}, \"queued\": {}, \"backfilled\": {}, \
             \"rejected\": {}, \
             \"done\": {}, \"shed\": {}, \"recovered\": {}, \"throttled\": {}, \
             \"demoted\": {}, \"evicted\": {}, \"violations\": {}, \
             \"overload_opens\": {}, \"overload_closes\": {}, \"end_us\": {}, \
             \"utilization\": {:.4}, \"busy_utilization\": {:.4}, \
             \"violation_rate\": {:.4}, \
             \"digest\": \"{:016x}\"",
            p.apps,
            c.admitted,
            c.queued,
            c.backfilled,
            c.rejected,
            r.count(AppState::Done),
            c.shed,
            c.recovered,
            c.throttled,
            c.demoted,
            c.evicted,
            c.violations,
            r.overload_opens,
            r.overload_closes,
            r.end.as_us(),
            r.utilization,
            r.busy_utilization,
            c.violations as f64 / admitted as f64,
            r.digest(),
        );
        for tier in 0u8..3 {
            if let Some(p99) = p99_of(r, tier) {
                let _ = write!(s, ", \"p99_tier{tier}_s\": {p99:.4}");
            }
        }
        let _ = writeln!(s, "}}{}", if i + 1 < points.len() { "," } else { "" });
    }
    let _ = writeln!(
        s,
        "  ],\n  \"knee\": {{\"apps\": {}, \"busy_utilization\": {:.4}, \
         \"utilization\": {:.4}, \"floor\": 0.8}}\n}},",
        knee.apps, knee.report.busy_utilization, knee.report.utilization
    );
    s.push_str("\"timing\": {\n  \"rows\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"apps\": {}, \"wall_secs\": {:.4}, \"events_per_sec\": {:.0}}}{}",
            p.apps,
            p.wall_secs,
            p.report.events_handled as f64 / p.wall_secs.max(1e-9),
            if i + 1 < points.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n}\n");

    std::fs::write(&out, &s).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
