//! One workload in this process: set up, repeat, gate, report.
//!
//! Prints a `detail` JSON line (environment, sample counts, digests,
//! every exact value) and then, as the last line of standard output, the
//! result object `BENCHMARK.json` promises.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER, SHARE_LAYERS};
use crate::stats::{median, min, quantile, sorted};
use crate::sut::{self, Counts, Rep, Workload};
use crate::trace::Tracer;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up is repeated while the set-ups so far took less than this ...
const SETUP_BUDGET_S: f64 = 3.0;
/// ... and at most this many times.
const SETUPS_MAX: usize = 8;
/// Fewest timed repetitions, whatever `--seconds` says: the digest gate
/// needs two to compare.
const REPS_MIN: usize = 2;

/// `benchmark/out`, next to this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers were taken: cores, compiler, commit.
fn environment(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < 2 {
        eprintln!("WARNING: nproc = {nproc}. The harness and the OS share one core;");
        eprintln!("WARNING: host-time metrics from this run are not comparable.");
    }
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["-C", &root.to_string_lossy(), "rev-parse", "HEAD"]))
        .flatten();
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()))),
        ("git_commit", Json::str(commit.unwrap_or_else(|| "unknown".into()))),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// High-water resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn hex(digest: u64) -> Json {
    Json::str(format!("{digest:016x}"))
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

fn spread(samples: &[f64]) -> Json {
    let s = sorted(samples);
    Json::obj([
        ("n", Json::Num(s.len() as f64)),
        ("min", Json::Num(s[0])),
        ("q1", Json::Num(quantile(&s, 0.25))),
        ("median", Json::Num(quantile(&s, 0.5))),
        ("q3", Json::Num(quantile(&s, 0.75))),
    ])
}

/// What must hold across the repetitions of one run, the warm-up one
/// included: same digest, same exact values, no broken invariant.
fn gate(reps: &[&Rep], warmup_digest: Option<u64>) -> Vec<String> {
    let mut violations: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();
    violations.sort();
    violations.dedup();
    let first = reps[0];
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if rep.digest != first.digest {
            violations.push(format!(
                "repetition {i} digest {:016x} differs from repetition 0 digest {:016x}",
                rep.digest, first.digest
            ));
        }
        if rep.sim != first.sim {
            violations.push(format!("repetition {i} sim_* values differ from repetition 0"));
        }
    }
    if warmup_digest.is_some_and(|d| d != first.digest) {
        violations.push("the warm-up digest differs from the timed repetitions".into());
    }
    violations
}

/// Print the two result lines and return the exit code.
fn report(
    args: &Args,
    reps: &[&Rep],
    violations: &[String],
    metrics: Json,
    extra: Vec<(&'static str, Json)>,
) -> u8 {
    let attempted: u64 = reps.iter().map(|r| r.ops).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut exact = vec![("fail_ratio".to_string(), Json::Num(failed as f64 / attempted as f64))];
    exact.extend(reps[0].sim.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
    let mut detail = vec![
        ("workload", Json::str(&args.workload)),
        ("trace", Json::Bool(args.trace)),
        ("env", environment(args.seed)),
        ("reps", Json::Num(reps.len() as f64)),
        ("digest", hex(reps[0].digest)),
        ("exact", Json::obj(exact)),
        ("violations", Json::Arr(violations.iter().map(Json::str).collect())),
    ];
    detail.extend(extra);
    println!("{}", Json::obj([("detail", Json::obj(detail))]).render());
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(violations.is_empty())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    for v in violations {
        eprintln!("VIOLATION [{}]: {v}", args.workload);
    }
    u8::from(!violations.is_empty())
}

pub fn run(args: &Args) -> u8 {
    if args.trace {
        run_traced(args)
    } else {
        run_end_to_end(args)
    }
}

/// Tracing off: the end-to-end metrics.
fn run_end_to_end(args: &Args) -> u8 {
    let mut tracer = Tracer::new(false);

    // Set up once, and again while set-up is cheap, so the fastest one is
    // steady. The previous instance is dropped first, so peak memory is
    // one instance's.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    while setup_s.is_empty()
        || (setup_s.len() < SETUPS_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(sut::setup(&args.workload, args.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    // Repeat until the next repetition would end past `--seconds`.
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < REPS_MIN
        || started.elapsed().as_secs_f64() + reps[reps.len() - 1].wall_s() < args.seconds
    {
        reps.push(workload.rep(&mut tracer));
    }
    let reps: Vec<&Rep> = reps.iter().collect();
    let violations = gate(&reps, workload.warmup_digest());

    // Every repetition makes the same calls on the same inputs, so each
    // call's host time is the fastest of its repetitions (README.md, "Why
    // the fastest repetition"); medians ride in the detail line.
    let calls = reps[0].call_ms.len();
    let best_call_ms: Vec<f64> =
        (0..calls).map(|i| min(&reps.iter().map(|r| r.call_ms[i]).collect::<Vec<f64>>())).collect();
    let ops = reps[0].ops as f64;
    let best_wall_ms: f64 = best_call_ms.iter().sum();
    // Where each call is one operation the calls are the distribution;
    // elsewhere every operation shares the repetition's mean.
    let op_ms = if calls as f64 == ops { sorted(&best_call_ms) } else { vec![best_wall_ms / ops] };
    let values = [
        ("setup_s", min(&setup_s)),
        ("ops_per_s", ops / (best_wall_ms / 1e3)),
        ("op_ms_p50", quantile(&op_ms, 0.5)),
        ("op_ms_p90", quantile(&op_ms, 0.9)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let metrics = Json::obj(END_TO_END.iter().map(|m| {
        let (_, v) =
            values.iter().find(|(name, _)| *name == m.name).expect("every metric computed");
        (m.name, metric(*v, m.unit))
    }));
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s()).collect();
    let timed_calls = (calls * reps.len()) as f64;
    let extra = vec![
        ("setup_s", spread(&setup_s)),
        ("rep_wall_ms", spread(&walls.iter().map(|w| w * 1e3).collect::<Vec<f64>>())),
        ("ops_per_s_median", Json::Num(ops / median(&walls))),
        (
            "samples",
            Json::obj([
                ("setup_s", Json::Num(setup_s.len() as f64)),
                ("ops_per_s", Json::Num(reps.len() as f64)),
                ("op_ms_p50", Json::Num(timed_calls)),
                ("op_ms_p90", Json::Num(timed_calls)),
                ("peak_rss_mb", Json::Num(1.0)),
            ]),
        ),
    ];
    report(args, &reps, &violations, metrics, extra)
}

/// Tracing on: one untraced and one traced repetition, then every probe,
/// each under a span; the per-layer metrics.
fn run_traced(args: &Args) -> u8 {
    let mut tracer = Tracer::new(true);
    let (untraced, traced, probes, warmup_digest) = tracer.span(&args.workload, |tracer| {
        let mut workload = tracer.span("setup", |_| sut::setup(&args.workload, args.seed));
        tracer.set_enabled(false);
        let untraced = workload.rep(tracer);
        tracer.set_enabled(true);
        let traced = tracer.span("rep", |t| workload.rep(t));
        let ctx = workload.probe_ctx();
        let mut probes = Counts::new();
        for (name, probe) in sut::PROBES {
            probes.extend(tracer.span(name, |_| probe(&ctx)));
        }
        (untraced, traced, probes, workload.warmup_digest())
    });
    let reps = [&untraced, &traced];
    let mut violations = gate(&reps, warmup_digest);

    let layers = layer_metrics(&untraced, &traced, &probes, &tracer);
    let mut metrics = Vec::new();
    for m in &PER_LAYER {
        match layers.get(m.name) {
            Some(v) if v.is_finite() => metrics.push((m.name, metric(*v, m.unit))),
            // An event that never happened in this workload.
            None if m.unit == "count" => metrics.push((m.name, metric(0.0, m.unit))),
            _ => violations.push(format!("per-layer metric {} was not measured", m.name)),
        }
    }

    let trace_file = out_dir().join(format!("trace.{}.json", args.workload));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&trace_file, tracer.to_json(&args.workload).render() + "\n"));
    if let Err(e) = written {
        violations.push(format!("cannot write {}: {e}", trace_file.display()));
    }
    print_tables(&args.workload, &tracer, &layers);
    let extra = vec![("trace_file", Json::str(trace_file.to_string_lossy()))];
    report(args, &reps, &violations, Json::obj(metrics), extra)
}

/// Counts from the traced repetition and times from the probes, joined:
/// `share_pct` = count x probe time / repetition wall.
///
/// Both repetitions do the same work, so the faster one's wall time is the
/// denominator: like the probes, it is the less disturbed measurement.
fn layer_metrics(untraced: &Rep, rep: &Rep, probes: &Counts, tracer: &Tracer) -> Counts {
    let count = |name: &str| rep.counts.get(name).copied().unwrap_or(0.0);
    let probe = |name: &str| probes.get(name).copied().unwrap_or(f64::NAN);
    let wall_us = rep.wall_s().min(untraced.wall_s()) * 1e6;
    let pct = |us: f64| 100.0 * us / wall_us;

    let mut m = probes.clone();
    m.extend(rep.counts.iter().map(|(k, v)| (*k, *v)));

    let events = count("simnet.events");
    m.insert("simnet.us_per_event", wall_us / events);
    m.insert(
        "simnet.share_pct",
        pct(events * probe("simnet.drain_ns_per_event") / 1e3
            + count("simnet.sims") * probe("simnet.sim_setup_us")),
    );
    m.insert(
        "core.runtime.share_pct",
        pct(count("core.runtime.ticks") * probe("core.runtime.tick_ns") / 1e3
            + count("core.scheduler.decides") * probe("core.runtime.tick_trigger_us")),
    );

    // Where the store is built inside the call (load, storm) its cache is
    // out of sight; every distinct payload is then counted cold once.
    let requests = count("visapp.server.requests");
    let cold = rep
        .counts
        .get("visapp.store.prepares_cold")
        .copied()
        .unwrap_or_else(|| probe("visapp.store.distinct_payloads").min(requests));
    m.insert("visapp.store.prepares_cold", cold);
    m.insert("visapp.store.hit_ratio", 1.0 - cold / requests);
    m.insert(
        "visapp.store.share_pct",
        pct(cold * probe("visapp.store.prepare_cold_ms") * 1e3
            + (requests - cold) * probe("visapp.store.prepare_warm_ns") / 1e3),
    );
    m.insert("wavelet.share_pct", pct(cold * probe("wavelet.ms_per_cold_payload") * 1e3));
    m.insert("compress.share_pct", pct(cold * probe("compress.ms_per_cold_payload") * 1e3));

    let (published, dropped) = (count("obs.bus_published"), count("obs.bus_dropped"));
    m.insert("obs.bus_drop_ratio", dropped / published);
    m.insert(
        "obs.share_pct",
        pct(((published - dropped) * probe("obs.publish_ns")
            + dropped * probe("obs.publish_full_ns"))
            / 1e3),
    );
    let attributed: f64 = SHARE_LAYERS.iter().map(|name| m[name]).sum();
    m.insert("unattributed.share_pct", 100.0 - attributed);
    m.insert("trace.spans", tracer.span_count() as f64);
    m.insert("trace.overhead_pct", 100.0 * (rep.wall_s() - untraced.wall_s()) / untraced.wall_s());
    m
}

fn print_tables(workload: &str, tracer: &Tracer, layers: &Counts) {
    println!("== {workload}: spans (self = span minus its children) ==");
    println!("{:<44} {:>6} {:>12} {:>12}", "span", "n", "total ms", "self ms");
    for row in tracer.flame() {
        println!("{:<44} {:>6} {:>12.3} {:>12.3}", row.path, row.count, row.total_ms, row.self_ms);
    }
    println!("== {workload}: share of one repetition's wall time ==");
    let mut shares: Vec<(&str, f64)> = SHARE_LAYERS
        .iter()
        .chain(&["unattributed.share_pct"])
        .map(|name| (*name, layers[name]))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, v) in shares {
        println!("{name:<44} {v:>9.2} %");
        if name == "visapp.store.share_pct" {
            for child in ["wavelet.share_pct", "compress.share_pct"] {
                println!("  of which {child:<33} {:>9.2} %", layers[child]);
            }
        }
    }
    println!("== {workload}: per-layer metrics ==");
    for m in &PER_LAYER {
        let v = layers.get(m.name).copied().unwrap_or(0.0);
        println!("{:<44} {:>16.4} {}", m.name, v, m.unit);
    }
}
