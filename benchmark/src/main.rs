//! End-to-end benchmark with per-layer attribution.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! benchmark run    [--seed N] [--workload W] [--seconds S]  end-to-end table, one child per workload
//! benchmark trace  [--seed N] [--workload W]                per-layer tables, out/trace.json
//! benchmark repeat [--workload W] [--seconds S]             seed 7 twice, held-out seed 11 once
//! benchmark manifest                                        render BENCHMARK.json
//! ```
//!
//! See README.md for what each workload and metric means.

mod json;
mod metrics;
mod rng;
mod runner;
mod stats;
mod sut;
mod timing;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Better, END_TO_END, EXACT, PER_LAYER};
use sut::WORKLOADS;

const DEFAULT_SEED: u64 = 7;
const HELD_OUT_SEED: u64 = 11;
/// Also `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 30;

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                cli.workload = Some(w);
            }
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => cli.trace = value("--trace")? == "1",
            "run" | "trace" | "repeat" | "manifest" if cli.command.is_none() => {
                cli.command = Some(arg);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let code = match (cli.command.as_deref(), &cli.workload) {
        (None, Some(workload)) => runner::run(&runner::Args {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        }),
        (None, None) => {
            eprintln!("benchmark: give --workload, or one of run | trace | repeat | manifest");
            2
        }
        (Some("run"), _) => command_run(&cli),
        (Some("trace"), _) => command_trace(&cli),
        (Some("repeat"), _) => command_repeat(&cli),
        (Some(_), _) => {
            println!("{}", manifest());
            0
        }
    };
    ExitCode::from(code)
}

/// `BENCHMARK.json`, rendered from the harness's own tables.
fn manifest() -> String {
    let quoted = |s: &str| Json::str(s).render();
    let mut out = String::from("{\n");
    out += "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
            \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n";
    out += "  \"paths\": [\"benchmark\"],\n";
    out += &format!("  \"run_seconds\": {DEFAULT_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why)))
        .collect();
    out += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.name()),
                m.bound
            )
        })
        .collect();
    out += &format!("  \"end_to_end\": [\n{}\n  ],\n", end_to_end.join(",\n"));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.name())
            )
        })
        .collect();
    out += &format!("  \"per_layer\": [\n{}\n  ]\n}}", per_layer.join(",\n"));
    out
}

/// What one child process reported.
struct Outcome {
    workload: String,
    ok: bool,
    detail: Json,
    result: Json,
}

impl Outcome {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn exact(&self, name: &str) -> Option<f64> {
        self.detail.get("exact")?.get(name)?.as_f64()
    }

    /// A named value from either the bounded or the exact set.
    fn value(&self, name: &str) -> Option<f64> {
        self.metric(name).or_else(|| self.exact(name))
    }
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| cli.workload.as_deref().is_none_or(|w| w == *name))
        .collect()
}

/// Run one workload in a child process of its own (so `peak_rss_mb` is
/// that workload's alone) and parse the two result lines it prints last.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, show: bool) -> Outcome {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn child benchmark process");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let parse = |line: Option<&str>| Json::parse(line.unwrap_or("")).unwrap_or(Json::Null);
    let result = parse(lines.pop());
    let detail = parse(lines.pop()).get("detail").cloned().unwrap_or(Json::Null);
    if show {
        for line in &lines {
            println!("{line}");
        }
    }
    let ok = output.status.success() && result.get("correct") == Some(&Json::Bool(true));
    if !ok {
        eprintln!("benchmark: {workload} (seed {seed}) failed its run or its correctness gate");
    }
    Outcome { workload: workload.to_string(), ok, detail, result }
}

fn cell(v: Option<f64>) -> String {
    // Absent, never zero: the metric is not defined on that workload.
    v.map_or("-".to_string(), |v| format!("{v:.4}"))
}

fn print_environment(outcome: &Outcome) {
    if let Some(env) = outcome.detail.get("env") {
        println!("environment: {}", env.render());
    }
}

/// Every end-to-end metric by name with its unit, one column per workload.
fn print_end_to_end(outcomes: &[Outcome]) {
    print!("{:<22} {:<6}", "metric", "unit");
    for o in outcomes {
        print!(" {:>18}", o.workload);
    }
    println!();
    let bounded = END_TO_END.iter().map(|m| (m.name, m.unit));
    for (name, unit) in bounded.chain(EXACT) {
        print!("{name:<22} {unit:<6}");
        for o in outcomes {
            print!(" {:>18}", cell(o.value(name)));
        }
        println!();
    }
    for o in outcomes {
        println!(
            "{}: digest {} reps {} samples {}",
            o.workload,
            o.detail.get("digest").and_then(Json::as_str).unwrap_or("-"),
            o.detail.get("reps").and_then(Json::as_f64).unwrap_or(0.0),
            o.detail.get("samples").map_or("-".into(), Json::render),
        );
    }
}

fn command_run(cli: &Cli) -> u8 {
    let outcomes: Vec<Outcome> =
        selected(cli).iter().map(|w| child(w, cli.seed, cli.seconds, false, false)).collect();
    print_environment(&outcomes[0]);
    print_end_to_end(&outcomes);
    u8::from(!outcomes.iter().all(|o| o.ok))
}

fn command_trace(cli: &Cli) -> u8 {
    let outcomes: Vec<Outcome> =
        selected(cli).iter().map(|w| child(w, cli.seed, cli.seconds, true, true)).collect();
    print_environment(&outcomes[0]);
    // One file for the whole traced run: every workload's spans.
    let mut spans = Vec::new();
    for o in &outcomes {
        let file = o.detail.get("trace_file").and_then(Json::as_str).unwrap_or("");
        match std::fs::read_to_string(file).map_err(|e| e.to_string()).and_then(|t| Json::parse(&t))
        {
            Ok(Json::Arr(a)) => spans.extend(a),
            _ => eprintln!("benchmark: no spans from {}", o.workload),
        }
    }
    let merged = runner::out_dir().join("trace.json");
    match std::fs::write(&merged, Json::Arr(spans).render() + "\n") {
        Ok(()) => println!("spans written to {}", merged.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", merged.display()),
    }
    u8::from(!outcomes.iter().all(|o| o.ok))
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn command_repeat(cli: &Cli) -> u8 {
    let set = |seed: u64| -> Vec<Outcome> {
        selected(cli).iter().map(|w| child(w, seed, cli.seconds, false, false)).collect()
    };
    let (a, b, held_out) = (set(DEFAULT_SEED), set(DEFAULT_SEED), set(HELD_OUT_SEED));
    print_environment(&a[0]);
    let mut ok = a.iter().chain(&b).chain(&held_out).all(|o| o.ok);
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}  {:>14}",
        "workload", "metric", "seed 7 (A)", "seed 7 (B)", "worse %", "bound", "seed 11"
    );
    for ((a, b), c) in a.iter().zip(&b).zip(&held_out) {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (a.metric(m.name), b.metric(m.name)) else { continue };
            // Either set may be the slower one.
            let worse = worsening(va, vb, m.better).max(worsening(vb, va, m.better));
            let within = worse <= m.bound;
            ok &= within;
            println!(
                "{:<18} {:<20} {:>14.4} {:>14.4} {:>8.2} {:>6.2}  {:>14} {}",
                a.workload,
                m.name,
                va,
                vb,
                100.0 * worse,
                m.bound,
                cell(c.metric(m.name)),
                if within { "" } else { "OUT OF BOUND" }
            );
        }
        for (name, _) in EXACT {
            let (va, vb) = (a.exact(name), b.exact(name));
            if va.is_none() && vb.is_none() {
                continue;
            }
            let same = va == vb;
            ok &= same;
            println!(
                "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}  {:>14} {}",
                a.workload,
                name,
                cell(va),
                cell(vb),
                "-",
                "exact",
                cell(c.exact(name)),
                if same { "" } else { "DIFFERS" }
            );
        }
        // The first 8 hex digits are enough to tell digests apart by eye.
        let digest = |o: &Outcome| {
            let d = o.detail.get("digest").and_then(Json::as_str).unwrap_or("-");
            d[..d.len().min(8)].to_string()
        };
        let same = a.detail.get("digest") == b.detail.get("digest");
        ok &= same;
        println!(
            "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}  {:>14} {}",
            a.workload,
            "digest",
            digest(a),
            digest(b),
            "-",
            "exact",
            digest(c),
            if same { "" } else { "DIFFERS" }
        );
        for (label, o) in [("A", a), ("B", b), ("seed 11", c)] {
            for key in ["rep_wall_ms", "setup_s"] {
                if let Some(s) = o.detail.get(key).and_then(Json::as_obj) {
                    let q = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "  {:<16} {:<12} {:<8} n {:>3}  min {:>11.4}  q1 {:>11.4}  median {:>11.4}  q3 {:>11.4}",
                        o.workload, key, label, q("n"), q("min"), q("q1"), q("median"), q("q3")
                    );
                }
            }
        }
    }
    println!("{}", if ok { "repeat: PASS" } else { "repeat: FAIL" });
    u8::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn manifest_meets_the_driver_contract() {
        let m = Json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = m.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(well_formed_name(name), "bad name {name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed.trim_end(), manifest(), "run `benchmark manifest > BENCHMARK.json`");
    }
}
