//! Regenerate the paper's figures. Usage:
//!
//! ```text
//! cargo run --release -p adapt-bench --bin figures -- [fig3a|fig3b|fig4a|fig4b|fig5|fig6a|fig6b|fig7a|fig7b|fig7cd|all]
//! ```
//!
//! Each figure prints the series the paper plots plus a one-line shape
//! verdict (who wins, where the crossover falls). Absolute seconds differ
//! from the paper (simulated substrate, synthetic images, scaled
//! bandwidths); the mapping is documented in EXPERIMENTS.md.

use adapt_bench::figs::{
    adaptation, experiment_scenario, extensions, fig3, fig4, figure_scenario, profiles,
};
use adapt_bench::{print_table, secs};
use simnet::SimTime;
use visapp::{RunStats, Scenario};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let threads = obs::det::cores();
    let run_all = which == "all";
    let want = |name: &str| run_all || which == name;

    if want("fig3a") {
        run_fig3a();
    }
    if want("fig3b") {
        run_fig3b();
    }
    if want("fig4a") {
        run_fig4a();
    }
    if want("fig4b") {
        run_fig4b();
    }
    if want("fig5") {
        run_fig5();
    }
    if want("fig6a") {
        run_fig6a();
    }
    if want("fig6b") {
        run_fig6b();
    }
    if want("fig7a") {
        run_fig7a(threads);
    }
    if want("fig7b") {
        run_fig7b(threads);
    }
    if want("fig7cd") {
        run_fig7cd(threads);
    }
    if want("extmem") {
        run_extmem();
    }
    if want("extload") {
        run_extload(threads);
    }
    if !run_all
        && !matches!(
            which.as_str(),
            "fig3a"
                | "fig3b"
                | "fig4a"
                | "fig4b"
                | "fig5"
                | "fig6a"
                | "fig6b"
                | "fig7a"
                | "fig7b"
                | "fig7cd"
                | "extmem"
                | "extload"
        )
    {
        eprintln!("unknown figure {which:?}");
        std::process::exit(2);
    }
}

fn run_fig3a() {
    let trace = fig3::fig3a();
    let rows: Vec<Vec<String>> = trace
        .iter()
        .filter(|p| (p.t_secs as u64).is_multiple_of(5))
        .map(|p| {
            vec![
                format!("{:.0}", p.t_secs),
                format!("{:.3}", p.requested_share),
                format!("{:.3}", p.observed_share),
            ]
        })
        .collect();
    print_table(
        "Figure 3(a): testbed CPU control (80% -> 40% @20s -> 60% @50s)",
        &["t(s)", "requested", "observed"],
        &rows,
    );
    let worst = trace
        .iter()
        .filter(|p| (p.t_secs - 21.0).abs() > 1.5 && (p.t_secs - 51.0).abs() > 1.5)
        .map(|p| (p.observed_share - p.requested_share).abs())
        .fold(0.0, f64::max);
    println!(
        "shape: observed usage tracks the requested share (max steady-state error {worst:.3})"
    );
}

fn run_fig3b() {
    let rows_data = fig3::fig3b(5.0);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.share * 100.0),
                secs(r.measured_secs),
                secs(r.expected_secs),
                format!("{:.2}%", r.relative_error() * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 3(b): measured vs expected time under the testbed (5s task)",
        &["share", "measured(s)", "expected(s)", "error"],
        &rows,
    );
    let worst = rows_data.iter().map(|r| r.relative_error()).fold(0.0, f64::max);
    println!(
        "shape: measured time matches full-speed-time/share (worst error {:.2}%)",
        worst * 100.0
    );
}

fn run_fig4a() {
    let rows_data = fig4::fig4a(5.0);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.machine.to_string(),
                format!("{:.2}", r.speed_ratio),
                secs(r.physical_secs),
                secs(r.testbed_secs),
                format!("{:.2}%", r.emulation_error() * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 4(a): simple app — physical machine vs testbed emulation",
        &["machine", "ratio", "physical(s)", "testbed(s)", "error"],
        &rows,
    );
    println!("shape: for a pure CPU loop the testbed reproduces slower machines almost exactly");
}

fn run_fig4b() {
    let sc = figure_scenario();
    let rows_data = fig4::fig4b(&sc);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.machine.to_string(),
                format!("{:.2}", r.speed_ratio),
                secs(r.physical_secs),
                secs(r.testbed_secs),
                secs(r.stretched_secs),
                format!("{:.2}%", r.emulation_error() * 100.0),
            ]
        })
        .collect();
    print_table(
        "Figure 4(b): active visualization — physical vs testbed vs naive stretch (server capped at 1 MB/s)",
        &["machine", "ratio", "physical(s)", "testbed(s)", "stretched(s)", "error"],
        &rows,
    );
    println!(
        "shape: testbed tracks the physical machines; naive CPU stretching overestimates because waits don't scale"
    );
}

fn fig_profile_scenario() -> Scenario {
    figure_scenario()
}

fn run_fig5() {
    let sc = fig_profile_scenario();
    let store = sc.build_store();
    let shares: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let (transmit, response) = profiles::fig5(&sc, &store, &shares, 500_000.0);
    for (title, series) in [
        ("Figure 5(a): image transmission time vs CPU share", &transmit),
        ("Figure 5(b): response time vs CPU share", &response),
    ] {
        let mut rows = Vec::new();
        for &share in &shares {
            let mut row = vec![format!("{:.1}", share)];
            for s in series.iter() {
                row.push(secs(s.at(share)));
            }
            rows.push(row);
        }
        let mut headers: Vec<&str> = vec!["share"];
        let labels: Vec<String> = series.iter().map(|s| s.label.clone()).collect();
        for l in &labels {
            headers.push(l);
        }
        print_table(title, &headers, &rows);
    }
    println!(
        "shape: more CPU -> faster; larger fovea -> shorter total transmission but longer per-round response"
    );
}

fn run_fig6a() {
    let sc = fig_profile_scenario();
    let store = sc.build_store();
    let bws = [12_500.0, 25_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0, 800_000.0];
    let series = profiles::fig6a(&sc, &store, &bws, 1.0);
    let mut rows = Vec::new();
    for &bw in &bws {
        rows.push(vec![
            format!("{:.0}", bw / 1000.0),
            secs(series[0].at(bw)),
            secs(series[1].at(bw)),
        ]);
    }
    print_table(
        "Figure 6(a): transmission time vs bandwidth per compression method",
        &["KB/s", "lzw(s)", "bzip(s)"],
        &rows,
    );
    match profiles::crossover(&series[0], &series[1]) {
        Some(x) => println!(
            "shape: crossover at ~{:.0} KB/s — bzip wins below, lzw above (paper: between 50 and 500 KBps)",
            x / 1000.0
        ),
        None => println!("shape: NO crossover found — check cost calibration"),
    }
}

fn run_fig6b() {
    let sc = fig_profile_scenario();
    let store = sc.build_store();
    let shares: Vec<f64> = (1..=10).map(|i| i as f64 / 10.0).collect();
    let series = profiles::fig6b(&sc, &store, &shares, 500_000.0);
    let mut rows = Vec::new();
    for &share in &shares {
        rows.push(vec![
            format!("{:.1}", share),
            secs(series[0].at(share)),
            secs(series[1].at(share)),
        ]);
    }
    print_table(
        "Figure 6(b): transmission time vs CPU share per resolution level",
        &["share", &series[0].label.clone(), &series[1].label.clone()],
        &rows,
    );
    println!("shape: lower resolution is uniformly faster; low CPU hurts the fine level most");
}

fn print_run(label: &str, stats: &RunStats) {
    let done = stats
        .finished_at
        .map(|t| format!("{:.1}s", t.as_secs_f64()))
        .unwrap_or_else(|| "DNF".into());
    println!(
        "  {label:<12} total={done:<8} avg_transmit={:.2}s avg_response={:.3}s switches={}",
        stats.avg_transmit_secs(),
        stats.avg_response_secs(),
        stats.switch_count()
    );
    let series: Vec<String> =
        stats.transmit_series().iter().map(|(t, tt)| format!("{t:.1}s:{tt:.2}")).collect();
    println!("    per-image (end:transmit) {}", series.join(" "));
}

fn run_fig7a(threads: usize) {
    let sc = experiment_scenario();
    let store = sc.build_store();
    let res =
        adaptation::fig7a(&sc, &store, 1.0, 500_000.0, 50_000.0, SimTime::from_secs(3), threads);
    println!(
        "\n== Figure 7(a): Experiment 1 — adapt compression to bandwidth (500 -> 50 KB/s @3s) =="
    );
    println!(
        "  db: {} records; config history: {:?}",
        res.db_records,
        adaptation::history(&res.adaptive)
    );
    print_run("adaptive", &res.adaptive);
    for (label, stats) in &res.static_runs {
        print_run(label, stats);
    }
    let a = res.adaptive.finished_at.unwrap().as_secs_f64();
    let l = res.static_runs[0].1.finished_at.unwrap().as_secs_f64();
    let b = res.static_runs[1].1.finished_at.unwrap().as_secs_f64();
    println!(
        "shape: adaptive ({a:.1}s) tracks the better static line in each phase (static lzw {l:.1}s, static bzip {b:.1}s)"
    );
}

fn run_fig7b(threads: usize) {
    let sc = experiment_scenario();
    let store = sc.build_store();
    let res = adaptation::fig7b(&sc, &store, 500_000.0, 0.9, 0.4, SimTime::from_secs(3), threads);
    println!("\n== Figure 7(b): Experiment 2 — degrade resolution under a deadline (CPU 90% -> 40% @3s) ==");
    println!(
        "  calibrated deadline: {:.2}s; config history: {:?}",
        res.threshold.unwrap(),
        adaptation::history(&res.adaptive)
    );
    print_run("adaptive", &res.adaptive);
    for (label, stats) in &res.static_runs {
        print_run(label, stats);
    }
    println!(
        "shape: starts at the finest level, degrades after the CPU drop so images keep meeting the deadline"
    );
}

fn run_fig7cd(threads: usize) {
    let sc = experiment_scenario();
    let store = sc.build_store();
    let res = adaptation::fig7cd(&sc, &store, 500_000.0, 0.9, 0.4, SimTime::from_secs(3), threads);
    println!("\n== Figure 7(c,d): Experiment 3 — shrink fovea under a response bound (CPU 90% -> 40% @3s) ==");
    println!(
        "  calibrated response bound: {:.3}s; config history: {:?}",
        res.threshold.unwrap(),
        adaptation::history(&res.adaptive)
    );
    print_run("adaptive", &res.adaptive);
    for (label, stats) in &res.static_runs {
        print_run(label, stats);
    }
    let resp: Vec<String> =
        res.adaptive.response_series().iter().map(|(t, r)| format!("{t:.1}s:{r:.3}")).collect();
    println!("  adaptive per-round (end:response) {}", resp.join(" "));
    println!("shape: big fovea until the CPU drop, then a smaller increment restores sub-bound responses");
}

fn run_extmem() {
    let sc = figure_scenario();
    let store = sc.build_store();
    // Working sets at 512px: level 4 ~ 1.34 MB, level 3 ~ 0.35 MB.
    let limits: Vec<u64> =
        [256u64, 512, 768, 1024, 1536, 2048].iter().map(|kb| kb * 1024).collect();
    let series = extensions::extmem(&sc, &store, &limits, 0.5);
    let mut rows = Vec::new();
    for &mem in &limits {
        rows.push(vec![
            format!("{}", mem / 1024),
            secs(series[0].at(mem as f64)),
            secs(series[1].at(mem as f64)),
        ]);
    }
    print_table(
        "Extension: transmission time vs client memory limit (paging model; CPU 50%, 500 KB/s)",
        &["mem(KB)", &series[0].label.clone(), &series[1].label.clone()],
        &rows,
    );
    println!(
        "shape: the fine level pages below its working set (~1.3 MB) while the coarse level fits — degrading resolution is also a memory lever"
    );
}

fn run_extload(threads: usize) {
    let sc = experiment_scenario();
    let store = sc.build_store();
    let (adaptive, static_fine, deadline) = extensions::extload(&sc, &store, 1.0, 3.0, threads);
    println!(
        "\n== Extension: adaptation under genuine contention (intruder process, weight 1.0 @3s) =="
    );
    println!(
        "  calibrated deadline: {deadline:.2}s; config history: {:?}",
        adaptation::history(&adaptive)
    );
    print_run("adaptive", &adaptive);
    print_run("static fine", &static_fine);
    println!(
        "shape: no sandbox limit changed — the monitor inferred the halved share from application progress and degraded resolution"
    );
}
