//! Load-storm walkthrough: hundreds of adaptive sessions on one kernel.
//!
//! Drives the `visapp::load` generator — 200 concurrent client sessions
//! with Poisson arrivals, per-session think times and QoS profiles, a
//! server pool, and one shared `Arc<PerfDb>` — twice, and shows that the
//! run is deterministic: the rerun reproduces the digest.
//!
//! Everything printed is read off the run's [`Obs`] handle: the
//! `load.*` aggregate metrics, the `runtime.tick` adapt-latency
//! histogram, and `Source::Load` session events.
//!
//! ```text
//! cargo run --release --example load_storm
//! ```

use std::sync::Arc;

use adaptive_framework::prelude::*;

fn main() {
    let opts = LoadGenOpts::new(200)
        .with_servers(8)
        .with_arrival(ArrivalProcess::Poisson { mean_gap_us: 2_000 })
        .with_think_time(10_000, 50_000);
    println!("building the shared performance database (analytic model)...");
    let db = Arc::new(model_db(&opts));
    println!(
        "database: {} records, ~{} KiB — shared by all {} sessions via Arc\n",
        db.len(),
        db.approx_bytes() / 1024,
        opts.sessions
    );

    println!("running {} sessions...", opts.sessions);
    let report = run_load(&opts, &db);
    println!("running the same storm again...");
    let rerun = run_load(&opts, &db);
    assert_eq!(report.digest(), rerun.digest(), "a rerun must be observationally identical");
    println!("digest {:016x} — identical on the rerun (deterministic)\n", report.digest());

    let obs = &report.obs;
    println!("== aggregate ==");
    println!("sim end:            {:.2} s", report.end.as_secs_f64());
    println!("kernel events:      {}", report.events_handled);
    println!("peak queue depth:   {}", report.peak_queue_depth);
    println!(
        "requests (rounds):  {} (obs load.requests_total = {})",
        report.requests_total,
        obs.counter_value(obs.lookup("load.requests_total").unwrap())
    );
    println!("images delivered:   {}", report.images_total);
    println!("config switches:    {}", report.switches_total);
    let ticks = obs.histogram_stats(obs.lookup("runtime.tick").unwrap());
    println!(
        "adapt ticks:        {} (p50 {:.1} us, p95 {:.1} us, max {:.1} us)",
        ticks.count, ticks.p50, ticks.p95, ticks.max
    );

    // Per-profile breakdown: the load mix assigns QoS preference
    // profiles round-robin, so different sessions chase different
    // objectives against the same database.
    println!("\n== per profile ==");
    for profile in [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput] {
        let sessions: Vec<_> = report.sessions.iter().filter(|s| s.profile == profile).collect();
        let n = sessions.len().max(1);
        let rounds: u64 = sessions.iter().map(|s| s.rounds).sum();
        let bytes: u64 = sessions.iter().map(|s| s.wire_bytes).sum();
        let avg_life_ms: f64 = sessions
            .iter()
            .filter_map(|s| s.finished_us.map(|f| (f - s.arrival_us) as f64 / 1e3))
            .sum::<f64>()
            / n as f64;
        println!(
            "{:12} {:3} sessions, {:4} rounds, {:8} wire bytes, avg lifetime {:7.1} ms",
            profile.name(),
            sessions.len(),
            rounds,
            bytes,
            avg_life_ms
        );
    }

    // Concurrency trajectory from the per-session summaries. (The obs
    // bus also publishes session_start/session_done events, but its
    // ring retains only the most recent 64k events — a 200-session
    // storm publishes more than that, so trajectory reconstruction
    // uses the report, and events serve live tailing instead.)
    let mut edges: Vec<(u64, i64)> = Vec::new();
    for s in &report.sessions {
        edges.push((s.arrival_us, 1));
        edges.push((s.finished_us.expect("every session finishes"), -1));
    }
    edges.sort_unstable();
    let (mut live, mut peak) = (0i64, 0i64);
    for (_, d) in &edges {
        live += d;
        peak = peak.max(live);
    }
    println!("\npeak concurrent sessions: {peak} (of {})", opts.sessions);
    let dones = obs.events_filtered(&EventFilter::any().source(Source::Load).kind("session_done"));
    assert!(!dones.is_empty(), "session_done events reach the bus");
    assert_eq!(report.sessions.len(), opts.sessions);
    println!("all {} sessions completed", opts.sessions);
}
