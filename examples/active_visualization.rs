//! The paper's Experiment 1, end to end, at laptop-friendly scale:
//! profile the active visualization application in the virtual execution
//! environment, then watch it adapt its compression method when the
//! network collapses mid-run.
//!
//! All run telemetry is read off the unified observability layer
//! ([`Obs`]): configuration history and adaptation events come from the
//! bus (sources `App`, `Monitor`, `Scheduler`, `Steering`), completion
//! times from `App` `finished` events.
//!
//! ```text
//! cargo run --release --example active_visualization
//! ```

use std::sync::Arc;

use adaptive_framework::prelude::*;

/// When the run completed, from the bus's `App` `finished` event.
fn finished_secs(obs: &Obs) -> f64 {
    obs.events_filtered(&EventFilter::any().source(Source::App).kind("finished"))
        .last()
        .map(|e| e.at_us as f64 / 1e6)
        .expect("run finished")
}

fn main() {
    // Scaled-down deployment: 64x64 synthetic images, monitoring time
    // constants shrunk to match (see EXPERIMENTS.md for the full-scale
    // figures run).
    let sc = Scenario {
        n_images: 30,
        img_size: 64,
        levels: 3,
        monitor_window_us: 500_000,
        trigger_gap_us: 200_000,
        ..Scenario::default()
    };
    let store = sc.build_store();

    // Phase 1: modeling. Sweep every configuration over a bandwidth grid
    // inside the testbed (the client CPU share is 5% so compression CPU
    // cost matters at this scale).
    println!("profiling {} configurations ...", sc.dr_values().len() * 2 * 2);
    let db = build_db(&sc, &store, &[0.05], &[2_000.0, 11_000.0, 60_000.0], 4);
    println!("performance database: {} records", db.len());

    // Phase 2: deployment. Minimize transmission time at full resolution;
    // bandwidth starts at 60 KB/s and collapses to 2 KB/s at t=2s.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_least("resolution", sc.levels as f64)],
        Objective::minimize("transmit_time"),
    ));
    let start = Limits::cpu(0.05).with_net(60_000.0);
    let drop = LimitSchedule::new().at(SimTime::from_secs(2), Limits::cpu(0.05).with_net(2_000.0));
    println!("\nrunning the adaptive client ...");
    let adaptive = run_adaptive_shared(&sc, &store, Arc::new(db), prefs, start, Some(drop.clone()));
    let obs = &adaptive.obs;

    println!("configuration history:");
    let config_events = obs.events_filtered(&EventFilter::any().source(Source::App).kind("config"));
    for ev in &config_events {
        println!(
            "  {:>7.2}s  {}",
            ev.at_us as f64 / 1e6,
            ev.str_field("config").unwrap_or_default()
        );
    }

    println!("adaptation events:");
    let adapt_filter = EventFilter::any()
        .source(Source::Monitor)
        .source(Source::Scheduler)
        .source(Source::Steering);
    for ev in &obs.events_filtered(&adapt_filter) {
        let t = ev.at_us as f64 / 1e6;
        match ev.kind {
            "trigger" => println!(
                "  {t:>7.2}s  monitor trigger, estimate {}",
                ev.str_field("estimate").unwrap_or_default()
            ),
            "decide" => println!(
                "  {t:>7.2}s  scheduler decision {} (preference rank {})",
                ev.str_field("config").unwrap_or_default(),
                ev.u64_field("rank").unwrap_or(0)
            ),
            "switch" => println!(
                "  {t:>7.2}s  switched {} -> {}",
                ev.str_field("old").unwrap_or_default(),
                ev.str_field("new").unwrap_or_default()
            ),
            "nak" => println!(
                "  {t:>7.2}s  NAK {} ({})",
                ev.str_field("config").unwrap_or_default(),
                ev.str_field("reason").unwrap_or_default()
            ),
            "no_candidate" => println!("  {t:>7.2}s  no satisfiable configuration"),
            "degrade" => println!(
                "  {t:>7.2}s  degraded to {} (best effort)",
                ev.str_field("config").unwrap_or_default()
            ),
            "recover" => println!("  {t:>7.2}s  recovered"),
            other => println!("  {t:>7.2}s  {other}"),
        }
    }
    println!(
        "monitor ticks: {}",
        obs.lookup("monitor.ticks").map_or(0, |id| obs.counter_value(id))
    );

    // Baselines: the two static configurations under the same drop.
    let dr = sc.dr_values()[2] as usize;
    let mut lines = vec![("adaptive".to_string(), finished_secs(obs))];
    for method in [Method::Lzw, Method::Bzip] {
        let cfg = VizConfig { dr, level: sc.levels, method };
        let out = run_static(&sc, &store, cfg, start, Some(drop.clone()));
        lines.push((format!("static {}", method.name()), finished_secs(&out.obs)));
    }
    println!("\ntotal time for {} images:", sc.n_images);
    for (label, total) in &lines {
        println!("  {label:<12} {total:>7.2}s");
    }
    assert!(lines[0].1 < lines[1].1, "the adaptive run must beat the static LZW configuration");
    println!("\nthe adaptive client tracked the better configuration in each bandwidth regime.");
}
