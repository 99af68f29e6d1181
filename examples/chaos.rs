//! Chaos walkthrough: the resilient client surviving a hostile network.
//!
//! Runs the acceptance fault scenario — 30% bidirectional packet loss, a
//! 500 ms link-down window, and a server crash/restart — twice with the
//! same seeds to demonstrate deterministic replay, and prints the
//! resilience counters (switches, retries, timeouts, breaker cycles,
//! duplicate replies dropped). `chaos_twelve_image_run_is_pinned` in
//! `crates/visapp/tests/chaos.rs` pins every one of them.
//!
//! Everything printed here is read off the run's [`Obs`] handle — the
//! unified observability layer — rather than the raw `RunStats` record:
//! `visapp.*` counters for the resilience numbers and `Source::App`
//! `config` events for the configuration history.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use adaptive_framework::prelude::*;

fn chaos_scenario(fault_seed: u64) -> Scenario {
    Scenario {
        n_images: 12,
        img_size: 64,
        levels: 3,
        seed: 7,
        // Modem-class link so the workload spans all three fault windows.
        link_bps: 150_000.0,
        link_latency_us: 2_000,
        request_timeout_us: Some(40_000),
        retry: RetryPolicy {
            multiplier: 2.0,
            max_timeout_us: 300_000,
            jitter_frac: 0.1,
            seed: fault_seed,
        },
        breaker: Some(BreakerOpts {
            failure_threshold: 3,
            recovery_timeout_us: 100_000,
            degraded: None,
        }),
        fault_plan: Some(
            FaultPlan::new(fault_seed)
                .with_loss(CLIENT_HOST, SERVER_HOST, 0.30)
                .with_link_down(
                    CLIENT_HOST,
                    SERVER_HOST,
                    SimTime::from_ms(400),
                    SimTime::from_ms(900),
                )
                .with_crash(SERVER_HOST, SimTime::from_ms(1_200), Some(SimTime::from_ms(1_500))),
        ),
        ..Scenario::default()
    }
}

fn run_once(sc: &Scenario) -> Obs {
    let store = sc.build_store();
    let cfg = VizConfig { dr: 16, level: 3, method: Method::Lzw };
    run_static(sc, &store, cfg, Limits::unconstrained(), None).obs
}

fn counter(obs: &Obs, name: &str) -> u64 {
    obs.lookup(name).map_or(0, |id| obs.counter_value(id))
}

fn summary(obs: &Obs) -> String {
    format!(
        "images={} rounds={} switches={} retries={} timeouts={} \
         breaker_opens={} breaker_closes={} dup_replies_dropped={}",
        counter(obs, "visapp.images"),
        counter(obs, "visapp.rounds"),
        counter(obs, "visapp.switches"),
        counter(obs, "visapp.retries"),
        counter(obs, "visapp.timeouts"),
        counter(obs, "visapp.breaker_opens"),
        counter(obs, "visapp.breaker_closes"),
        counter(obs, "visapp.dup_replies_dropped"),
    )
}

/// The `(time, configuration)` history, from the bus's `App`-sourced
/// `config` events.
fn config_history(obs: &Obs) -> Vec<(u64, String)> {
    obs.events_filtered(&EventFilter::any().source(Source::App).kind("config"))
        .iter()
        .map(|e| (e.at_us, e.str_field("config").unwrap_or_default().to_string()))
        .collect()
}

fn finished_secs(obs: &Obs) -> Option<f64> {
    let done = obs
        .events_filtered(&EventFilter::any().source(Source::App).kind("finished"))
        .last()
        .map(|e| e.at_us);
    done.map(|us| us as f64 / 1e6)
}

fn main() {
    let seed = 0xc4a05u64;
    let sc = chaos_scenario(seed);

    println!("chaos scenario: 30% loss, 500 ms link-down, server crash+restart");
    let a = run_once(&sc);
    let b = run_once(&sc);
    println!("run 1: {}", summary(&a));
    println!("run 2: {}", summary(&b));
    // Replay comparison uses only simulation-derived observables (counters
    // and sim-timestamped events); span histograms are wall-clock and are
    // deliberately excluded.
    let deterministic = summary(&a) == summary(&b)
        && finished_secs(&a) == finished_secs(&b)
        && config_history(&a) == config_history(&b);
    println!("deterministic replay: {deterministic}");
    let finished = finished_secs(&a).expect("chaos run must complete end-to-end");

    println!("\nconfiguration history (degrade + restore visible):");
    for (t_us, c) in &config_history(&a) {
        println!("  {:>10}us  {c}", t_us);
    }

    println!("\nfinished at {finished:.6}s");
}
