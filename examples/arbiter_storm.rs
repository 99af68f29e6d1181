//! Arbiter-storm walkthrough: many applications, one cluster arbiter.
//!
//! Drives the `arbiter` storm — a mixed population of interactive
//! visualization sessions and bulk batch jobs, spread over priority
//! tiers (gold / silver / bronze) with fair-share weights, arriving by
//! a Poisson process at a cluster of simulated hosts. The arbiter
//! prices every admission against one shared `Arc<PerfDb>`, polices
//! admitted envelopes against `obs`-bus usage reports, and — when a
//! mid-run capacity dip pushes the cluster into overload — sheds the
//! lowest tiers first, degrades the survivors, and recovers everything
//! in reverse order once the dip passes.
//!
//! The storm is deterministic: the same seed always produces the
//! digest this example prints (`arbiter/tests/saturation.rs` holds it
//! across reruns and kernel drain modes).
//!
//! ```text
//! cargo run --release --example arbiter_storm
//! ```

use std::sync::Arc;

use adaptive_framework::arbiter::{run_storm, AppState, StormOpts, N_TIERS};
use adaptive_framework::prelude::*;

const TIER_NAMES: [&str; N_TIERS as usize] = ["gold", "silver", "bronze"];

fn main() {
    // 48 apps on 2 hosts, one rogue (envelope-ignoring) app in four,
    // and a capacity dip to 35% between t=0.3s and t=0.7s: enough
    // pressure to open the overload breaker and exercise the full
    // shed / degrade / recover cycle.
    let opts = StormOpts::new(48)
        .with_seed(7)
        .with_cluster_hosts(2)
        .with_rogue_every(4)
        .with_dips(vec![(300_000, 400_000, 0.35)]);

    println!("building the shared performance database (analytic model)...");
    let db = Arc::new(model_db(&opts.load_opts()));
    println!("database: {} records, shared by all {} apps via Arc\n", db.len(), opts.apps);

    println!("running {} apps...", opts.apps);
    let r = run_storm(&opts, &db);
    println!("digest {:016x}\n", r.digest());

    let c = &r.counters;
    println!("== admission ==");
    println!("admitted:           {} (of {} offered)", c.admitted, opts.apps);
    println!("queued:             {} (backfilled past a blocked head: {})", c.queued, c.backfilled);
    println!("rejected:           {}", c.rejected);
    println!(
        "utilization:        {:.3} whole-run, {:.3} busy-period",
        r.utilization, r.busy_utilization
    );

    println!("\n== overload ==");
    println!("breaker opens:      {}", r.overload_opens);
    println!("breaker closes:     {}", r.overload_closes);
    println!("shed:               {} (lowest tier first)", c.shed);
    println!("recovered:          {} (reverse order, min-dwell paced)", c.recovered);
    assert_eq!(r.overload_opens, r.overload_closes, "every episode closes (no flapping)");

    println!("\n== policing ==");
    println!("violations:         {}", c.violations);
    println!("throttled:          {} (strike 1)", c.throttled);
    println!("demoted:            {} (strike 2)", c.demoted);
    println!("evicted:            {} (strike 3)", c.evicted);

    println!("\n== per tier ==");
    for tier in 0..N_TIERS {
        let apps: Vec<_> = r.apps.iter().filter(|a| a.tier_admitted == tier).collect();
        let done = apps.iter().filter(|a| a.state == AppState::Done).count();
        let shed: u32 = apps.iter().map(|a| a.shed_count).sum();
        let p99 = r
            .p99_response_s
            .iter()
            .find(|(t, _)| *t == tier)
            .map_or("      -".into(), |(_, v)| format!("{:6.3}s", v));
        println!(
            "{:7} {:2} apps, {:2} done, {:2} sheddings, session p99 {}",
            TIER_NAMES[tier as usize],
            apps.len(),
            done,
            shed,
            p99
        );
    }

    // Replay the shed order off the obs bus: a shed event may only ever
    // name the lowest (numerically highest) tier still running.
    let sheds = r.obs.events_filtered(&EventFilter::any().source(Source::Arbiter).kind("shed"));
    if let Some(e) = sheds.first() {
        let tier = e.fields.iter().find(|(k, _)| *k == "tier").expect("shed carries tier");
        println!("\nfirst shed at t={:.2}s: tier {:?}", e.at_us as f64 / 1e6, tier.1);
    }
    let finished = r.apps.iter().filter(|a| a.state == AppState::Done).count();
    println!(
        "\n{} of {} apps ran to completion; {} evicted by policing, {} rejected at admission",
        finished,
        opts.apps,
        r.count(AppState::Evicted),
        r.count(AppState::Rejected)
    );
}
