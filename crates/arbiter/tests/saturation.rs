//! Saturating multi-application storms: determinism across drain
//! strategies, tier-ordered shedding, full recovery without breaker
//! flapping, rogue policing, and typed rejection paths.

use std::sync::Arc;

use arbiter::{
    gen_specs, run_storm, run_storm_with_specs, AdmissionDecision, AppSpec, AppState, RejectReason,
    StormOpts, WorkloadKind,
};
use obs::{EventFilter, Source, Value};
use simnet::{DrainMode, ExplorePlan};
use visapp::{model_db, LoadGenOpts, QosProfile};

fn storm_db(opts: &StormOpts) -> Arc<adapt_core::PerfDb> {
    let lopts = LoadGenOpts {
        n_images: opts.n_images,
        link_bps: opts.link_bps,
        link_latency_us: opts.link_latency_us,
        ..LoadGenOpts::default()
    };
    Arc::new(model_db(&lopts))
}

/// A storm that exercises every arbiter mechanism: saturation queueing,
/// a capacity dip (shed + degrade + recover), and rogue policing.
fn full_mix() -> StormOpts {
    StormOpts::new(20)
        .with_seed(3)
        .with_cluster_hosts(2)
        .with_dips(vec![(300_000, 400_000, 0.35)])
        .with_rogue_every(4)
}

fn u64_field(fields: &[(&'static str, Value)], key: &str) -> u64 {
    fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(u) => Some(*u),
            Value::I64(i) => Some(*i as u64),
            _ => None,
        })
        .unwrap_or_else(|| panic!("event missing u64 field {key}"))
}

#[test]
fn storm_digest_stable_across_drains_and_reruns() {
    let base = full_mix();
    let db = storm_db(&base);
    let reference = run_storm(&base, &db).digest();
    let modes = [
        ("identity-explore", DrainMode::Explore(ExplorePlan::new(0))),
        ("batched-rerun", DrainMode::Batched),
    ];
    for (name, mode) in modes {
        let opts = full_mix().with_drain_mode(mode);
        let got = run_storm(&opts, &db).digest();
        assert_eq!(got, reference, "digest diverged under {name} drain");
    }
}

#[test]
fn different_seeds_differ() {
    let a = full_mix();
    let db = storm_db(&a);
    let d1 = run_storm(&a, &db).digest();
    let d2 = run_storm(&full_mix().with_seed(4), &db).digest();
    assert_ne!(d1, d2, "distinct seeds should not collide");
}

/// Replays the arbiter event stream, tracking the running set and each
/// app's current tier, and asserts every shed victim came from the
/// lowest-priority (numerically highest) occupied tier.
#[test]
fn shed_order_respects_tiers() {
    let opts = full_mix();
    let db = storm_db(&opts);
    let r = run_storm(&opts, &db);
    assert!(r.counters.shed > 0, "dip storm must shed something");
    let mut running: std::collections::BTreeMap<u64, u64> = Default::default();
    let mut shed_seen = 0;
    for e in r.obs.events_filtered(&EventFilter::any().source(Source::Arbiter)) {
        match e.kind {
            "admit" => {
                let app = u64_field(&e.fields, "app");
                let tier = u64_field(&e.fields, "tier");
                running.insert(app, tier);
            }
            "demote" => {
                let app = u64_field(&e.fields, "app");
                let tier = u64_field(&e.fields, "tier");
                running.insert(app, tier);
            }
            "recover" => {
                let app = u64_field(&e.fields, "app");
                let tier = u64_field(&e.fields, "tier");
                running.insert(app, tier);
            }
            "done" | "evict" => {
                running.remove(&u64_field(&e.fields, "app"));
            }
            "shed" => {
                shed_seen += 1;
                let app = u64_field(&e.fields, "app");
                let tier = u64_field(&e.fields, "tier");
                let max_running = running.values().copied().max().unwrap_or(tier);
                assert!(
                    tier >= max_running,
                    "shed app {app} from tier {tier} while tier {max_running} was running at t={}",
                    e.at_us
                );
                running.remove(&app);
            }
            _ => {}
        }
    }
    assert_eq!(shed_seen, r.counters.shed, "every shed must be evented");
}

#[test]
fn overload_recovers_everything_without_flapping() {
    let opts = full_mix();
    let db = storm_db(&opts);
    let r = run_storm(&opts, &db);
    assert!(r.overload_opens >= 1, "the dip must trip the breaker");
    assert_eq!(
        r.overload_opens, r.overload_closes,
        "every overload episode must close (no flapping, no stuck-open)"
    );
    // Every app that survived policing ends Done: shed apps were either
    // recovered or crawled to completion, and nothing is left parked.
    for a in &r.apps {
        if a.state != AppState::Evicted {
            assert_eq!(
                a.state,
                AppState::Done,
                "app {} ended {:?} (shed_count={})",
                a.id,
                a.state.name(),
                a.shed_count
            );
        }
    }
    assert!(r.utilization > 0.2, "storm should load the cluster, got {}", r.utilization);
}

#[test]
fn rogues_walk_the_strike_ladder_and_honest_apps_never_strike() {
    let opts = StormOpts::new(10).with_seed(5).with_session_pct(0).with_rogue_every(3);
    let db = storm_db(&opts);
    let r = run_storm(&opts, &db);
    let rogues: Vec<_> = r.apps.iter().filter(|a| a.strikes > 0).collect();
    assert_eq!(r.counters.evicted as usize, rogues.len(), "only rogues accumulate strikes");
    assert!(!rogues.is_empty(), "rogue_every=3 must plant rogues");
    for a in &rogues {
        assert_eq!(a.state, AppState::Evicted, "rogue {} must be evicted", a.id);
        assert_eq!(a.strikes, 3, "rogue {} walks throttle, demote, evict", a.id);
        // Demotion moves the tier up numerically, capped at bronze: a
        // bronze rogue keeps its tier but still loses envelope.
        assert!(a.tier_final >= a.tier_admitted, "demotion never raises priority");
    }
    for a in r.apps.iter().filter(|a| a.strikes == 0) {
        assert_eq!(a.state, AppState::Done, "honest app {} must finish untouched", a.id);
    }
    // Ladder counters: one throttle and one demote per eviction.
    assert_eq!(r.counters.throttled, r.counters.evicted);
    assert_eq!(r.counters.demoted, r.counters.evicted);
    assert_eq!(r.counters.violations, 3 * r.counters.evicted);

    // Every evict is preceded by a violation for the same app (the DST
    // oracle's invariant, checked here on the raw stream).
    let events = r.obs.events_filtered(&EventFilter::any().source(Source::Arbiter));
    for (i, e) in events.iter().enumerate() {
        if e.kind == "evict" {
            let app = u64_field(&e.fields, "app");
            let preceded = events[..i]
                .iter()
                .any(|p| p.kind == "violation" && u64_field(&p.fields, "app") == app);
            assert!(preceded, "evict of app {app} without a prior violation event");
        }
    }

    // Observability: both histograms must have samples.
    let lat = r.obs.lookup("arbiter.admission_latency_us").expect("latency histogram");
    assert!(r.obs.histogram_stats(lat).count > 0);
    let dur = r.obs.lookup("arbiter.violation_duration_us").expect("duration histogram");
    assert!(r.obs.histogram_stats(dur).count > 0);
}

fn bulk_spec(id: u32, tier: u8, arrival_us: u64) -> AppSpec {
    AppSpec {
        id,
        kind: WorkloadKind::Bulk,
        tier,
        weight: 5,
        profile: QosProfile::Throughput,
        demand_cpu: 0.9,
        demand_net: 1_000_000.0,
        demand_mem: 1 << 20,
        arrival_us,
        rogue: false,
    }
}

#[test]
fn rejection_paths_are_typed() {
    let opts = StormOpts::new(4).with_cluster_hosts(1).with_queue_cap(1);
    let db = storm_db(&opts);
    let mut specs = vec![bulk_spec(0, 2, 10_000), bulk_spec(1, 2, 20_000), bulk_spec(2, 2, 30_000)];
    // An app whose network demand cannot fit any host even at the
    // smallest fair-share fraction.
    let mut hog = bulk_spec(3, 0, 40_000);
    hog.demand_net = opts.link_bps * 3.0;
    specs.push(hog);
    let r = run_storm_with_specs(&opts, specs, &db);

    let decision_of = |id: u32| {
        r.decisions
            .iter()
            .find(|d| d.app() == id)
            .unwrap_or_else(|| panic!("no decision for app {id}"))
    };
    assert!(matches!(decision_of(0), AdmissionDecision::Admitted { .. }));
    assert!(matches!(decision_of(1), AdmissionDecision::Queued { .. }));
    assert!(
        matches!(
            decision_of(2),
            AdmissionDecision::Rejected { reason: RejectReason::QueueFull { cap: 1 }, .. }
        ),
        "third 0.9-cpu app overflows the 1-slot queue: {:?}",
        decision_of(2)
    );
    assert!(
        matches!(
            decision_of(3),
            AdmissionDecision::Rejected { reason: RejectReason::DemandExceedsCluster { .. }, .. }
        ),
        "network hog must be turned away: {:?}",
        decision_of(3)
    );
    // The queued app is admitted once the first finishes, and both run to
    // completion.
    let done = |id: u32| r.apps.iter().find(|a| a.id == id).unwrap().state;
    assert_eq!(done(0), AppState::Done);
    assert_eq!(done(1), AppState::Done);
    assert_eq!(done(2), AppState::Rejected);
    assert_eq!(done(3), AppState::Rejected);
    assert_eq!(r.counters.rejected, 2);
}

/// The saturating mix keeps the cluster busy: time-averaged utilization
/// stays high through the storm and per-tier p99s are recorded.
#[test]
fn saturating_mix_reports_utilization_and_p99() {
    let opts = StormOpts::new(40).with_seed(9).with_cluster_hosts(2);
    let db = storm_db(&opts);
    let r = run_storm(&opts, &db);
    assert!(r.count(AppState::Done) == 40, "all apps finish: {:?}", r.counters);
    assert!(
        r.utilization > 0.4,
        "40 apps on 2 hosts should keep the cluster loaded, got {:.3}",
        r.utilization
    );
    assert!(!r.p99_response_s.is_empty(), "sessions must report per-tier p99s");
    for (tier, p99) in &r.p99_response_s {
        assert!(p99.is_finite() && *p99 > 0.0, "tier {tier} p99 = {p99}");
    }
}

/// Every finished storm reports each of its specs exactly once, in a
/// terminal state, with a finish time exactly when it is `Done`. The
/// police loop re-arms until every app has left, so by the time the run
/// returns no outcome can still change.
#[test]
fn every_spec_is_reported_once_in_a_terminal_state() {
    let saturation = StormOpts::new(200)
        .with_seed(0xC1)
        .with_cluster_hosts(4)
        .with_rogue_every(5)
        .with_dips(vec![(500_000, 600_000, 0.4)]);
    let sweep = (20..24).map(|seed| {
        StormOpts::new(16)
            .with_seed(seed)
            .with_cluster_hosts(1)
            .with_rogue_every(3)
            .with_queue_cap(3)
    });
    let db = storm_db(&full_mix());
    let mut seen = [0usize; 3];
    for opts in [full_mix(), saturation].into_iter().chain(sweep) {
        let r = run_storm(&opts, &db);
        let ids: Vec<_> = r.apps.iter().map(|a| a.id).collect();
        let want: Vec<_> = gen_specs(&opts).iter().map(|s| s.id).collect();
        assert_eq!(ids, want, "seed {}: one outcome per spec, in spec order", opts.seed);
        for a in &r.apps {
            let slot = match a.state {
                AppState::Done => 0,
                AppState::Rejected => 1,
                AppState::Evicted => 2,
                other => panic!("seed {}: app {} ended {}", opts.seed, a.id, other.name()),
            };
            seen[slot] += 1;
            assert_eq!(
                a.finish_us.is_some(),
                a.state == AppState::Done,
                "seed {}: {a:?}",
                opts.seed
            );
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "done, rejected, evicted: {seen:?}");
}
