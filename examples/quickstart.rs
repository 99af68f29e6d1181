//! Quickstart: the adaptation framework in five steps, with a synthetic
//! application model (no simulator needed).
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! 1. Write the tunability annotations (the paper's Figure 2 language).
//! 2. Let the preprocessor derive configurations and the database template.
//! 3. Profile every configuration over a resource grid (here a synthetic
//!    closure stands in for the testbed; `examples/active_visualization.rs`
//!    does it with the real simulated application).
//! 4. Ask the resource scheduler for the best configuration under given
//!    resource conditions and user preferences.
//! 5. Watch the monitoring agent trigger re-scheduling when resources
//!    leave the chosen configuration's validity region.

use adaptive_framework::prelude::*;

fn main() {
    // 1. The annotation source (identical to the paper's Figure 2).
    let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).expect("spec parses");
    println!(
        "parsed spec: {} parameters, {} configurations",
        spec.control.params.len(),
        spec.control.cardinality()
    );

    // 2. Preprocessor outputs.
    let template = spec.perf_db_template();
    println!(
        "database template: axes {:?}",
        template.axes.iter().map(|a| a.to_string()).collect::<Vec<_>>()
    );

    // 3. Profile with a synthetic behavior model: transmit time grows with
    //    resolution, shrinks with CPU/bandwidth; bzip (c=2) halves the
    //    bytes but pays CPU.
    let cpu = ResourceKey::cpu("client");
    let net = ResourceKey::net("client");
    let grid = ResourceGrid::new()
        .with_axis(cpu.clone(), &[0.2, 0.4, 0.6, 0.8, 1.0])
        .with_axis(net.clone(), &[50_000.0, 150_000.0, 500_000.0]);
    let model = |config: &Configuration, res: &ResourceVector, _input: &str| {
        let l = config.expect("l") as f64;
        let dr = config.expect("dR") as f64;
        let c = config.expect("c");
        let share = res.get(&cpu).unwrap();
        let bw = res.get(&net).unwrap();
        let bytes = 40_000.0 * (l - 2.0) * if c == 2 { 0.55 } else { 1.0 };
        let cpu_s = (0.02 + if c == 2 { 0.10 } else { 0.01 }) * (l - 2.0) / share;
        let rounds = (320.0 / dr).ceil();
        let t = bytes / bw + cpu_s + rounds * 0.01;
        QosReport::new(&[("transmit_time", t), ("response_time", t / rounds), ("resolution", l)])
    };
    let profiler = Profiler::new(spec.configurations(), grid, vec!["demo".into()]);
    println!("profiling {} runs...", profiler.run_count());
    let db = profiler.run_parallel(&model, 4);
    println!("database: {} records", db.len());

    // 4. Schedule under user preferences: transmit under 0.6 s, maximize
    //    resolution; fall back to minimizing transmit time.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("transmit_time", 0.6)],
        Objective::maximize("resolution"),
    ))
    .then(Preference::new(vec![], Objective::minimize("transmit_time")));
    let scheduler = ResourceScheduler::new(db, prefs, "demo");

    let plenty = ResourceVector::new(&[(cpu.clone(), 0.9), (net.clone(), 500_000.0)]);
    let scarce = ResourceVector::new(&[(cpu.clone(), 0.25), (net.clone(), 50_000.0)]);
    let d1 = scheduler.choose(&plenty).expect("satisfiable");
    println!("\nplenty of resources -> {} predicted {}", d1.config, d1.predicted);
    let d2 = scheduler.choose(&scarce).expect("satisfiable");
    println!("scarce resources   -> {} predicted {}", d2.config, d2.predicted);
    assert!(d1.config.expect("l") >= d2.config.expect("l"));

    // 5. The monitoring agent guards the chosen validity region.
    let mut monitor = MonitoringAgent::new(vec![cpu.clone(), net.clone()], 1_000_000);
    monitor.set_validity(d1.validity.clone());
    // Healthy observations: no trigger.
    for i in 0..50 {
        let t = SimTime::from_ms(10 * i);
        monitor.observe(t, &cpu, 0.9);
        monitor.observe(t, &net, 500_000.0);
    }
    assert!(monitor.check(SimTime::from_ms(600)).is_none());
    // Bandwidth collapses: trigger fires, scheduler re-chooses.
    for i in 0..300 {
        let t = SimTime::from_ms(600 + 10 * i);
        monitor.observe(t, &cpu, 0.9);
        monitor.observe(t, &net, 50_000.0);
    }
    let trigger = monitor.check(SimTime::from_secs(4)).expect("violation detected");
    println!(
        "\nmonitor trigger at {}: {}",
        trigger.at,
        trigger.violations.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );
    let d3 = scheduler.choose(&trigger.estimate).expect("re-choice");
    println!("re-scheduled      -> {} predicted {}", d3.config, d3.predicted);
    println!("\nquickstart complete.");
}
