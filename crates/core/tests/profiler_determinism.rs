//! Profiling must be reproducible regardless of parallelism: the whole
//! adaptation stack keys decisions off the performance database, so a
//! thread-count-dependent database would make every downstream benchmark
//! and scheduler decision irreproducible. `Profiler::run_parallel`
//! merges worker results back into deterministic job order; these tests
//! pin that contract at the public API.

use adapt_core::prelude::*;
use adapt_core::profiler::ResourceGrid;

fn cpu() -> ResourceKey {
    ResourceKey::cpu("client")
}

fn net() -> ResourceKey {
    ResourceKey::net("client")
}

/// Synthetic application model with enough structure that records are
/// distinguishable along both axes and across configs and inputs.
fn runner(config: &Configuration, res: &ResourceVector, input: &str) -> QosReport {
    let l = config.expect("l") as f64;
    let share = res.get(&cpu()).unwrap_or(1.0);
    let bw = res.get(&net()).unwrap_or(1e6);
    let scale = if input == "large" { 4.0 } else { 1.0 };
    QosReport::new(&[
        ("transmit_time", scale * l * 4.0 / share + scale * 1e5 / bw),
        ("resolution", 256.0 / l),
    ])
}

fn profiler() -> Profiler {
    let configs = (1..=4).map(|l| Configuration::new(&[("l", l)])).collect();
    let grid = ResourceGrid::new()
        .with_axis(cpu(), &[0.2, 0.4, 0.6, 0.8, 1.0])
        .with_axis(net(), &[1e5, 5e5, 1e6]);
    Profiler::new(configs, grid, vec!["small".into(), "large".into()])
}

#[test]
fn one_thread_and_eight_threads_build_identical_databases() {
    let p = profiler();
    let one = p.run_parallel(&runner, 1);
    let eight = p.run_parallel(&runner, 8);
    assert_eq!(one.len(), eight.len());
    // Identical records in identical order — not just set equality: the
    // database's record order feeds interpolation tie-breaks.
    assert_eq!(one.records(), eight.records());
}

/// The merged order is the nested input → configuration → point loop,
/// written out here as the reference.
#[test]
fn parallel_matches_the_sequential_sweep() {
    let p = profiler();
    let mut seq = PerfDb::new();
    for input in &p.inputs {
        for config in &p.configs {
            for point in p.grid.points() {
                let metrics = runner(config, &point, input);
                seq.add(PerfRecord {
                    config: config.clone(),
                    resources: point,
                    input: input.clone(),
                    metrics,
                });
            }
        }
    }
    let par = p.run_parallel(&runner, 8);
    assert_eq!(seq.records(), par.records());
}
