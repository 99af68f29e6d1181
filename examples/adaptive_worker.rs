//! A second tunable application, built directly on the framework: an
//! adaptive batch-analytics worker that trades answer quality (sampling
//! rate) and algorithm choice against CPU availability.
//!
//! The point of this example is that nothing in `adapt-core` is specific
//! to the visualization application: any program that (1) declares knobs,
//! (2) can be profiled in the testbed, and (3) polls the runtime at task
//! boundaries gets automatic configuration and run-time adaptation.
//!
//! ```text
//! cargo run --example adaptive_worker
//! ```

use std::sync::Arc;
use std::sync::Mutex;

use adaptive_framework::prelude::*;

/// The worker's annotation source: two knobs, two metrics.
const WORKER_SPEC: &str = r#"
control_parameters {
    int sample_pct in {25, 50, 100};   // fraction of records examined
    enum algo { heuristic = 0, exact = 1 };
}
execution_env { host node; }
qos_metric {
    batch_latency minimize "s";
    accuracy maximize "pct";
}
task analyze {
    params sample_pct, algo;
    uses node.cpu;
    yields batch_latency, accuracy;
}
"#;

/// Work units per batch: proportional to sampled records, and the exact
/// algorithm costs 5x the heuristic.
fn batch_work(config: &Configuration) -> f64 {
    let pct = config.expect("sample_pct") as f64 / 100.0;
    let algo_cost = if config.expect("algo") == 1 { 5.0 } else { 1.0 };
    200_000.0 * pct * algo_cost
}

/// Answer quality: sampling loses accuracy; the heuristic loses more.
fn batch_accuracy(config: &Configuration) -> f64 {
    let pct = config.expect("sample_pct") as f64 / 100.0;
    let base = if config.expect("algo") == 1 { 99.0 } else { 92.0 };
    base * (0.7 + 0.3 * pct)
}

/// The worker actor: processes batches back-to-back, polling the
/// adaptation runtime at every batch boundary.
struct Worker {
    runtime: AdaptiveRuntime,
    stats: SandboxStats,
    cpu_key: ResourceKey,
    batches_left: u32,
    batch_started: SimTime,
    log: Arc<Mutex<Vec<(f64, String, f64)>>>, // (t, config, latency)
}

impl Worker {
    fn start_batch(&mut self, ctx: &mut Ctx<'_>) {
        self.batch_started = ctx.now();
        ctx.compute(batch_work(self.runtime.current()));
        ctx.continue_with(1);
    }
}

impl Actor for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(10_000, 7); // 10 ms monitoring cadence
        self.start_batch(ctx);
    }

    fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        if self.batches_left == 0 {
            return;
        }
        if let Some(share) = self.stats.cpu_share() {
            self.runtime.observe(ctx.now(), &self.cpu_key.clone(), share);
        }
        self.runtime.tick(ctx.now());
        ctx.set_timer(10_000, 7);
    }

    fn on_continue(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
        let latency = ctx.now().since(self.batch_started) as f64 / 1e6;
        self.log.lock().unwrap().push((
            ctx.now().as_secs_f64(),
            self.runtime.current().key(),
            latency,
        ));
        self.batches_left -= 1;
        // Task boundary: apply any pending reconfiguration.
        self.runtime.at_boundary(ctx.now());
        if self.batches_left > 0 {
            self.start_batch(ctx);
        }
    }
}

fn main() {
    let spec = dsl::parse(WORKER_SPEC).expect("spec parses");
    let cpu_key = ResourceKey::cpu("node");

    // Profile in the testbed: run one batch per (config, share) point in a
    // sandboxed simulation and record latency + (analytic) accuracy.
    let grid = ResourceGrid::new().with_axis(cpu_key.clone(), &[0.1, 0.25, 0.5, 1.0]);
    let runner = |config: &Configuration, res: &ResourceVector, _input: &str| {
        let share = res.get(&cpu_key).unwrap();
        let mut sim = Sim::new();
        let h = sim.add_host("node", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        struct OneBatch {
            work: f64,
            done: Arc<Mutex<Option<SimTime>>>,
        }
        impl Actor for OneBatch {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.compute(self.work);
                ctx.continue_with(0);
            }
            fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
                *self.done.lock().unwrap() = Some(ctx.now());
            }
        }
        let lh = LimitsHandle::new(Limits::cpu(share.clamp(0.01, 1.0)));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(
                OneBatch { work: batch_work(config), done: done.clone() },
                lh,
                SandboxStats::default(),
            )),
        );
        sim.run_until_idle();
        let latency = done.lock().unwrap().expect("batch finishes").as_secs_f64();
        QosReport::new(&[("batch_latency", latency), ("accuracy", batch_accuracy(config))])
    };
    let profiler = Profiler::new(spec.configurations(), grid, vec!["batches".into()]);
    println!("profiling {} runs ...", profiler.run_count());
    let db = profiler.run_parallel(&runner, 4);
    println!("database: {} records", db.len());

    // Deploy: batches must finish within 1.2s; maximize accuracy;
    // otherwise just maximize accuracy subject to nothing and finally
    // minimize latency.
    let prefs = PreferenceList::single(Preference::new(
        vec![Constraint::at_most("batch_latency", 1.2)],
        Objective::maximize("accuracy"),
    ))
    .then(Preference::new(vec![], Objective::minimize("batch_latency")));
    let scheduler = ResourceScheduler::new(db, prefs, "batches");
    let start = ResourceVector::new(&[(cpu_key.clone(), 1.0)]);
    let mut runtime =
        AdaptiveRuntime::try_configure(spec, scheduler, 400_000, &start).expect("configurable");
    runtime.monitor.min_trigger_gap_us = 150_000;
    println!("initial configuration: {}", runtime.current().key());
    assert_eq!(runtime.current().expect("algo"), 1, "full CPU -> exact algorithm");

    // Run 40 batches; CPU share collapses to 15% after 5 s.
    let mut sim = Sim::new();
    let h = sim.add_host("node", 1.0, 1 << 30);
    let limits = LimitsHandle::new(Limits::cpu(1.0));
    let stats = SandboxStats::new(400_000);
    let log = Arc::new(Mutex::new(Vec::new()));
    let worker = Worker {
        runtime,
        stats: stats.clone(),
        cpu_key,
        batches_left: 40,
        batch_started: SimTime::ZERO,
        log: log.clone(),
    };
    sim.spawn(h, Box::new(Sandboxed::new(worker, limits.clone(), stats)));
    LimitSchedule::new().at(SimTime::from_secs(5), Limits::cpu(0.15)).install(&mut sim, &limits);
    sim.run_until_idle();

    println!("\nbatch log (time, configuration, latency):");
    let log = log.lock().unwrap();
    for (t, cfg, latency) in log.iter() {
        println!("  {t:>7.2}s  {cfg:<24} {latency:>6.3}s");
    }
    let first = &log.first().expect("ran").1;
    let last = &log.last().expect("ran").1;
    assert_ne!(first, last, "the worker must have adapted");
    println!(
        "\nadapted from [{first}] to [{last}] when CPU collapsed — quality traded for the deadline."
    );
}
