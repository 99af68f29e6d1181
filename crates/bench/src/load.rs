//! Scale-out load benchmark logic: the kernel timer-storm microbench
//! (batched vs heap drain), the multi-session load sweep, and the
//! `BENCH_load.json` payload builder shared by the `load_bench` binary
//! and the CI load-regression test.
//!
//! The JSON is split into a **deterministic** part (simulation-derived
//! counts and digests — byte-identical across same-seed runs, what
//! `scripts/bench_gate.sh` compares) and a **timing** part (wall-clock
//! measurements, excluded from regression comparison).

use std::sync::Arc;
use std::time::Instant;

use simnet::{Actor, Ctx, DrainMode, Sim};
use visapp::load::{model_db, run_load, LoadGenOpts, LoadReport};

/// A periodic timer actor for the kernel storm: every actor fires
/// `fanout` timers on the same `period_us` grid, so in a storm of `n`
/// actors each timestamp carries `n * fanout` simultaneous events — the
/// workload the batched drain path exists for.
struct StormActor {
    period_us: u64,
    fanout: u64,
    rounds_left: u64,
}

impl Actor for StormActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for tag in 0..self.fanout {
            ctx.set_timer(self.period_us, tag);
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag == 0 {
            self.rounds_left -= 1;
        }
        if self.rounds_left > 0 {
            ctx.set_timer(self.period_us, tag);
        }
    }
}

/// Outcome of one kernel storm run.
#[derive(Debug, Clone, Copy)]
pub struct StormResult {
    pub events: u64,
    pub peak_queue_depth: usize,
    pub wall_secs: f64,
}

impl StormResult {
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Drive `actors` timestamp-aligned periodic actors for `rounds` periods
/// under `mode` and measure kernel event throughput. Pure kernel work:
/// no links, no CPU scheduling — the difference between modes is heap
/// sifting versus bucket appends.
pub fn kernel_storm(actors: usize, fanout: u64, rounds: u64, mode: DrainMode) -> StormResult {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let host = sim.add_host("storm", 1.0, 1 << 30);
    for _ in 0..actors {
        sim.spawn(host, Box::new(StormActor { period_us: 1_000, fanout, rounds_left: rounds }));
    }
    let start = Instant::now();
    sim.run_until_idle();
    StormResult {
        events: sim.events_handled(),
        peak_queue_depth: sim.peak_queue_depth(),
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// One row of the session sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    pub sessions: usize,
    pub requests: u64,
    pub images: u64,
    pub switches: u64,
    pub end_us: u64,
    pub events: u64,
    pub peak_queue_depth: usize,
    pub digest: u64,
    pub adapt_ticks: u64,
    pub wall_secs: f64,
}

impl SweepRow {
    fn from_report(sessions: usize, report: &LoadReport, wall_secs: f64) -> SweepRow {
        let ticks = report
            .obs
            .lookup("runtime.tick")
            .map(|id| report.obs.histogram_stats(id).count)
            .unwrap_or(0);
        SweepRow {
            sessions,
            requests: report.requests_total,
            images: report.images_total,
            switches: report.switches_total,
            end_us: report.end.as_us(),
            events: report.events_handled,
            peak_queue_depth: report.peak_queue_depth,
            digest: report.digest(),
            adapt_ticks: ticks,
            wall_secs,
        }
    }
}

/// The load-generator options used by the bench and the regression test
/// (same seed everywhere so the committed baseline stays comparable).
/// The server pool scales with the session count (~25 sessions per
/// server) so the sweep measures kernel and runtime scale-out rather
/// than server-CPU starvation, and arrivals are compressed enough that
/// most sessions are concurrently live.
pub fn bench_opts(sessions: usize) -> LoadGenOpts {
    use visapp::load::ArrivalProcess;
    LoadGenOpts::new(sessions)
        .with_servers((sessions / 25).max(2))
        .with_arrival(ArrivalProcess::Poisson { mean_gap_us: 5_000 })
}

/// Run the session sweep: one shared model database, one `run_load` per
/// session count.
pub fn sweep(session_counts: &[usize]) -> Vec<SweepRow> {
    let db = Arc::new(model_db(&bench_opts(1)));
    session_counts
        .iter()
        .map(|&n| {
            let start = Instant::now();
            let report = run_load(&bench_opts(n), &db);
            SweepRow::from_report(n, &report, start.elapsed().as_secs_f64())
        })
        .collect()
}

/// Memory comparison: total bytes of performance data held by N sessions
/// sharing one `Arc<PerfDb>` versus N per-session clones.
#[derive(Debug, Clone, Copy)]
pub struct MemoryComparison {
    pub db_bytes: usize,
    pub sessions: usize,
    pub shared_bytes: usize,
    pub cloned_bytes: usize,
}

impl MemoryComparison {
    pub fn compute(sessions: usize) -> MemoryComparison {
        let db = model_db(&bench_opts(1));
        let db_bytes = db.approx_bytes();
        MemoryComparison {
            db_bytes,
            sessions,
            // Shared: one database plus one Arc pointer per session.
            shared_bytes: db_bytes + sessions * std::mem::size_of::<Arc<()>>(),
            cloned_bytes: db_bytes * sessions,
        }
    }

    pub fn ratio(&self) -> f64 {
        self.cloned_bytes as f64 / self.shared_bytes.max(1) as f64
    }
}

/// The deterministic half of `BENCH_load.json`: everything here is a
/// pure function of seeds and simulation semantics. Two same-seed runs
/// must produce byte-identical output (pinned by a regression test).
pub fn deterministic_payload(session_counts: &[usize]) -> String {
    let rows = sweep(session_counts);
    deterministic_payload_from(&rows)
}

fn deterministic_payload_from(rows: &[SweepRow]) -> String {
    let mem = MemoryComparison::compute(rows.last().map_or(1000, |r| r.sessions));
    let sweep_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"sessions\": {}, \"requests\": {}, \"images\": {}, \"switches\": {}, \
                 \"end_us\": {}, \"events\": {}, \"peak_queue_depth\": {}, \
                 \"adapt_ticks\": {}, \"digest\": \"{:016x}\"}}",
                r.sessions,
                r.requests,
                r.images,
                r.switches,
                r.end_us,
                r.events,
                r.peak_queue_depth,
                r.adapt_ticks,
                r.digest
            )
        })
        .collect();
    format!(
        "{{\n  \"sweep\": [\n    {}\n  ],\n  \"memory\": {{\"db_bytes\": {}, \"sessions\": {}, \
         \"shared_bytes\": {}, \"cloned_bytes\": {}, \"ratio\": {:.1}}}\n}}",
        sweep_json.join(",\n    "),
        mem.db_bytes,
        mem.sessions,
        mem.shared_bytes,
        mem.cloned_bytes,
        mem.ratio()
    )
}

/// Full `BENCH_load.json`: the deterministic sweep plus wall-clock timing
/// (the single-host aligned storm of `storm_actors` actors under each
/// drain, and per-sweep wall time). Only fields under `"deterministic"`
/// are gated by CI; `speedup` keys gate one-sided.
pub fn bench_load_json(
    rows: &[SweepRow],
    batched: &StormResult,
    heap: &StormResult,
    storm_actors: usize,
) -> String {
    let wall: Vec<String> = rows
        .iter()
        .map(|r| format!("{{\"sessions\": {}, \"wall_secs\": {:.4}}}", r.sessions, r.wall_secs))
        .collect();
    let speedup =
        if heap.wall_secs > 0.0 { heap.wall_secs / batched.wall_secs.max(1e-12) } else { 0.0 };
    format!(
        "{{\n\"bench\": \"load\",\n\"deterministic\": {{\n  \"sequential\": {}\n}},\n\
         \"timing\": {{\n  \"kernel_storm\": \
         {{\"actors\": {}, \"events\": {}, \"peak_queue_depth\": {}, \
         \"batched_events_per_sec\": {:.0}, \"heap_events_per_sec\": {:.0}, \
         \"batched_wall_secs\": {:.4}, \"heap_wall_secs\": {:.4}, \"speedup\": {:.2}}},\n  \
         \"sweep_wall\": [\n    {}\n  ]\n}}\n}}\n",
        deterministic_payload_from(rows),
        storm_actors,
        batched.events,
        batched.peak_queue_depth,
        batched.events_per_sec(),
        heap.events_per_sec(),
        batched.wall_secs,
        heap.wall_secs,
        speedup,
        wall.join(",\n    ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_modes_process_the_same_events() {
        let b = kernel_storm(50, 4, 5, DrainMode::Batched);
        let h = kernel_storm(50, 4, 5, DrainMode::Heap);
        assert_eq!(b.events, h.events);
        assert_eq!(b.peak_queue_depth, h.peak_queue_depth);
        // One on_start event per actor plus fanout timers per round.
        assert_eq!(b.events, 50 + 50 * 4 * 5);
    }

    #[test]
    fn same_seed_sweeps_emit_identical_deterministic_payloads() {
        // The load-regression check: re-running the whole sweep (fresh
        // stores, fresh databases, fresh sims) must reproduce the JSON
        // byte for byte. Wall-clock fields live outside this payload.
        let a = deterministic_payload(&[1, 4]);
        let b = deterministic_payload(&[1, 4]);
        assert_eq!(a, b);
        assert!(a.contains("\"sessions\": 4"));
        assert!(a.contains("\"digest\""));
    }

    #[test]
    fn shared_db_memory_is_sublinear() {
        let mem = MemoryComparison::compute(1000);
        assert!(mem.ratio() > 100.0, "sharing must beat cloning by orders of magnitude");
        assert!(mem.shared_bytes < mem.db_bytes + 1000 * 64);
    }
}
