//! Scale-out load workloads: the kernel timer storm and the session
//! options of the load sweep, shared by `tests/digest_contract.rs` (which
//! pins their counts and digests).

use simnet::{Actor, Ctx, DrainMode, Sim};
use visapp::load::LoadGenOpts;

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
}

/// Drive `actors` timestamp-aligned periodic actors for `rounds` periods
/// under `mode` and count what the kernel handled. Pure kernel work: no
/// links, no CPU scheduling — only the event queue.
pub fn kernel_storm(actors: usize, fanout: u64, rounds: u64, mode: DrainMode) -> StormResult {
    let mut sim = Sim::new();
    sim.set_drain_mode(mode);
    let host = sim.add_host("storm", 1.0, 1 << 30);
    for _ in 0..actors {
        sim.spawn(host, Box::new(StormActor { period_us: 1_000, fanout, rounds_left: rounds }));
    }
    sim.run_until_idle();
    StormResult { events: sim.events_handled(), peak_queue_depth: sim.peak_queue_depth() }
}

/// The load-generator options of the session sweep (one seed everywhere,
/// so every pinned row stays comparable). The server pool scales with the
/// session count (~25 sessions per server) so the sweep measures kernel
/// and runtime scale-out rather than server-CPU starvation, and arrivals
/// are compressed enough that most sessions are concurrently live.
pub fn bench_opts(sessions: usize) -> LoadGenOpts {
    use visapp::load::ArrivalProcess;
    LoadGenOpts::new(sessions)
        .with_servers((sessions / 25).max(2))
        .with_arrival(ArrivalProcess::Poisson { mean_gap_us: 5_000 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_modes_process_the_same_events() {
        let b = kernel_storm(50, 4, 5, DrainMode::Batched);
        let e = kernel_storm(50, 4, 5, DrainMode::Explore(simnet::ExplorePlan::new(0)));
        assert_eq!(b.events, e.events);
        assert_eq!(b.peak_queue_depth, e.peak_queue_depth);
        // One on_start event per actor plus fanout timers per round.
        assert_eq!(b.events, 50 + 50 * 4 * 5);
    }
}
