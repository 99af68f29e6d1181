//! Property-based tests of the virtual execution environment: enforced
//! shares hold for arbitrary limits and workloads, and the progress
//! estimator's running sums read what a walk of its samples reads.

use std::collections::VecDeque;
use std::sync::Arc;
use std::sync::Mutex;

use proptest::prelude::*;

use sandbox::{
    CpuSample, Limits, LimitsHandle, NetSample, ProgressEstimator, SandboxStats, Sandboxed,
    TokenBucket,
};
use simnet::{Actor, Ctx, Sim, SimTime};

struct Worker {
    work: f64,
    done: Arc<Mutex<Option<SimTime>>>,
}
impl Actor for Worker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.compute(self.work);
        ctx.continue_with(0);
    }
    fn on_continue(&mut self, _t: u64, ctx: &mut Ctx<'_>) {
        *self.done.lock().unwrap() = Some(ctx.now());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cpu_share_enforced_for_any_share(share in 0.05f64..1.0, work_ms in 50.0f64..2000.0) {
        let work = work_ms * 1000.0;
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::cpu(share));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(
                Worker { work, done: done.clone() },
                lh,
                SandboxStats::default(),
            )),
        );
        sim.set_event_limit(Some(10_000_000));
        sim.run_until_idle();
        let measured = done.lock().unwrap().expect("completes").as_secs_f64();
        let expected = work / share / 1e6;
        // Within one quantum of the ideal.
        prop_assert!(
            (measured - expected).abs() <= expected * 0.02 + 0.011,
            "share {} work {} -> {} vs {}",
            share, work, measured, expected
        );
    }

    #[test]
    fn achieved_share_never_exceeds_cap(share in 0.05f64..0.95) {
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::cpu(share));
        let stats = SandboxStats::new(60_000_000);
        sim.spawn(
            h,
            Box::new(Sandboxed::new(
                Worker { work: 400_000.0, done: done.clone() },
                lh,
                stats.clone(),
            )),
        );
        sim.run_until_idle();
        let est = stats.cpu_share().expect("samples exist");
        prop_assert!(est <= share * 1.05 + 0.01, "estimated {} vs cap {}", est, share);
        prop_assert!(est >= share * 0.85, "sandbox should deliver the full share when alone");
    }

    #[test]
    fn token_bucket_long_run_rate_is_bounded(
        rate in 1_000.0f64..1_000_000.0,
        msgs in proptest::collection::vec(1u64..100_000, 1..40),
    ) {
        let mut b = TokenBucket::with_default_burst(rate);
        let mut t = SimTime::ZERO;
        let mut total = 0u64;
        for &m in &msgs {
            let d = b.acquire(t, m);
            t += d;
            total += m;
        }
        let elapsed = t.as_secs_f64();
        if elapsed > 0.5 {
            let burst = rate * 0.1 + 2048.0;
            let effective = (total as f64 - burst) / elapsed;
            prop_assert!(
                effective <= rate * 1.05,
                "effective {} exceeds rate {}",
                effective, rate
            );
        }
    }

    #[test]
    fn sandboxed_equals_kernel_cap(share in 0.1f64..1.0) {
        // The user-level sandbox must track an ideal cap, under which a
        // lone actor finishes `work / share` in (Figure 3b's claim), for
        // arbitrary shares.
        let work = 300_000.0;
        let mut sim = Sim::new();
        let h = sim.add_host("h", 1.0, 1 << 30);
        let done = Arc::new(Mutex::new(None));
        let lh = LimitsHandle::new(Limits::cpu(share));
        sim.spawn(
            h,
            Box::new(Sandboxed::new(Worker { work, done: done.clone() }, lh, SandboxStats::default())),
        );
        sim.run_until_idle();
        let sb = done.lock().unwrap().unwrap().as_secs_f64();
        let ideal = work / share / 1e6;
        prop_assert!((sb - ideal).abs() / ideal < 0.05, "sandbox {} vs ideal {}", sb, ideal);
    }
}

/// `ProgressEstimator`'s reads as they were before running sums: a walk
/// of the retained samples on every call.
struct OracleEstimator {
    window_us: u64,
    cpu: VecDeque<CpuSample>,
    net: VecDeque<NetSample>,
}

impl OracleEstimator {
    fn evict(&mut self, now: SimTime) {
        let cutoff = SimTime(now.0.saturating_sub(self.window_us));
        while self.cpu.front().is_some_and(|s| s.end < cutoff) {
            self.cpu.pop_front();
        }
        while self.net.front().is_some_and(|s| s.processed < cutoff) {
            self.net.pop_front();
        }
    }

    fn cpu_share(&self) -> Option<f64> {
        let (mut wall, mut cpu) = (0.0, 0.0);
        for s in &self.cpu {
            wall += s.end.since(s.start) as f64;
            cpu += s.cpu_us;
        }
        (wall > 0.0).then(|| (cpu / wall).min(1.0))
    }

    fn bandwidth_bps(&self, inbound: bool) -> Option<f64> {
        let (mut bytes, mut busy_us) = (0u64, 0u64);
        for s in self.net.iter().filter(|s| s.inbound == inbound) {
            bytes += s.bytes;
            busy_us += s.processed.since(s.queued);
        }
        (busy_us > 0 && bytes > 0).then(|| bytes as f64 / (busy_us as f64 / 1e6))
    }
}

/// One sample, `dt_us` after the previous one. Outbound samples are
/// processed `delay_us` in the future, as the sandbox's send shaping
/// reports them.
#[derive(Debug, Clone)]
enum Push {
    Cpu { dt_us: i64, wall_us: u64, share: f64 },
    Inbound { dt_us: i64, busy_us: u64, bytes: u64 },
    Outbound { dt_us: i64, delay_us: u64, bytes: u64 },
}

fn step() -> impl Strategy<Value = i64> {
    prop_oneof![Just(10_000i64), 0i64..20_000, -15_000i64..0, 500_000i64..3_000_000]
}

fn push() -> impl Strategy<Value = Push> {
    prop_oneof![
        (step(), 0u64..25_000, 0.0f64..1.3).prop_map(|(dt_us, wall_us, share)| Push::Cpu {
            dt_us,
            wall_us,
            share
        }),
        (step(), 0u64..50_000, 0u64..100_000).prop_map(|(dt_us, busy_us, bytes)| Push::Inbound {
            dt_us,
            busy_us,
            bytes
        }),
        (step(), 0u64..400_000, 0u64..100_000)
            .prop_map(|(dt_us, delay_us, bytes)| Push::Outbound { dt_us, delay_us, bytes }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn progress_reads_match_a_re_walk_of_the_retained_samples(
        window_us in prop_oneof![Just(1_000u64), Just(50_000u64), Just(1_000_000u64)],
        pushes in proptest::collection::vec((push(), any::<bool>()), 1..300),
    ) {
        let mut p = ProgressEstimator::new(window_us);
        let mut oracle = OracleEstimator { window_us, cpu: VecDeque::new(), net: VecDeque::new() };
        let mut clock = 0i64;
        for (push, read) in pushes {
            let dt_us = match push {
                Push::Cpu { dt_us, .. } | Push::Inbound { dt_us, .. } | Push::Outbound { dt_us, .. } => dt_us,
            };
            clock = (clock + dt_us).max(0);
            let now = SimTime(clock as u64);
            match push {
                Push::Cpu { wall_us, share, .. } => {
                    let s = CpuSample {
                        start: SimTime(now.0.saturating_sub(wall_us)),
                        end: now,
                        cpu_us: share * wall_us as f64,
                    };
                    p.push_cpu(s);
                    oracle.cpu.push_back(s);
                    oracle.evict(s.end);
                }
                Push::Inbound { busy_us, bytes, .. } | Push::Outbound { delay_us: busy_us, bytes, .. } => {
                    let inbound = matches!(push, Push::Inbound { .. });
                    let (queued, processed) = if inbound {
                        (SimTime(now.0.saturating_sub(busy_us)), now)
                    } else {
                        (now, SimTime(now.0 + busy_us))
                    };
                    let s = NetSample { queued, processed, bytes, inbound };
                    p.push_net(s);
                    oracle.net.push_back(s);
                    oracle.evict(s.processed);
                }
            }
            prop_assert_eq!(p.len(), (oracle.cpu.len(), oracle.net.len()));
            for inbound in [true, false] {
                let got = p.bandwidth_bps(inbound).map(f64::to_bits);
                prop_assert_eq!(got, oracle.bandwidth_bps(inbound).map(f64::to_bits));
            }
            // Reading only some of the time lets several changes of the
            // CPU window pile up between two reads.
            if read {
                let got = p.cpu_share().map(f64::to_bits);
                prop_assert_eq!(got, oracle.cpu_share().map(f64::to_bits));
            }
        }
    }
}
