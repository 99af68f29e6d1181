//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;

use simnet::cpu::CpuSched;
use simnet::{Actor, ActorId, Ctx, Message, Sim, SimTime};

/// CPU scheduler: arbitrary runs with weights.
fn arb_runs() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec(
        (
            1.0f64..1e6,  // work
            0.1f64..10.0, // weight
        ),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rates_never_exceed_capacity_or_caps(runs in arb_runs(), speed in 0.1f64..4.0) {
        let mut s = CpuSched::new(speed);
        for (i, &(work, weight)) in runs.iter().enumerate() {
            s.start(ActorId(i), work, weight);
        }
        let total: f64 = (0..runs.len()).map(|i| s.rate_of(ActorId(i))).sum();
        prop_assert!(total <= speed * (1.0 + 1e-9), "total rate {} > speed {}", total, speed);
        prop_assert!(total >= speed * (1.0 - 1e-9), "total rate {} < speed {}", total, speed);
        for i in 0..runs.len() {
            prop_assert!(s.rate_of(ActorId(i)) > 0.0);
        }
    }

    #[test]
    fn uncapped_single_run_gets_full_speed(work in 1.0f64..1e6, speed in 0.1f64..4.0) {
        let mut s = CpuSched::new(speed);
        s.start(ActorId(0), work, 1.0);
        prop_assert!((s.rate_of(ActorId(0)) - speed).abs() < 1e-9);
    }

    #[test]
    fn work_conservation(runs in arb_runs(), dt in 1u64..1_000_000) {
        let mut s = CpuSched::new(1.0);
        for (i, &(work, weight)) in runs.iter().enumerate() {
            s.start(ActorId(i), work, weight);
        }
        let mut cpu = Vec::new();
        s.advance(SimTime::from_us(dt), |_, cpu_us| cpu.push(cpu_us), &mut Vec::new());
        // Work done is what a run no longer has left (all of it if it finished).
        let total_work: f64 = runs
            .iter()
            .enumerate()
            .map(|(i, &(work, _))| work - s.abort(ActorId(i)).unwrap_or(0.0))
            .sum();
        let total_requested: f64 = runs.iter().map(|(w, _)| w).sum();
        // Can't do more work than requested, nor more than capacity * time.
        prop_assert!(total_work <= total_requested + 1e-6);
        prop_assert!(total_work <= dt as f64 * (1.0 + 1e-6));
        // CPU time per actor never exceeds wall time.
        prop_assert_eq!(cpu.len(), runs.len());
        for cpu_us in cpu {
            prop_assert!(cpu_us <= dt as f64 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn weighted_shares_are_proportional(w1 in 0.1f64..10.0, w2 in 0.1f64..10.0) {
        let mut s = CpuSched::new(1.0);
        s.start(ActorId(0), 1e9, w1);
        s.start(ActorId(1), 1e9, w2);
        let (r1, r2) = (s.rate_of(ActorId(0)), s.rate_of(ActorId(1)));
        prop_assert!((r1 / r2 - w1 / w2).abs() < 1e-6);
        prop_assert!((r1 + r2 - 1.0).abs() < 1e-9, "work-conserving");
    }

    #[test]
    fn message_delivery_time_is_monotone_in_size(
        small in 1u64..10_000,
        extra in 1u64..1_000_000,
        bw in 1_000.0f64..10_000_000.0,
    ) {
        fn one_shot(bytes: u64, bw: f64) -> SimTime {
            struct Snd { dst: ActorId, bytes: u64 }
            impl Actor for Snd {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    ctx.send(self.dst, Message::signal(0, self.bytes));
                }
            }
            struct Rcv;
            impl Actor for Rcv {}
            let mut sim = Sim::new();
            let h1 = sim.add_host("a", 1.0, 1 << 30);
            let h2 = sim.add_host("b", 1.0, 1 << 30);
            sim.set_link(h1, h2, bw, 100);
            let r = sim.spawn(h2, Box::new(Rcv));
            sim.spawn(h1, Box::new(Snd { dst: r, bytes }));
            sim.run_until_idle();
            sim.now()
        }
        let t_small = one_shot(small, bw);
        let t_big = one_shot(small + extra, bw);
        prop_assert!(t_big >= t_small);
    }

    #[test]
    fn deterministic_replay(seed in any::<u64>()) {
        fn run(seed: u64) -> (u64, f64) {
            let mut rng = obs::det::SplitMix64::new(seed);
            struct Echo;
            impl Actor for Echo {
                fn on_message(&mut self, from: ActorId, m: Message, ctx: &mut Ctx<'_>) {
                    ctx.compute(50.0);
                    ctx.send(from, Message::signal(m.tag, m.wire_bytes / 2 + 1));
                }
            }
            struct Driver { peer: ActorId, n: u32 }
            impl Actor for Driver {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    ctx.send(self.peer, Message::signal(1, 1000));
                }
                fn on_message(&mut self, from: ActorId, m: Message, ctx: &mut Ctx<'_>) {
                    if self.n > 0 {
                        self.n -= 1;
                        ctx.compute(100.0);
                        ctx.send(from, Message::signal(m.tag + 1, 500));
                    }
                }
            }
            let mut sim = Sim::new();
            let h1 = sim.add_host("a", 0.5 + rng.next_f64(), 1 << 30);
            let h2 = sim.add_host("b", 0.5 + rng.next_f64(), 1 << 30);
            sim.set_link(h1, h2, 100_000.0 + rng.next_f64() * 1e6, rng.range(10, 999));
            let e = sim.spawn(h2, Box::new(Echo));
            let d = sim.spawn(h1, Box::new(Driver { peer: e, n: rng.range(1, 19) as u32 }));
            sim.run_until_idle();
            (sim.now().as_us(), sim.cpu_time_us(d))
        }
        prop_assert_eq!(run(seed), run(seed));
    }
}
