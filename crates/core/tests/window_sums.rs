//! The monitor's quiet check answers from running window sums. This
//! property holds it to the code that re-summed every window on every
//! check, kept here as a reference oracle: the same triggers and
//! estimates, bit for bit, over streams built to sit on the edges of the
//! running-sum fast path — bounds a few ulps from the mean, magnitude
//! swings, NaN and infinities, half-open regions, out-of-order timestamps
//! and checks long after the last sample.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use adapt_core::{
    MonitoringAgent, ResourceKey, ResourceVector, Trigger, ValidityRegion, Violation,
};
use simnet::SimTime;

/// CPU and network are watched; memory is not.
fn key(i: usize) -> ResourceKey {
    [ResourceKey::cpu("client"), ResourceKey::net("client"), ResourceKey::mem("client")][i].clone()
}

/// `MonitoringAgent` as it was before running sums: every check re-sums
/// every window, newest sample first.
struct OracleAgent {
    window_us: u64,
    stats: BTreeMap<ResourceKey, VecDeque<(SimTime, f64)>>,
    validity: ValidityRegion,
    hysteresis: f64,
    min_trigger_gap_us: u64,
    last_trigger: Option<SimTime>,
}

impl OracleAgent {
    fn cutoff(&self, t: SimTime) -> SimTime {
        SimTime(t.0.saturating_sub(self.window_us))
    }

    fn observe(&mut self, t: SimTime, k: &ResourceKey, v: f64) {
        if *k == key(2) {
            return;
        }
        let cutoff = self.cutoff(t);
        let w = self.stats.entry(k.clone()).or_default();
        w.push_back((t, v));
        while w.front().is_some_and(|&(ts, _)| ts < cutoff) {
            w.pop_front();
        }
    }

    fn mean_at(&self, key: &ResourceKey, t: SimTime) -> Option<f64> {
        let cutoff = self.cutoff(t);
        let (mut sum, mut n) = (0.0, 0usize);
        for &(ts, v) in self.stats.get(key)?.iter().rev() {
            if ts < cutoff {
                break;
            }
            sum += v;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    fn estimate(&self) -> ResourceVector {
        let mut v = ResourceVector::default();
        for (k, w) in &self.stats {
            let sum = w.iter().map(|(_, v)| v).sum::<f64>();
            v.set(k.clone(), (sum / w.len() as f64).max(0.0));
        }
        v
    }

    fn check(&mut self, t: SimTime) -> Option<Trigger> {
        if self.last_trigger.is_some_and(|last| t.since(last) < self.min_trigger_gap_us) {
            return None;
        }
        let (mut estimate, mut stale) = (ResourceVector::default(), Vec::new());
        for k in self.stats.keys() {
            match self.mean_at(k, t) {
                Some(m) => estimate.set(k.clone(), m.max(0.0)),
                None => stale.push(k.clone()),
            }
        }
        if estimate.is_empty() && stale.is_empty() {
            return None;
        }
        let h = self.hysteresis;
        let mut violations = Vec::new();
        for (k, &(min, max)) in &self.validity.ranges {
            let Some(v) = estimate.get(k) else { continue };
            let lo_ok = !min.is_finite() || v >= min - h * min.abs().max(1e-12);
            let hi_ok = !max.is_finite() || v <= max + h * max.abs().max(1e-12);
            if !lo_ok || !hi_ok {
                violations.push(Violation { key: k.clone(), value: v, range: (min, max) });
            }
        }
        if violations.is_empty() && stale.is_empty() {
            return None;
        }
        self.last_trigger = Some(t);
        Some(Trigger { at: t, violations, estimate, stale })
    }
}

/// An observed value: near the case's magnitude (either sign), anywhere
/// from 1e-3 to 1e9 of either sign, a small integer (whose sums are exact,
/// so a bound can sit exactly on the mean), or not finite.
#[derive(Debug, Clone, Copy)]
enum Val {
    Near(f64),
    Swing(f64, i32),
    Int(u8),
    Nan,
    Inf,
    NegInf,
}

/// Where a bound goes, relative to the exact estimate it is tested on.
#[derive(Debug, Clone, Copy)]
enum Edge {
    Open,
    Far,
    Ulps(i64),
    Rel(f64),
    Nan,
}

#[derive(Debug, Clone)]
enum Op {
    /// Move the clock by `dt_us` (possibly backwards) and observe.
    Observe {
        key: usize,
        dt_us: i64,
        value: Val,
    },
    /// Check `late` windows after the clock.
    Check {
        late: f64,
    },
    /// Replace the region with one range for `key`, its edges placed
    /// around the key's current exact estimate, then check.
    Bound {
        key: usize,
        lo: Edge,
        hi: Edge,
    },
    Unbounded,
    Hysteresis(f64),
}

/// Per mille of draws that disrupt: observations that are not finite, or
/// clock steps that go backwards or jump past the window. Either sends
/// `check` to its exact path for a while, so a stream rough in both
/// seldom reaches the fast path and a calm one mostly does.
fn per_mille(rough: bool) -> u32 {
    if rough {
        150
    } else {
        3
    }
}

fn val(rough: bool) -> impl Strategy<Value = Val> {
    let odd = per_mille(rough);
    ((0u32..1000), (0.5f64..1.5), (-1.5f64..1.5), (-3i32..=9), (0u8..8)).prop_map(
        move |(draw, near, swing, exp, int)| match draw {
            d if d < odd / 3 => Val::Nan,
            d if d < 2 * odd / 3 => Val::Inf,
            d if d < odd => Val::NegInf,
            d if d < odd + 50 => Val::Swing(swing, exp),
            d if d < odd + 150 => Val::Int(int),
            d if d < odd + 250 => Val::Near(-near),
            _ => Val::Near(near),
        },
    )
}

fn observe(rough_values: bool, rough_time: bool) -> impl Strategy<Value = Op> {
    let odd = per_mille(rough_time);
    let step = ((0u32..1000), (-30_000i64..0), (1_000_000i64..5_000_000), (0i64..25_000)).prop_map(
        move |(draw, back, jump, jitter)| match draw {
            d if d < odd * 4 / 5 => back,
            d if d < odd => jump,
            d if d < odd + 200 => jitter,
            _ => 10_000,
        },
    );
    let value = val(rough_values);
    ((0usize..3), step, value).prop_map(|(key, dt_us, value)| Op::Observe { key, dt_us, value })
}

fn edge() -> impl Strategy<Value = Edge> {
    prop_oneof![
        Just(Edge::Open),
        Just(Edge::Far),
        (-3i64..=3).prop_map(Edge::Ulps),
        (-3i64..=3).prop_map(Edge::Ulps),
        (-2_000i64..=2_000).prop_map(Edge::Ulps),
        ((-16i32..=-9), any::<bool>())
            .prop_map(|(e, neg)| Edge::Rel(10f64.powi(e) * if neg { -1.0 } else { 1.0 })),
        Just(Edge::Nan),
    ]
}

/// An operation of a stream whose regime's bit 0 makes values rough and
/// bit 1 makes time rough.
fn op(regime: u8) -> impl Strategy<Value = Op> {
    let (values, time) = (regime & 1 != 0, regime & 2 != 0);
    let late = prop_oneof![Just(0.0), Just(0.0), 0.0f64..0.1, 0.0f64..3.0];
    prop_oneof![
        observe(values, time),
        observe(values, time),
        observe(values, time),
        late.prop_map(|late| Op::Check { late }),
        ((0usize..3), edge(), edge()).prop_map(|(key, lo, hi)| Op::Bound { key, lo, hi }),
        Just(Op::Unbounded),
        prop_oneof![Just(0.0), Just(0.05), Just(0.10)].prop_map(Op::Hysteresis),
    ]
}

/// A trigger with every float as its bit pattern.
type TriggerBits =
    (u64, Vec<(ResourceKey, u64, u64, u64)>, Vec<(ResourceKey, u64)>, Vec<ResourceKey>);

fn bits(t: &Trigger) -> TriggerBits {
    let violation = |v: &Violation| {
        (v.key.clone(), v.value.to_bits(), v.range.0.to_bits(), v.range.1.to_bits())
    };
    (
        t.at.0,
        t.violations.iter().map(violation).collect(),
        vector_bits(&t.estimate),
        t.stale.clone(),
    )
}

fn vector_bits(v: &ResourceVector) -> Vec<(ResourceKey, u64)> {
    v.iter().map(|(k, x)| (k.clone(), x.to_bits())).collect()
}

/// `f`'s result, or `Err` if it panicked (`ResourceVector` refuses an
/// infinite estimate, before and after running sums alike).
fn outcome<T>(f: impl FnOnce() -> T) -> Result<T, ()> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| ())
}

/// `x` moved `k` representable values up (or down, for negative `k`).
fn ulps(mut x: f64, k: i64) -> f64 {
    for _ in 0..k.unsigned_abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// A bound whose hysteresis-widened value lands at `edge` from `target`:
/// `lower` places a minimum, otherwise a maximum.
fn place(edge: Edge, target: f64, hysteresis: f64, lower: bool) -> f64 {
    let sign = if lower { -1.0 } else { 1.0 };
    // `target >= 0`, so the bound that widens onto it is positive too.
    let on_target = target / (1.0 + sign * hysteresis);
    match edge {
        Edge::Open => sign * f64::INFINITY,
        Edge::Far => target * (1.0 + sign * 0.5) + sign,
        Edge::Ulps(k) => ulps(on_target, k),
        Edge::Rel(r) => on_target * (1.0 + r),
        Edge::Nan => f64::NAN,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn check_matches_the_re_summing_oracle_bit_for_bit(
        window_us in prop_oneof![Just(50_000u64), Just(200_000u64), Just(2_000_000u64)],
        gap_us in prop_oneof![Just(0u64), Just(500_000u64)],
        scale_exp in -3i32..=9,
        ops in (0u8..4).prop_flat_map(|regime| proptest::collection::vec(op(regime), 1..400)),
    ) {
        let scale = 10f64.powi(scale_exp);
        let mut agent = MonitoringAgent::new(vec![key(0), key(1)], window_us);
        agent.min_trigger_gap_us = gap_us;
        let mut oracle = OracleAgent {
            window_us,
            stats: BTreeMap::new(),
            validity: ValidityRegion::unbounded(),
            hysteresis: agent.hysteresis,
            min_trigger_gap_us: gap_us,
            last_trigger: None,
        };
        let mut clock = 0i64;
        for op in ops {
            let at = match op {
                Op::Observe { key: k, dt_us, value } => {
                    clock = (clock + dt_us).max(0);
                    let v = match value {
                        Val::Near(m) => m * scale,
                        Val::Swing(m, e) => m * 10f64.powi(e),
                        Val::Int(i) => i as f64,
                        Val::Nan => f64::NAN,
                        Val::Inf => f64::INFINITY,
                        Val::NegInf => f64::NEG_INFINITY,
                    };
                    let t = SimTime(clock as u64);
                    agent.observe(t, &key(k), v);
                    oracle.observe(t, &key(k), v);
                    continue;
                }
                Op::Check { late } => clock as u64 + (late * window_us as f64) as u64,
                Op::Bound { key: k, lo, hi } => {
                    let now = SimTime(clock as u64);
                    let target = oracle.mean_at(&key(k), now).map_or(1.0, |m| m.max(0.0));
                    let target = if target.is_finite() { target } else { 1.0 };
                    let h = oracle.hysteresis;
                    let mut region = ValidityRegion::new();
                    region.ranges.insert(
                        key(k),
                        (place(lo, target, h, true), place(hi, target, h, false)),
                    );
                    agent.set_validity(region.clone());
                    oracle.validity = region;
                    clock as u64
                }
                Op::Unbounded => {
                    agent.set_validity(ValidityRegion::unbounded());
                    oracle.validity = ValidityRegion::unbounded();
                    continue;
                }
                Op::Hysteresis(h) => {
                    agent.hysteresis = h;
                    oracle.hysteresis = h;
                    continue;
                }
            };
            let t = SimTime(at);
            let got = outcome(|| agent.check(t)).map(|tr| tr.as_ref().map(bits));
            let want = outcome(|| oracle.check(t)).map(|tr| tr.as_ref().map(bits));
            prop_assert_eq!(got, want, "check at {}", at);
            let got = outcome(|| vector_bits(&agent.estimate()));
            let want = outcome(|| vector_bits(&oracle.estimate()));
            prop_assert_eq!(got, want, "last-known estimate at {}", at);
        }
    }
}
