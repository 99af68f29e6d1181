//! Property-based tests of the adaptation framework's invariants.

use proptest::prelude::*;

use adapt_core::{
    Configuration, Constraint, ControlParam, ControlSpace, Guard, Objective, ParamDomain, PerfDb,
    PerfRecord, PredictMode, Preference, PreferenceList, QosReport, ResourceKey, ResourceScheduler,
    ResourceVector, Sense, ValidityRegion,
};

#[path = "support/scan_oracle.rs"]
mod scan_oracle;

#[path = "support/decision_oracle.rs"]
mod decision_oracle;

fn cpu() -> ResourceKey {
    ResourceKey::cpu("client")
}

fn net() -> ResourceKey {
    ResourceKey::net("client")
}

/// A database of one configuration sampled on an arbitrary grid of a
/// monotone function t = a/cpu + b/net + c.
fn monotone_db(a: f64, b: f64, c: f64, cpus: &[f64], nets: &[f64]) -> PerfDb {
    let mut db = PerfDb::new();
    for &cv in cpus {
        for &nv in nets {
            db.add(PerfRecord {
                config: Configuration::new(&[("x", 1)]),
                resources: ResourceVector::new(&[(cpu(), cv), (net(), nv)]),
                input: "w".into(),
                metrics: QosReport::new(&[("t", a / cv + b / nv + c)]),
            });
        }
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interpolation_stays_within_sampled_extremes(
        a in 1.0f64..100.0,
        b in 1e4f64..1e6,
        c in 0.0f64..10.0,
        q_cpu in 0.05f64..1.5,
        q_net in 1e4f64..2e6,
    ) {
        let cpus = [0.1, 0.3, 0.6, 1.0];
        let nets = [50_000.0, 200_000.0, 1_000_000.0];
        let db = monotone_db(a, b, c, &cpus, &nets);
        let cfg = Configuration::new(&[("x", 1)]);
        let q = ResourceVector::new(&[(cpu(), q_cpu), (net(), q_net)]);
        let p = db
            .predict(&cfg, "w", &q, PredictMode::Interpolate)
            .expect("prediction exists")
            .get("t")
            .unwrap();
        // All sampled values bound the interpolant (multilinear + clamping).
        let lo = a / 1.0 + b / 1_000_000.0 + c;
        let hi = a / 0.1 + b / 50_000.0 + c;
        prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{} not in [{}, {}]", p, lo, hi);
    }

    #[test]
    fn interpolation_is_exact_at_grid_points(
        a in 1.0f64..100.0,
        b in 1e4f64..1e6,
        ci in 0usize..4,
        ni in 0usize..3,
    ) {
        let cpus = [0.1, 0.3, 0.6, 1.0];
        let nets = [50_000.0, 200_000.0, 1_000_000.0];
        let db = monotone_db(a, b, 0.0, &cpus, &nets);
        let cfg = Configuration::new(&[("x", 1)]);
        let q = ResourceVector::new(&[(cpu(), cpus[ci]), (net(), nets[ni])]);
        let p = db.predict(&cfg, "w", &q, PredictMode::Interpolate).unwrap().get("t").unwrap();
        let expect = a / cpus[ci] + b / nets[ni];
        prop_assert!((p - expect).abs() < 1e-9);
    }

    #[test]
    fn interpolation_preserves_monotonicity_along_axes(
        a in 1.0f64..100.0,
        b in 1e4f64..1e6,
        q1 in 0.1f64..1.0,
        q2 in 0.1f64..1.0,
    ) {
        let cpus = [0.1, 0.3, 0.6, 1.0];
        let nets = [50_000.0, 200_000.0, 1_000_000.0];
        let db = monotone_db(a, b, 0.0, &cpus, &nets);
        let cfg = Configuration::new(&[("x", 1)]);
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let p_at = |cv: f64| {
            db.predict(
                &cfg,
                "w",
                &ResourceVector::new(&[(cpu(), cv), (net(), 200_000.0)]),
                PredictMode::Interpolate,
            )
            .unwrap()
            .get("t")
            .unwrap()
        };
        // t = a/cpu is decreasing in cpu; piecewise-linear interpolation of
        // a monotone function on a grid is monotone.
        prop_assert!(p_at(lo) >= p_at(hi) - 1e-9);
    }

    #[test]
    fn scheduler_choice_satisfies_constraints_and_is_optimal(
        costs in proptest::collection::vec((1.0f64..50.0, 0.0f64..20.0), 2..6),
        q_cpu in 0.1f64..1.0,
        deadline in 5.0f64..500.0,
    ) {
        // Each candidate i: t_i = a_i/cpu + c_i at a fixed bandwidth.
        let mut db = PerfDb::new();
        for (i, &(ai, ci)) in costs.iter().enumerate() {
            for &cv in &[0.1, 0.5, 1.0] {
                db.add(PerfRecord {
                    config: Configuration::new(&[("x", i as i64)]),
                    resources: ResourceVector::new(&[(cpu(), cv)]),
                    input: "w".into(),
                    metrics: QosReport::new(&[("t", ai / cv + ci)]),
                });
            }
        }
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("t", deadline)],
            Objective::minimize("t"),
        ));
        let sched = ResourceScheduler::new(db.clone(), prefs, "w");
        let q = ResourceVector::new(&[(cpu(), q_cpu)]);
        match sched.choose(&q) {
            Some(d) => {
                let t = d.predicted.get("t").unwrap();
                prop_assert!(t <= deadline, "choice violates the deadline");
                // No other candidate predicts strictly better.
                for i in 0..costs.len() {
                    let other = Configuration::new(&[("x", i as i64)]);
                    let p = db.predict(&other, "w", &q, PredictMode::Interpolate).unwrap();
                    let ot = p.get("t").unwrap();
                    if ot <= deadline {
                        prop_assert!(t <= ot + 1e-9, "candidate {} is better: {} < {}", i, ot, t);
                    }
                }
            }
            None => {
                // Then no candidate satisfies the deadline.
                for i in 0..costs.len() {
                    let other = Configuration::new(&[("x", i as i64)]);
                    let p = db.predict(&other, "w", &q, PredictMode::Interpolate).unwrap();
                    prop_assert!(p.get("t").unwrap() > deadline);
                }
            }
        }
    }

    #[test]
    fn pruning_never_removes_the_best_choice(
        costs in proptest::collection::vec((1.0f64..50.0, 1e4f64..1e6), 2..6),
    ) {
        let mut db = PerfDb::new();
        for (i, &(ai, bi)) in costs.iter().enumerate() {
            for &cv in &[0.2, 1.0] {
                for &nv in &[50_000.0, 500_000.0] {
                    db.add(PerfRecord {
                        config: Configuration::new(&[("x", i as i64)]),
                        resources: ResourceVector::new(&[(cpu(), cv), (net(), nv)]),
                        input: "w".into(),
                        metrics: QosReport::new(&[("t", ai / cv + bi / nv)]),
                    });
                }
            }
        }
        // The best configuration at each sampled point before pruning...
        let mut best_at_points = Vec::new();
        for &cv in &[0.2, 1.0] {
            for &nv in &[50_000.0, 500_000.0] {
                let best = (0..costs.len())
                    .min_by(|&i, &j| {
                        let ti = costs[i].0 / cv + costs[i].1 / nv;
                        let tj = costs[j].0 / cv + costs[j].1 / nv;
                        ti.partial_cmp(&tj).unwrap()
                    })
                    .unwrap();
                best_at_points.push(best as i64);
            }
        }
        db.prune_dominated("t", Sense::LowerIsBetter, 0.0);
        let kept: Vec<i64> = db.configs("w").iter().map(|c| c.expect("x")).collect();
        for b in best_at_points {
            prop_assert!(kept.contains(&b), "pruning removed point-best config {}", b);
        }
    }

    #[test]
    fn guards_respect_boolean_algebra(p in any::<i64>(), v in any::<i64>()) {
        let c = Configuration::new(&[("k", p)]);
        let eq = Guard::Eq("k".into(), v);
        let not_eq = Guard::Not(Box::new(eq.clone()));
        prop_assert_eq!(eq.eval(&c), p == v);
        prop_assert_ne!(eq.eval(&c), not_eq.eval(&c));
        prop_assert!(Guard::Or(vec![eq.clone(), not_eq.clone()]).eval(&c), "excluded middle");
        prop_assert!(!Guard::And(vec![eq, not_eq]).eval(&c), "non-contradiction");
    }

    #[test]
    fn control_space_enumeration_is_complete_and_valid(
        sizes in proptest::collection::vec(1usize..4, 1..4),
    ) {
        let params: Vec<ControlParam> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| ControlParam {
                name: format!("p{i}"),
                domain: ParamDomain::Set((0..n as i64).collect()),
            })
            .collect();
        let space = ControlSpace { params };
        let all = space.enumerate();
        prop_assert_eq!(all.len(), space.cardinality());
        let keys: std::collections::BTreeSet<String> = all.iter().map(|c| c.key()).collect();
        prop_assert_eq!(keys.len(), all.len(), "all configurations distinct");
        for c in &all {
            prop_assert!(space.validate(c).is_ok());
        }
    }

    #[test]
    fn perfdb_json_roundtrip(
        points in proptest::collection::vec((0.05f64..1.0, 1e4f64..1e6, 0.0f64..100.0), 1..10),
    ) {
        let mut db = PerfDb::new();
        for &(cv, nv, t) in &points {
            db.add(PerfRecord {
                config: Configuration::new(&[("x", 1)]),
                resources: ResourceVector::new(&[(cpu(), cv), (net(), nv)]),
                input: "w".into(),
                metrics: QosReport::new(&[("t", t)]),
            });
        }
        let back = PerfDb::from_json(&db.to_json()).expect("a saved database reloads");
        prop_assert_eq!(back.records(), db.records());
        // Bit-identical predictions at every point of the sampled lattice
        // (the cross product of the sampled axis values).
        let cfg = Configuration::new(&[("x", 1)]);
        let bits = |db: &PerfDb, q: &ResourceVector| {
            db.predict(&cfg, "w", q, PredictMode::Interpolate)
                .map(|r| r.iter().map(|(k, v)| (k.to_string(), v.to_bits())).collect::<Vec<_>>())
        };
        for &(cv, _, _) in &points {
            for &(_, nv, _) in &points {
                let q = ResourceVector::new(&[(cpu(), cv), (net(), nv)]);
                prop_assert_eq!(bits(&back, &q), bits(&db, &q));
            }
        }
    }
}

mod index_props {
    use super::*;
    use proptest::test_runner::TestCaseError;

    const CPUS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];
    const NETS: [f64; 5] = [1e5, 2e5, 4e5, 8e5, 1.6e6];
    const MEMS: [f64; 5] = [1e6, 2e6, 4e6, 8e6, 1.6e7];

    /// Records over a small value lattice with deliberately mixed axis
    /// signatures: full `{cpu, net}` grid records, ragged `{cpu}`-only /
    /// `{net}`-only records, and `{cpu, net, mem}` records — so slices are
    /// non-rectangular and some records sit off the interpolation lattice.
    /// Duplicate points (same coordinates, different metrics) also occur.
    pub(super) fn arb_record() -> impl Strategy<Value = PerfRecord> {
        (
            0i64..3,
            prop_oneof![Just("a"), Just("b")],
            0usize..4,
            0usize..5,
            0usize..5,
            0usize..5,
            1.0f64..100.0,
            proptest::option::of(1.0f64..100.0),
        )
            .prop_map(|(c, input, sig, ci, ni, mi, t, u)| {
                let mut res = ResourceVector::default();
                if sig != 1 {
                    res.set(cpu(), CPUS[ci]);
                }
                if sig != 2 {
                    res.set(net(), NETS[ni]);
                }
                if sig == 3 {
                    res.set(ResourceKey::mem("client"), MEMS[mi]);
                }
                let mut metrics = QosReport::new(&[("t", t)]);
                if let Some(u) = u {
                    metrics.set("u", u);
                }
                PerfRecord {
                    config: Configuration::new(&[("x", c)]),
                    resources: res,
                    input: input.into(),
                    metrics,
                }
            })
    }

    /// Queries both on and off the sampled lattice.
    pub(super) fn arb_query() -> impl Strategy<Value = ResourceVector> {
        (0.05f64..1.2, 5e4f64..2e6, proptest::bool::ANY, 0usize..5, 0usize..5).prop_map(
            |(qc, qn, on_grid, ci, ni)| {
                if on_grid {
                    ResourceVector::new(&[(cpu(), CPUS[ci]), (net(), NETS[ni])])
                } else {
                    ResourceVector::new(&[(cpu(), qc), (net(), qn)])
                }
            },
        )
    }

    fn check_equivalent(
        indexed: &Option<QosReport>,
        scan: &Option<QosReport>,
        what: &str,
    ) -> Result<(), TestCaseError> {
        match (indexed, scan) {
            (None, None) => Ok(()),
            (Some(a), Some(b)) => {
                let av: Vec<(&str, f64)> = a.iter().collect();
                let bv: Vec<(&str, f64)> = b.iter().collect();
                prop_assert_eq!(av.len(), bv.len(), "metric sets differ: {}", what);
                for (&(ka, va), &(kb, vb)) in av.iter().zip(bv.iter()) {
                    prop_assert_eq!(ka, kb, "metric names differ: {}", what);
                    prop_assert!(
                        (va - vb).abs() <= 1e-9 * va.abs().max(1.0),
                        "{}: {} = {} indexed vs {} scan",
                        what,
                        ka,
                        va,
                        vb
                    );
                }
                Ok(())
            }
            _ => {
                prop_assert!(
                    false,
                    "{}: indexed {:?} vs scan {:?}",
                    what,
                    indexed.is_some(),
                    scan.is_some()
                );
                Ok(())
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The tentpole's correctness contract: the lattice-indexed
        /// `predict` agrees with the reference linear scan for arbitrary
        /// (including ragged) databases, all query points.
        #[test]
        fn indexed_predict_matches_linear_scan(
            records in proptest::collection::vec(arb_record(), 1..40),
            queries in proptest::collection::vec(arb_query(), 1..6),
        ) {
            let mut db = PerfDb::new();
            for r in records {
                db.add(r);
            }
            for q in &queries {
                for c in 0..3i64 {
                    for input in ["a", "b"] {
                        let cfg = Configuration::new(&[("x", c)]);
                        let a = db.predict(&cfg, input, q, PredictMode::Interpolate);
                        let b = scan_oracle::predict(&db, &cfg, input, q);
                        check_equivalent(&a, &b, &format!("x={c} {input} {q}"))?;
                    }
                }
            }
        }

        /// Interleaving queries (which build the index) with `add` batches
        /// (which must invalidate it) never lets a stale index answer:
        /// after every mutation the indexed path still equals the scan,
        /// and the interned distinct sets match a from-scratch clone.
        #[test]
        fn add_after_query_invalidates_index(
            batches in proptest::collection::vec(
                proptest::collection::vec(arb_record(), 1..8), 1..4),
            q in arb_query(),
        ) {
            let mut db = PerfDb::new();
            for batch in batches {
                for r in batch {
                    db.add(r);
                }
                for c in 0..3i64 {
                    let cfg = Configuration::new(&[("x", c)]);
                    let a = db.predict(&cfg, "a", &q, PredictMode::Interpolate);
                    let b = scan_oracle::predict(&db, &cfg, "a", &q);
                    check_equivalent(&a, &b, &format!("x={c} after batch"))?;
                }
                // A fresh db built from the same records has never had a
                // stale index; its views must agree with the mutated one.
                let mut fresh = PerfDb::new();
                for r in db.records() {
                    fresh.add(r.clone());
                }
                prop_assert_eq!(db.inputs(), fresh.inputs());
                for input in ["a", "b"] {
                    prop_assert_eq!(db.configs(input), fresh.configs(input));
                }
            }
        }

        /// The refine engine's hot-swap primitive preserves the indexed ==
        /// scan contract under *arbitrary* swap sequences: after every
        /// `swap_slice` (replacing one `(config, input)` slice with an
        /// arbitrary replacement slice, including an empty one), the
        /// lattice-indexed `predict` still agrees with the reference scan
        /// at every query, and the mutated database matches a from-scratch
        /// rebuild of the same records — no stale index ever answers.
        #[test]
        fn indexed_matches_scan_after_arbitrary_swap_sequences(
            records in proptest::collection::vec(arb_record(), 1..25),
            swaps in proptest::collection::vec(
                (0i64..3, proptest::bool::ANY,
                 proptest::collection::vec(arb_record(), 0..6)), 1..5),
            queries in proptest::collection::vec(arb_query(), 1..4),
        ) {
            let mode = PredictMode::Interpolate;
            let mut db = PerfDb::new();
            for r in records {
                db.add(r);
            }
            for (c, which_input, repl) in swaps {
                let cfg = Configuration::new(&[("x", c)]);
                let input = if which_input { "a" } else { "b" };
                // Query first so the index is built (and would be stale if
                // the swap failed to invalidate it).
                for q in &queries {
                    let _ = db.predict(&cfg, input, q, mode);
                }
                // Retarget the replacement records at the swapped slice.
                let repl: Vec<PerfRecord> = repl
                    .into_iter()
                    .map(|r| PerfRecord { config: cfg.clone(), input: input.into(), ..r })
                    .collect();
                let n_repl = repl.len();
                let (_, added) = db.swap_slice(&cfg, input, repl);
                prop_assert_eq!(added, n_repl);
                for q in &queries {
                    for cq in 0..3i64 {
                        for iq in ["a", "b"] {
                            let cfgq = Configuration::new(&[("x", cq)]);
                            let a = db.predict(&cfgq, iq, q, mode);
                            let b = scan_oracle::predict(&db, &cfgq, iq, q);
                            check_equivalent(&a, &b, &format!("x={cq} {iq} after swap"))?;
                        }
                    }
                }
                let mut fresh = PerfDb::new();
                for r in db.records() {
                    fresh.add(r.clone());
                }
                for q in &queries {
                    for cq in 0..3i64 {
                        let cfgq = Configuration::new(&[("x", cq)]);
                        let a = db.predict(&cfgq, input, q, mode);
                        let b = fresh.predict(&cfgq, input, q, mode);
                        check_equivalent(&a, &b, &format!("x={cq} vs fresh rebuild"))?;
                    }
                }
            }
        }

        /// Refinement preserves the interpolation lattice's validity
        /// contract: after hot-swapping a full-grid slice with re-profiled
        /// metrics, every prediction for that slice stays within the
        /// refreshed slice's sampled extremes (multilinear interpolation +
        /// clamping never extrapolates), and grid points are exact.
        #[test]
        fn refined_predictions_stay_within_lattice_validity(
            a0 in 1.0f64..50.0, b0 in 1e4f64..1e6,
            a1 in 1.0f64..50.0, b1 in 1e4f64..1e6, c1 in 0.0f64..10.0,
            queries in proptest::collection::vec(arb_query(), 1..6),
            gi in 0usize..5, gj in 0usize..5,
        ) {
            let cfg = Configuration::new(&[("x", 1)]);
            let val = |a: f64, b: f64, c: f64, cv: f64, nv: f64| a / cv + b / nv + c;
            let grid_records = |a: f64, b: f64, c: f64| -> Vec<PerfRecord> {
                let mut recs = Vec::new();
                for &cv in &CPUS {
                    for &nv in &NETS {
                        recs.push(PerfRecord {
                            config: cfg.clone(),
                            resources: ResourceVector::new(&[(cpu(), cv), (net(), nv)]),
                            input: "a".into(),
                            metrics: QosReport::new(&[("t", val(a, b, c, cv, nv))]),
                        });
                    }
                }
                recs
            };
            let mut db = PerfDb::new();
            for r in grid_records(a0, b0, 0.0) {
                db.add(r);
            }
            // Build the index, then refine: same lattice, new metrics.
            let _ = db.predict(&cfg, "a", &queries[0], PredictMode::Interpolate);
            let (removed, added) = db.swap_slice(&cfg, "a", grid_records(a1, b1, c1));
            prop_assert_eq!(removed, 25);
            prop_assert_eq!(added, 25);
            let lo = val(a1, b1, c1, 1.0, 1.6e6);
            let hi = val(a1, b1, c1, 0.1, 1e5);
            for q in &queries {
                let p = db
                    .predict(&cfg, "a", q, PredictMode::Interpolate)
                    .expect("full-grid slice predicts everywhere")
                    .get("t")
                    .unwrap();
                prop_assert!(
                    p >= lo - 1e-9 && p <= hi + 1e-9,
                    "refined prediction {} escapes the refreshed lattice [{}, {}]",
                    p, lo, hi
                );
            }
            // Exact at refreshed grid points — no trace of the old slice.
            let gq = ResourceVector::new(&[(cpu(), CPUS[gi]), (net(), NETS[gj])]);
            let p = db.predict(&cfg, "a", &gq, PredictMode::Interpolate).unwrap().get("t").unwrap();
            let expect = val(a1, b1, c1, CPUS[gi], NETS[gj]);
            prop_assert!((p - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    /// The sampled values of every axis of a wide slice.
    const LEVELS: [f64; 3] = [0.25, 0.5, 1.0];

    /// A point on axes `h0..h{k-1}`, axis `a` at `at(a)`, without the
    /// `dropped` axis.
    fn wide_point(k: usize, at: impl Fn(usize) -> f64, dropped: Option<usize>) -> ResourceVector {
        let mut r = ResourceVector::default();
        for a in (0..k).filter(|&a| Some(a) != dropped) {
            r.set(ResourceKey::cpu(&format!("h{a}")), at(a));
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Slices on both sides of the index's axis bound (8 axes): a
        /// diagonal, corner records one or two axes off it, duplicate
        /// points and records missing an axis. Up to the bound a blend
        /// reads 2^k lattice corners; past it every record is off the
        /// lattice and a blend falls back to IDW. Either way the index
        /// answers as the scan does: at every record's
        /// point, from the diagonal towards each corner record (a lattice
        /// blend when the corner is one axis off), and between two
        /// arbitrary records.
        #[test]
        fn slices_across_the_axis_bound_match_the_linear_scan(
            k in 7usize..=10,
            corners in proptest::collection::vec(
                (0usize..2, proptest::collection::vec(0usize..10, 1..3), -0.3f64..1.3), 0..12),
            dups in proptest::collection::vec(0usize..32, 0..3),
            missing in proptest::collection::vec((0usize..3, 0usize..10), 0..3),
            between in proptest::collection::vec((0usize..32, 0usize..32, -0.3f64..1.3), 1..6),
        ) {
            let cfg = Configuration::new(&[("x", 1)]);
            let mut points: Vec<ResourceVector> =
                LEVELS.iter().map(|&v| wide_point(k, |_| v, None)).collect();
            let mut queries = Vec::new();
            for &(base, ref raised, t) in &corners {
                let up = |a: usize| raised.iter().any(|&r| r % k == a) as usize;
                let step = |a: usize| LEVELS[base + up(a)] - LEVELS[base];
                points.push(wide_point(k, |a| LEVELS[base + up(a)], None));
                queries.push(wide_point(k, |a| LEVELS[base] + t * step(a), None));
            }
            for &(l, axis) in &missing {
                points.push(wide_point(k, |_| LEVELS[l], Some(axis % k)));
            }
            for &d in &dups {
                points.push(points[d % points.len()].clone());
            }
            for &(i, j, t) in &between {
                let (p, o) = (&points[i % points.len()], &points[j % points.len()]);
                let mut q = ResourceVector::default();
                for (key, v) in p.iter() {
                    q.set(key.clone(), v + t * (o.get(key).unwrap_or(v) - v));
                }
                queries.push(q);
            }
            let mut db = PerfDb::new();
            for (i, resources) in points.iter().enumerate() {
                let t = 1.0 + resources.iter().map(|(_, v)| v).sum::<f64>() + 0.01 * i as f64;
                let mut metrics = QosReport::new(&[("t", t)]);
                if i % 3 != 1 {
                    metrics.set("u", 10.0 - t);
                }
                let resources = resources.clone();
                db.add(PerfRecord { config: cfg.clone(), resources, input: "a".into(), metrics });
            }
            for q in points.iter().chain(&queries) {
                let a = db.predict(&cfg, "a", q, PredictMode::Interpolate);
                let b = scan_oracle::predict(&db, &cfg, "a", q);
                check_equivalent(&a, &b, &format!("k={k} {q}"))?;
            }
        }
    }
}

mod decision_props {
    use super::decision_oracle::{interpolate, Oracle};
    use super::index_props::{arb_query, arb_record};
    use super::*;

    /// Constraints on `t`, on the optional `u`, on `v` (which no record
    /// reports) and one on `u` with neither bound.
    fn arb_constraint() -> impl Strategy<Value = Constraint> {
        (0usize..6, 1.0f64..100.0, 1.0f64..100.0).prop_map(|(kind, a, b)| match kind {
            0 => Constraint::at_most("t", a),
            1 => Constraint::at_least("t", a),
            2 => Constraint::between("u", a.min(b), a.max(b)),
            3 => Constraint::at_least("u", a),
            4 => Constraint::at_most("v", a),
            _ => Constraint { metric: "u".into(), min: None, max: None },
        })
    }

    fn arb_prefs() -> impl Strategy<Value = PreferenceList> {
        let pref = (proptest::collection::vec(arb_constraint(), 0..3), 0usize..5).prop_map(
            |(constraints, objective)| {
                let objective = match objective {
                    0 => Objective::minimize("t"),
                    1 => Objective::maximize("t"),
                    2 => Objective::minimize("u"),
                    3 => Objective::maximize("u"),
                    _ => Objective::minimize("v"),
                };
                Preference::new(constraints, objective)
            },
        );
        proptest::collection::vec(pref, 1..4).prop_map(|prefs| PreferenceList { prefs })
    }

    /// A report as names and value bits, so `==` is bit-exact.
    fn bits(r: &QosReport) -> Vec<(String, u64)> {
        r.iter().map(|(k, v)| (k.to_string(), v.to_bits())).collect()
    }

    fn region_bits(r: &ValidityRegion) -> Vec<(ResourceKey, u64, u64)> {
        r.ranges.iter().map(|(k, &(lo, hi))| (k.clone(), lo.to_bits(), hi.to_bits())).collect()
    }

    type ChosenBits = (Configuration, Vec<(String, u64)>, usize);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every decision entry point equals the whole-report oracle bit
        /// for bit, over ragged databases, preference lists whose metrics
        /// some or all configurations lack, both objective senses, and
        /// arbitrary exclusions.
        #[test]
        fn decisions_match_the_whole_report_oracle(
            records in proptest::collection::vec(arb_record(), 1..40),
            prefs in arb_prefs(),
            queries in proptest::collection::vec(arb_query(), 1..5),
            excluded in proptest::collection::vec(proptest::bool::ANY, 3),
        ) {
            let mut db = PerfDb::new();
            for r in records {
                db.add(r);
            }
            let excluded: Vec<Configuration> = (0..3i64)
                .filter(|&x| excluded[x as usize])
                .map(|x| Configuration::new(&[("x", x)]))
                .collect();
            let sched = ResourceScheduler::new(db.clone(), prefs.clone(), "a");
            for q in &queries {
                let mut oracle = Oracle::new(&db, "a", interpolate);
                let got = sched.choose_excluding(q, &excluded).map(|d| {
                    prop_assert!(!d.best_effort);
                    Ok(((d.config, bits(&d.predicted), d.preference_rank), region_bits(&d.validity)))
                });
                let got: Option<(ChosenBits, _)> = got.transpose()?;
                let want = oracle
                    .choose_excluding(&prefs, q, &excluded)
                    .map(|((c, p, rank), region)| ((c, bits(&p), rank), region_bits(&region)));
                prop_assert_eq!(got, want, "choose_excluding at {}", q);

                let got = sched.select(q).map(|s| (s.config, bits(&s.predicted), s.preference_rank));
                let want = oracle.select(&prefs, q, &[]).map(|(c, p, rank)| (c, bits(&p), rank));
                prop_assert_eq!(got, want, "select at {}", q);

                let got = sched
                    .choose_least_violating(q, &excluded)
                    .map(|d| (d.config, bits(&d.predicted), d.preference_rank));
                let want = oracle
                    .least_violating(&prefs, q, &excluded)
                    .map(|(c, p, rank)| (c, bits(&p), rank));
                prop_assert_eq!(got, want, "choose_least_violating at {}", q);

                for x in [0i64, 1, 2, 7] {
                    let config = Configuration::new(&[("x", x)]);
                    for pref in &prefs.prefs {
                        let got = region_bits(&sched.validity_region(&config, pref, q));
                        let want =
                            region_bits(&Oracle::new(&db, "a", interpolate).validity_region(&config, pref, q));
                        prop_assert_eq!(got, want, "validity_region of x={} at {}", x, q);
                    }
                }
            }
        }
    }
}

mod steering_props {
    use super::*;
    use adapt_core::{dsl, BoundaryOutcome, ReconfigureRequest, SteeringAgent, ValidityRegion};

    use simnet::SimTime;

    /// Arbitrary (possibly invalid) configurations over the paper's space.
    fn arb_config() -> impl Strategy<Value = Configuration> {
        (
            prop_oneof![Just(80i64), Just(160), Just(320), Just(999)],
            prop_oneof![Just(1i64), Just(2), Just(7)],
            prop_oneof![Just(3i64), Just(4), Just(0)],
        )
            .prop_map(|(dr, c, l)| Configuration::new(&[("dR", dr), ("c", c), ("l", l)]))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn steering_invariants_hold_for_any_request_sequence(
            requests in proptest::collection::vec(arb_config(), 0..12),
        ) {
            let spec = dsl::parse(dsl::ACTIVE_VIZ_SPEC).unwrap();
            let initial = Configuration::new(&[("dR", 80), ("c", 1), ("l", 4)]);
            let mut agent = SteeringAgent::new(initial.clone());
            let mut t = 0u64;
            for req in requests {
                t += 1;
                agent.request(ReconfigureRequest {
                    config: req.clone(),
                    validity: ValidityRegion::unbounded(),
                });
                let before = agent.current().clone();
                match agent.at_boundary(SimTime::from_secs(t), &spec) {
                    BoundaryOutcome::Switched(ev) => {
                        // Only valid configurations ever become current.
                        prop_assert!(spec.control.validate(&ev.new).is_ok());
                        prop_assert_eq!(&ev.old, &before);
                        prop_assert_eq!(agent.current(), &ev.new);
                    }
                    BoundaryOutcome::Rejected { config, .. } => {
                        // Rejected configs are invalid and current is kept.
                        prop_assert!(spec.control.validate(&config).is_err());
                        prop_assert_eq!(agent.current(), &before);
                    }
                    BoundaryOutcome::NoChange => {
                        prop_assert_eq!(agent.current(), &before);
                    }
                    BoundaryOutcome::Deferred { .. } => {
                        // Dwell guard: current is kept, request stays queued.
                        prop_assert_eq!(agent.current(), &before);
                        prop_assert!(agent.has_pending());
                    }
                }
                // The invariant of invariants: whatever happened, the
                // current configuration is always valid.
                prop_assert!(spec.control.validate(agent.current()).is_ok());
            }
            // History is time-ordered and starts with the initial config.
            let hist = agent.history();
            prop_assert_eq!(&hist[0].1, &initial);
            for w in hist.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
            }
        }

        #[test]
        fn monitor_estimate_is_bounded_by_observations(
            values in proptest::collection::vec(0.0f64..1.0, 1..100),
        ) {
            use adapt_core::MonitoringAgent;
            let key = ResourceKey::cpu("client");
            let mut m = MonitoringAgent::new(vec![key.clone()], 10_000_000);
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (i, &v) in values.iter().enumerate() {
                m.observe(simnet::SimTime::from_ms(10 * i as u64), &key, v);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            let est = m.estimate().get(&key).unwrap();
            prop_assert!(est >= lo - 1e-12 && est <= hi + 1e-12, "{} not in [{}, {}]", est, lo, hi);
        }
    }
}
