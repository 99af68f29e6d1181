//! Property-based tests of the adaptation framework's invariants.

use proptest::prelude::*;

use adapt_core::{
    Configuration, Constraint, ControlParam, ControlSpace, Guard, Objective, ParamDomain, PerfDb,
    PerfRecord, PredictMode, Preference, PreferenceList, QosReport, ResourceKey, ResourceScheduler,
    ResourceVector, Sense,
};

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
        prop_assert!(eq.clone().or(not_eq.clone()).eval(&c), "excluded middle");
        prop_assert!(!eq.and(not_eq).eval(&c), "non-contradiction");
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
        let space = ControlSpace::new(params);
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
        // (the cross product of the sampled axis values), both modes.
        let cfg = Configuration::new(&[("x", 1)]);
        let bits = |db: &PerfDb, q: &ResourceVector, mode| {
            db.predict(&cfg, "w", q, mode)
                .map(|r| r.iter().map(|(k, v)| (k.to_string(), v.to_bits())).collect::<Vec<_>>())
        };
        for &(cv, _, _) in &points {
            for &(_, nv, _) in &points {
                let q = ResourceVector::new(&[(cpu(), cv), (net(), nv)]);
                for mode in [PredictMode::Interpolate, PredictMode::Nearest] {
                    prop_assert_eq!(bits(&back, &q, mode), bits(&db, &q, mode));
                }
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
    fn arb_record() -> impl Strategy<Value = PerfRecord> {
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
    fn arb_query() -> impl Strategy<Value = ResourceVector> {
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
        /// (including ragged) databases, both modes, all query points.
        #[test]
        fn indexed_predict_matches_linear_scan(
            records in proptest::collection::vec(arb_record(), 1..40),
            queries in proptest::collection::vec(arb_query(), 1..6),
            nearest in proptest::bool::ANY,
        ) {
            let mut db = PerfDb::new();
            for r in records {
                db.add(r);
            }
            let mode = if nearest { PredictMode::Nearest } else { PredictMode::Interpolate };
            for q in &queries {
                for c in 0..3i64 {
                    for input in ["a", "b"] {
                        let cfg = Configuration::new(&[("x", c)]);
                        let a = db.predict(&cfg, input, q, mode);
                        let b = db.predict_scan(&cfg, input, q, mode);
                        check_equivalent(&a, &b, &format!("x={c} {input} {q} {mode:?}"))?;
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
                    let b = db.predict_scan(&cfg, "a", &q, PredictMode::Interpolate);
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
            nearest in proptest::bool::ANY,
        ) {
            let mode = if nearest { PredictMode::Nearest } else { PredictMode::Interpolate };
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
                            let b = db.predict_scan(&cfgq, iq, q, mode);
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
