//! The nearest-record lookup of the paper's prototype (§7.1), which
//! `PerfDb::predict` does not offer: the baseline the interpolation
//! ablation (`crates/bench/tests/ablations.rs`) prices decisions against.
//! It reads only `PerfDb::records()`.
//!
//! Included as a module by the ablation and by the unit tests of
//! `src/perfdb.rs`, which pin its answers; each parent imports the model
//! types it names.

use std::collections::BTreeMap;

use super::{Configuration, PerfDb, PerfRecord, QosReport, ResourceKey, ResourceVector};

/// Tolerance when matching axis coordinates (the index's own).
const AXIS_TOL: f64 = 1e-9;

/// The metrics of the first `(config, input)` record at `at`, else of the
/// record nearest to `at` (the first of equally near ones) by
/// [`distance`].
pub fn nearest(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    at: &ResourceVector,
) -> Option<QosReport> {
    let recs: Vec<&PerfRecord> =
        db.records().iter().filter(|r| r.input == input && &r.config == config).collect();
    if let Some(r) = recs.iter().find(|r| same_point(&r.resources, at)) {
        return Some(r.metrics.clone());
    }
    let scales = axis_scales(&recs);
    let distance = |r: &PerfRecord| distance(&r.resources, at, &scales);
    recs.iter().min_by(|a, b| distance(a).total_cmp(&distance(b))).map(|r| r.metrics.clone())
}

/// Euclidean distance in normalized coordinates: each axis of `a` over its
/// scale, a coordinate that `b` lacks read as 0.
fn distance(a: &ResourceVector, b: &ResourceVector, scales: &BTreeMap<ResourceKey, f64>) -> f64 {
    let mut sum = 0.0;
    for (k, v) in a.iter() {
        let d = (v - b.get(k).unwrap_or(0.0)) / scales.get(k).copied().unwrap_or(1.0).max(1e-12);
        sum += d * d;
    }
    sum.sqrt()
}

fn same_point(a: &ResourceVector, b: &ResourceVector) -> bool {
    a.len() == b.len()
        && a.iter().all(|(k, v)| match b.get(k) {
            Some(o) => (v - o).abs() / v.abs().max(o.abs()).max(1.0) < AXIS_TOL,
            None => false,
        })
}

/// Each axis's sampled range (its one value's magnitude, at least 1, when
/// it has one value): the scale of its term in the distance.
fn axis_scales(recs: &[&PerfRecord]) -> BTreeMap<ResourceKey, f64> {
    let mut values: BTreeMap<&ResourceKey, Vec<f64>> = BTreeMap::new();
    for (axis, v) in recs.iter().flat_map(|r| r.resources.iter()) {
        values.entry(axis).or_default().push(v);
    }
    values
        .into_iter()
        .map(|(axis, mut vals)| {
            vals.sort_by(f64::total_cmp);
            vals.dedup_by(|a, b| (*a - *b).abs() < AXIS_TOL);
            let (lo, hi) = (vals[0], vals[vals.len() - 1]);
            (axis.clone(), if hi > lo { hi - lo } else { lo.abs().max(1.0) })
        })
        .collect()
}
