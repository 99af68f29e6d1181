//! The linear-scan prediction that `PerfDb::predict`'s index replaced,
//! kept as the reference the index is tested against. It reads only
//! `PerfDb::records()`, so it shares no code with the index.
//!
//! Included as a module by `tests/properties.rs`, by the unit tests of
//! `src/perfdb.rs` and by `crates/bench/tests/overhead_floors.rs`; each
//! parent imports the model types it names.

use std::collections::{BTreeMap, BTreeSet};

use super::{Configuration, PerfDb, PerfRecord, QosReport, ResourceKey, ResourceVector};

/// Tolerance when matching axis coordinates (the index's own).
const AXIS_TOL: f64 = 1e-9;

/// Predict by scanning every record: the pre-index implementation on a
/// complete lattice, where a slice axis the query lacks reads as 0 and so
/// clamps to its lowest sample.
pub fn predict(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    resources: &ResourceVector,
) -> Option<QosReport> {
    let recs: Vec<&PerfRecord> =
        db.records().iter().filter(|r| r.input == input && &r.config == config).collect();
    if recs.is_empty() {
        return None;
    }
    if let Some(r) = recs.iter().find(|r| same_point(&r.resources, resources)) {
        return Some(r.metrics.clone());
    }
    Some(multilinear(&recs, resources))
}

fn same_point(a: &ResourceVector, b: &ResourceVector) -> bool {
    a.len() == b.len()
        && a.iter().all(|(k, v)| match b.get(k) {
            Some(o) => (v - o).abs() / v.abs().max(o.abs()).max(1.0) < AXIS_TOL,
            None => false,
        })
}

fn axes(recs: &[&PerfRecord]) -> Vec<ResourceKey> {
    let set: BTreeSet<&ResourceKey> =
        recs.iter().flat_map(|r| r.resources.iter()).map(|(k, _)| k).collect();
    set.into_iter().cloned().collect()
}

fn axis_values(recs: &[&PerfRecord], axis: &ResourceKey) -> Vec<f64> {
    let mut vals: Vec<f64> = recs.iter().filter_map(|r| r.resources.get(axis)).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    vals.dedup_by(|a, b| (*a - *b).abs() < AXIS_TOL);
    vals
}

fn multilinear(recs: &[&PerfRecord], resources: &ResourceVector) -> QosReport {
    let axes = axes(recs);
    let mut brackets: Vec<(f64, f64, f64)> = Vec::with_capacity(axes.len());
    for axis in &axes {
        let vals = axis_values(recs, axis);
        let q = resources.get(axis).unwrap_or(0.0).clamp(vals[0], vals[vals.len() - 1]);
        let hi_idx = vals.partition_point(|&v| v < q - AXIS_TOL);
        if hi_idx == 0 {
            brackets.push((vals[0], vals[0], 0.0));
        } else if (vals[hi_idx.min(vals.len() - 1)] - q).abs() < AXIS_TOL {
            let v = vals[hi_idx.min(vals.len() - 1)];
            brackets.push((v, v, 0.0));
        } else {
            let lo = vals[hi_idx - 1];
            let hi = vals[hi_idx];
            brackets.push((lo, hi, (q - lo) / (hi - lo)));
        }
    }
    let mut sums: BTreeMap<String, f64> =
        recs.iter().flat_map(|r| r.metrics.iter()).map(|(m, _)| (m.to_string(), 0.0)).collect();
    let mut total_w = 0.0;
    for corner in 0..(1usize << axes.len()) {
        let mut weight = 1.0;
        let mut point = ResourceVector::default();
        for (i, axis) in axes.iter().enumerate() {
            let (lo, hi, t) = brackets[i];
            let use_hi = corner & (1 << i) != 0;
            weight *= if use_hi { t } else { 1.0 - t };
            point.set(axis.clone(), if use_hi { hi } else { lo });
        }
        if weight <= 0.0 {
            continue;
        }
        let rec = recs
            .iter()
            .find(|r| same_point(&r.resources, &point))
            .expect("a complete lattice has every corner");
        for (m, v) in rec.metrics.iter() {
            if let Some(s) = sums.get_mut(m) {
                *s += weight * v;
            }
        }
        total_w += weight;
    }
    let mut out = QosReport::default();
    for (m, s) in sums {
        out.set(&m, s / total_w);
    }
    out
}
