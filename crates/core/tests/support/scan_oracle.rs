//! The linear-scan prediction that `PerfDb::predict`'s index replaced,
//! kept as the reference the index is tested against. It reads only
//! `PerfDb::records()`, so it shares no code with the index.
//!
//! Included as a module by `tests/properties.rs` and by the unit tests of
//! `src/perfdb.rs`; each parent imports the model types it names.

use std::collections::{BTreeMap, BTreeSet};

use super::{
    Configuration, PerfDb, PerfRecord, PredictMode, QosReport, ResourceKey, ResourceVector,
};

/// Tolerance when matching axis coordinates (the index's own).
const AXIS_TOL: f64 = 1e-9;

/// Predict by scanning every record: bit-for-bit the pre-index
/// implementation.
pub fn predict(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    resources: &ResourceVector,
    mode: PredictMode,
) -> Option<QosReport> {
    let recs: Vec<&PerfRecord> =
        db.records().iter().filter(|r| r.input == input && &r.config == config).collect();
    if recs.is_empty() {
        return None;
    }
    if let Some(r) = recs.iter().find(|r| same_point(&r.resources, resources)) {
        return Some(r.metrics.clone());
    }
    match mode {
        PredictMode::Nearest => {
            let scales = axis_scales(&recs);
            recs.iter()
                .min_by(|a, b| {
                    let da = a.resources.distance(resources, &scales);
                    let db = b.resources.distance(resources, &scales);
                    da.total_cmp(&db)
                })
                .map(|r| r.metrics.clone())
        }
        PredictMode::Interpolate => multilinear(&recs, resources).or_else(|| idw(&recs, resources)),
    }
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

fn axis_scales(recs: &[&PerfRecord]) -> BTreeMap<ResourceKey, f64> {
    let mut scales = BTreeMap::new();
    for axis in axes(recs) {
        let vals = axis_values(recs, &axis);
        let scale = match (vals.first(), vals.last()) {
            (Some(&lo), Some(&hi)) if hi > lo => hi - lo,
            (Some(&lo), _) => lo.abs().max(1.0),
            _ => 1.0,
        };
        scales.insert(axis, scale);
    }
    scales
}

/// Zeroed sums for the union of the metric names `recs` carry.
fn metric_sums<'a>(recs: impl Iterator<Item = &'a PerfRecord>) -> BTreeMap<String, f64> {
    recs.flat_map(|r| r.metrics.iter()).map(|(m, _)| (m.to_string(), 0.0)).collect()
}

fn multilinear(recs: &[&PerfRecord], resources: &ResourceVector) -> Option<QosReport> {
    let axes = axes(recs);
    if axes.is_empty() || axes.len() > 8 {
        return None;
    }
    let mut brackets: Vec<(f64, f64, f64)> = Vec::with_capacity(axes.len());
    for axis in &axes {
        let vals = axis_values(recs, axis);
        if vals.is_empty() {
            return None;
        }
        let q = resources.get(axis)?.clamp(vals[0], vals[vals.len() - 1]);
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
    let mut sums = metric_sums(recs.iter().copied());
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
        let rec = recs.iter().find(|r| same_point(&r.resources, &point))?;
        for (m, v) in rec.metrics.iter() {
            if let Some(s) = sums.get_mut(m) {
                *s += weight * v;
            }
        }
        total_w += weight;
    }
    if total_w <= 0.0 {
        return None;
    }
    let mut out = QosReport::default();
    for (m, s) in sums {
        out.set(&m, s / total_w);
    }
    Some(out)
}

fn idw(recs: &[&PerfRecord], resources: &ResourceVector) -> Option<QosReport> {
    let scales = axis_scales(recs);
    let mut weighted: Vec<(f64, &PerfRecord)> =
        recs.iter().map(|r| (r.resources.distance(resources, &scales), *r)).collect();
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    weighted.truncate(4);
    let mut sums = metric_sums(weighted.iter().map(|&(_, r)| r));
    let mut total_w = 0.0;
    for (d, r) in &weighted {
        let w = 1.0 / (d + 1e-9);
        for (m, v) in r.metrics.iter() {
            if let Some(s) = sums.get_mut(m) {
                *s += w * v;
            }
        }
        total_w += w;
    }
    let mut out = QosReport::default();
    for (m, s) in sums {
        out.set(&m, s / total_w);
    }
    Some(out)
}
