//! The profiling driver: populates the performance database by running
//! every configuration under controlled resource conditions.
//!
//! §5: "a driver program executes each configuration repeatedly in a
//! virtual execution environment for different levels of allocated
//! resources ... A separate tool analyzes this performance data, performs
//! sensitivity analysis to determine configurations and regions of the
//! resource space that require additional samples."
//!
//! The driver is application-agnostic: a [`ProfileRunner`] closure runs
//! one `(configuration, resource-point, input)` combination — typically by
//! building a fresh `simnet` simulation with the application under a
//! `sandbox` configured for that resource point — and returns the measured
//! quality metrics. Grid points are independent, so the sweep can run on
//! multiple OS threads ([`Profiler::run_parallel`]).

use std::collections::BTreeSet;

use crate::env::{ResourceKey, ResourceVector};
use crate::param::Configuration;
use crate::perfdb::{PerfDb, PerfRecord};
use crate::qos::QosReport;

/// Runs one profiled execution and reports the achieved quality metrics.
pub trait ProfileRunner: Sync {
    fn run(&self, config: &Configuration, resources: &ResourceVector, input: &str) -> QosReport;
}

impl<F> ProfileRunner for F
where
    F: Fn(&Configuration, &ResourceVector, &str) -> QosReport + Sync,
{
    fn run(&self, config: &Configuration, resources: &ResourceVector, input: &str) -> QosReport {
        self(config, resources, input)
    }
}

/// A rectangular sampling grid over resource axes.
#[derive(Debug, Clone, Default)]
pub struct ResourceGrid {
    pub axes: Vec<(ResourceKey, Vec<f64>)>,
}

impl ResourceGrid {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_axis(mut self, key: ResourceKey, values: &[f64]) -> Self {
        assert!(!values.is_empty(), "axis {key} has no sample values");
        let mut vs = values.to_vec();
        vs.sort_by(|a, b| a.total_cmp(b));
        self.axes.push((key, vs));
        self
    }

    /// All grid points (cartesian product), deterministic order.
    pub fn points(&self) -> Vec<ResourceVector> {
        let mut out = vec![ResourceVector::default()];
        for (key, values) in &self.axes {
            let mut next = Vec::with_capacity(out.len() * values.len());
            for base in &out {
                for &v in values {
                    let mut p = base.clone();
                    p.set(key.clone(), v);
                    next.push(p);
                }
            }
            out = next;
        }
        out
    }

    pub(crate) fn point_count(&self) -> usize {
        self.axes.iter().map(|(_, v)| v.len()).product()
    }
}

/// Options for adaptive refinement of the sampling grid.
#[derive(Debug, Clone, Copy)]
pub struct SensitivityOpts {
    /// Relative metric change between adjacent samples that triggers a
    /// midpoint sample.
    pub threshold: f64,
    /// Maximum refinement rounds (each round may halve intervals once).
    pub max_rounds: usize,
}

impl Default for SensitivityOpts {
    fn default() -> Self {
        SensitivityOpts { threshold: 0.25, max_rounds: 2 }
    }
}

/// The profiling sweep definition.
pub struct Profiler {
    pub configs: Vec<Configuration>,
    pub grid: ResourceGrid,
    pub inputs: Vec<String>,
    pub sensitivity: Option<SensitivityOpts>,
}

impl Profiler {
    pub fn new(configs: Vec<Configuration>, grid: ResourceGrid, inputs: Vec<String>) -> Self {
        assert!(!inputs.is_empty(), "need at least one input");
        Profiler { configs, grid, inputs, sensitivity: None }
    }

    pub fn with_sensitivity(mut self, opts: SensitivityOpts) -> Self {
        self.sensitivity = Some(opts);
        self
    }

    /// Number of base (pre-refinement) runs.
    pub fn base_run_count(&self) -> usize {
        self.configs.len() * self.grid.point_count() * self.inputs.len()
    }

    /// Run the sweep across `threads` OS threads (`1` is a sequential
    /// sweep). Each grid point builds its own independent simulation, so
    /// this is embarrassingly parallel; results are merged in deterministic
    /// job order afterwards — the order of a nested input → configuration
    /// → point loop, whatever the thread count.
    ///
    /// Workers pull tickets from a shared counter and decode them into
    /// `(input, config, point)` on the fly — the grid's points are
    /// computed once and shared by reference, never cloned per job — and
    /// buffer results locally, so the only cross-thread synchronization is
    /// the counter; buffers are merged after join. Tickets walk the sweep
    /// point-major: runs of one configuration tend to share state the
    /// runner caches on first use (visapp's prepared payloads), so workers
    /// side by side take different configurations rather than queue for
    /// the same cold entry.
    pub fn run_parallel(&self, runner: &(dyn ProfileRunner + Sync), threads: usize) -> PerfDb {
        let threads = threads.max(1);
        let points = self.grid.points();
        let npoints = points.len();
        let nconfigs = self.configs.len();
        let npairs = self.inputs.len() * nconfigs;
        let total = npairs * npoints;
        // Job id layout (insertion order of the sequential sweep):
        // id = (input_i * nconfigs + config_i) * npoints + point_i.
        let decode = |id: usize| {
            let (pair, point_i) = (id / npoints, id % npoints);
            let (input_i, config_i) = (pair / nconfigs, pair % nconfigs);
            (&self.inputs[input_i], &self.configs[config_i], &points[point_i])
        };
        let id_of = |ticket: usize| (ticket % npairs) * npoints + ticket / npairs;
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut results: Vec<Vec<(usize, QosReport)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut local: Vec<(usize, QosReport)> = Vec::new();
                        loop {
                            let ticket = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if ticket >= total {
                                break;
                            }
                            let id = id_of(ticket);
                            let (input, config, point) = decode(id);
                            local.push((id, runner.run(config, point, input)));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("profiling thread panicked")).collect()
        });
        let mut merged: Vec<(usize, QosReport)> =
            results.iter_mut().flat_map(std::mem::take).collect();
        merged.sort_by_key(|(id, _)| *id);
        let mut db = PerfDb::new();
        for (id, metrics) in merged {
            let (input, config, point) = decode(id);
            db.add(PerfRecord {
                config: config.clone(),
                resources: point.clone(),
                input: input.clone(),
                metrics,
            });
        }
        if let Some(opts) = self.sensitivity {
            self.refine(&mut db, runner, opts);
        }
        db
    }

    /// Sensitivity analysis: where adjacent samples along an axis differ
    /// by more than the threshold in any metric, sample the midpoint.
    fn refine(&self, db: &mut PerfDb, runner: &dyn ProfileRunner, opts: SensitivityOpts) {
        for _round in 0..opts.max_rounds {
            let mut new_points: Vec<(Configuration, ResourceVector, String)> = Vec::new();
            let mut planned: BTreeSet<String> = BTreeSet::new();
            for input in &self.inputs {
                for config in &self.configs {
                    for (axis, _) in &self.grid.axes {
                        let values = db.axis_values(config, input, axis);
                        for w in values.windows(2) {
                            let (lo, hi) = (w[0], w[1]);
                            if hi - lo < 1e-9 {
                                continue;
                            }
                            // Compare predictions at the endpoints with all
                            // other axes held at their existing sampled
                            // combinations: use the records directly.
                            let pairs = adjacent_pairs(db, config, input, axis, lo, hi);
                            let needs =
                                pairs.iter().any(|(a, b)| a.max_rel_diff(b) > opts.threshold);
                            if needs {
                                let mid = (lo + hi) / 2.0;
                                for point in points_with_axis(db, config, input, axis, lo, mid) {
                                    let key = format!("{}|{}|{}", config.key(), input, point.key());
                                    if planned.insert(key) {
                                        new_points.push((config.clone(), point, input.clone()));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if new_points.is_empty() {
                break;
            }
            for (config, point, input) in new_points {
                let metrics = runner.run(&config, &point, &input);
                db.add(PerfRecord { config, resources: point, input, metrics });
            }
        }
    }
}

/// Metric pairs of records adjacent along `axis` at values `lo`/`hi`,
/// matched on all other coordinates.
fn adjacent_pairs(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    axis: &ResourceKey,
    lo: f64,
    hi: f64,
) -> Vec<(QosReport, QosReport)> {
    let mut out = Vec::new();
    let recs = db.records_for(config, input);
    for a in &recs {
        let Some(va) = a.resources.get(axis) else { continue };
        if (va - lo).abs() > 1e-9 {
            continue;
        }
        for b in &recs {
            let Some(vb) = b.resources.get(axis) else { continue };
            if (vb - hi).abs() > 1e-9 {
                continue;
            }
            // Other coordinates must match.
            let same_others = a.resources.iter().all(|(k, v)| {
                k == axis || b.resources.get(k).is_some_and(|o| (o - v).abs() < 1e-9)
            });
            if same_others {
                out.push((a.metrics.clone(), b.metrics.clone()));
            }
        }
    }
    out
}

/// New sample points: existing records at `axis == lo` with the axis
/// coordinate replaced by `mid`.
fn points_with_axis(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    axis: &ResourceKey,
    lo: f64,
    mid: f64,
) -> Vec<ResourceVector> {
    let mut out = Vec::new();
    for r in db.records_for(config, input) {
        if let Some(v) = r.resources.get(axis) {
            if (v - lo).abs() < 1e-9 {
                let mut p = r.resources.clone();
                p.set(axis.clone(), mid);
                out.push(p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    /// Synthetic "application": transmit_time = work / cpu_share, where
    /// work depends on the config's `l` parameter.
    fn runner(config: &Configuration, res: &ResourceVector, _input: &str) -> QosReport {
        let l = config.expect("l") as f64;
        let share = res.get(&cpu()).unwrap();
        QosReport::new(&[("transmit_time", l * 4.0 / share)])
    }

    fn configs() -> Vec<Configuration> {
        (3..=4).map(|l| Configuration::new(&[("l", l)])).collect()
    }

    #[test]
    fn grid_points_are_cartesian() {
        let g = ResourceGrid::new()
            .with_axis(cpu(), &[0.2, 0.5])
            .with_axis(ResourceKey::net("client"), &[1e5, 5e5, 1e6]);
        assert_eq!(g.point_count(), 6);
        assert_eq!(g.points().len(), 6);
    }

    #[test]
    fn sequential_sweep_fills_db() {
        let g = ResourceGrid::new().with_axis(cpu(), &[0.25, 0.5, 1.0]);
        let p = Profiler::new(configs(), g, vec!["img".into()]);
        assert_eq!(p.base_run_count(), 6);
        let db = p.run_parallel(&runner, 1);
        assert_eq!(db.len(), 6);
        let q = ResourceVector::new(&[(cpu(), 0.5)]);
        let pred = db
            .predict(
                &Configuration::new(&[("l", 3)]),
                "img",
                &q,
                crate::perfdb::PredictMode::Interpolate,
            )
            .unwrap();
        assert!((pred.get("transmit_time").unwrap() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = ResourceGrid::new().with_axis(cpu(), &[0.2, 0.4, 0.6, 0.8, 1.0]);
        let p = Profiler::new(configs(), g, vec!["img".into()]);
        let seq = p.run_parallel(&runner, 1);
        let par = p.run_parallel(&runner, 4);
        assert_eq!(seq.len(), par.len());
        // Same records in the same deterministic order.
        for (a, b) in seq.records().iter().zip(par.records()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn sensitivity_adds_midpoints_in_steep_regions() {
        // 1/share is steep near 0.1: the 0.1-0.55 interval changes by far
        // more than 25%, so refinement must add midpoints there.
        let g = ResourceGrid::new().with_axis(cpu(), &[0.1, 0.55, 1.0]);
        let base = Profiler::new(configs(), g.clone(), vec!["img".into()]).run_parallel(&runner, 1);
        let refined = Profiler::new(configs(), g, vec!["img".into()])
            .with_sensitivity(SensitivityOpts { threshold: 0.25, max_rounds: 2 })
            .run_parallel(&runner, 1);
        assert!(refined.len() > base.len(), "{} vs {}", refined.len(), base.len());
        let c = Configuration::new(&[("l", 3)]);
        let vals = refined.axis_values(&c, "img", &cpu());
        assert!(vals.len() > 3);
        assert!(vals.iter().any(|v| (*v - 0.325).abs() < 1e-9), "midpoint of steep interval");
    }

    #[test]
    fn sensitivity_skips_flat_regions() {
        // A constant metric never triggers refinement.
        let flat = |_c: &Configuration, _r: &ResourceVector, _i: &str| {
            QosReport::new(&[("transmit_time", 5.0)])
        };
        let g = ResourceGrid::new().with_axis(cpu(), &[0.1, 0.5, 1.0]);
        let db = Profiler::new(configs(), g, vec!["img".into()])
            .with_sensitivity(SensitivityOpts::default())
            .run_parallel(&flat, 1);
        assert_eq!(db.len(), 6, "no refinement for flat metrics");
    }

    #[test]
    fn multiple_inputs_profiled_independently() {
        let g = ResourceGrid::new().with_axis(cpu(), &[0.5, 1.0]);
        let db = Profiler::new(configs(), g, vec!["small".into(), "large".into()])
            .run_parallel(&runner, 1);
        assert_eq!(db.inputs(), vec!["large".to_string(), "small".to_string()]);
        assert_eq!(db.len(), 8);
    }
}
