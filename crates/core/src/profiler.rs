//! The profiling driver: populates the performance database by running
//! every configuration under controlled resource conditions.
//!
//! §5: "a driver program executes each configuration repeatedly in a
//! virtual execution environment for different levels of allocated
//! resources ... A separate tool analyzes this performance data, performs
//! sensitivity analysis to determine configurations and regions of the
//! resource space that require additional samples."
//!
//! The sweep is the fixed grid alone. The paper's prototype had no such
//! tool (§7.1), and a midpoint refiner that sampled wherever adjacent
//! records differed by more than a threshold was measured here on
//! held-out points and deleted: on the 256 px and 512 px stores that the
//! benchmark and figures profile, it never chose configurations with
//! lower regret than a plain grid of equal or larger record budget
//! (CHANGES.md has the table).
//!
//! The driver is application-agnostic: a [`ProfileRunner`] closure runs
//! one `(configuration, resource-point, input)` combination — typically by
//! building a fresh `simnet` simulation with the application under a
//! `sandbox` configured for that resource point — and returns the measured
//! quality metrics. Grid points are independent, so the sweep can run on
//! multiple OS threads ([`Profiler::run_parallel`]).

use obs::det::par_map;

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

    /// Add an axis sampled at `values`, sorted, each value once: a
    /// repeat would put two records in one cell of the database's lattice.
    pub fn with_axis(mut self, key: ResourceKey, values: &[f64]) -> Self {
        assert!(!values.is_empty(), "axis {key} has no sample values");
        let mut vs = values.to_vec();
        vs.sort_by(|a, b| a.total_cmp(b));
        vs.dedup();
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

/// The profiling sweep definition.
pub struct Profiler {
    pub configs: Vec<Configuration>,
    pub grid: ResourceGrid,
    pub inputs: Vec<String>,
}

impl Profiler {
    pub fn new(configs: Vec<Configuration>, grid: ResourceGrid, inputs: Vec<String>) -> Self {
        assert!(!inputs.is_empty(), "need at least one input");
        Profiler { configs, grid, inputs }
    }

    /// Number of runs a sweep makes.
    pub fn run_count(&self) -> usize {
        self.configs.len() * self.grid.point_count() * self.inputs.len()
    }

    /// Run the sweep on up to `threads` OS threads (`1` is a sequential
    /// sweep; never more than the host's cores). Each grid point builds
    /// its own independent simulation, so this is embarrassingly
    /// parallel; results are merged in deterministic job order afterwards
    /// — the order of a nested input → configuration → point loop,
    /// whatever the thread count.
    ///
    /// The runs go through [`obs::det::par_map`], the workspace's one
    /// parallel map, as tickets that decode into `(input, config, point)`
    /// on the fly — the grid's points are computed once and shared by
    /// reference, never cloned per job. Tickets walk the sweep
    /// point-major: runs of one configuration tend to share state the
    /// runner caches on first use (visapp's prepared payloads), so
    /// workers side by side take different configurations rather than
    /// queue for the same cold entry.
    pub fn run_parallel(&self, runner: &(dyn ProfileRunner + Sync), threads: usize) -> PerfDb {
        let points = self.grid.points();
        let npoints = points.len();
        let nconfigs = self.configs.len();
        let npairs = self.inputs.len() * nconfigs;
        // Job id layout (insertion order of the sequential sweep):
        // id = (input_i * nconfigs + config_i) * npoints + point_i.
        let decode = |id: usize| {
            let (pair, point_i) = (id / npoints, id % npoints);
            let (input_i, config_i) = (pair / nconfigs, pair % nconfigs);
            (&self.inputs[input_i], &self.configs[config_i], &points[point_i])
        };
        let ids: Vec<usize> = (0..npairs * npoints)
            .map(|ticket| (ticket % npairs) * npoints + ticket / npairs)
            .collect();
        let reports = par_map(&ids, threads, |&id| {
            let (input, config, point) = decode(id);
            runner.run(config, point, input)
        });
        let mut merged: Vec<(usize, QosReport)> = ids.into_iter().zip(reports).collect();
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
        db
    }
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
    fn repeated_axis_values_are_sampled_once() {
        let g = ResourceGrid::new().with_axis(cpu(), &[1.0, 0.5, 1.0]);
        assert_eq!(g.axes[0].1, [0.5, 1.0]);
        let db = Profiler::new(configs(), g, vec!["img".into()]).run_parallel(&runner, 1);
        assert_eq!(db.len(), 4);
        assert_eq!(db.configs("img").len(), 2, "the index builds: one record per cell");
    }

    #[test]
    fn sequential_sweep_fills_db() {
        let g = ResourceGrid::new().with_axis(cpu(), &[0.25, 0.5, 1.0]);
        let p = Profiler::new(configs(), g, vec!["img".into()]);
        assert_eq!(p.run_count(), 6);
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
    fn multiple_inputs_profiled_independently() {
        let g = ResourceGrid::new().with_axis(cpu(), &[0.5, 1.0]);
        let db = Profiler::new(configs(), g, vec!["small".into(), "large".into()])
            .run_parallel(&runner, 1);
        assert_eq!(db.inputs(), vec!["large".to_string(), "small".to_string()]);
        assert_eq!(db.len(), 8);
    }
}
