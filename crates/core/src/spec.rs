//! The complete tunability specification of an application — the
//! machine-readable form of the paper's language annotations (Figure 2),
//! plus the artifacts the preprocessor derives from it.

use obs::json::Json;

use crate::env::{ExecutionEnv, ResourceKey};
use crate::param::{Configuration, ControlSpace};
use crate::qos::QosMetricDef;
use crate::task::{TaskGraph, TransitionSpec};

/// Everything the annotations declare: control parameters, execution
/// environment, quality metrics, tunable modules, and transitions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TunableSpec {
    pub control: ControlSpace,
    pub env: ExecutionEnv,
    pub metrics: Vec<QosMetricDef>,
    pub tasks: TaskGraph,
    pub transitions: Vec<TransitionSpec>,
}

impl TunableSpec {
    /// Cross-validate the specification:
    /// - the task graph is a DAG;
    /// - tasks reference declared parameters, metrics, and hosts;
    /// - transitions reference declared parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.tasks.validate()?;
        for t in &self.tasks.tasks {
            for p in &t.params {
                if self.control.param(p).is_none() {
                    return Err(format!("task {} references unknown parameter {p}", t.name));
                }
            }
            for m in &t.metrics {
                if !self.metrics.iter().any(|d| &d.name == m) {
                    return Err(format!("task {} references unknown metric {m}", t.name));
                }
            }
            for r in &t.resources {
                self.env.validate_key(r)?;
            }
        }
        for tr in &self.transitions {
            for p in &tr.on_params {
                if self.control.param(p).is_none() {
                    return Err(format!("transition references unknown parameter {p}"));
                }
            }
        }
        Ok(())
    }

    pub fn metric(&self, name: &str) -> Option<&QosMetricDef> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// All configurations of the control space.
    pub fn configurations(&self) -> Vec<Configuration> {
        self.control.enumerate()
    }

    /// The preprocessor output used by the modeling phase: which resource
    /// axes must be sampled (union over all tasks) and which
    /// configurations exist. This is the paper's "performance database
    /// template".
    pub fn perf_db_template(&self) -> PerfDbTemplate {
        let mut axes: Vec<ResourceKey> = Vec::new();
        for t in &self.tasks.tasks {
            for r in &t.resources {
                if !axes.contains(r) {
                    axes.push(r.clone());
                }
            }
        }
        axes.sort();
        PerfDbTemplate {
            axes,
            configurations: self.configurations(),
            metrics: self.metrics.iter().map(|m| m.name.clone()).collect(),
        }
    }

    /// Transitions triggered by switching `old -> new`.
    pub fn triggered_transitions(
        &self,
        old: &Configuration,
        new: &Configuration,
    ) -> Vec<&TransitionSpec> {
        self.transitions.iter().filter(|t| t.triggered_by(old, new)).collect()
    }
}

/// Template for the performance database: resource axes to sample,
/// configurations to profile, metrics to record.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfDbTemplate {
    pub axes: Vec<ResourceKey>,
    pub configurations: Vec<Configuration>,
    pub metrics: Vec<String>,
}

impl PerfDbTemplate {
    /// The `db_template.json` artifact: axes in their `component.kind`
    /// form ([`ResourceKey::parse`] reads them back), configurations as
    /// [`Configuration::key`] handles, metric names.
    pub fn to_json(&self) -> String {
        let doc = Json::obj([
            ("axes", Json::arr(self.axes.iter().map(ResourceKey::to_string))),
            ("configurations", Json::arr(self.configurations.iter().map(Configuration::key))),
            ("metrics", Json::arr(self.metrics.iter().map(String::as_str))),
        ]);
        format!("{doc:#}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ControlParam;
    use crate::task::{TaskSpec, TransitionAction};

    fn viz_spec() -> TunableSpec {
        let mut tasks = TaskGraph::default();
        tasks.add_task(
            TaskSpec::new("module1")
                .with_params(&["l", "dR", "c"])
                .with_resources(&[ResourceKey::cpu("client"), ResourceKey::net("client")])
                .with_metrics(&["transmit_time", "response_time", "resolution"]),
        );
        TunableSpec {
            control: ControlSpace::new(vec![
                ControlParam::set("dR", &[80, 160, 320]),
                ControlParam::enumeration("c", &[("lzw", 1), ("bzip", 2)]),
                ControlParam::range("l", 3, 4, 1),
            ]),
            env: ExecutionEnv::default().with_host("client").with_host("server"),
            metrics: vec![
                QosMetricDef::lower("transmit_time", "s"),
                QosMetricDef::lower("response_time", "s"),
                QosMetricDef::higher("resolution", "level"),
            ],
            tasks,
            transitions: vec![TransitionSpec::on(
                &["c"],
                vec![TransitionAction::NotifyHost { host: "server".into(), param: "c".into() }],
            )],
        }
    }

    #[test]
    fn valid_spec_passes() {
        viz_spec().validate().unwrap();
    }

    #[test]
    fn unknown_param_in_task_fails() {
        let mut s = viz_spec();
        s.tasks.tasks[0].params.push("ghost".into());
        assert!(s.validate().is_err());
    }

    #[test]
    fn unknown_metric_fails() {
        let mut s = viz_spec();
        s.tasks.tasks[0].metrics.push("ghost".into());
        assert!(s.validate().is_err());
    }

    #[test]
    fn unknown_host_fails() {
        let mut s = viz_spec();
        s.tasks.tasks[0].resources.push(ResourceKey::cpu("ghost"));
        assert!(s.validate().is_err());
    }

    #[test]
    fn unknown_transition_param_fails() {
        let mut s = viz_spec();
        s.transitions.push(TransitionSpec::on(&["ghost"], vec![]));
        assert!(s.validate().is_err());
    }

    #[test]
    fn template_derivation() {
        let t = viz_spec().perf_db_template();
        assert_eq!(t.axes.len(), 2);
        assert_eq!(t.configurations.len(), 12);
        assert_eq!(t.metrics.len(), 3);
    }

    #[test]
    fn triggered_transitions_filter() {
        let s = viz_spec();
        let old = Configuration::new(&[("c", 1), ("dR", 80), ("l", 4)]);
        let new_c = Configuration::new(&[("c", 2), ("dR", 80), ("l", 4)]);
        let new_dr = Configuration::new(&[("c", 1), ("dR", 160), ("l", 4)]);
        assert_eq!(s.triggered_transitions(&old, &new_c).len(), 1);
        assert_eq!(s.triggered_transitions(&old, &new_dr).len(), 0);
    }
}
