//! Tunable modules: tasks, guards, the task DAG, and configuration
//! transitions.
//!
//! §4: "the abstract model of a tunable application is that of a family of
//! DAGs built up from individual modules. Each module is specified by the
//! task construct ... Application execution paths are specified by
//! associating guard expressions of control parameters with each task and
//! specifying inter-task control flow." Transitions carry guard
//! expressions too, determining "whether or not transitions from/to a
//! specific task configuration are possible".

use crate::env::ResourceKey;
use crate::param::Configuration;

/// A boolean expression over control parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Guard {
    True,
    /// `param == value`
    Eq(String, i64),
    /// `param <= value`
    Le(String, i64),
    /// `param >= value`
    Ge(String, i64),
    /// `param` takes one of the listed values.
    In(String, Vec<i64>),
    Not(Box<Guard>),
    And(Vec<Guard>),
    Or(Vec<Guard>),
}

impl Guard {
    /// Evaluate against a configuration. A referenced-but-missing
    /// parameter makes the comparison false (fail closed).
    pub fn eval(&self, c: &Configuration) -> bool {
        match self {
            Guard::True => true,
            Guard::Eq(p, v) => c.get(p) == Some(*v),
            Guard::Le(p, v) => c.get(p).is_some_and(|x| x <= *v),
            Guard::Ge(p, v) => c.get(p).is_some_and(|x| x >= *v),
            Guard::In(p, vs) => c.get(p).is_some_and(|x| vs.contains(&x)),
            Guard::Not(g) => !g.eval(c),
            Guard::And(gs) => gs.iter().all(|g| g.eval(c)),
            Guard::Or(gs) => gs.iter().any(|g| g.eval(c)),
        }
    }
}

/// One tunable module (the `task` construct).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    pub name: String,
    /// Control parameters affecting this module.
    pub params: Vec<String>,
    /// Environment resources the module utilizes.
    pub resources: Vec<ResourceKey>,
    /// Quality metrics this module's output is measured by.
    pub metrics: Vec<String>,
    /// Guard selecting when this task is part of the active execution path.
    pub guard: Guard,
}

impl TaskSpec {
    pub fn new(name: &str) -> Self {
        TaskSpec {
            name: name.into(),
            params: Vec::new(),
            resources: Vec::new(),
            metrics: Vec::new(),
            guard: Guard::True,
        }
    }
}

/// The task DAG: the family of execution paths.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    pub tasks: Vec<TaskSpec>,
    /// Edges as `(from, to)` task-name pairs.
    pub edges: Vec<(String, String)>,
}

impl TaskGraph {
    pub fn add_task(&mut self, task: TaskSpec) -> &mut Self {
        self.tasks.push(task);
        self
    }

    pub(crate) fn add_edge(&mut self, from: &str, to: &str) -> &mut Self {
        self.edges.push((from.into(), to.into()));
        self
    }

    pub fn task(&self, name: &str) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// The tasks active under configuration `c` (guards satisfied).
    pub(crate) fn active_tasks(&self, c: &Configuration) -> Vec<&TaskSpec> {
        self.tasks.iter().filter(|t| t.guard.eval(c)).collect()
    }

    /// Union of resources used by active tasks — what the monitoring agent
    /// must watch under configuration `c` (§6.1: monitoring "is customized
    /// to the currently active configuration, affecting which resources
    /// are monitored").
    pub(crate) fn monitored_resources(&self, c: &Configuration) -> Vec<ResourceKey> {
        let mut out: Vec<ResourceKey> = Vec::new();
        for t in self.active_tasks(c) {
            for r in &t.resources {
                if !out.contains(r) {
                    out.push(r.clone());
                }
            }
        }
        out.sort();
        out
    }

    /// Validate: edges reference declared tasks, and the graph is acyclic.
    /// An error comes with the index of an edge at fault.
    pub(crate) fn validate(&self) -> Result<(), (usize, String)> {
        for (i, (a, b)) in self.edges.iter().enumerate() {
            if let Some(t) = [a, b].into_iter().find(|t| self.task(t).is_none()) {
                return Err((i, format!("edge references unknown task {t}")));
            }
        }
        // Kahn's algorithm for cycle detection.
        let names: Vec<&str> = self.tasks.iter().map(|t| t.name.as_str()).collect();
        let idx = |n: &str| names.iter().position(|&x| x == n).unwrap();
        let mut indeg = vec![0usize; names.len()];
        for (_, b) in &self.edges {
            indeg[idx(b)] += 1;
        }
        let mut queue: Vec<usize> = (0..names.len()).filter(|&i| indeg[i] == 0).collect();
        let mut done = vec![false; names.len()];
        while let Some(i) = queue.pop() {
            done[i] = true;
            for (a, b) in &self.edges {
                if idx(a) == i {
                    let j = idx(b);
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        queue.push(j);
                    }
                }
            }
        }
        // An edge between two unsorted tasks lies on or past a cycle.
        match self.edges.iter().position(|(a, b)| !done[idx(a)] && !done[idx(b)]) {
            Some(i) => Err((i, "task graph contains a cycle".into())),
            None => Ok(()),
        }
    }
}

/// Application-visible actions to run when a transition fires (the code
/// inside the `transition` construct). Interpreted by the application's
/// steering glue.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionAction {
    /// Notify a remote host that `param` changed (e.g. tell the server the
    /// new compression method).
    NotifyHost { host: String, param: String },
    /// Set a local variable / internal knob by name.
    SetLocal { name: String },
}

/// A transition specification: a switch that changes one of `on_params`
/// triggers it, goes through only if `guard` holds for the *new*
/// configuration, and then runs `actions`. `SteeringAgent::at_boundary`
/// applies the rule.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionSpec {
    /// Parameters whose change triggers this transition (empty = any).
    pub on_params: Vec<String>,
    pub guard: Guard,
    pub actions: Vec<TransitionAction>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pairs: &[(&str, i64)]) -> Configuration {
        Configuration::new(pairs)
    }

    #[test]
    fn guard_evaluation() {
        let c = cfg(&[("l", 4), ("c", 1)]);
        assert!(Guard::True.eval(&c));
        assert!(Guard::Eq("l".into(), 4).eval(&c));
        assert!(!Guard::Eq("l".into(), 3).eval(&c));
        assert!(Guard::Le("l".into(), 4).eval(&c));
        assert!(Guard::Ge("l".into(), 4).eval(&c));
        assert!(Guard::In("c".into(), vec![1, 2]).eval(&c));
        assert!(Guard::Not(Box::new(Guard::Eq("l".into(), 3))).eval(&c));
        assert!(Guard::And(vec![Guard::Eq("l".into(), 4), Guard::Eq("c".into(), 1)]).eval(&c));
        assert!(Guard::Or(vec![Guard::Eq("l".into(), 9), Guard::Eq("c".into(), 1)]).eval(&c));
        // Missing parameter fails closed.
        assert!(!Guard::Eq("zz".into(), 0).eval(&c));
        assert!(Guard::Not(Box::new(Guard::Eq("zz".into(), 0))).eval(&c));
    }

    #[test]
    fn graph_validation_and_topo() {
        let mut g = TaskGraph::default();
        g.add_task(TaskSpec::new("fetch"));
        g.add_task(TaskSpec::new("decode"));
        g.add_task(TaskSpec::new("display"));
        g.add_edge("fetch", "decode");
        g.add_edge("decode", "display");
        g.validate().unwrap();
    }

    #[test]
    fn cycle_detected() {
        let mut g = TaskGraph::default();
        g.add_task(TaskSpec::new("a"));
        g.add_task(TaskSpec::new("b"));
        g.add_edge("a", "b");
        g.add_edge("b", "a");
        assert!(g.validate().is_err());
    }

    #[test]
    fn unknown_edge_rejected() {
        let mut g = TaskGraph::default();
        g.add_task(TaskSpec::new("a"));
        g.add_edge("a", "ghost");
        assert!(g.validate().is_err());
    }

    #[test]
    fn active_tasks_follow_guards() {
        let mut g = TaskGraph::default();
        let plain = Guard::Eq("c".into(), 0);
        g.add_task(TaskSpec { guard: plain.clone(), ..TaskSpec::new("plain") });
        g.add_task(TaskSpec { guard: Guard::Not(Box::new(plain)), ..TaskSpec::new("compressed") });
        let active = g.active_tasks(&cfg(&[("c", 2)]));
        assert_eq!(active.len(), 1);
        assert_eq!(active[0].name, "compressed");
    }

    #[test]
    fn monitored_resources_union() {
        let mut g = TaskGraph::default();
        let cpu = ResourceKey::cpu("client");
        g.add_task(TaskSpec { resources: vec![cpu.clone()], ..TaskSpec::new("a") });
        let resources = vec![cpu, ResourceKey::net("client")];
        g.add_task(TaskSpec { resources, ..TaskSpec::new("b") });
        let r = g.monitored_resources(&Configuration::default());
        assert_eq!(r.len(), 2);
    }
}
