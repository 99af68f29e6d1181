//! Quality-of-service metrics, user preference constraints, and objectives.
//!
//! §4 (the `QoS_metric` construct) and §6: "each user preference constraint
//! is expressed as value ranges on a subset of output quality metrics and
//! is accompanied with an objective function to be optimized ... multiple
//! user preference constraints can be specified. The system examines them
//! in decreasing order of preference."

use std::collections::BTreeMap;
use std::fmt;

/// Whether smaller or larger metric values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    LowerIsBetter,
    HigherIsBetter,
}

impl Sense {
    /// True when `a` is strictly better than `b` under this sense.
    pub fn better(&self, a: f64, b: f64) -> bool {
        match self {
            Sense::LowerIsBetter => a < b,
            Sense::HigherIsBetter => a > b,
        }
    }
}

/// Declaration of one application quality metric.
#[derive(Debug, Clone, PartialEq)]
pub struct QosMetricDef {
    pub name: String,
    pub sense: Sense,
    pub unit: String,
}

impl QosMetricDef {
    pub fn lower(name: &str, unit: &str) -> Self {
        QosMetricDef { name: name.into(), sense: Sense::LowerIsBetter, unit: unit.into() }
    }

    pub fn higher(name: &str, unit: &str) -> Self {
        QosMetricDef { name: name.into(), sense: Sense::HigherIsBetter, unit: unit.into() }
    }
}

/// Measured metric values from one run or one prediction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QosReport {
    values: BTreeMap<String, f64>,
}

impl QosReport {
    pub fn new(pairs: &[(&str, f64)]) -> Self {
        let mut r = QosReport::default();
        for (k, v) in pairs {
            r.set(k, *v);
        }
        r
    }

    pub fn set(&mut self, name: &str, v: f64) {
        assert!(v.is_finite(), "non-finite metric {name} = {v}");
        self.values.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Componentwise maximum relative difference against `other`, over the
    /// union of metrics (missing metric = infinite difference). Used for
    /// merging similar configurations in the performance database.
    pub fn max_rel_diff(&self, other: &QosReport) -> f64 {
        let mut worst = 0.0f64;
        for (k, _) in self.values.iter().chain(other.values.iter()) {
            let a = self.get(k);
            let b = other.get(k);
            match (a, b) {
                (Some(a), Some(b)) => {
                    let denom = a.abs().max(b.abs()).max(1e-12);
                    worst = worst.max((a - b).abs() / denom);
                }
                _ => return f64::INFINITY,
            }
        }
        worst
    }
}

impl fmt::Display for QosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|(k, v)| format!("{k}={v:.3}")).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// An allowed value range on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub metric: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl Constraint {
    pub fn at_most(metric: &str, max: f64) -> Self {
        Constraint { metric: metric.into(), min: None, max: Some(max) }
    }

    pub fn at_least(metric: &str, min: f64) -> Self {
        Constraint { metric: metric.into(), min: Some(min), max: None }
    }

    pub fn between(metric: &str, min: f64, max: f64) -> Self {
        Constraint { metric: metric.into(), min: Some(min), max: Some(max) }
    }

    /// Does `report` satisfy this constraint? A missing metric fails.
    pub fn satisfied_by(&self, report: &QosReport) -> bool {
        match report.get(&self.metric) {
            None => false,
            Some(v) => self.min.is_none_or(|m| v >= m) && self.max.is_none_or(|m| v <= m),
        }
    }

    /// How badly `report` violates this constraint, as a relative
    /// overshoot of the breached bound; `0.0` when satisfied. A missing
    /// metric counts as a large fixed penalty so configurations that do
    /// not even report the metric rank last.
    pub fn violation(&self, report: &QosReport) -> f64 {
        const MISSING_METRIC_PENALTY: f64 = 1e9;
        let Some(v) = report.get(&self.metric) else {
            return MISSING_METRIC_PENALTY;
        };
        let mut s = 0.0;
        if let Some(min) = self.min {
            if v < min {
                s += (min - v) / min.abs().max(1e-12);
            }
        }
        if let Some(max) = self.max {
            if v > max {
                s += (v - max) / max.abs().max(1e-12);
            }
        }
        s
    }
}

/// The optimization objective: maximize or minimize a single metric
/// (the paper's "relatively restricted form" of objective function).
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    pub metric: String,
    pub sense: Sense,
}

impl Objective {
    pub fn minimize(metric: &str) -> Self {
        Objective { metric: metric.into(), sense: Sense::LowerIsBetter }
    }

    pub fn maximize(metric: &str) -> Self {
        Objective { metric: metric.into(), sense: Sense::HigherIsBetter }
    }

    /// True when `a` is strictly better than `b`. Reports missing the
    /// objective metric are never better.
    pub fn better(&self, a: &QosReport, b: &QosReport) -> bool {
        match (a.get(&self.metric), b.get(&self.metric)) {
            (Some(x), Some(y)) => self.sense.better(x, y),
            (Some(_), None) => true,
            _ => false,
        }
    }
}

/// One user preference: constraints plus an objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Preference {
    pub constraints: Vec<Constraint>,
    pub objective: Objective,
}

impl Preference {
    pub fn new(constraints: Vec<Constraint>, objective: Objective) -> Self {
        Preference { constraints, objective }
    }

    pub fn satisfied_by(&self, report: &QosReport) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(report))
    }

    /// Total relative constraint violation of `report`; `0.0` iff every
    /// constraint is satisfied. The scheduler's best-effort fallback
    /// minimizes this when no configuration satisfies the preference.
    pub fn violation_score(&self, report: &QosReport) -> f64 {
        self.constraints.iter().map(|c| c.violation(report)).sum()
    }
}

/// Preferences in decreasing order of desirability; the scheduler tries
/// each in turn until one is satisfiable (§6).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PreferenceList {
    pub prefs: Vec<Preference>,
}

impl PreferenceList {
    pub fn single(pref: Preference) -> Self {
        PreferenceList { prefs: vec![pref] }
    }

    pub fn then(mut self, pref: Preference) -> Self {
        self.prefs.push(pref);
        self
    }

    /// Parse the control plane's textual preference grammar:
    ///
    /// ```text
    /// list       = pref (" then " pref)*
    /// pref       = item ("," item)*          -- exactly one objective
    /// item       = constraint | objective
    /// constraint = metric ">=" num | metric "<=" num
    /// objective  = ("minimize" | "maximize") ":" metric
    /// ```
    ///
    /// e.g. `resolution>=3,minimize:response_time then minimize:response_time`.
    /// This is how a live `Command::Set` on the `scheduler.prefs` knob
    /// expresses a mid-run user-preference flip.
    pub fn parse_directive(s: &str) -> Result<PreferenceList, String> {
        let mut prefs = Vec::new();
        for seg in s.split(" then ") {
            let seg = seg.trim();
            if seg.is_empty() {
                return Err("empty preference segment".into());
            }
            let mut constraints = Vec::new();
            let mut objective: Option<Objective> = None;
            for item in seg.split(',') {
                let item = item.trim();
                if let Some(metric) = item.strip_prefix("minimize:") {
                    let metric = metric.trim();
                    if metric.is_empty() {
                        return Err(format!("objective `{item}` names no metric"));
                    }
                    if objective.replace(Objective::minimize(metric)).is_some() {
                        return Err(format!("multiple objectives in `{seg}`"));
                    }
                } else if let Some(metric) = item.strip_prefix("maximize:") {
                    let metric = metric.trim();
                    if metric.is_empty() {
                        return Err(format!("objective `{item}` names no metric"));
                    }
                    if objective.replace(Objective::maximize(metric)).is_some() {
                        return Err(format!("multiple objectives in `{seg}`"));
                    }
                } else if let Some((metric, bound)) = item.split_once(">=") {
                    let v: f64 = bound
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad bound in constraint `{item}`"))?;
                    constraints.push(Constraint::at_least(metric.trim(), v));
                } else if let Some((metric, bound)) = item.split_once("<=") {
                    let v: f64 = bound
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad bound in constraint `{item}`"))?;
                    constraints.push(Constraint::at_most(metric.trim(), v));
                } else {
                    return Err(format!(
                        "unrecognized preference item `{item}` (want `metric>=n`, \
                         `metric<=n`, `minimize:metric`, or `maximize:metric`)"
                    ));
                }
            }
            let Some(objective) = objective else {
                return Err(format!("preference `{seg}` has no objective"));
            };
            prefs.push(Preference::new(constraints, objective));
        }
        if prefs.is_empty() {
            return Err("empty preference list".into());
        }
        Ok(PreferenceList { prefs })
    }

    /// Render in the grammar [`parse_directive`](Self::parse_directive)
    /// accepts; `parse_directive(list.to_directive())` round-trips.
    pub fn to_directive(&self) -> String {
        self.prefs
            .iter()
            .map(|p| {
                let mut items: Vec<String> = Vec::new();
                for c in &p.constraints {
                    if let Some(min) = c.min {
                        items.push(format!("{}>={}", c.metric, min));
                    }
                    if let Some(max) = c.max {
                        items.push(format!("{}<={}", c.metric, max));
                    }
                }
                let verb = match p.objective.sense {
                    Sense::LowerIsBetter => "minimize",
                    Sense::HigherIsBetter => "maximize",
                };
                items.push(format!("{verb}:{}", p.objective.metric));
                items.join(",")
            })
            .collect::<Vec<_>>()
            .join(" then ")
    }
}

/// Live-tunable preference lists: wraps an [`obs::Adaptive`] handle as a
/// `scheduler.prefs` registry knob that reads and writes the textual
/// directive grammar, so a typed `Command::Set` can flip user preferences
/// mid-run. (A newtype because the orphan rule forbids implementing the
/// foreign `Knob` trait directly on the foreign `Adaptive` type.)
#[derive(Debug, Clone)]
pub struct PrefsKnob(obs::Adaptive<PreferenceList>);

impl PrefsKnob {
    pub fn new(handle: obs::Adaptive<PreferenceList>) -> Self {
        PrefsKnob(handle)
    }
}

impl obs::Knob for PrefsKnob {
    fn read(&self) -> obs::ConfigValue {
        obs::ConfigValue::Str(self.0.get().to_directive())
    }

    fn write(&self, value: obs::ConfigValue) -> Result<obs::ConfigValue, obs::KnobError> {
        let Some(directive) = value.as_str() else {
            return Err(obs::KnobError::TypeMismatch { expected: "prefs", got: value.type_name() });
        };
        let parsed =
            PreferenceList::parse_directive(directive).map_err(obs::KnobError::BadValue)?;
        let old = self.0.get().to_directive();
        self.0.set(parsed);
        Ok(obs::ConfigValue::Str(old))
    }

    fn type_name(&self) -> &'static str {
        "prefs"
    }

    fn version(&self) -> u64 {
        self.0.version()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_comparisons() {
        assert!(Sense::LowerIsBetter.better(1.0, 2.0));
        assert!(!Sense::LowerIsBetter.better(2.0, 1.0));
        assert!(Sense::HigherIsBetter.better(2.0, 1.0));
        assert!(!Sense::HigherIsBetter.better(2.0, 2.0), "ties are not better");
    }

    #[test]
    fn report_basics() {
        let r = QosReport::new(&[("transmit_time", 5.2), ("resolution", 4.0)]);
        assert_eq!(r.get("resolution"), Some(4.0));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_metric_rejected() {
        let mut r = QosReport::default();
        r.set("x", f64::NAN);
    }

    #[test]
    fn constraints() {
        let r = QosReport::new(&[("t", 8.0)]);
        assert!(Constraint::at_most("t", 10.0).satisfied_by(&r));
        assert!(!Constraint::at_most("t", 5.0).satisfied_by(&r));
        assert!(Constraint::at_least("t", 8.0).satisfied_by(&r));
        assert!(Constraint::between("t", 5.0, 10.0).satisfied_by(&r));
        assert!(!Constraint::at_most("u", 10.0).satisfied_by(&r), "missing metric fails");
    }

    #[test]
    fn objective_comparison() {
        let a = QosReport::new(&[("t", 3.0)]);
        let b = QosReport::new(&[("t", 5.0)]);
        let min_t = Objective::minimize("t");
        assert!(min_t.better(&a, &b));
        assert!(!min_t.better(&b, &a));
        let empty = QosReport::default();
        assert!(min_t.better(&a, &empty));
        assert!(!min_t.better(&empty, &a));
    }

    #[test]
    fn violation_scores() {
        let c = Constraint::at_most("t", 10.0);
        assert_eq!(c.violation(&QosReport::new(&[("t", 8.0)])), 0.0);
        assert!((c.violation(&QosReport::new(&[("t", 15.0)])) - 0.5).abs() < 1e-12);
        assert!(c.violation(&QosReport::new(&[("u", 1.0)])) > 1e8, "missing metric penalized");
        let p = Preference::new(
            vec![Constraint::at_most("t", 10.0), Constraint::at_least("q", 4.0)],
            Objective::minimize("t"),
        );
        assert_eq!(p.violation_score(&QosReport::new(&[("t", 9.0), ("q", 5.0)])), 0.0);
        let both = p.violation_score(&QosReport::new(&[("t", 20.0), ("q", 2.0)]));
        assert!((both - (1.0 + 0.5)).abs() < 1e-12, "violations add up: {both}");
    }

    #[test]
    fn preference_all_constraints_must_hold() {
        let p = Preference::new(
            vec![Constraint::at_most("t", 10.0), Constraint::at_least("q", 3.0)],
            Objective::maximize("q"),
        );
        assert!(p.satisfied_by(&QosReport::new(&[("t", 9.0), ("q", 4.0)])));
        assert!(!p.satisfied_by(&QosReport::new(&[("t", 11.0), ("q", 4.0)])));
        assert!(!p.satisfied_by(&QosReport::new(&[("t", 9.0), ("q", 2.0)])));
    }

    #[test]
    fn max_rel_diff() {
        let a = QosReport::new(&[("t", 10.0), ("q", 4.0)]);
        let b = QosReport::new(&[("t", 11.0), ("q", 4.0)]);
        assert!((a.max_rel_diff(&b) - 1.0 / 11.0).abs() < 1e-9);
        let c = QosReport::new(&[("t", 10.0)]);
        assert_eq!(a.max_rel_diff(&c), f64::INFINITY);
        assert_eq!(a.max_rel_diff(&a), 0.0);
    }

    #[test]
    fn directive_grammar_round_trips() {
        let p = PreferenceList::single(Preference::new(
            vec![Constraint::at_least("resolution", 3.0)],
            Objective::minimize("response_time"),
        ))
        .then(Preference::new(vec![], Objective::minimize("response_time")));
        let s = p.to_directive();
        assert_eq!(s, "resolution>=3,minimize:response_time then minimize:response_time");
        assert_eq!(PreferenceList::parse_directive(&s).unwrap(), p);

        let both = PreferenceList::single(Preference::new(
            vec![Constraint::between("t", 2.0, 10.0)],
            Objective::maximize("q"),
        ));
        let s = both.to_directive();
        assert_eq!(s, "t>=2,t<=10,maximize:q");
        // `between` renders as two one-sided constraints; semantics match.
        let back = PreferenceList::parse_directive(&s).unwrap();
        assert_eq!(back.prefs[0].objective, both.prefs[0].objective);
        let r = QosReport::new(&[("t", 5.0), ("q", 1.0)]);
        assert_eq!(back.prefs[0].satisfied_by(&r), both.prefs[0].satisfied_by(&r));
    }

    #[test]
    fn directive_parse_rejects_malformed_input() {
        for bad in [
            "",
            "minimize:",
            "resolution>=3",              // no objective
            "minimize:t,maximize:q",      // two objectives
            "resolution>=abc,minimize:t", // bad bound
            "garbage,minimize:t",         // unrecognized item
            "minimize:t then ",           // empty segment
        ] {
            assert!(PreferenceList::parse_directive(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn prefs_knob_reads_and_writes_directives() {
        use obs::Knob;
        let handle = obs::Adaptive::new(PreferenceList::single(Preference::new(
            vec![],
            Objective::minimize("transmit_time"),
        )));
        let knob = PrefsKnob::new(handle.clone());
        assert_eq!(knob.read(), obs::ConfigValue::Str("minimize:transmit_time".into()));
        let old =
            knob.write(obs::ConfigValue::Str("resolution>=3,maximize:resolution".into())).unwrap();
        assert_eq!(old, obs::ConfigValue::Str("minimize:transmit_time".into()));
        assert_eq!(handle.get().prefs[0].objective, Objective::maximize("resolution"));
        assert_eq!(Knob::version(&knob), 1);

        // Wrong type and unparseable directives are rejected without mutating.
        assert!(knob.write(obs::ConfigValue::U64(3)).is_err());
        assert!(knob.write(obs::ConfigValue::Str("nonsense".into())).is_err());
        assert_eq!(Knob::version(&knob), 1);
    }
}
