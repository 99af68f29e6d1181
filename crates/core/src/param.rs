//! Control parameters ("knobs") and configurations.
//!
//! §4 of the paper: "for automatic adaptation, we need to identify the
//! control parameters that determine execution behavior". A
//! [`ControlParam`] is one named knob with a finite integer domain; a
//! [`ControlSpace`] is the set of knobs; a [`Configuration`] is one
//! concrete assignment — the paper's `module[l][dR][c]` name-value pairs.

use std::collections::BTreeMap;
use std::fmt;

/// The domain of one control parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamDomain {
    /// Inclusive integer range with a step (e.g. `1..=5 step 1`).
    Range { min: i64, max: i64, step: i64 },
    /// An explicit set of values.
    Set(Vec<i64>),
    /// Named alternatives (e.g. compression methods); values are the codes.
    Enum(Vec<(String, i64)>),
}

impl ParamDomain {
    /// All values in this domain, in declaration order.
    pub fn values(&self) -> Vec<i64> {
        match self {
            ParamDomain::Range { min, max, step } => {
                assert!(*step > 0, "range step must be positive");
                let mut out = Vec::new();
                let mut v = Some(*min);
                while let Some(x) = v.filter(|x| x <= max) {
                    out.push(x);
                    v = x.checked_add(*step);
                }
                out
            }
            ParamDomain::Set(vs) => vs.clone(),
            ParamDomain::Enum(vs) => vs.iter().map(|(_, v)| *v).collect(),
        }
    }

    pub fn contains(&self, v: i64) -> bool {
        self.values().contains(&v)
    }

    /// Number of values.
    pub fn cardinality(&self) -> usize {
        self.values().len()
    }
}

/// One named control parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlParam {
    pub name: String,
    pub domain: ParamDomain,
}

/// The set of control parameters of a tunable application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlSpace {
    pub params: Vec<ControlParam>,
}

impl ControlSpace {
    pub fn param(&self, name: &str) -> Option<&ControlParam> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Total number of configurations (product of domain cardinalities).
    pub fn cardinality(&self) -> usize {
        self.params.iter().map(|p| p.domain.cardinality()).product()
    }

    /// Enumerate every configuration in the cartesian product, in
    /// row-major declaration order (deterministic).
    pub fn enumerate(&self) -> Vec<Configuration> {
        let mut out = vec![Configuration::default()];
        for p in &self.params {
            let values = p.domain.values();
            let mut next = Vec::with_capacity(out.len() * values.len());
            for base in &out {
                for &v in &values {
                    let mut c = base.clone();
                    c.set(&p.name, v);
                    next.push(c);
                }
            }
            out = next;
        }
        out
    }

    /// Check that a configuration assigns a valid value to every parameter.
    pub fn validate(&self, c: &Configuration) -> Result<(), String> {
        for p in &self.params {
            match c.get(&p.name) {
                None => return Err(format!("missing parameter {}", p.name)),
                Some(v) if !p.domain.contains(v) => {
                    return Err(format!("parameter {} = {v} outside domain", p.name))
                }
                _ => {}
            }
        }
        for k in c.values.keys() {
            if self.param(k).is_none() {
                return Err(format!("unknown parameter {k}"));
            }
        }
        Ok(())
    }
}

/// A concrete assignment of values to control parameters. The paper's
/// `task module[l][dR][c]` handle maps to `Configuration::key()`.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Configuration {
    values: BTreeMap<String, i64>,
}

impl Configuration {
    pub fn new(pairs: &[(&str, i64)]) -> Self {
        let mut c = Configuration::default();
        for (k, v) in pairs {
            c.set(k, *v);
        }
        c
    }

    pub fn set(&mut self, name: &str, v: i64) {
        self.values.insert(name.to_string(), v);
    }

    pub fn get(&self, name: &str) -> Option<i64> {
        self.values.get(name).copied()
    }

    /// Like `get` but panicking with context (protocol-guaranteed params).
    pub fn expect(&self, name: &str) -> i64 {
        self.get(name).unwrap_or_else(|| panic!("configuration missing parameter {name}"))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.values.iter().map(|(k, &v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Stable string key, e.g. `c=1,dR=160,l=4` — the run-time handle for a
    /// task configuration.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self.values.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(",")
    }
}

impl fmt::Display for Configuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::spec::TunableSpec;

    /// The control space declared by annotation text.
    fn space(params: &str) -> ControlSpace {
        dsl::parse(&format!("control_parameters {{ {params} }}")).unwrap().control
    }

    #[test]
    fn range_domain_values() {
        let d = ParamDomain::Range { min: 1, max: 7, step: 2 };
        assert_eq!(d.values(), vec![1, 3, 5, 7]);
        assert!(d.contains(5));
        assert!(!d.contains(4));
        assert_eq!(d.cardinality(), 4);
        // The range ends where the next value would overflow.
        let d = ParamDomain::Range { min: i64::MAX - 1, max: i64::MAX, step: 2 };
        assert_eq!(d.values(), vec![i64::MAX - 1]);
    }

    #[test]
    fn enum_domain_names() {
        let c = space("enum c { lzw = 1, bzip = 2 };");
        let names = vec![("lzw".to_string(), 1), ("bzip".to_string(), 2)];
        assert_eq!(c.param("c").unwrap().domain, ParamDomain::Enum(names));
        assert_eq!(c.param("c").unwrap().domain.values(), vec![1, 2]);
    }

    #[test]
    fn enumerate_is_cartesian_product() {
        let space = space("int dR in {80, 160, 320}; enum c { lzw = 1, bzip = 2 }; int l in 3..4;");
        let all = space.enumerate();
        assert_eq!(all.len(), 12);
        assert_eq!(space.cardinality(), 12);
        // All distinct.
        let keys: std::collections::BTreeSet<String> = all.iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 12);
        // Every combination valid.
        for c in &all {
            space.validate(c).unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let space = space("int x in {1, 2};");
        assert!(space.validate(&Configuration::new(&[("x", 3)])).is_err());
        assert!(space.validate(&Configuration::new(&[])).is_err());
        assert!(space.validate(&Configuration::new(&[("x", 1), ("y", 0)])).is_err());
        space.validate(&Configuration::new(&[("x", 2)])).unwrap();
    }

    #[test]
    fn duplicate_params_rejected() {
        let x = |v| ControlParam { name: "x".into(), domain: ParamDomain::Set(vec![v]) };
        let control = ControlSpace { params: vec![x(1), x(2)] };
        let err = TunableSpec { control, ..TunableSpec::default() }.validate().unwrap_err();
        assert_eq!(err, "duplicate parameter x");
    }

    #[test]
    fn configuration_key_is_stable() {
        let a = Configuration::new(&[("l", 4), ("c", 1), ("dR", 80)]);
        let b = Configuration::new(&[("dR", 80), ("c", 1), ("l", 4)]);
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key(), "c=1,dR=80,l=4");
        assert_eq!(a, b);
    }
}
