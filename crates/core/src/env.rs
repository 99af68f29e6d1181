//! Execution environments and resource vectors.
//!
//! §4: "the execution environment specifies the system components (hosts
//! and network links) on which the application executes. Each system
//! component encapsulates several resources that affect application
//! behavior." A [`ResourceKey`] names one such resource (e.g.
//! `client.cpu`); a [`ResourceVector`] is a point in the multidimensional
//! resource space — the domain over which behavior is profiled and
//! availability is monitored.

use std::collections::BTreeMap;
use std::fmt;

/// Kinds of resources a system component exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResourceKind {
    /// CPU share, fraction of one full processor in (0, 1].
    CpuShare,
    /// Network bandwidth in bytes/second.
    NetworkBps,
    /// Physical memory in bytes.
    MemBytes,
}

impl ResourceKind {
    pub fn unit(&self) -> &'static str {
        match self {
            ResourceKind::CpuShare => "share",
            ResourceKind::NetworkBps => "B/s",
            ResourceKind::MemBytes => "B",
        }
    }

    pub fn parse(s: &str) -> Option<ResourceKind> {
        Some(match s {
            "cpu" => ResourceKind::CpuShare,
            "network" | "net" => ResourceKind::NetworkBps,
            "memory" | "mem" => ResourceKind::MemBytes,
            _ => return None,
        })
    }

    pub fn name(&self) -> &'static str {
        match self {
            ResourceKind::CpuShare => "cpu",
            ResourceKind::NetworkBps => "network",
            ResourceKind::MemBytes => "memory",
        }
    }
}

/// One resource of one system component, e.g. `client.cpu`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceKey {
    pub component: String,
    pub kind: ResourceKind,
}

impl ResourceKey {
    pub fn new(component: &str, kind: ResourceKind) -> Self {
        ResourceKey { component: component.into(), kind }
    }

    pub fn cpu(component: &str) -> Self {
        Self::new(component, ResourceKind::CpuShare)
    }

    pub fn net(component: &str) -> Self {
        Self::new(component, ResourceKind::NetworkBps)
    }

    pub fn mem(component: &str) -> Self {
        Self::new(component, ResourceKind::MemBytes)
    }

    /// Parse `component.kind` (e.g. `client.cpu`).
    pub fn parse(s: &str) -> Option<ResourceKey> {
        let (comp, kind) = s.split_once('.')?;
        if comp.is_empty() {
            return None;
        }
        Some(ResourceKey { component: comp.to_string(), kind: ResourceKind::parse(kind)? })
    }
}

impl fmt::Display for ResourceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.component, self.kind.name())
    }
}

/// A point in the multidimensional resource space: measured availability
/// or a testbed setting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceVector {
    values: BTreeMap<ResourceKey, f64>,
}

impl ResourceVector {
    pub fn new(pairs: &[(ResourceKey, f64)]) -> Self {
        let mut v = ResourceVector::default();
        for (k, x) in pairs {
            v.set(k.clone(), *x);
        }
        v
    }

    pub fn set(&mut self, key: ResourceKey, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "invalid resource value {value}");
        self.values.insert(key, value);
    }

    pub fn get(&self, key: &ResourceKey) -> Option<f64> {
        self.values.get(key).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&ResourceKey, f64)> {
        self.values.iter().map(|(k, &v)| (k, v))
    }

    pub fn keys(&self) -> impl Iterator<Item = &ResourceKey> {
        self.values.keys()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Euclidean distance in normalized coordinates: each axis divided by
    /// `scale[axis]` (callers pass per-axis ranges so unlike units mix).
    pub fn distance(&self, other: &ResourceVector, scale: &BTreeMap<ResourceKey, f64>) -> f64 {
        let mut sum = 0.0;
        for (k, v) in &self.values {
            let o = other.get(k).unwrap_or(0.0);
            let s = scale.get(k).copied().unwrap_or(1.0).max(1e-12);
            let d = (v - o) / s;
            sum += d * d;
        }
        sum.sqrt()
    }

    /// This vector with every value multiplied by `factor` — a degraded
    /// (or inflated) resource grant. Admission control uses this to price
    /// fractional offers when a full-demand grant does not fit.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        assert!(factor.is_finite() && factor >= 0.0, "invalid scale factor {factor}");
        let mut out = ResourceVector::default();
        for (k, v) in self.iter() {
            out.set(k.clone(), v * factor);
        }
        out
    }

    /// True when every resource in `self` is at least `other`'s value
    /// (componentwise adequacy).
    pub fn covers(&self, other: &ResourceVector) -> bool {
        other.iter().all(|(k, need)| match self.get(k) {
            Some(have) => have + 1e-12 >= need,
            None => false,
        })
    }

    /// Stable key for use in maps/serialization.
    pub fn key(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{}.{}={v:.6}", k.component, k.kind.name()))
            .collect();
        parts.join(";")
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.key())
    }
}

/// A host in the execution environment.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    pub name: String,
    /// Relative speed vs the reference machine (for testbed emulation of
    /// slower hardware, Figure 4).
    pub speed: f64,
}

/// The execution environment declared by the tunability annotations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionEnv {
    pub hosts: Vec<HostSpec>,
    /// Declared links as `(host_a, host_b)` name pairs.
    pub links: Vec<(String, String)>,
}

impl ExecutionEnv {
    pub fn host(&self, name: &str) -> Option<&HostSpec> {
        self.hosts.iter().find(|h| h.name == name)
    }

    /// Validate that every referenced resource component is a declared host.
    pub(crate) fn validate_key(&self, key: &ResourceKey) -> Result<(), String> {
        if self.host(&key.component).is_some() {
            Ok(())
        } else {
            Err(format!("resource {key} references undeclared host"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_multiplies_every_axis() {
        let v = ResourceVector::new(&[
            (ResourceKey::cpu("client"), 0.5),
            (ResourceKey::net("client"), 10_000.0),
        ]);
        let half = v.scaled(0.5);
        assert_eq!(half.get(&ResourceKey::cpu("client")), Some(0.25));
        assert_eq!(half.get(&ResourceKey::net("client")), Some(5_000.0));
        assert!(v.covers(&half));
        assert!(!half.covers(&v));
        assert!(v.scaled(0.0).iter().all(|(_, x)| x == 0.0));
    }

    #[test]
    fn key_parsing() {
        let k = ResourceKey::parse("client.cpu").unwrap();
        assert_eq!(k, ResourceKey::cpu("client"));
        assert_eq!(k.to_string(), "client.cpu");
        assert_eq!(ResourceKey::parse("client.network").unwrap().kind, ResourceKind::NetworkBps);
        assert!(ResourceKey::parse("client").is_none());
        assert!(ResourceKey::parse(".cpu").is_none());
        assert!(ResourceKey::parse("client.disk").is_none());
    }

    #[test]
    fn vector_basics() {
        let mut v = ResourceVector::default();
        v.set(ResourceKey::cpu("client"), 0.5);
        v.set(ResourceKey::net("client"), 500_000.0);
        assert_eq!(v.get(&ResourceKey::cpu("client")), Some(0.5));
        assert_eq!(v.len(), 2);
        assert!(v.key().contains("client.cpu=0.5"));
    }

    #[test]
    #[should_panic(expected = "invalid resource value")]
    fn negative_value_rejected() {
        let mut v = ResourceVector::default();
        v.set(ResourceKey::cpu("x"), -1.0);
    }

    #[test]
    fn covers_semantics() {
        let have =
            ResourceVector::new(&[(ResourceKey::cpu("c"), 0.8), (ResourceKey::net("c"), 1e6)]);
        let need = ResourceVector::new(&[(ResourceKey::cpu("c"), 0.5)]);
        assert!(have.covers(&need));
        let need2 = ResourceVector::new(&[(ResourceKey::cpu("c"), 0.9)]);
        assert!(!have.covers(&need2));
        let need3 = ResourceVector::new(&[(ResourceKey::mem("c"), 1.0)]);
        assert!(!have.covers(&need3));
    }

    #[test]
    fn normalized_distance() {
        let a = ResourceVector::new(&[
            (ResourceKey::cpu("c"), 0.2),
            (ResourceKey::net("c"), 100_000.0),
        ]);
        let b = ResourceVector::new(&[
            (ResourceKey::cpu("c"), 0.6),
            (ResourceKey::net("c"), 500_000.0),
        ]);
        let mut scale = BTreeMap::new();
        scale.insert(ResourceKey::cpu("c"), 1.0);
        scale.insert(ResourceKey::net("c"), 1_000_000.0);
        let d = a.distance(&b, &scale);
        let expect = (0.4f64 * 0.4 + 0.4 * 0.4).sqrt();
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn env_validation() {
        let env = crate::dsl::parse(
            "execution_env { host client; host server speed 0.74; link client server; }",
        )
        .unwrap()
        .env;
        assert!(env.validate_key(&ResourceKey::cpu("client")).is_ok());
        assert!(env.validate_key(&ResourceKey::cpu("elsewhere")).is_err());
        assert_eq!(env.host("server").unwrap().speed, 0.74);
    }
}
