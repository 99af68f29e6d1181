//! Admission control and reservation over virtual execution environments.
//!
//! §6.2 of the paper: "we can reserve a specific CPU share (as well as
//! network bandwidth and amount of physical memory) with simple admission
//! control. For example, the application can be admitted if the total
//! request for CPU share across all applications is less than a certain
//! threshold." [`HostVmm`] implements exactly that bookkeeping for one
//! host: named reservations of CPU share, bandwidth, and memory, admitted
//! only while aggregate totals stay below thresholds.

use std::collections::BTreeMap;

/// A resource reservation request for one sandboxed application.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Reservation {
    pub cpu_share: f64,
    pub net_bps: f64,
    pub mem_bytes: u64,
}

/// Why an admission request was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    CpuExhausted { requested: f64, available: f64 },
    NetExhausted { requested: f64, available: f64 },
    MemExhausted { requested: u64, available: u64 },
    DuplicateName(String),
    InvalidRequest(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::CpuExhausted { requested, available } => {
                write!(f, "CPU share exhausted: requested {requested}, available {available}")
            }
            AdmissionError::NetExhausted { requested, available } => {
                write!(f, "bandwidth exhausted: requested {requested}, available {available}")
            }
            AdmissionError::MemExhausted { requested, available } => {
                write!(f, "memory exhausted: requested {requested}, available {available}")
            }
            AdmissionError::DuplicateName(n) => write!(f, "duplicate reservation name {n}"),
            AdmissionError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Per-host admission controller.
#[derive(Debug)]
pub struct HostVmm {
    /// Maximum total CPU share handed out (the paper leaves headroom for
    /// uncontrollable OS activity; default 0.95).
    pub cpu_threshold: f64,
    /// Total reservable bandwidth, bytes/second.
    pub net_capacity_bps: f64,
    /// Total reservable memory, bytes.
    pub mem_capacity: u64,
    reservations: BTreeMap<String, Reservation>,
}

impl HostVmm {
    pub fn new(net_capacity_bps: f64, mem_capacity: u64) -> Self {
        HostVmm {
            cpu_threshold: 0.95,
            net_capacity_bps,
            mem_capacity,
            reservations: BTreeMap::new(),
        }
    }

    fn totals(&self) -> Reservation {
        let mut t = Reservation::default();
        for r in self.reservations.values() {
            t.cpu_share += r.cpu_share;
            t.net_bps += r.net_bps;
            t.mem_bytes += r.mem_bytes;
        }
        t
    }

    /// Try to admit a named reservation. All-or-nothing.
    pub fn admit(&mut self, name: &str, req: Reservation) -> Result<(), AdmissionError> {
        if req.cpu_share < 0.0 || req.cpu_share > 1.0 {
            return Err(AdmissionError::InvalidRequest(format!(
                "cpu share {} out of [0,1]",
                req.cpu_share
            )));
        }
        if req.net_bps < 0.0 {
            return Err(AdmissionError::InvalidRequest("negative bandwidth".into()));
        }
        if self.reservations.contains_key(name) {
            return Err(AdmissionError::DuplicateName(name.to_string()));
        }
        let t = self.totals();
        let cpu_avail = self.cpu_threshold - t.cpu_share;
        if req.cpu_share > cpu_avail + 1e-12 {
            return Err(AdmissionError::CpuExhausted {
                requested: req.cpu_share,
                available: cpu_avail.max(0.0),
            });
        }
        let net_avail = self.net_capacity_bps - t.net_bps;
        if req.net_bps > net_avail + 1e-9 {
            return Err(AdmissionError::NetExhausted {
                requested: req.net_bps,
                available: net_avail.max(0.0),
            });
        }
        let mem_avail = self.mem_capacity.saturating_sub(t.mem_bytes);
        if req.mem_bytes > mem_avail {
            return Err(AdmissionError::MemExhausted {
                requested: req.mem_bytes,
                available: mem_avail,
            });
        }
        self.reservations.insert(name.to_string(), req);
        Ok(())
    }

    /// Install `res` under `name` without the admission check, replacing
    /// any reservation of that name; returns the one it replaced. For
    /// shrinking an admitted app, or putting back the grant it held: a
    /// shrink must not fail because the threshold dropped under the
    /// admitted total.
    pub fn resize(&mut self, name: &str, res: Reservation) -> Option<Reservation> {
        self.reservations.insert(name.to_string(), res)
    }

    /// Release a reservation; returns it if present.
    pub fn release(&mut self, name: &str) -> Option<Reservation> {
        self.reservations.remove(name)
    }

    /// Current reservation for `name`.
    #[cfg(test)]
    pub(crate) fn reservation(&self, name: &str) -> Option<Reservation> {
        self.reservations.get(name).copied()
    }

    /// Remaining admissible CPU share.
    pub fn cpu_available(&self) -> f64 {
        (self.cpu_threshold - self.totals().cpu_share).max(0.0)
    }

    pub fn reservation_count(&self) -> usize {
        self.reservations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu(share: f64) -> Reservation {
        Reservation { cpu_share: share, ..Reservation::default() }
    }

    #[test]
    fn admits_until_threshold() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        vmm.admit("a", cpu(0.5)).unwrap();
        vmm.admit("b", cpu(0.4)).unwrap();
        let err = vmm.admit("c", cpu(0.2)).unwrap_err();
        assert!(matches!(err, AdmissionError::CpuExhausted { .. }));
        assert!((vmm.cpu_available() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn release_frees_capacity() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        vmm.admit("a", cpu(0.9)).unwrap();
        assert!(vmm.admit("b", cpu(0.2)).is_err());
        assert_eq!(vmm.release("a"), Some(cpu(0.9)));
        vmm.admit("b", cpu(0.2)).unwrap();
        assert_eq!(vmm.reservation_count(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        vmm.admit("a", cpu(0.1)).unwrap();
        assert!(matches!(vmm.admit("a", cpu(0.1)), Err(AdmissionError::DuplicateName(_))));
    }

    #[test]
    fn net_and_mem_limits_enforced() {
        let mut vmm = HostVmm::new(1_000_000.0, 1_000);
        vmm.admit("a", Reservation { cpu_share: 0.1, net_bps: 800_000.0, mem_bytes: 600 }).unwrap();
        assert!(matches!(
            vmm.admit("b", Reservation { cpu_share: 0.1, net_bps: 300_000.0, mem_bytes: 0 }),
            Err(AdmissionError::NetExhausted { .. })
        ));
        assert!(matches!(
            vmm.admit("c", Reservation { cpu_share: 0.1, net_bps: 0.0, mem_bytes: 500 }),
            Err(AdmissionError::MemExhausted { .. })
        ));
    }

    #[test]
    fn invalid_requests_rejected() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        assert!(vmm.admit("a", cpu(1.5)).is_err());
        assert!(vmm
            .admit("b", Reservation { cpu_share: 0.1, net_bps: -1.0, mem_bytes: 0 })
            .is_err());
    }

    #[test]
    fn resize_shrinks_where_admit_fails() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        vmm.admit("a", cpu(0.5)).unwrap();
        vmm.admit("b", cpu(0.4)).unwrap();
        // A dip puts the threshold under the admitted 0.9.
        vmm.cpu_threshold = 0.6;
        let held = vmm.release("a").unwrap();
        assert!(matches!(vmm.admit("a", cpu(0.3)), Err(AdmissionError::CpuExhausted { .. })));
        assert_eq!(vmm.resize("a", held), None);
        assert_eq!(vmm.resize("a", cpu(0.3)), Some(cpu(0.5)));
        assert_eq!(vmm.reservation("a"), Some(cpu(0.3)));
        assert_eq!(vmm.cpu_available(), 0.0);
        assert_eq!(vmm.resize("a", cpu(0.1)), Some(cpu(0.3)));
        assert!((vmm.cpu_available() - 0.1).abs() < 1e-9);
        assert_eq!(vmm.reservation_count(), 2);
    }

    #[test]
    fn custom_threshold() {
        let mut vmm = HostVmm::new(1e9, 1 << 30);
        vmm.cpu_threshold = 0.5;
        assert!(vmm.admit("a", cpu(0.6)).is_err());
        vmm.admit("a", cpu(0.5)).unwrap();
    }
}
