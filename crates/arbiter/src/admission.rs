//! Admission pricing: typed decisions, priced against the shared
//! performance database.
//!
//! Every admission request is *priced*: the app's declared demand (or a
//! fair-share fraction of it) is treated as a resource availability
//! vector and handed to a [`ResourceScheduler`] over the cluster's shared
//! `Arc<PerfDb>`. The scheduler answers with the best configuration and
//! the preference rank it satisfies; the arbiter then applies a per-tier
//! rank requirement — a gold app whose QoS constraints are only
//! satisfiable at a fallback rank is **rejected**, not silently degraded.
//!
//! Tie-breaking is deterministic throughout: hosts by `(residual CPU
//! descending, index ascending)`, queue order by `(tier, weight
//! descending, arrival, id)`.

use std::collections::BTreeMap;
use std::sync::Arc;

use adapt_core::{PerfDb, ResourceScheduler, ResourceVector};
use sandbox::Reservation;
use visapp::{client_cpu_key, client_net_key, QosProfile, PROFILE_INPUT};

use crate::app::{AppId, AppSpec, Tier};

/// Fair-share fractions tried, in order, when the full demand does not
/// fit the cluster. Each fraction is re-priced: a scaled grant must still
/// satisfy the app's tier rank requirement to be offered.
pub const FAIR_SHARE_FRACTIONS: [f64; 3] = [1.0, 0.75, 0.5];

/// Why an app was turned away.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// No configuration satisfies the app's QoS preferences at the rank
    /// its tier requires, even at full demand.
    QosUnsatisfiable {
        /// Rank the tier demands (0 = most preferred).
        rank_required: usize,
    },
    /// The demand cannot fit any host even on an idle cluster at the
    /// smallest fair-share fraction.
    DemandExceedsCluster { demand_cpu: f64, host_capacity: f64 },
    /// The admission queue is at capacity.
    QueueFull { cap: usize },
}

impl RejectReason {
    pub fn name(&self) -> &'static str {
        match self {
            RejectReason::QosUnsatisfiable { .. } => "qos_unsatisfiable",
            RejectReason::DemandExceedsCluster { .. } => "demand_exceeds_cluster",
            RejectReason::QueueFull { .. } => "queue_full",
        }
    }
}

/// The arbiter's typed answer to one admission request.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionDecision {
    /// Admitted under an envelope.
    Admitted {
        app: AppId,
        /// Cluster host (ledger index) the reservation landed on.
        host: usize,
        /// The admitted envelope: what the sandbox will enforce and what
        /// policing compares usage against.
        grant: Reservation,
        /// Fair-share fraction of the declared demand that was granted.
        fraction: f64,
        /// Key of the configuration the pricing run selected.
        config_key: String,
        /// Preference rank the priced configuration satisfies.
        rank: usize,
        /// Queue latency (us) between first request and admission.
        latency_us: u64,
    },
    /// Parked in the admission queue (no capacity right now).
    Queued { app: AppId, position: usize },
    /// Turned away.
    Rejected { app: AppId, reason: RejectReason },
}

impl AdmissionDecision {
    pub fn app(&self) -> AppId {
        match self {
            AdmissionDecision::Admitted { app, .. }
            | AdmissionDecision::Queued { app, .. }
            | AdmissionDecision::Rejected { app, .. } => *app,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            AdmissionDecision::Admitted { .. } => "admitted",
            AdmissionDecision::Queued { .. } => "queued",
            AdmissionDecision::Rejected { .. } => "rejected",
        }
    }
}

/// Strictest preference rank an app of this tier may be admitted at:
/// gold needs its most-preferred constraints satisfiable, silver accepts
/// one fallback, bronze takes any priced configuration.
pub fn required_rank(tier: Tier) -> usize {
    match tier {
        0 => 0,
        1 => 1,
        _ => usize::MAX,
    }
}

/// What pricing one grant against the database produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PricedGrant {
    pub config_key: String,
    pub rank: usize,
}

/// Prices grants through per-profile schedulers over one shared database.
///
/// One scheduler per [`QosProfile`] (the preference lists differ), all
/// sharing the same `Arc<PerfDb>` — the cluster does not clone the record
/// store per app or per profile.
pub struct Pricer {
    schedulers: BTreeMap<QosProfile, ResourceScheduler>,
}

#[cfg(test)]
thread_local! {
    /// Pricings computed on this thread (a storm runs on its caller's).
    pub(crate) static PRICINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Pricer {
    pub fn new(db: &Arc<PerfDb>) -> Self {
        let schedulers = [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput]
            .into_iter()
            .map(|p| (p, ResourceScheduler::new_shared(db.clone(), p.preferences(), PROFILE_INPUT)))
            .collect();
        Pricer { schedulers }
    }

    /// The availability vector a grant represents, in the database's
    /// client-resource schema.
    pub fn grant_vector(cpu: f64, net: f64) -> ResourceVector {
        let mut v = ResourceVector::default();
        v.set(client_cpu_key(), cpu);
        v.set(client_net_key(), net);
        v
    }

    /// Price `spec`'s demand scaled by `fraction`. `None` when no
    /// configuration satisfies the tier's rank requirement at that grant.
    pub fn price(&self, spec: &AppSpec, fraction: f64) -> Option<PricedGrant> {
        self.price_any(spec, fraction).filter(|p| p.rank <= required_rank(spec.tier))
    }

    /// Price `spec` at `fraction` ignoring the tier rank requirement.
    /// Used for forced degradation during overload, where the app does not
    /// get a say: any configuration valid at the shrunken grant will do.
    pub fn price_any(&self, spec: &AppSpec, fraction: f64) -> Option<PricedGrant> {
        #[cfg(test)]
        PRICINGS.with(|n| n.set(n.get() + 1));
        let v = Self::grant_vector(spec.demand_cpu, spec.demand_net).scaled(fraction);
        // Admission reads the key and the rank, never a validity region.
        let selection = self.schedulers[&spec.profile].select(&v)?;
        Some(PricedGrant { config_key: selection.config.key(), rank: selection.preference_rank })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adapt_core::{Configuration, Objective, PerfRecord, Preference, PreferenceList, QosReport};
    use proptest::prelude::*;
    use visapp::{model_db, LoadGenOpts};

    pub(crate) fn spec(tier: Tier, cpu: f64, net: f64, profile: QosProfile) -> AppSpec {
        AppSpec {
            id: 0,
            kind: crate::app::WorkloadKind::Session,
            tier,
            weight: 10,
            profile,
            demand_cpu: cpu,
            demand_net: net,
            demand_mem: 1 << 20,
            arrival_us: 0,
            rogue: false,
        }
    }

    /// A database where the low-bandwidth sample genuinely violates
    /// Interactive's 0.5 s response bound for every configuration. The
    /// analytic `model_db` never makes rank-0 constraints bind (its
    /// transmit times are tiny and predictions clamp at the sampled grid
    /// edge), so rank fallback has to be exercised against hand-built
    /// records.
    pub(crate) fn starved_db() -> PerfDb {
        let mut db = PerfDb::new();
        for &c in &[1i64, 2] {
            for &cpu_v in &[0.25, 1.0] {
                for &net_v in &[10_000.0, 1_000_000.0] {
                    let rt = if net_v < 100_000.0 { 4.0 + c as f64 } else { 0.1 * c as f64 };
                    db.add(PerfRecord {
                        config: Configuration::new(&[("c", c)]),
                        resources: ResourceVector::new(&[
                            (client_cpu_key(), cpu_v),
                            (client_net_key(), net_v),
                        ]),
                        input: PROFILE_INPUT.into(),
                        metrics: QosReport::new(&[("response_time", rt), ("resolution", c as f64)]),
                    });
                }
            }
        }
        db
    }

    #[test]
    fn pricing_is_tier_sensitive() {
        let db = Arc::new(starved_db());
        let pricer = Pricer::new(&db);
        // A healthy grant prices fine at any tier.
        let good = spec(0, 1.0, 1_000_000.0, QosProfile::Interactive);
        let g = pricer.price(&good, 1.0).expect("full grant must price");
        assert_eq!(g.rank, 0, "gold at full resources satisfies rank 0");
        // A starved grant only satisfies the fallback preference: gold
        // must be refused, bronze accepts it.
        let starved = spec(0, 1.0, 10_000.0, QosProfile::Interactive);
        assert!(pricer.price(&starved, 1.0).is_none(), "gold cannot take a fallback rank");
        let bronze = AppSpec { tier: 2, ..starved.clone() };
        let b = pricer.price(&bronze, 1.0).expect("bronze takes any priced config");
        assert!(b.rank >= 1, "starved grant lands on a fallback rank, got {}", b.rank);
        // Forced degradation ignores the rank gate: a config still prices
        // for the gold spec when the arbiter overrides its say.
        let forced = pricer.price_any(&starved, 1.0).expect("price_any ignores the rank gate");
        assert!(forced.rank >= 1);
    }

    #[test]
    fn scaled_grants_reprice() {
        let opts = LoadGenOpts::new(1);
        let db = Arc::new(model_db(&opts));
        let pricer = Pricer::new(&db);
        let s = spec(2, 0.5, opts.link_bps / 2.0, QosProfile::Throughput);
        for frac in FAIR_SHARE_FRACTIONS {
            let g = pricer.price(&s, frac).expect("throughput profile always prices");
            assert!(!g.config_key.is_empty());
        }
    }

    /// Figure 6(a)'s bandwidth crossover, as in `adapt_core::scheduler`'s
    /// own tests: config 1 sends 2 MB for 5 cpu-s, config 2 sends 0.4 MB
    /// for 20 cpu-s, and which one is faster flips near 107 kB/s.
    fn crossover_db() -> PerfDb {
        let mut db = PerfDb::new();
        for (c, bytes, cpu_s) in [(1i64, 2e6, 5.0), (2, 0.4e6, 20.0)] {
            for &cpu_v in &[0.25, 0.5, 1.0] {
                for &net_v in &[50_000.0, 200_000.0, 500_000.0, 1_000_000.0] {
                    db.add(PerfRecord {
                        config: Configuration::new(&[("c", c)]),
                        resources: ResourceVector::new(&[
                            (client_cpu_key(), cpu_v),
                            (client_net_key(), net_v),
                        ]),
                        input: PROFILE_INPUT.into(),
                        metrics: QosReport::new(&[
                            ("transmit_time", bytes / net_v + cpu_s / cpu_v),
                            ("resolution", c as f64),
                        ]),
                    });
                }
            }
        }
        db
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `select` is `choose` minus the region: same configuration,
        /// prediction and rank wherever `choose` answers, `None` exactly
        /// where it does not. The ranges straddle every database's grid
        /// (bandwidth log-uniformly), so clamped, interpolated,
        /// fallback-rank and unsatisfiable points all occur.
        #[test]
        fn selection_front_agrees_with_choose(cpu in 0.05f64..1.5, log_net in 3.5f64..7.5) {
            let profiles = [QosProfile::Quality, QosProfile::Interactive, QosProfile::Throughput];
            // No fallback level: unsatisfiable at low cpu or bandwidth.
            let strict = PreferenceList::single(Preference::new(
                vec![adapt_core::Constraint::at_most("transmit_time", 15.0)],
                Objective::maximize("resolution"),
            ));
            let mut cases: Vec<(Arc<PerfDb>, PreferenceList)> =
                vec![(Arc::new(crossover_db()), strict)];
            for db in [crossover_db(), starved_db(), model_db(&LoadGenOpts::new(1))] {
                let db = Arc::new(db);
                cases.extend(profiles.map(|p| (db.clone(), p.preferences())));
            }
            let v = Pricer::grant_vector(cpu, 10f64.powf(log_net));
            for (db, prefs) in cases {
                let s = ResourceScheduler::new_shared(db, prefs, PROFILE_INPUT);
                let want = s.choose(&v).map(|d| (d.config, d.predicted, d.preference_rank));
                let got = s.select(&v).map(|s| (s.config, s.predicted, s.preference_rank));
                prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn decision_accessors() {
        let d = AdmissionDecision::Rejected { app: 7, reason: RejectReason::QueueFull { cap: 4 } };
        assert_eq!(d.app(), 7);
        assert_eq!(d.name(), "rejected");
        if let AdmissionDecision::Rejected { reason, .. } = &d {
            assert_eq!(reason.name(), "queue_full");
        }
    }
}
