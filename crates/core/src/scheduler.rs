//! The resource scheduler: selects the configuration best satisfying user
//! preferences under measured resource conditions.
//!
//! §6.2: "the measured resource characteristics and required user
//! preferences (expressed as allowable value ranges on application quality
//! metrics) are used to prune candidate configurations. Of the
//! configurations that remain, a simple multidimensional optimization
//! approach is used to pick the one that best satisfies the user-specified
//! objective criterion. When resource conditions do not fit the records in
//! the performance database, interpolation (or even extrapolation) of the
//! representative data is used ... If no candidate configurations exist,
//! the next preferred user constraint is examined."
//!
//! # Decision memoization
//!
//! One decision probes the database heavily: the validity-region walk
//! re-evaluates "is `config` still the best choice?" at every sampled
//! axis value, and each such check needs predictions for *every*
//! configuration. Many of those `(config, probe)` pairs repeat (the walk
//! revisits the center point per axis, and the objective comparison needs
//! the full prediction row at each probe), so a `DecisionCtx` shares a
//! per-decision memo: the candidate list is fetched from the database
//! index once, and each distinct probe's prediction row is computed once
//! and reused across the selection loop, the region walk, and the
//! per-probe optimality checks. A decision is those two halves in order:
//! `choose_excluding` = selection + region; [`ResourceScheduler::select`]
//! is the selection alone, for callers that need no region.

use std::collections::HashMap;
use std::sync::Arc;

use obs::Adaptive;

use crate::env::ResourceVector;
use crate::monitor::ValidityRegion;
use crate::param::Configuration;
use crate::perfdb::{PerfDb, PredictMode};
use crate::qos::{Preference, PreferenceList, QosReport};

/// The scheduler's choice.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    pub config: Configuration,
    /// Metrics the database predicts for this choice.
    pub predicted: QosReport,
    /// Index into the preference list that was satisfiable (0 = most
    /// preferred).
    pub preference_rank: usize,
    /// Resource region within which the choice remains valid; handed to
    /// the monitoring agent.
    pub validity: ValidityRegion,
    /// True when no configuration satisfied any preference and this is the
    /// least-violating fallback (see
    /// [`ResourceScheduler::choose_least_violating`]). The runtime treats
    /// such decisions as *degraded* and keeps probing for recovery.
    pub best_effort: bool,
    /// Version of the preference list this decision was computed under
    /// (0 = the preferences have never been mutated). Lets audit tooling
    /// correlate a decision with the `config_set` event that re-ranked the
    /// preferences mid-run.
    pub pref_version: u64,
    /// Version of the performance database this decision priced against
    /// (0 = the profiled database was never refined). Bumped by each
    /// refine hot-swap (see `crate::refine`), so audit tooling can tell
    /// which decisions ran on stale predictions.
    pub db_version: u64,
}

/// What [`ResourceScheduler::select`] answers: a [`Decision`]'s first
/// three fields, without the validity region that only a monitor reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    pub config: Configuration,
    /// Metrics the database predicts for this choice.
    pub predicted: QosReport,
    /// Index into the preference list that was satisfiable (0 = most
    /// preferred).
    pub preference_rank: usize,
}

/// The resource scheduler.
///
/// The performance database sits behind an [`Arc`]: scale-out deployments
/// (one `AdaptiveRuntime` per client session, see `visapp::load`) share a
/// single interned database across every scheduler instead of cloning the
/// record store N times. [`ResourceScheduler::new`] still accepts an owned
/// [`PerfDb`] and wraps it; use
/// [`new_shared`](ResourceScheduler::new_shared) to hand several
/// schedulers the same database.
#[derive(Debug)]
pub struct ResourceScheduler {
    /// The performance database behind a live-tunable handle. Every
    /// decision snapshots it once (a single atomic load), so a refine
    /// hot-swap ([`db_handle`](Self::db_handle) + `Adaptive::set`) takes
    /// effect atomically at the next decision: a racing swap yields a
    /// decision priced wholly against the old or wholly against the new
    /// database, never a mix of slices.
    db: Adaptive<Arc<PerfDb>>,
    /// `db`'s version when this scheduler last (re)published the database
    /// itself (obs attachment). Swaps past this baseline are refine
    /// hot-swaps; [`db_version`](Self::db_version) reports their count.
    db_base_version: u64,
    /// User preferences behind a live-tunable handle: register it (via
    /// [`prefs_handle`](Self::prefs_handle)) as the `scheduler.prefs`
    /// config knob and a `Command::Set` re-ranks preferences mid-run.
    /// Decisions snapshot the list once per `choose`, so a racing flip
    /// yields either wholly-old or wholly-new rankings, never a mix.
    prefs: Adaptive<PreferenceList>,
    pub mode: PredictMode,
    /// Workload key to consult in the database.
    pub input: String,
    /// Optional profiling hook timing every decision.
    obs: Option<SchedObs>,
}

/// Pre-registered span target so decision timing stays allocation-free.
#[derive(Debug, Clone)]
struct SchedObs {
    obs: obs::Obs,
    choose_span: obs::MetricId,
}

/// Per-decision working state: the candidate configurations (fetched from
/// the database index once per decision, not once per probe) and a memo of
/// prediction rows keyed by probe point.
struct DecisionCtx {
    /// All configurations profiled for the input (plus, for
    /// [`ResourceScheduler::validity_region`], the config under test when
    /// it is not in the database). Optimality checks compare against every
    /// entry; the choose loop additionally honors `eligible`.
    configs: Vec<Configuration>,
    /// False for configurations excluded from selection (failed steering
    /// negotiation, §6.3). Excluded configs still participate in
    /// optimality comparisons, exactly like the unmemoized code path.
    eligible: Vec<bool>,
    /// probe point -> predictions for each config (parallel to `configs`).
    memo: HashMap<Vec<u64>, Vec<Option<QosReport>>>,
}

/// What the selection loop settled: the winning candidate's index into
/// `ctx.configs`, its rank and prediction, and the context to walk its
/// validity region with.
struct Selected {
    ctx: DecisionCtx,
    chosen: usize,
    rank: usize,
    predicted: QosReport,
}

/// Memo key: the probe's values, bit-exact. All probes within one decision
/// share the key *set* (they are single-axis perturbations of the same
/// center point), so the values alone identify the probe.
fn probe_key(probe: &ResourceVector) -> Vec<u64> {
    probe.iter().map(|(_, v)| v.to_bits()).collect()
}

/// The memoized prediction row for `probe`, computing it on first use.
/// A free function over the memo field (rather than a `DecisionCtx`
/// method) so callers can keep reading `configs`/`eligible` while the row
/// borrow is live.
fn memoized<'m>(
    memo: &'m mut HashMap<Vec<u64>, Vec<Option<QosReport>>>,
    configs: &[Configuration],
    db: &PerfDb,
    input: &str,
    mode: PredictMode,
    probe: &ResourceVector,
) -> &'m [Option<QosReport>] {
    memo.entry(probe_key(probe))
        .or_insert_with(|| configs.iter().map(|c| db.predict(c, input, probe, mode)).collect())
}

impl ResourceScheduler {
    pub fn new(db: PerfDb, prefs: PreferenceList, input: &str) -> Self {
        Self::new_shared(Arc::new(db), prefs, input)
    }

    /// Build a scheduler over a database shared with other schedulers (no
    /// clone of the record store). Attach any [`obs`](Self::set_obs) hook
    /// to the database *before* sharing it: once the `Arc` has multiple
    /// owners, [`set_obs`](Self::set_obs) can no longer reach inside it.
    pub fn new_shared(db: Arc<PerfDb>, prefs: PreferenceList, input: &str) -> Self {
        ResourceScheduler {
            db: Adaptive::new(db),
            db_base_version: 0,
            prefs: Adaptive::new(prefs),
            mode: PredictMode::Interpolate,
            input: input.into(),
            obs: None,
        }
    }

    /// Snapshot of the current performance database. The `Arc` stays
    /// valid across a concurrent refine hot-swap (it just goes stale).
    pub fn db(&self) -> Arc<PerfDb> {
        Arc::clone(self.db.get())
    }

    /// The live-tunable database handle. The refine engine
    /// (`crate::refine`) publishes re-profiled databases through this
    /// handle; the next decision picks them up atomically.
    pub fn db_handle(&self) -> Adaptive<Arc<PerfDb>> {
        self.db.clone()
    }

    /// How many times the database has been hot-swapped since this
    /// scheduler was built (0 = never refined).
    pub fn db_version(&self) -> u64 {
        self.db.version().saturating_sub(self.db_base_version)
    }

    /// Snapshot of the current preference list. The reference stays valid
    /// (pointing at the snapshot it was read from) even across a
    /// concurrent [`set_prefs`](Self::set_prefs).
    pub fn prefs(&self) -> &PreferenceList {
        self.prefs.get()
    }

    /// Replace the preference list mid-run; takes effect atomically at the
    /// next decision. Returns the new preference version.
    pub fn set_prefs(&self, prefs: PreferenceList) -> u64 {
        self.prefs.set(prefs)
    }

    /// The live-tunable preference handle, for registering as the
    /// `scheduler.prefs` config knob.
    pub fn prefs_handle(&self) -> Adaptive<PreferenceList> {
        self.prefs.clone()
    }

    /// How many times the preference list has been mutated (0 = never).
    pub fn prefs_version(&self) -> u64 {
        self.prefs.version()
    }

    /// Checked constructor: rejects inputs on which every
    /// [`choose`](ResourceScheduler::choose) would trivially return `None`
    /// (no database records for `input`, or an empty preference list).
    pub fn try_new(db: PerfDb, prefs: PreferenceList, input: &str) -> crate::error::Result<Self> {
        Self::try_new_shared(Arc::new(db), prefs, input)
    }

    /// Checked form of [`new_shared`](ResourceScheduler::new_shared).
    pub fn try_new_shared(
        db: Arc<PerfDb>,
        prefs: PreferenceList,
        input: &str,
    ) -> crate::error::Result<Self> {
        if prefs.prefs.is_empty() {
            return Err(crate::error::Error::EmptyPreferences);
        }
        if db.configs(input).is_empty() {
            return Err(crate::error::Error::EmptyDatabase { input: input.into() });
        }
        Ok(Self::new_shared(db, prefs, input))
    }

    /// Oracle accessor: the keys of every configuration profiled for this
    /// scheduler's input — the legal value set of a `decide` event's
    /// `config` field. A decision naming any other key is a bug, whatever
    /// the resource estimate said.
    pub fn config_keys(&self) -> std::collections::BTreeSet<String> {
        self.db.get().configs(&self.input).iter().map(|c| c.key()).collect()
    }

    /// Oracle accessor: how many preference levels this scheduler ranks
    /// over. `decide` events carry `rank < preference_depth()`.
    pub fn preference_depth(&self) -> usize {
        self.prefs.get().prefs.len()
    }

    pub fn with_mode(mut self, mode: PredictMode) -> Self {
        self.mode = mode;
        self
    }

    /// Time every decision into `obs`'s `"scheduler.choose"` histogram and
    /// every database prediction into `"perfdb.predict"`.
    ///
    /// The prediction span can only be attached while this scheduler is
    /// the database's sole owner; on a shared database (multiple `Arc`
    /// owners), attach the hook via [`PerfDb::set_obs`] before sharing and
    /// this call only wires the decision span.
    pub fn set_obs(&mut self, obs: &obs::Obs) {
        let cur = self.db.get();
        if Arc::strong_count(cur) == 1 {
            // Sole owner: republish a re-hooked copy through the live
            // handle. The republication is bookkeeping, not a refine
            // swap, so the version baseline moves with it and
            // `db_version()` stays 0.
            let mut db = (**cur).clone();
            db.set_obs(obs);
            self.db_base_version = self.db.set(Arc::new(db));
        }
        self.obs =
            Some(SchedObs { obs: obs.clone(), choose_span: obs.histogram("scheduler.choose") });
    }

    /// Builder form of [`set_obs`](ResourceScheduler::set_obs).
    pub fn with_obs(mut self, obs: &obs::Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Choose a configuration for the given measured resources.
    pub fn choose(&self, resources: &ResourceVector) -> Option<Decision> {
        self.choose_excluding(resources, &[])
    }

    /// The selection half of [`choose`](Self::choose) alone: which
    /// configuration wins at `resources`, what the database predicts for
    /// it, and at which preference rank. For callers that never hand the
    /// answer to a monitor (admission pricing reads the key and the rank):
    /// the validity-region walk is most of a decision's cost. Untimed;
    /// `"scheduler.choose"` keeps measuring whole decisions.
    pub fn select(&self, resources: &ResourceVector) -> Option<Selection> {
        let Selected { mut ctx, chosen, rank, predicted } =
            self.select_ctx(&self.db(), self.prefs.get(), resources, &[])?;
        Some(Selection {
            config: ctx.configs.swap_remove(chosen),
            predicted,
            preference_rank: rank,
        })
    }

    /// Choose, excluding configurations that e.g. failed steering-guard
    /// negotiation (§6.3).
    pub fn choose_excluding(
        &self,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Decision> {
        let _span = self.obs.as_ref().map(|h| h.obs.span(h.choose_span));
        // Snapshot version before the list: if a concurrent flip lands in
        // between, we report the older version with the older list rather
        // than a new version number against stale preferences. The same
        // discipline applies to the database: one snapshot per decision,
        // so a racing refine hot-swap never mixes old and new slices
        // within one choice.
        let pref_version = self.prefs.version();
        let prefs = self.prefs.get();
        let db_version = self.db_version();
        let db = self.db();
        let Selected { mut ctx, chosen, rank, predicted } =
            self.select_ctx(&db, prefs, resources, excluded)?;
        let validity =
            self.validity_region_ctx(&db, &mut ctx, chosen, &prefs.prefs[rank], resources);
        Some(Decision {
            config: ctx.configs.swap_remove(chosen),
            predicted,
            preference_rank: rank,
            validity,
            best_effort: false,
            pref_version,
            db_version,
        })
    }

    /// The one selection loop: fetch the candidates, predict the row at
    /// `resources`, and walk the preference ranks until one has a
    /// satisfying eligible candidate, taking that rank's objective-best.
    /// The context comes back with the row memoized, so a region walk
    /// that follows re-predicts nothing at the center point.
    fn select_ctx(
        &self,
        db: &PerfDb,
        prefs: &PreferenceList,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Selected> {
        let configs = db.configs(&self.input);
        let eligible: Vec<bool> = configs.iter().map(|c| !excluded.contains(c)).collect();
        if !eligible.contains(&true) {
            return None;
        }
        let mut ctx = DecisionCtx { configs, eligible, memo: HashMap::new() };
        let preds = memoized(&mut ctx.memo, &ctx.configs, db, &self.input, self.mode, resources);
        let (rank, chosen, predicted) =
            prefs.prefs.iter().enumerate().find_map(|(rank, pref)| {
                let mut best: Option<(usize, &QosReport)> = None;
                for (i, pred) in preds.iter().enumerate() {
                    let Some(pred) = pred else { continue };
                    if ctx.eligible[i]
                        && pref.satisfied_by(pred)
                        && best.is_none_or(|(_, b)| pref.objective.better(pred, b))
                    {
                        best = Some((i, pred));
                    }
                }
                best.map(|(i, pred)| (rank, i, pred.clone()))
            })?;
        Some(Selected { ctx, chosen, rank, predicted })
    }

    /// The best-effort fallback chain: the full preference walk first,
    /// then — when nothing satisfies — the least-violating configuration.
    /// Returns `None` only when no configuration has a prediction at all.
    pub fn choose_best_effort(
        &self,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Decision> {
        self.choose_excluding(resources, excluded)
            .or_else(|| self.choose_least_violating(resources, excluded))
    }

    /// When no configuration satisfies any preference: pick the one with
    /// the smallest total relative constraint violation under the
    /// least-demanding (last) preference, ties broken by that preference's
    /// objective. The decision is marked `best_effort` and carries an
    /// unbounded validity region — the monitor cannot delimit a region in
    /// which a *failing* choice stays best, so the runtime instead keeps
    /// probing the scheduler for recovery while degraded.
    pub fn choose_least_violating(
        &self,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Decision> {
        let pref_version = self.prefs.version();
        let prefs = self.prefs.get();
        let pref = prefs.prefs.last()?;
        let db_version = self.db_version();
        let db = self.db();
        let configs = db.configs(&self.input);
        let mut best: Option<(usize, f64, QosReport)> = None;
        for (i, c) in configs.iter().enumerate() {
            if excluded.contains(c) {
                continue;
            }
            let Some(pred) = db.predict(c, &self.input, resources, self.mode) else {
                continue;
            };
            let score = pref.violation_score(&pred);
            let better = match &best {
                None => true,
                Some((_, s, bp)) => {
                    score < s - 1e-12
                        || ((score - s).abs() <= 1e-12 && pref.objective.better(&pred, bp))
                }
            };
            if better {
                best = Some((i, score, pred));
            }
        }
        let (bi, _, predicted) = best?;
        Some(Decision {
            config: configs[bi].clone(),
            predicted,
            preference_rank: prefs.prefs.len().saturating_sub(1),
            validity: ValidityRegion::unbounded(),
            best_effort: true,
            pref_version,
            db_version,
        })
    }

    /// True when config `chosen` both satisfies `pref` and remains the
    /// best (objective-optimal) satisfying candidate at `probe`.
    fn is_choice_at_ctx(
        &self,
        db: &PerfDb,
        ctx: &mut DecisionCtx,
        chosen: usize,
        pref: &Preference,
        probe: &ResourceVector,
    ) -> bool {
        let preds = memoized(&mut ctx.memo, &ctx.configs, db, &self.input, self.mode, probe);
        let Some(mine) = preds[chosen].as_ref() else {
            return false;
        };
        if !pref.satisfied_by(mine) {
            return false;
        }
        for (i, pred) in preds.iter().enumerate() {
            if i == chosen {
                continue;
            }
            if let Some(pred) = pred {
                if pref.satisfied_by(pred) && pref.objective.better(pred, mine) {
                    return false;
                }
            }
        }
        true
    }

    /// Compute the resource region around `around` within which `config`
    /// remains the scheduler's choice (satisfies `pref` *and* stays
    /// objective-optimal), by walking the database's sampled axis values
    /// outward along each axis (other axes held at `around`). Leaving this
    /// region is exactly the monitoring agent's trigger condition.
    pub fn validity_region(
        &self,
        config: &Configuration,
        pref: &Preference,
        around: &ResourceVector,
    ) -> ValidityRegion {
        let db = self.db();
        let configs = db.configs(&self.input);
        let eligible = vec![true; configs.len()];
        let mut ctx = DecisionCtx { configs, eligible, memo: HashMap::new() };
        // The config under test is usually one of the candidates; when it
        // is not (caller probing a hypothetical), append it so memo rows
        // stay parallel to `ctx.configs`.
        let chosen = match ctx.configs.iter().position(|c| c == config) {
            Some(i) => i,
            None => {
                ctx.configs.push(config.clone());
                ctx.eligible.push(true);
                ctx.configs.len() - 1
            }
        };
        self.validity_region_ctx(&db, &mut ctx, chosen, pref, around)
    }

    fn validity_region_ctx(
        &self,
        db: &PerfDb,
        ctx: &mut DecisionCtx,
        chosen: usize,
        pref: &Preference,
        around: &ResourceVector,
    ) -> ValidityRegion {
        let mut region = ValidityRegion::new();
        let axes = db.axes(&ctx.configs[chosen], &self.input);
        for axis in axes {
            let Some(center) = around.get(&axis) else { continue };
            let samples = db.axis_values(&ctx.configs[chosen], &self.input, &axis);
            if samples.is_empty() {
                continue;
            }
            // One probe buffer per axis: only this axis's value changes
            // during the walk.
            let mut probe = around.clone();
            // Walk down from the center.
            let mut lo = center;
            for &v in samples.iter().rev().filter(|&&v| v <= center) {
                probe.set(axis.clone(), v);
                if self.is_choice_at_ctx(db, ctx, chosen, pref, &probe) {
                    lo = v;
                } else {
                    break;
                }
            }
            // Walk up from the center.
            let mut hi = center;
            for &v in samples.iter().filter(|&&v| v >= center) {
                probe.set(axis.clone(), v);
                if self.is_choice_at_ctx(db, ctx, chosen, pref, &probe) {
                    hi = v;
                } else {
                    break;
                }
            }
            // Extend to the sampled extremes when they satisfy: beyond the
            // sampled range, prediction clamps, so validity extends to
            // infinity on a satisfied edge.
            let (Some(&min_s), Some(&max_s)) = (samples.first(), samples.last()) else {
                continue;
            };
            let lo_bound = if (lo - min_s).abs() < 1e-12 { 0.0 } else { lo };
            let hi_bound = if (hi - max_s).abs() < 1e-12 { f64::INFINITY } else { hi };
            region = region.with_range(axis, lo_bound.min(center), hi_bound.max(center));
        }
        region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ResourceKey;
    use crate::perfdb::PerfRecord;
    use crate::qos::{Constraint, Objective};

    fn cpu() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn net() -> ResourceKey {
        ResourceKey::net("client")
    }

    /// Two configurations with a bandwidth crossover, like Figure 6(a):
    /// lzw sends 2 MB and costs 5 cpu-s; bzip sends 0.4 MB and costs 20
    /// cpu-s. Crossover at net ~ 107 KB/s (cpu = 1).
    fn crossover_db() -> PerfDb {
        let mut db = PerfDb::new();
        for &c in &[1i64, 2] {
            for &cpu_v in &[0.25, 0.5, 1.0] {
                for &net_v in &[50_000.0, 200_000.0, 500_000.0, 1_000_000.0] {
                    let t = if c == 1 {
                        2e6 / net_v + 5.0 / cpu_v
                    } else {
                        0.4e6 / net_v + 20.0 / cpu_v
                    };
                    db.add(PerfRecord {
                        config: Configuration::new(&[("c", c)]),
                        resources: ResourceVector::new(&[(cpu(), cpu_v), (net(), net_v)]),
                        input: "img".into(),
                        metrics: QosReport::new(&[("transmit_time", t), ("resolution", 4.0)]),
                    });
                }
            }
        }
        db
    }

    fn min_time_prefs() -> PreferenceList {
        PreferenceList::single(Preference::new(vec![], Objective::minimize("transmit_time")))
    }

    #[test]
    fn chooses_lzw_at_high_bandwidth() {
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let d = s.choose(&r).unwrap();
        assert_eq!(d.config.get("c"), Some(1), "lzw wins at 1 MB/s");
        assert_eq!(d.preference_rank, 0);
        // The validity region ends where bzip starts winning (between the
        // 50 KB/s and 200 KB/s samples) — exactly the Experiment 1 trigger.
        let (lo, _) = d.validity.ranges[&net()];
        assert!((lo - 200_000.0).abs() < 1.0, "validity low bound {lo}");
        assert!(!d.validity.contains(&ResourceVector::new(&[(cpu(), 1.0), (net(), 50_000.0)])));
    }

    #[test]
    fn chooses_bzip_at_low_bandwidth() {
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 50_000.0)]);
        let d = s.choose(&r).unwrap();
        assert_eq!(d.config.get("c"), Some(2), "bzip wins at 50 KB/s");
    }

    #[test]
    fn constraint_pruning() {
        // Require transmit_time <= 12: at net=500K, cpu=1.0, lzw gives 9,
        // bzip gives 42 -> only lzw qualifies even though we maximize
        // nothing else.
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("transmit_time", 12.0)],
            Objective::maximize("resolution"),
        ));
        let s = ResourceScheduler::new(crossover_db(), prefs, "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 500_000.0)]);
        let d = s.choose(&r).unwrap();
        assert_eq!(d.config.get("c"), Some(1));
    }

    #[test]
    fn falls_back_to_next_preference() {
        // First preference unsatisfiable (transmit_time <= 1), second has
        // no constraints.
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("transmit_time", 1.0)],
            Objective::minimize("transmit_time"),
        ))
        .then(Preference::new(vec![], Objective::minimize("transmit_time")));
        let s = ResourceScheduler::new(crossover_db(), prefs, "img");
        let r = ResourceVector::new(&[(cpu(), 0.25), (net(), 50_000.0)]);
        let d = s.choose(&r).unwrap();
        assert_eq!(d.preference_rank, 1);
    }

    #[test]
    fn no_candidates_returns_none() {
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("transmit_time", 0.001)],
            Objective::minimize("transmit_time"),
        ));
        let s = ResourceScheduler::new(crossover_db(), prefs, "img");
        let r = ResourceVector::new(&[(cpu(), 0.25), (net(), 50_000.0)]);
        assert!(s.choose(&r).is_none());
    }

    #[test]
    fn best_effort_falls_back_to_least_violating() {
        // Impossible constraint everywhere: nothing satisfies, so the
        // fallback ranks configurations by violation size. At cpu=0.25,
        // net=50K: lzw t = 40 + 20 = 60, bzip t = 8 + 80 = 88 — lzw
        // violates `t <= 0.001` less.
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("transmit_time", 0.001)],
            Objective::minimize("transmit_time"),
        ));
        let s = ResourceScheduler::new(crossover_db(), prefs, "img");
        let r = ResourceVector::new(&[(cpu(), 0.25), (net(), 50_000.0)]);
        assert!(s.choose(&r).is_none());
        let d = s.choose_best_effort(&r, &[]).unwrap();
        assert!(d.best_effort);
        assert_eq!(d.config.get("c"), Some(1));
        assert!(d.validity.ranges.is_empty(), "no region can hold a failing choice");
        // Exclusions are honored in the fallback too.
        let lzw = Configuration::new(&[("c", 1)]);
        let d2 = s.choose_best_effort(&r, &[lzw]).unwrap();
        assert!(d2.best_effort);
        assert_eq!(d2.config.get("c"), Some(2));
        // A satisfiable preference passes through the chain unmarked.
        let s2 = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let hi = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let d3 = s2.choose_best_effort(&hi, &[]).unwrap();
        assert!(!d3.best_effort);
    }

    #[test]
    fn exclusion_forces_alternative() {
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let lzw = Configuration::new(&[("c", 1)]);
        let d = s.choose_excluding(&r, &[lzw]).unwrap();
        assert_eq!(d.config.get("c"), Some(2));
    }

    #[test]
    fn interpolated_point_between_grid() {
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        // net = 300 KB/s is between samples; lzw ~11.7s, bzip ~43.3s at cpu 1.
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 300_000.0)]);
        let d = s.choose(&r).unwrap();
        assert_eq!(d.config.get("c"), Some(1));
        let t = d.predicted.get("transmit_time").unwrap();
        assert!(t > 9.0 && t < 16.0, "interpolated {t}");
    }

    #[test]
    fn validity_region_shrinks_with_constraints() {
        // transmit_time <= 15 with lzw at cpu=1: t = 2e6/net + 5, needs
        // net >= 200K. The region's net range must exclude 50K.
        let prefs = PreferenceList::single(Preference::new(
            vec![Constraint::at_most("transmit_time", 15.0)],
            Objective::minimize("transmit_time"),
        ));
        let s = ResourceScheduler::new(crossover_db(), prefs, "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 500_000.0)]);
        let d = s.choose(&r).unwrap();
        let (lo, hi) = d.validity.ranges[&net()];
        assert!(lo >= 200_000.0 - 1.0, "low bound {lo}");
        assert!(hi.is_infinite(), "satisfied at the top sample -> unbounded");
        // The monitor would trigger at 50 KB/s.
        let low_bw = ResourceVector::new(&[(net(), 50_000.0), (cpu(), 1.0)]);
        assert!(!d.validity.contains(&low_bw));
    }

    #[test]
    fn unconstrained_objective_has_wide_validity() {
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let r = ResourceVector::new(&[(cpu(), 0.5), (net(), 500_000.0)]);
        let d = s.choose(&r).unwrap();
        // No constraints: every sampled point satisfies, so ranges span
        // everything.
        let (lo, hi) = d.validity.ranges[&cpu()];
        assert_eq!(lo, 0.0);
        assert!(hi.is_infinite());
    }

    #[test]
    fn validity_region_standalone_matches_decision() {
        // The public validity_region entry point (fresh memo, config
        // looked up or appended) must agree with the region computed
        // inside choose().
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let d = s.choose(&r).unwrap();
        let standalone = s.validity_region(&d.config, &s.prefs().prefs[0], &r);
        assert_eq!(d.validity.ranges, standalone.ranges);
        // A config absent from the database yields an empty region.
        let ghost = Configuration::new(&[("c", 99)]);
        let empty = s.validity_region(&ghost, &s.prefs().prefs[0], &r);
        assert!(empty.ranges.is_empty());
    }
}
