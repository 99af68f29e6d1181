//! The resource scheduler: selects the configuration best satisfying user
//! preferences under measured resource conditions.
//!
//! §6.2: "the measured resource characteristics and required user
//! preferences (expressed as allowable value ranges on application quality
//! metrics) are used to prune candidate configurations. Of the
//! configurations that remain, a simple multidimensional optimization
//! approach is used to pick the one that best satisfies the user-specified
//! objective (...). When resource conditions do not fit the records in
//! the performance database, interpolation (or even extrapolation) of the
//! representative data is used ... If no candidate configurations exist,
//! the next preferred user constraint is examined."
//!
//! # Decision context
//!
//! One decision probes the database heavily: the validity-region walk
//! re-evaluates "is `config` still the best choice?" at every sampled
//! axis value. A `DecisionCtx` takes one snapshot of the database index
//! for the whole decision and works on candidate positions and flat
//! metric rows; a `Configuration` is cloned for the winner and a
//! `QosReport` built for its prediction only when the answer leaves the
//! scheduler. Each preference is resolved to row columns once. The
//! selection predicts every candidate at the measured point and keeps
//! that row for the walk, which revisits the point on every axis. A
//! region probe predicts `config` first and then the other candidates
//! one at a time, and stops at the first that satisfies the preference
//! and beats it: a check costs as many predictions as it takes to lose,
//! and only a check that holds predicts every candidate. A decision is
//! those two halves in order: `choose_excluding` = selection + region;
//! [`ResourceScheduler::select`] is the selection alone, for callers
//! that need no region.

use std::sync::Arc;

use obs::Adaptive;

use crate::env::ResourceVector;
use crate::monitor::ValidityRegion;
use crate::param::Configuration;
use crate::perfdb::{Candidates, PerfDb};
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
    /// Hot-swaps of this scheduler's database handle before this
    /// decision (0 = never swapped). No run swaps a live scheduler's
    /// handle yet, so this is 0 outside unit tests (see `crate::refine`).
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
    /// decision snapshots it once (one `Arc` clone), so a refine
    /// hot-swap (an `Adaptive::set` of this handle) takes
    /// effect atomically at the next decision: a racing swap yields a
    /// decision priced wholly against the old or wholly against the new
    /// database, never a mix of slices.
    db: Adaptive<Arc<PerfDb>>,
    /// User preferences behind a live-tunable handle: register it (via
    /// [`prefs_handle`](Self::prefs_handle)) as the `scheduler.prefs`
    /// config knob and a `Command::Set` re-ranks preferences mid-run.
    /// Decisions snapshot the list once per `choose`, so a racing flip
    /// yields either wholly-old or wholly-new rankings, never a mix.
    prefs: Adaptive<Arc<PreferenceList>>,
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

/// Per-decision working state: the input's candidates (one index
/// snapshot per decision) and their predictions at the decision's point
/// and at the region walk's current probe.
struct DecisionCtx {
    cands: Candidates,
    /// False for configurations excluded from selection (failed steering
    /// negotiation, §6.3). Excluded candidates still compete in
    /// optimality checks.
    eligible: Vec<bool>,
    /// Predictions at the point the decision is made for.
    center: Probe,
    /// Predictions at the region walk's current probe.
    probe: Probe,
}

impl DecisionCtx {
    fn new(cands: Candidates, eligible: Vec<bool>) -> Self {
        let (center, probe) = (Probe::new(&cands), Probe::new(&cands));
        DecisionCtx { cands, eligible, center, probe }
    }
}

/// Every candidate's metric row at one point, each predicted on first
/// use: candidate `i`'s row is `rows[i * width..][..width]` once
/// `done[i]`.
struct Probe {
    rows: Vec<f64>,
    done: Vec<bool>,
    width: usize,
}

impl Probe {
    fn new(cands: &Candidates) -> Self {
        let width = cands.metric_names().len();
        Probe { rows: vec![f64::NAN; cands.len() * width], done: vec![false; cands.len()], width }
    }

    /// Predict candidate `i` at `at` unless it already is.
    fn fill(&mut self, cands: &Candidates, at: &ResourceVector, i: usize) {
        if !self.done[i] {
            cands.predict_into(i, at, &mut self.rows[i * self.width..(i + 1) * self.width]);
            self.done[i] = true;
        }
    }

    /// Forget every prediction, for a new point.
    fn clear(&mut self) {
        self.done.fill(false);
    }

    fn row(&self, i: usize) -> &[f64] {
        debug_assert!(self.done[i], "candidate {i} read before it was predicted");
        &self.rows[i * self.width..(i + 1) * self.width]
    }
}

/// A preference with its metrics resolved to row columns: the rules are
/// `Constraint`'s and `Objective`'s own, applied to row values.
struct Resolved<'p> {
    pref: &'p Preference,
    /// Column of each constraint's metric, parallel to
    /// `pref.constraints`; `None` when no candidate reports it.
    constraints: Vec<Option<usize>>,
    objective: Option<usize>,
}

impl<'p> Resolved<'p> {
    fn new(pref: &'p Preference, cands: &Candidates) -> Self {
        Resolved {
            pref,
            constraints: pref.constraints.iter().map(|c| cands.column(&c.metric)).collect(),
            objective: cands.column(&pref.objective.metric),
        }
    }

    fn satisfied_by(&self, row: &[f64]) -> bool {
        let mut cols = self.pref.constraints.iter().zip(&self.constraints);
        cols.all(|(c, &col)| c.admits(value(row, col)))
    }

    fn better(&self, a: &[f64], b: &[f64]) -> bool {
        self.pref.objective.better_value(value(a, self.objective), value(b, self.objective))
    }

    /// `Preference::violation_score` of the row.
    fn violation_score(&self, row: &[f64]) -> f64 {
        let cols = self.pref.constraints.iter().zip(&self.constraints);
        cols.map(|(c, &col)| c.violation_of(value(row, col))).sum()
    }
}

/// A row's value in column `col`; NaN marks an absent metric.
fn value(row: &[f64], col: Option<usize>) -> Option<f64> {
    col.map(|c| row[c]).filter(|v| !v.is_nan())
}

/// What the selection loop settled: the winning candidate's position,
/// its rank, and the context to walk its validity region with.
struct Selected {
    ctx: DecisionCtx,
    chosen: usize,
    rank: usize,
}

impl Selected {
    /// The winner's prediction at the decision's point.
    fn predicted(&self) -> QosReport {
        self.ctx.cands.report(self.ctx.center.row(self.chosen))
    }
}

impl ResourceScheduler {
    pub fn new(db: PerfDb, prefs: PreferenceList, input: &str) -> Self {
        Self::new_shared(Arc::new(db), prefs, input)
    }

    /// Build a scheduler over a database shared with other schedulers (no
    /// clone of the record store).
    pub fn new_shared(db: Arc<PerfDb>, prefs: PreferenceList, input: &str) -> Self {
        ResourceScheduler {
            db: Adaptive::new(db),
            prefs: Adaptive::new(Arc::new(prefs)),
            input: input.into(),
            obs: None,
        }
    }

    /// A snapshot of the current performance database. The `Arc` stays
    /// valid across a concurrent refine hot-swap (it just goes stale).
    pub fn db(&self) -> Arc<PerfDb> {
        self.db.get()
    }

    /// How many times the database has been hot-swapped since this
    /// scheduler was built (0 = never refined).
    pub(crate) fn db_version(&self) -> u64 {
        self.db.version()
    }

    /// A snapshot of the current preference list. The `Arc` stays valid
    /// across a concurrent `Command::Set` of `scheduler.prefs` (it just
    /// goes stale).
    pub fn prefs(&self) -> Arc<PreferenceList> {
        self.prefs.get()
    }

    /// The live-tunable preference handle, for registering as the
    /// `scheduler.prefs` config knob.
    pub(crate) fn prefs_handle(&self) -> Adaptive<Arc<PreferenceList>> {
        self.prefs.clone()
    }

    /// Checked constructor: rejects inputs on which every
    /// [`choose`](ResourceScheduler::choose) would trivially return `None`
    /// (no database records for `input`, or an empty preference list).
    pub fn try_new(db: PerfDb, prefs: PreferenceList, input: &str) -> crate::error::Result<Self> {
        if prefs.prefs.is_empty() {
            return Err(crate::error::Error::EmptyPreferences);
        }
        if db.configs(input).is_empty() {
            return Err(crate::error::Error::EmptyDatabase { input: input.into() });
        }
        Ok(Self::new(db, prefs, input))
    }

    /// Oracle accessor: how many preference levels this scheduler ranks
    /// over. `decide` events carry `rank < preference_depth()`.
    pub fn preference_depth(&self) -> usize {
        self.prefs.get().prefs.len()
    }

    /// Time every decision into `obs`'s `"scheduler.choose"` histogram.
    /// The database is left as it is: a prediction is timed only as part
    /// of the decision that makes it.
    pub fn set_obs(&mut self, obs: &obs::Obs) {
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
        let db = self.db();
        let sel = self.select_ctx(&db, &self.prefs(), resources, &[])?;
        Some(Selection {
            config: sel.ctx.cands.config(sel.chosen).clone(),
            predicted: sel.predicted(),
            preference_rank: sel.rank,
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
        // Read the version before the list: if a concurrent flip lands in
        // between, we report the older version with the older list rather
        // than a new version number against stale preferences. The same
        // discipline applies to the database: one snapshot per decision,
        // so a racing refine hot-swap never mixes old and new slices
        // within one choice.
        let pref_version = self.prefs.version();
        let prefs = self.prefs.get();
        let db_version = self.db_version();
        let db = self.db();
        let mut sel = self.select_ctx(&db, &prefs, resources, excluded)?;
        let validity =
            validity_region_ctx(&mut sel.ctx, sel.chosen, &prefs.prefs[sel.rank], resources);
        Some(Decision {
            config: sel.ctx.cands.config(sel.chosen).clone(),
            predicted: sel.predicted(),
            preference_rank: sel.rank,
            validity,
            best_effort: false,
            pref_version,
            db_version,
        })
    }

    /// The one selection loop: predict every candidate at `resources`,
    /// and walk the preference ranks until one has a satisfying eligible
    /// candidate, taking that rank's objective-best. The context comes
    /// back with the row kept, so a region walk that follows re-predicts
    /// nothing at the center point.
    fn select_ctx(
        &self,
        db: &PerfDb,
        prefs: &PreferenceList,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Selected> {
        let cands = db.candidates(&self.input)?;
        let eligible: Vec<bool> =
            (0..cands.len()).map(|i| !excluded.contains(cands.config(i))).collect();
        if !eligible.contains(&true) {
            return None;
        }
        let mut ctx = DecisionCtx::new(cands, eligible);
        for i in 0..ctx.cands.len() {
            ctx.center.fill(&ctx.cands, resources, i);
        }
        let (rank, chosen) = prefs.prefs.iter().enumerate().find_map(|(rank, pref)| {
            let pref = Resolved::new(pref, &ctx.cands);
            let mut best: Option<usize> = None;
            for i in (0..ctx.cands.len()).filter(|&i| ctx.eligible[i]) {
                let row = ctx.center.row(i);
                if pref.satisfied_by(row)
                    && best.is_none_or(|b| pref.better(row, ctx.center.row(b)))
                {
                    best = Some(i);
                }
            }
            best.map(|i| (rank, i))
        })?;
        Some(Selected { ctx, chosen, rank })
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
        let cands = db.candidates(&self.input)?;
        let pref = Resolved::new(pref, &cands);
        let mut preds = Probe::new(&cands);
        let mut best: Option<(usize, f64)> = None;
        for i in 0..cands.len() {
            if excluded.contains(cands.config(i)) {
                continue;
            }
            preds.fill(&cands, resources, i);
            let score = pref.violation_score(preds.row(i));
            let better = match best {
                None => true,
                Some((b, s)) => {
                    score < s - 1e-12
                        || ((score - s).abs() <= 1e-12 && pref.better(preds.row(i), preds.row(b)))
                }
            };
            if better {
                best = Some((i, score));
            }
        }
        let (bi, _) = best?;
        Some(Decision {
            config: cands.config(bi).clone(),
            predicted: cands.report(preds.row(bi)),
            preference_rank: prefs.prefs.len().saturating_sub(1),
            validity: ValidityRegion::unbounded(),
            best_effort: true,
            pref_version,
            db_version,
        })
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
        let Some(cands) = db.candidates(&self.input) else {
            return ValidityRegion::new();
        };
        // A configuration never profiled for the input has no sampled
        // axis to walk.
        let Some(chosen) = (0..cands.len()).position(|i| cands.config(i) == config) else {
            return ValidityRegion::new();
        };
        let eligible = vec![true; cands.len()];
        validity_region_ctx(&mut DecisionCtx::new(cands, eligible), chosen, pref, around)
    }
}

/// The region walk of [`ResourceScheduler::validity_region`], for candidate
/// `chosen` over a decision's context.
fn validity_region_ctx(
    ctx: &mut DecisionCtx,
    chosen: usize,
    pref: &Preference,
    around: &ResourceVector,
) -> ValidityRegion {
    let DecisionCtx { cands, center, probe, .. } = ctx;
    let pref = Resolved::new(pref, cands);
    let mut region = ValidityRegion::new();
    // One probe buffer for the walk: only the walked axis's value
    // differs from `around`, and it is put back after each axis.
    let mut at = around.clone();
    for (axis, samples) in cands.axes(chosen) {
        let Some(c) = around.get(axis) else { continue };
        let (Some(&min_s), Some(&max_s)) = (samples.first(), samples.last()) else {
            continue;
        };
        let mut holds = |v: f64| {
            if v.to_bits() == c.to_bits() {
                // The decision's own point: the selection predicted
                // this row already.
                return is_choice_at(cands, center, chosen, &pref, around);
            }
            at.set(axis.clone(), v);
            probe.clear();
            is_choice_at(cands, probe, chosen, &pref, &at)
        };
        // Walk down, then up, from the center.
        let lo = samples.iter().rev().filter(|&&v| v <= c).take_while(|&&v| holds(v)).last();
        let hi = samples.iter().filter(|&&v| v >= c).take_while(|&&v| holds(v)).last();
        at.set(axis.clone(), c);
        let (lo, hi) = (lo.copied().unwrap_or(c), hi.copied().unwrap_or(c));
        // Extend to the sampled extremes when they satisfy: beyond the
        // sampled range, prediction clamps, so validity extends to
        // infinity on a satisfied edge.
        let lo_bound = if (lo - min_s).abs() < 1e-12 { 0.0 } else { lo };
        let hi_bound = if (hi - max_s).abs() < 1e-12 { f64::INFINITY } else { hi };
        region = region.with_range(axis.clone(), lo_bound.min(c), hi_bound.max(c));
    }
    region
}

/// True when candidate `chosen` satisfies `pref` and no other candidate
/// that satisfies it is better at `at`. Predicts `chosen` first, then the
/// others in index order, and answers at the first that beats it.
fn is_choice_at(
    cands: &Candidates,
    preds: &mut Probe,
    chosen: usize,
    pref: &Resolved,
    at: &ResourceVector,
) -> bool {
    preds.fill(cands, at, chosen);
    if !pref.satisfied_by(preds.row(chosen)) {
        return false;
    }
    (0..cands.len()).filter(|&i| i != chosen).all(|i| {
        preds.fill(cands, at, i);
        let other = preds.row(i);
        !(pref.satisfied_by(other) && pref.better(other, preds.row(chosen)))
    })
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
    fn set_obs_hooks_only_a_database_it_owns_alone() {
        // A bus times decisions only: even a database this scheduler owns
        // alone is left as it is, so the handle's version counts refine
        // swaps and nothing else.
        let r = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let obs = obs::Obs::new();
        let s = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img").with_obs(&obs);
        let db = s.db();
        s.choose(&r).unwrap();
        assert!(Arc::ptr_eq(&s.db(), &db), "attaching a bus republishes nothing");
        let choose = obs.lookup("scheduler.choose").expect("registered by set_obs");
        assert_eq!(obs.histogram_stats(choose).count, 1);
        assert_eq!(s.db_version(), 0, "attaching a bus is not a refine swap");
        s.db.set(Arc::new(crossover_db()));
        assert_eq!(s.db_version(), 1, "a swap of the handle is a refine swap");
        assert_eq!(s.choose(&r).unwrap().db_version, 1, "and stamps the next decision");
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
        let d = s.choose_least_violating(&r, &[]).unwrap();
        assert!(d.best_effort);
        assert_eq!(d.config.get("c"), Some(1));
        assert!(d.validity.ranges.is_empty(), "no region can hold a failing choice");
        // Exclusions are honored in the fallback too.
        let lzw = Configuration::new(&[("c", 1)]);
        let d2 = s.choose_least_violating(&r, &[lzw]).unwrap();
        assert!(d2.best_effort);
        assert_eq!(d2.config.get("c"), Some(2));
        // A satisfiable preference is answered by `choose`, unmarked.
        let s2 = ResourceScheduler::new(crossover_db(), min_time_prefs(), "img");
        let hi = ResourceVector::new(&[(cpu(), 1.0), (net(), 1_000_000.0)]);
        let d3 = s2.choose(&hi).unwrap();
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
