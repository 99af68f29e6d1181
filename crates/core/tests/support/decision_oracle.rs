//! The scheduler's decision as it was computed on whole `QosReport`s,
//! kept as the reference `ResourceScheduler` is tested against. Every
//! prediction goes through a [`Lookup`] ([`interpolate`], which is the
//! public `PerfDb::predict`, or a test-local lookup such as the
//! ablation's nearest record), every candidate list through
//! `PerfDb::configs`, and each probe predicts every configuration before
//! it compares, so the oracle shares no decision code with the scheduler.
//!
//! Included as a module by `tests/properties.rs` and by
//! `crates/bench/tests/{ablations,overhead_floors}.rs`; each parent
//! imports the model types it names.

use std::collections::HashMap;

use super::{
    Configuration, PerfDb, PredictMode, Preference, PreferenceList, QosReport, ResourceKey,
    ResourceVector, ValidityRegion,
};

/// What the scheduler's selection settles: configuration, prediction,
/// preference rank.
pub type Chosen = (Configuration, QosReport, usize);

/// How the oracle predicts one configuration at one point.
pub type Lookup = fn(&PerfDb, &Configuration, &str, &ResourceVector) -> Option<QosReport>;

/// The database's own prediction, the one every scheduler decision uses.
pub fn interpolate(
    db: &PerfDb,
    config: &Configuration,
    input: &str,
    at: &ResourceVector,
) -> Option<QosReport> {
    db.predict(config, input, at, PredictMode::Interpolate)
}

/// One input's candidates and a memo of whole prediction rows by probe.
pub struct Oracle<'a> {
    db: &'a PerfDb,
    input: &'a str,
    lookup: Lookup,
    configs: Vec<Configuration>,
    memo: HashMap<Vec<u64>, Vec<Option<QosReport>>>,
}

impl<'a> Oracle<'a> {
    pub fn new(db: &'a PerfDb, input: &'a str, lookup: Lookup) -> Self {
        Oracle { db, input, lookup, configs: db.configs(input), memo: HashMap::new() }
    }

    /// Every configuration's prediction at `probe`.
    fn row(&mut self, probe: &ResourceVector) -> &[Option<QosReport>] {
        let key = probe.iter().map(|(_, v)| v.to_bits()).collect();
        let (db, input, lookup, configs) = (self.db, self.input, self.lookup, &self.configs);
        self.memo
            .entry(key)
            .or_insert_with(|| configs.iter().map(|c| lookup(db, c, input, probe)).collect())
    }

    /// The first satisfiable rank's objective-best eligible configuration.
    pub fn select(
        &mut self,
        prefs: &PreferenceList,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Chosen> {
        let eligible: Vec<bool> = self.configs.iter().map(|c| !excluded.contains(c)).collect();
        if !eligible.contains(&true) {
            return None;
        }
        let configs = self.configs.clone();
        let preds = self.row(resources);
        prefs.prefs.iter().enumerate().find_map(|(rank, pref)| {
            let mut best: Option<(usize, &QosReport)> = None;
            for (i, pred) in preds.iter().enumerate() {
                let Some(pred) = pred else { continue };
                if eligible[i]
                    && pref.satisfied_by(pred)
                    && best.is_none_or(|(_, b)| pref.objective.better(pred, b))
                {
                    best = Some((i, pred));
                }
            }
            best.map(|(i, pred)| (configs[i].clone(), pred.clone(), rank))
        })
    }

    /// Selection, then the winner's validity region.
    pub fn choose_excluding(
        &mut self,
        prefs: &PreferenceList,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<(Chosen, ValidityRegion)> {
        let chosen = self.select(prefs, resources, excluded)?;
        let region = self.validity_region(&chosen.0, &prefs.prefs[chosen.2], resources);
        Some((chosen, region))
    }

    /// The least-violating configuration under the last preference, ties
    /// broken by its objective.
    pub fn least_violating(
        &mut self,
        prefs: &PreferenceList,
        resources: &ResourceVector,
        excluded: &[Configuration],
    ) -> Option<Chosen> {
        let pref = prefs.prefs.last()?;
        let mut best: Option<(usize, f64, QosReport)> = None;
        for (i, c) in self.configs.iter().enumerate() {
            if excluded.contains(c) {
                continue;
            }
            let Some(pred) = (self.lookup)(self.db, c, self.input, resources) else {
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
        let (i, _, predicted) = best?;
        Some((self.configs[i].clone(), predicted, prefs.prefs.len() - 1))
    }

    /// True when configuration `chosen` satisfies `pref` and no other
    /// configuration that satisfies it is better at `probe`.
    fn is_choice_at(&mut self, chosen: usize, pref: &Preference, probe: &ResourceVector) -> bool {
        let preds = self.row(probe);
        let Some(mine) = preds[chosen].as_ref() else {
            return false;
        };
        if !pref.satisfied_by(mine) {
            return false;
        }
        !preds.iter().enumerate().any(|(i, pred)| {
            i != chosen
                && pred
                    .as_ref()
                    .is_some_and(|p| pref.satisfied_by(p) && pref.objective.better(p, mine))
        })
    }

    /// The sorted distinct values `config`'s records sampled along `axis`.
    fn sampled(&self, config: &Configuration, axis: &ResourceKey) -> Vec<f64> {
        let mut vals: Vec<f64> = (self.db.records().iter())
            .filter(|r| r.config == *config && r.input == self.input)
            .filter_map(|r| r.resources.get(axis))
            .collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        vals.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        vals
    }

    /// Walk each of `config`'s sampled axes outward from `around` and stop
    /// at the first sample where it is no longer the choice.
    pub fn validity_region(
        &mut self,
        config: &Configuration,
        pref: &Preference,
        around: &ResourceVector,
    ) -> ValidityRegion {
        let chosen = match self.configs.iter().position(|c| c == config) {
            Some(i) => i,
            None => {
                self.configs.push(config.clone());
                self.memo.clear();
                self.configs.len() - 1
            }
        };
        let mut region = ValidityRegion::new();
        for axis in self.db.axes(config, self.input) {
            let Some(center) = around.get(&axis) else { continue };
            let samples = self.sampled(config, &axis);
            let (Some(&min_s), Some(&max_s)) = (samples.first(), samples.last()) else {
                continue;
            };
            let mut probe = around.clone();
            let mut lo = center;
            for &v in samples.iter().rev().filter(|&&v| v <= center) {
                probe.set(axis.clone(), v);
                if !self.is_choice_at(chosen, pref, &probe) {
                    break;
                }
                lo = v;
            }
            let mut hi = center;
            for &v in samples.iter().filter(|&&v| v >= center) {
                probe.set(axis.clone(), v);
                if !self.is_choice_at(chosen, pref, &probe) {
                    break;
                }
                hi = v;
            }
            let lo_bound = if (lo - min_s).abs() < 1e-12 { 0.0 } else { lo };
            let hi_bound = if (hi - max_s).abs() < 1e-12 { f64::INFINITY } else { hi };
            region = region.with_range(axis, lo_bound.min(center), hi_bound.max(center));
        }
        region
    }
}
