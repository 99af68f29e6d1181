//! The performance database: profile-based models of configuration
//! behavior.
//!
//! §5: "for each application configuration, we measure the achieved
//! quality metrics for a sampling of different resource conditions, and
//! interpolate these measurements to get performance curves". Records map
//! `(configuration, input, resource vector) -> quality metrics`;
//! [`PerfDb::predict`] answers point queries by exact lookup, multilinear
//! interpolation over the sampled grid (with clamping extrapolation), or
//! nearest-record matching (the mode the paper's early prototype used,
//! §7.1 — kept for the ablation benchmarks).
//!
//! # Query index
//!
//! The monitoring agent re-consults the database every 10 ms (§6.1), so
//! point queries must not scan the record list. The database therefore
//! maintains a lazily built `Index`:
//!
//! - configurations and workload inputs are **interned** once into dense
//!   ids (no per-record key cloning on queries);
//! - records are grouped into per-`(config, input)` **slices**, each with
//!   its sorted distinct axis grid, per-axis scales, and metric-name union
//!   precomputed;
//! - when a slice's full-signature records form a rectangular grid, a
//!   **lattice** (dense cell table, or a hash table for huge grids) maps
//!   grid positions to records, so interpolation is a per-axis binary
//!   search plus a 2^d-corner blend instead of a full scan.
//!
//! The index is invalidated by a dirty flag on every mutation
//! ([`PerfDb::add`], [`PerfDb::prune_dominated`], [`PerfDb::merge_similar`])
//! and rebuilt on the next query, so the profiler's write-heavy phase
//! stays O(1) per insert. The tests hold every indexed answer to the
//! linear scan it replaced (`tests/support/scan_oracle.rs`).
//!
//! The §5 footnote's "maximal subset" is implemented by
//! [`PerfDb::prune_dominated`] (keep configurations that outperform all
//! others under at least one sampled resource situation) and
//! [`PerfDb::merge_similar`] (merge configurations with everywhere-similar
//! behavior).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, RwLock};

use obs::det::Fnv64;
use obs::json::{self, Json};

use crate::env::{ResourceKey, ResourceKind, ResourceVector};
use crate::param::Configuration;
use crate::qos::{QosReport, Sense};

/// One profiled measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfRecord {
    pub config: Configuration,
    /// Resource conditions the testbed enforced for this run.
    pub resources: ResourceVector,
    /// Workload identifier (the paper treats input as one more control
    /// parameter; a string key keeps it open-ended).
    pub input: String,
    pub metrics: QosReport,
}

/// Prediction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictMode {
    /// Best-matching discrete record (the paper's implemented prototype).
    Nearest,
    /// Multilinear interpolation over the sampled grid, clamping outside
    /// the sampled range; falls back to inverse-distance weighting where
    /// the grid is incomplete.
    Interpolate,
}

/// Tolerance when matching axis coordinates.
const AXIS_TOL: f64 = 1e-9;

/// Lattices with at most this many cells use a flat vector; larger
/// (sparse) grids fall back to a hash table keyed by cell id.
const DENSE_CELL_CAP: u128 = 1 << 16;

/// Grids with more cells than this are not addressed at all (corner
/// lookups scan the slice); far beyond any realistic profile sweep.
const ADDRESSABLE_CELL_CAP: u128 = 1 << 40;

/// Sentinel for an unfilled dense lattice cell.
const EMPTY_CELL: u32 = u32::MAX;

/// The profile database.
///
/// ```
/// use adapt_core::{Configuration, PerfDb, PerfRecord, PredictMode,
///                  QosReport, ResourceKey, ResourceVector};
///
/// let mut db = PerfDb::new();
/// let cpu = ResourceKey::cpu("client");
/// for share in [0.25, 0.5, 1.0] {
///     db.add(PerfRecord {
///         config: Configuration::new(&[("l", 4)]),
///         resources: ResourceVector::new(&[(cpu.clone(), share)]),
///         input: "img".into(),
///         metrics: QosReport::new(&[("transmit_time", 2.0 / share)]),
///     });
/// }
/// // Interpolated prediction between the sampled shares:
/// let q = ResourceVector::new(&[(cpu, 0.75)]);
/// let p = db
///     .predict(&Configuration::new(&[("l", 4)]), "img", &q, PredictMode::Interpolate)
///     .unwrap();
/// let t = p.get("transmit_time").unwrap();
/// assert!(t > 2.0 && t < 4.0);
/// ```
#[derive(Debug, Default)]
pub struct PerfDb {
    records: Vec<PerfRecord>,
    /// Lazily built query index; `None` means dirty. Interior mutability
    /// lets `&self` queries build it on demand; any mutation resets it.
    index: RwLock<Option<Arc<Index>>>,
    /// Optional profiling hook timing every `predict` call.
    obs: Option<ObsHook>,
}

/// Pre-registered span target so the `predict` hot path stays
/// allocation-free.
#[derive(Debug, Clone)]
struct ObsHook {
    obs: obs::Obs,
    predict_span: obs::MetricId,
}

impl Clone for PerfDb {
    fn clone(&self) -> Self {
        PerfDb {
            records: self.records.clone(),
            // The index is immutable once built, so clones can share it.
            index: RwLock::new(self.index.read().expect("index lock poisoned").clone()),
            obs: self.obs.clone(),
        }
    }
}

impl PerfDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record every [`predict`](PerfDb::predict) call's wall-clock latency
    /// into `obs`'s `"perfdb.predict"` histogram.
    pub fn set_obs(&mut self, obs: &obs::Obs) {
        self.obs =
            Some(ObsHook { obs: obs.clone(), predict_span: obs.histogram("perfdb.predict") });
    }

    /// Builder form of [`set_obs`](PerfDb::set_obs).
    pub fn with_obs(mut self, obs: &obs::Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// Insert one record. O(1): the index is only marked dirty and rebuilt
    /// lazily on the next query, keeping profiling sweeps cheap.
    pub fn add(&mut self, rec: PerfRecord) {
        self.records.push(rec);
        self.invalidate();
    }

    /// Replace every record of the `(config, input)` slice with `recs` —
    /// the hot-swap primitive behind targeted re-profiling (see
    /// `crate::refine`). Records of other slices keep their relative
    /// order; the replacement slice is appended, and the index is only
    /// marked dirty, so queries rebuild it lazily exactly as after
    /// [`add`](PerfDb::add). Returns `(removed, added)` record counts.
    ///
    /// Replacement records whose `config`/`input` disagree with the slice
    /// being swapped would silently grow *other* slices, so they are
    /// rejected with a panic — re-profiling always resamples the slice it
    /// was asked to refresh.
    pub fn swap_slice(
        &mut self,
        config: &Configuration,
        input: &str,
        recs: Vec<PerfRecord>,
    ) -> (usize, usize) {
        for r in &recs {
            assert!(
                r.config == *config && r.input == input,
                "swap_slice: replacement record for ({}, {}) handed to slice ({}, {})",
                r.config.key(),
                r.input,
                config.key(),
                input
            );
        }
        let before = self.records.len();
        self.records.retain(|r| !(r.input == input && r.config == *config));
        let removed = before - self.records.len();
        let added = recs.len();
        self.records.extend(recs);
        self.invalidate();
        (removed, added)
    }

    fn invalidate(&mut self) {
        *self.index.get_mut().expect("index lock poisoned") = None;
    }

    /// The current index, building it if the database changed.
    fn index(&self) -> Arc<Index> {
        if let Some(idx) = self.index.read().expect("index lock poisoned").as_ref() {
            return Arc::clone(idx);
        }
        let built = Arc::new(Index::build(&self.records));
        let mut slot = self.index.write().expect("index lock poisoned");
        // A concurrent reader may have built it first; both are equivalent.
        if slot.is_none() {
            *slot = Some(built);
        }
        Arc::clone(slot.as_ref().expect("index just stored"))
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    pub fn records(&self) -> &[PerfRecord] {
        &self.records
    }

    /// Distinct configurations profiled for `input`, in first-appearance
    /// order. Served from the index's interned set: one clone per distinct
    /// configuration, not per record.
    pub fn configs(&self, input: &str) -> Vec<Configuration> {
        let idx = self.index();
        let Some(&iid) = idx.input_ids.get(input) else {
            return Vec::new();
        };
        idx.configs_by_input[iid as usize]
            .iter()
            .map(|&cid| idx.configs[cid as usize].clone())
            .collect()
    }

    /// Distinct workload inputs present, sorted.
    pub fn inputs(&self) -> Vec<String> {
        let idx = self.index();
        let mut out = idx.inputs.clone();
        out.sort();
        out
    }

    /// Records profiled for `(config, input)`, in insertion order.
    pub fn records_for(&self, config: &Configuration, input: &str) -> Vec<&PerfRecord> {
        let idx = self.index();
        match idx.slice(config, input) {
            Some(s) => s.recs.iter().map(|&ri| &self.records[ri as usize]).collect(),
            None => Vec::new(),
        }
    }

    /// Sorted distinct values sampled along `axis` for `(config, input)`.
    pub fn axis_values(&self, config: &Configuration, input: &str, axis: &ResourceKey) -> Vec<f64> {
        let idx = self.index();
        idx.slice(config, input)
            .and_then(|s| s.axes.binary_search(axis).ok().map(|i| s.axis_values[i].clone()))
            .unwrap_or_default()
    }

    /// The union of resource axes sampled for `(config, input)`.
    pub fn axes(&self, config: &Configuration, input: &str) -> Vec<ResourceKey> {
        let idx = self.index();
        idx.slice(config, input).map(|s| s.axes.clone()).unwrap_or_default()
    }

    /// True when the `(config, input)` slice's records form a complete
    /// rectangular grid, i.e. interpolation uses the dense lattice without
    /// ever falling back to inverse-distance weighting.
    pub fn is_complete_grid(&self, config: &Configuration, input: &str) -> bool {
        let idx = self.index();
        idx.slice(config, input).is_some_and(|s| s.grid.complete)
    }

    /// Predict quality metrics for `config` on `input` under `resources`.
    /// Returns `None` when the database has no records for the pair.
    ///
    /// Indexed: exact matches and interpolation corners are lattice
    /// lookups (binary search per axis), so a query over a d-axis grid of
    /// m samples per axis costs O(d log m + 2^d) instead of a scan over
    /// every record.
    pub fn predict(
        &self,
        config: &Configuration,
        input: &str,
        resources: &ResourceVector,
        mode: PredictMode,
    ) -> Option<QosReport> {
        let _span = self.obs.as_ref().map(|h| h.obs.span(h.predict_span));
        let idx = self.index();
        let slice = idx.slice(config, input)?;
        // Exact-match fast path.
        if let Some(r) = slice.exact_match(&self.records, resources) {
            return Some(r.metrics.clone());
        }
        match mode {
            PredictMode::Nearest => slice.nearest(&self.records, resources),
            PredictMode::Interpolate => slice
                .multilinear(&self.records, resources)
                .or_else(|| slice.idw(&self.records, resources)),
        }
    }

    /// Keep only the "maximal subset": configurations that are the best
    /// (within `tol` relative) on `metric` at *at least one* sampled
    /// resource point of some input. Returns the removed configurations.
    pub fn prune_dominated(&mut self, metric: &str, sense: Sense, tol: f64) -> Vec<Configuration> {
        // Group records by (input, resource point).
        let mut groups: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            groups.entry((r.input.clone(), r.resources.key())).or_default().push(i);
        }
        let mut keep: BTreeSet<String> = BTreeSet::new();
        for idxs in groups.values() {
            let best = idxs
                .iter()
                .filter_map(|&i| self.records[i].metrics.get(metric).map(|v| (i, v)))
                .min_by(|a, b| match sense {
                    Sense::LowerIsBetter => a.1.total_cmp(&b.1),
                    Sense::HigherIsBetter => b.1.total_cmp(&a.1),
                });
            let Some((_, best_v)) = best else { continue };
            for &i in idxs {
                if let Some(v) = self.records[i].metrics.get(metric) {
                    let denom = best_v.abs().max(1e-12);
                    let rel = match sense {
                        Sense::LowerIsBetter => (v - best_v) / denom,
                        Sense::HigherIsBetter => (best_v - v) / denom,
                    };
                    if rel <= tol {
                        keep.insert(self.records[i].config.key());
                    }
                }
            }
        }
        // Configurations never measured on `metric` are conservatively kept.
        for r in &self.records {
            if r.metrics.get(metric).is_none() {
                keep.insert(r.config.key());
            }
        }
        let mut removed_keys = BTreeSet::new();
        let mut removed = Vec::new();
        self.records.retain(|r| {
            if keep.contains(&r.config.key()) {
                true
            } else {
                if removed_keys.insert(r.config.key()) {
                    removed.push(r.config.clone());
                }
                false
            }
        });
        self.invalidate();
        removed
    }

    /// Merge configurations whose metrics differ by at most `eps`
    /// (relative) at every shared resource point of every input; the
    /// lexicographically smaller configuration key survives. Returns
    /// `(kept, merged_away)` pairs.
    pub fn merge_similar(&mut self, eps: f64) -> Vec<(Configuration, Configuration)> {
        let idx = self.index();
        let mut merged = Vec::new();
        // A merge must hold for all inputs where both configs appear.
        let mut order: Vec<u32> = (0..idx.configs.len() as u32).collect();
        order.sort_by_key(|&cid| idx.configs[cid as usize].key());
        let input_ids: Vec<u32> = {
            // Sorted by input name, matching the old scan order.
            let mut iids: Vec<u32> = (0..idx.inputs.len() as u32).collect();
            iids.sort_by_key(|&iid| idx.inputs[iid as usize].as_str());
            iids
        };
        let mut dropped: BTreeSet<u32> = BTreeSet::new();
        for (pos, &ci) in order.iter().enumerate() {
            if dropped.contains(&ci) {
                continue;
            }
            for &cj in &order[pos + 1..] {
                if dropped.contains(&cj) {
                    continue;
                }
                let mut similar = true;
                let mut compared = 0usize;
                for &iid in &input_ids {
                    let (Some(si), Some(sj)) =
                        (idx.slices.get(&(ci, iid)), idx.slices.get(&(cj, iid)))
                    else {
                        continue;
                    };
                    let a: BTreeMap<String, &QosReport> = si
                        .recs
                        .iter()
                        .map(|&ri| {
                            let r = &self.records[ri as usize];
                            (r.resources.key(), &r.metrics)
                        })
                        .collect();
                    for &rj in &sj.recs {
                        let r = &self.records[rj as usize];
                        if let Some(m) = a.get(&r.resources.key()) {
                            compared += 1;
                            if m.max_rel_diff(&r.metrics) > eps {
                                similar = false;
                                break;
                            }
                        }
                    }
                    if !similar {
                        break;
                    }
                }
                if similar && compared > 0 {
                    dropped.insert(cj);
                    merged
                        .push((idx.configs[ci as usize].clone(), idx.configs[cj as usize].clone()));
                }
            }
        }
        if !dropped.is_empty() {
            let dropped_cfgs: BTreeSet<&Configuration> =
                dropped.iter().map(|&cid| &idx.configs[cid as usize]).collect();
            self.records.retain(|r| !dropped_cfgs.contains(&r.config));
        }
        self.invalidate();
        merged
    }

    /// Rough resident size of the record store in bytes: per-record struct
    /// overhead plus the heap behind every key string, map node, and
    /// value. Used by the scale-out load bench to show sub-linear memory
    /// growth when N sessions share one database behind an `Arc` instead
    /// of cloning it (the built index is excluded — it is shared across
    /// clones anyway, see [`Clone for PerfDb`](PerfDb#impl-Clone-for-PerfDb)).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        // BTreeMap nodes cost well over the raw entry; 3x entry size is a
        // serviceable middle-ground estimate across B-tree fill factors.
        const NODE_FACTOR: usize = 3;
        let mut total = size_of::<Self>() + self.records.capacity() * size_of::<PerfRecord>();
        for r in &self.records {
            for (name, _) in r.config.iter() {
                total += NODE_FACTOR * (size_of::<String>() + size_of::<i64>()) + name.len();
            }
            for (key, _) in r.resources.iter() {
                total += NODE_FACTOR * (size_of::<ResourceKey>() + size_of::<f64>())
                    + key.component.len();
            }
            total += r.input.len();
            for (name, _) in r.metrics.iter() {
                total += NODE_FACTOR * (size_of::<String>() + size_of::<f64>()) + name.len();
            }
        }
        total
    }

    /// Serialize to the on-disk database artifact: pretty JSON, an
    /// envelope `{"format", "version", "fnv64", "records"}` whose FNV-1a
    /// checksum covers the one-line rendering of `records`. Only the
    /// records are stored; the query index and the obs hook are rebuilt
    /// by the process that loads the file. The text ends at the closing
    /// brace, so every strict prefix of it is a detectably truncated file.
    pub fn to_json(&self) -> String {
        format!("{:#}", envelope(Json::arr(self.records.iter().map(record_to_json))))
    }

    /// Load a database saved by [`to_json`](PerfDb::to_json). Never
    /// panics on hostile input: every way the text can be wrong maps to
    /// a [`PerfDbLoadError`] variant.
    pub fn from_json(s: &str) -> Result<PerfDb, PerfDbLoadError> {
        use PerfDbLoadError::*;
        let doc = json::parse(s).map_err(Syntax)?;
        let format = doc.get("format").and_then(Json::as_str);
        if format != Some(FORMAT) {
            return Err(NotPerfDb(format!("\"format\" is {format:?}, not {FORMAT:?}")));
        }
        match doc.get("version").and_then(Json::as_u64) {
            Some(VERSION) => {}
            Some(other) => return Err(UnsupportedVersion(other)),
            None => return Err(NotPerfDb("\"version\" is missing or not an integer".into())),
        }
        let stored = doc.get("fnv64").and_then(Json::as_str);
        let stored = stored.and_then(|hex| u64::from_str_radix(hex, 16).ok());
        let records = doc.get("records");
        let (Some(stored), Some(records), Some(items)) =
            (stored, records, records.and_then(Json::as_arr))
        else {
            return Err(NotPerfDb("\"fnv64\" or \"records\" is missing or mistyped".into()));
        };
        let computed = checksum(records);
        if stored != computed {
            return Err(ChecksumMismatch { stored, computed });
        }
        let mut db = PerfDb::new();
        for (index, item) in items.iter().enumerate() {
            let rec = record_from_json(item).map_err(|reason| InvalidRecord { index, reason })?;
            db.records.push(rec);
        }
        Ok(db)
    }
}

/// The `"format"` and `"version"` a saved database declares.
const FORMAT: &str = "adapt-perfdb";
const VERSION: u64 = 1;

/// Why [`PerfDb::from_json`] refused a file.
#[derive(Debug, Clone, PartialEq)]
pub enum PerfDbLoadError {
    /// Not well-formed JSON (truncated, trailing data, duplicate keys, a
    /// number too large for an `f64`, ...).
    Syntax(json::ParseError),
    /// Well-formed JSON that is not a performance-database envelope: a
    /// wrong or missing `"format"`, or a missing or mistyped key.
    NotPerfDb(String),
    /// An envelope of a version this build does not read.
    UnsupportedVersion(u64),
    /// The records are not the ones the file was saved with.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Record `index` is malformed or holds a value the database cannot
    /// represent (negative resource, unknown resource kind, ...).
    InvalidRecord { index: usize, reason: String },
}

impl std::fmt::Display for PerfDbLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use PerfDbLoadError::*;
        match self {
            Syntax(e) => write!(f, "not JSON: {e}"),
            NotPerfDb(why) => write!(f, "not a performance database: {why}"),
            UnsupportedVersion(v) => write!(f, "database version {v}; this build reads {VERSION}"),
            ChecksumMismatch { stored, computed } => {
                write!(f, "records checksum to {computed:016x}, the file says {stored:016x}")
            }
            InvalidRecord { index, reason } => write!(f, "record {index}: {reason}"),
        }
    }
}

impl std::error::Error for PerfDbLoadError {}

/// The saved document around `records`, checksum included.
fn envelope(records: Json) -> Json {
    Json::obj([
        ("format", FORMAT.into()),
        ("version", VERSION.into()),
        ("fnv64", format!("{:016x}", checksum(&records)).into()),
        ("records", records),
    ])
}

fn checksum(records: &Json) -> u64 {
    let mut h = Fnv64::new();
    h.write(records.to_string().as_bytes());
    h.finish()
}

fn record_to_json(r: &PerfRecord) -> Json {
    let resource = |(k, v): (&ResourceKey, f64)| {
        Json::arr([Json::from(k.component.as_str()), k.kind.name().into(), v.into()])
    };
    Json::obj([
        ("config", Json::obj(r.config.iter().map(|(name, v)| (name, v.into())))),
        ("input", r.input.as_str().into()),
        ("resources", Json::arr(r.resources.iter().map(resource))),
        ("metrics", Json::obj(r.metrics.iter().map(|(name, v)| (name, v.into())))),
    ])
}

/// Checks every value before handing it to the constructors that assert
/// on it ([`ResourceVector::set`], [`QosReport::set`]).
fn record_from_json(r: &Json) -> Result<PerfRecord, String> {
    let field = |name: &str| r.get(name).ok_or_else(|| format!("'{name}' is missing"));
    let mut config = Configuration::default();
    for (name, v) in field("config")?.as_obj().ok_or("'config' is not an object")? {
        config.set(name, v.as_i64().ok_or_else(|| format!("parameter {name} = {v}"))?);
    }
    let mut resources = ResourceVector::default();
    for triple in field("resources")?.as_arr().ok_or("'resources' is not an array")? {
        let bad = || format!("resource {triple} is not [component, kind, value >= 0]");
        let Some([component, kind, value]) = triple.as_arr() else { return Err(bad()) };
        let key = ResourceKey::new(
            component.as_str().ok_or_else(bad)?,
            kind.as_str().and_then(ResourceKind::parse).ok_or_else(bad)?,
        );
        resources.set(key, value.as_f64().filter(|v| *v >= 0.0).ok_or_else(bad)?);
    }
    let input = field("input")?.as_str().ok_or("'input' is not a string")?.to_string();
    let mut metrics = QosReport::default();
    for (name, v) in field("metrics")?.as_obj().ok_or("'metrics' is not an object")? {
        metrics.set(name, v.as_f64().ok_or_else(|| format!("metric {name} = {v}"))?);
    }
    Ok(PerfRecord { config, resources, input, metrics })
}

/// The query index: interned configurations/inputs plus per-pair slices.
#[derive(Debug)]
struct Index {
    /// Distinct configurations in first-appearance order; position = id.
    configs: Vec<Configuration>,
    config_ids: HashMap<Configuration, u32>,
    /// Distinct inputs in first-appearance order; position = id.
    inputs: Vec<String>,
    input_ids: HashMap<String, u32>,
    /// Input id -> distinct config ids in first-appearance order.
    configs_by_input: Vec<Vec<u32>>,
    slices: HashMap<(u32, u32), Slice>,
}

impl Index {
    fn build(records: &[PerfRecord]) -> Index {
        assert!(records.len() < EMPTY_CELL as usize, "record count exceeds index capacity");
        let mut configs: Vec<Configuration> = Vec::new();
        let mut config_ids: HashMap<Configuration, u32> = HashMap::new();
        let mut inputs: Vec<String> = Vec::new();
        let mut input_ids: HashMap<String, u32> = HashMap::new();
        let mut configs_by_input: Vec<Vec<u32>> = Vec::new();
        let mut grouped: HashMap<(u32, u32), Vec<u32>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            let cid = match config_ids.get(&r.config) {
                Some(&id) => id,
                None => {
                    let id = configs.len() as u32;
                    configs.push(r.config.clone());
                    config_ids.insert(r.config.clone(), id);
                    id
                }
            };
            let iid = match input_ids.get(r.input.as_str()) {
                Some(&id) => id,
                None => {
                    let id = inputs.len() as u32;
                    inputs.push(r.input.clone());
                    input_ids.insert(r.input.clone(), id);
                    configs_by_input.push(Vec::new());
                    id
                }
            };
            match grouped.entry((cid, iid)) {
                Entry::Vacant(e) => {
                    configs_by_input[iid as usize].push(cid);
                    e.insert(vec![i as u32]);
                }
                Entry::Occupied(mut e) => e.get_mut().push(i as u32),
            }
        }
        let slices =
            grouped.into_iter().map(|(key, recs)| (key, Slice::build(records, recs))).collect();
        Index { configs, config_ids, inputs, input_ids, configs_by_input, slices }
    }

    fn slice(&self, config: &Configuration, input: &str) -> Option<&Slice> {
        let cid = *self.config_ids.get(config)?;
        let iid = *self.input_ids.get(input)?;
        self.slices.get(&(cid, iid))
    }
}

/// All records of one `(config, input)` pair, with precomputed geometry.
#[derive(Debug)]
struct Slice {
    /// Record indices, insertion order.
    recs: Vec<u32>,
    /// Sorted union of resource axes over the slice's records.
    axes: Vec<ResourceKey>,
    /// Sorted distinct sampled values per axis (parallel to `axes`).
    axis_values: Vec<Vec<f64>>,
    /// Per-axis value ranges, for normalized distances.
    scales: BTreeMap<ResourceKey, f64>,
    /// Sorted union of metric names over the slice's records.
    metric_names: Vec<String>,
    /// Records whose axis set differs from `axes`; they can never sit on
    /// the lattice but still participate in exact matching and IDW.
    offgrid: Vec<u32>,
    grid: Grid,
}

/// The interpolation lattice of a slice's full-signature records.
#[derive(Debug)]
struct Grid {
    /// Mixed-radix strides (parallel to `axes`): cell = Σ pos[i]·stride[i].
    strides: Vec<u64>,
    cells: GridCells,
    /// True when every lattice cell holds a record.
    complete: bool,
}

#[derive(Debug)]
enum GridCells {
    /// Flat cell table; `EMPTY_CELL` marks an unfilled cell.
    Dense(Vec<u32>),
    /// Hash table for grids too large for a flat table.
    Sparse(HashMap<u64, u32>),
    /// Grid too large to address at all; lookups scan the slice records.
    Scan,
}

impl Slice {
    fn build(records: &[PerfRecord], recs: Vec<u32>) -> Slice {
        let mut axis_set: BTreeSet<ResourceKey> = BTreeSet::new();
        let mut metric_set: BTreeSet<&str> = BTreeSet::new();
        for &ri in &recs {
            let r = &records[ri as usize];
            for (k, _) in r.resources.iter() {
                if !axis_set.contains(k) {
                    axis_set.insert(k.clone());
                }
            }
            for (m, _) in r.metrics.iter() {
                metric_set.insert(m);
            }
        }
        let axes: Vec<ResourceKey> = axis_set.into_iter().collect();
        let metric_names: Vec<String> = metric_set.into_iter().map(str::to_string).collect();
        let axis_values: Vec<Vec<f64>> = axes
            .iter()
            .map(|axis| {
                let mut vals: Vec<f64> = recs
                    .iter()
                    .filter_map(|&ri| records[ri as usize].resources.get(axis))
                    .collect();
                vals.sort_by(|a, b| a.total_cmp(b));
                vals.dedup_by(|a, b| (*a - *b).abs() < AXIS_TOL);
                vals
            })
            .collect();
        let mut scales = BTreeMap::new();
        for (axis, vals) in axes.iter().zip(&axis_values) {
            let scale = match (vals.first(), vals.last()) {
                (Some(&lo), Some(&hi)) if hi > lo => hi - lo,
                (Some(&lo), _) => lo.abs().max(1.0),
                _ => 1.0,
            };
            scales.insert(axis.clone(), scale);
        }
        // Lattice geometry.
        let dims: Vec<u64> = axis_values.iter().map(|v| v.len() as u64).collect();
        let total: u128 = dims.iter().map(|&d| d as u128).product();
        let mut strides = vec![0u64; axes.len()];
        if total <= ADDRESSABLE_CELL_CAP {
            let mut s = 1u64;
            for i in (0..axes.len()).rev() {
                strides[i] = s;
                s = s.saturating_mul(dims[i].max(1));
            }
        }
        let mut cells = if total > ADDRESSABLE_CELL_CAP {
            GridCells::Scan
        } else if total <= DENSE_CELL_CAP {
            GridCells::Dense(vec![EMPTY_CELL; total as usize])
        } else {
            GridCells::Sparse(HashMap::new())
        };
        let mut offgrid = Vec::new();
        let mut filled: u128 = 0;
        if !matches!(cells, GridCells::Scan) {
            for &ri in &recs {
                let r = &records[ri as usize];
                match record_cell(&axes, &axis_values, &strides, r) {
                    // First record at a cell wins, matching the scan
                    // path's first-match semantics.
                    Some(cell) => match &mut cells {
                        GridCells::Dense(v) => {
                            let slot = &mut v[cell as usize];
                            if *slot == EMPTY_CELL {
                                *slot = ri;
                                filled += 1;
                            }
                        }
                        GridCells::Sparse(m) => {
                            if let Entry::Vacant(e) = m.entry(cell) {
                                e.insert(ri);
                                filled += 1;
                            }
                        }
                        GridCells::Scan => unreachable!(),
                    },
                    None => offgrid.push(ri),
                }
            }
        }
        let complete = !matches!(cells, GridCells::Scan) && filled == total;
        Slice {
            recs,
            axes,
            axis_values,
            scales,
            metric_names,
            offgrid,
            grid: Grid { strides, cells, complete },
        }
    }

    /// First record exactly matching `q` (the [`same_point`] semantics of
    /// the scan path): lattice lookup for full-signature queries plus a
    /// scan over the (usually empty) off-grid records.
    fn exact_match<'a>(
        &self,
        records: &'a [PerfRecord],
        q: &ResourceVector,
    ) -> Option<&'a PerfRecord> {
        if matches!(self.grid.cells, GridCells::Scan) {
            return self
                .recs
                .iter()
                .map(|&ri| &records[ri as usize])
                .find(|r| same_point(&r.resources, q));
        }
        if q.len() == self.axes.len() {
            if let Some(cell) = self.query_cell(q) {
                if let Some(ri) = self.cell_record(cell) {
                    return Some(&records[ri]);
                }
            }
        }
        self.offgrid.iter().map(|&ri| &records[ri as usize]).find(|r| same_point(&r.resources, q))
    }

    /// Cell id of `q` if every slice axis appears in `q` with a value on
    /// the grid (relative tolerance, as in [`same_point`]).
    fn query_cell(&self, q: &ResourceVector) -> Option<u64> {
        let mut cell = 0u64;
        for (i, axis) in self.axes.iter().enumerate() {
            let v = q.get(axis)?;
            let p = snap_pos(&self.axis_values[i], v)?;
            cell += p as u64 * self.grid.strides[i];
        }
        Some(cell)
    }

    fn cell_record(&self, cell: u64) -> Option<usize> {
        match &self.grid.cells {
            GridCells::Dense(v) => {
                let ri = *v.get(cell as usize)?;
                (ri != EMPTY_CELL).then_some(ri as usize)
            }
            GridCells::Sparse(m) => m.get(&cell).map(|&ri| ri as usize),
            GridCells::Scan => None,
        }
    }

    /// Nearest-record prediction over the slice.
    fn nearest(&self, records: &[PerfRecord], resources: &ResourceVector) -> Option<QosReport> {
        let mut best: Option<(f64, u32)> = None;
        for &ri in &self.recs {
            let d = records[ri as usize].resources.distance(resources, &self.scales);
            // Strict `<` keeps the first of equally distant records, the
            // same tie-break as `Iterator::min_by` on the scan path.
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, ri));
            }
        }
        best.map(|(_, ri)| records[ri as usize].metrics.clone())
    }

    /// Multilinear interpolation over the lattice; clamps query
    /// coordinates to the sampled range (edge extrapolation). Returns
    /// `None` when a needed corner record is missing (ragged slice).
    fn multilinear(&self, records: &[PerfRecord], resources: &ResourceVector) -> Option<QosReport> {
        let d = self.axes.len();
        if d == 0 || d > 8 {
            return None;
        }
        // Per axis: bracketing grid positions (lo, hi) and fraction t.
        let mut brackets: Vec<(usize, usize, f64)> = Vec::with_capacity(d);
        for (i, axis) in self.axes.iter().enumerate() {
            let vals = &self.axis_values[i];
            if vals.is_empty() {
                return None;
            }
            let q = resources.get(axis)?.clamp(vals[0], vals[vals.len() - 1]);
            let hi_idx = vals.partition_point(|&v| v < q - AXIS_TOL);
            if hi_idx == 0 {
                brackets.push((0, 0, 0.0));
            } else if (vals[hi_idx.min(vals.len() - 1)] - q).abs() < AXIS_TOL {
                let p = hi_idx.min(vals.len() - 1);
                brackets.push((p, p, 0.0));
            } else {
                let lo = vals[hi_idx - 1];
                let hi = vals[hi_idx];
                brackets.push((hi_idx - 1, hi_idx, (q - lo) / (hi - lo)));
            }
        }
        let mut sums: BTreeMap<&str, f64> =
            self.metric_names.iter().map(|m| (m.as_str(), 0.0)).collect();
        let mut total_w = 0.0;
        for corner in 0..(1usize << d) {
            let mut weight = 1.0;
            let mut cell = 0u64;
            for (i, &(lo, hi, t)) in brackets.iter().enumerate() {
                let use_hi = corner & (1 << i) != 0;
                weight *= if use_hi { t } else { 1.0 - t };
                cell += (if use_hi { hi } else { lo }) as u64 * self.grid.strides[i];
            }
            if weight <= 0.0 {
                continue;
            }
            let ri = self.corner_record(records, cell, &brackets, corner)?;
            for (m, v) in records[ri].metrics.iter() {
                if let Some(s) = sums.get_mut(m) {
                    *s += weight * v;
                }
            }
            total_w += weight;
        }
        if total_w <= 0.0 {
            return None;
        }
        let mut out = QosReport::default();
        for (m, s) in sums {
            out.set(m, s / total_w);
        }
        Some(out)
    }

    fn corner_record(
        &self,
        records: &[PerfRecord],
        cell: u64,
        brackets: &[(usize, usize, f64)],
        corner: usize,
    ) -> Option<usize> {
        match &self.grid.cells {
            GridCells::Scan => {
                // Unaddressable grid: reconstruct the corner point and scan.
                let mut point = ResourceVector::default();
                for (i, axis) in self.axes.iter().enumerate() {
                    let (lo, hi, _) = brackets[i];
                    let use_hi = corner & (1 << i) != 0;
                    point.set(axis.clone(), self.axis_values[i][if use_hi { hi } else { lo }]);
                }
                self.recs
                    .iter()
                    .find(|&&ri| same_point(&records[ri as usize].resources, &point))
                    .map(|&ri| ri as usize)
            }
            _ => self.cell_record(cell),
        }
    }

    /// Inverse-distance weighting over the nearest records (fallback for
    /// incomplete grids).
    fn idw(&self, records: &[PerfRecord], resources: &ResourceVector) -> Option<QosReport> {
        let mut weighted: Vec<(f64, u32)> = self
            .recs
            .iter()
            .map(|&ri| (records[ri as usize].resources.distance(resources, &self.scales), ri))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let k = weighted.len().min(4);
        let mut metric_names = BTreeSet::new();
        for &(_, ri) in &weighted[..k] {
            for (m, _) in records[ri as usize].metrics.iter() {
                metric_names.insert(m);
            }
        }
        let mut sums: BTreeMap<&str, f64> = metric_names.into_iter().map(|m| (m, 0.0)).collect();
        let mut total_w = 0.0;
        for &(d, ri) in &weighted[..k] {
            let w = 1.0 / (d + 1e-9);
            for (m, v) in records[ri as usize].metrics.iter() {
                if let Some(s) = sums.get_mut(m) {
                    *s += w * v;
                }
            }
            total_w += w;
        }
        let mut out = QosReport::default();
        for (m, s) in sums {
            out.set(m, s / total_w);
        }
        Some(out)
    }
}

/// Grid position of the full-signature record `r`, or `None` when its
/// axis set differs from the slice's (off-grid).
fn record_cell(
    axes: &[ResourceKey],
    axis_values: &[Vec<f64>],
    strides: &[u64],
    r: &PerfRecord,
) -> Option<u64> {
    if r.resources.len() != axes.len() {
        return None;
    }
    let mut cell = 0u64;
    for (i, axis) in axes.iter().enumerate() {
        let v = r.resources.get(axis)?;
        let p = snap_pos(&axis_values[i], v)?;
        cell += p as u64 * strides[i];
    }
    Some(cell)
}

/// Index of the grid value relatively equal to `v` (the [`same_point`]
/// tolerance), if any; binary search plus a neighbor check.
fn snap_pos(vals: &[f64], v: f64) -> Option<usize> {
    if vals.is_empty() {
        return None;
    }
    let i = vals.partition_point(|&x| x < v);
    let mut best: Option<(f64, usize)> = None;
    for cand in [i.checked_sub(1), Some(i)].into_iter().flatten() {
        if cand < vals.len() {
            let d = (vals[cand] - v).abs();
            if best.is_none_or(|(bd, _)| d < bd) {
                best = Some((d, cand));
            }
        }
    }
    let (d, p) = best?;
    let denom = vals[p].abs().max(v.abs()).max(1.0);
    (d / denom < AXIS_TOL).then_some(p)
}

fn same_point(a: &ResourceVector, b: &ResourceVector) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().all(|(k, v)| match b.get(k) {
        Some(o) => {
            let denom = v.abs().max(o.abs()).max(1.0);
            (v - o).abs() / denom < AXIS_TOL
        }
        None => false,
    })
}

#[cfg(test)]
#[path = "../tests/support/scan_oracle.rs"]
mod scan_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_key() -> ResourceKey {
        ResourceKey::cpu("client")
    }

    fn net_key() -> ResourceKey {
        ResourceKey::net("client")
    }

    fn rec(config: &[(&str, i64)], cpu: f64, net: f64, t: f64) -> PerfRecord {
        PerfRecord {
            config: Configuration::new(config),
            resources: ResourceVector::new(&[(cpu_key(), cpu), (net_key(), net)]),
            input: "img".into(),
            metrics: QosReport::new(&[("transmit_time", t)]),
        }
    }

    /// A db where transmit_time = 10/cpu + 1e6/net for config 1 and
    /// 15/cpu + 1e5/net for config 2, sampled on a 3x3 grid. Config 2
    /// wins at (cpu=1, net=1e5); config 1 wins at high bandwidth — a real
    /// crossover, so dominance pruning must keep both.
    fn grid_db() -> PerfDb {
        let mut db = PerfDb::new();
        for &cpu in &[0.2, 0.5, 1.0] {
            for &net in &[100_000.0, 500_000.0, 1_000_000.0] {
                db.add(rec(&[("c", 1)], cpu, net, 10.0 / cpu + 1e6 / net));
                db.add(rec(&[("c", 2)], cpu, net, 15.0 / cpu + 1e5 / net));
            }
        }
        db
    }

    #[test]
    fn exact_match_returns_record() {
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 0.5), (net_key(), 500_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Interpolate)
            .unwrap();
        assert!((p.get("transmit_time").unwrap() - (20.0 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn interpolation_between_grid_points() {
        let db = grid_db();
        // cpu=0.35 halfway-ish between 0.2 and 0.5; exact function value
        // differs from linear, but interpolation must land between the
        // endpoint values.
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 500_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Interpolate)
            .unwrap()
            .get("transmit_time")
            .unwrap();
        let at_02 = 10.0 / 0.2 + 2.0;
        let at_05 = 10.0 / 0.5 + 2.0;
        assert!(p < at_02 && p > at_05, "{p} not in ({at_05}, {at_02})");
        // Exactly linear in the bracketing values.
        let expect = 0.5 * at_02 + 0.5 * at_05;
        assert!((p - expect).abs() < 1e-9);
    }

    #[test]
    fn two_axis_bilinear() {
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 750_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Interpolate)
            .unwrap()
            .get("transmit_time")
            .unwrap();
        let f = |cpu: f64, net: f64| 10.0 / cpu + 1e6 / net;
        let expect = 0.25
            * (f(0.2, 500_000.0) + f(0.5, 500_000.0) + f(0.2, 1_000_000.0) + f(0.5, 1_000_000.0));
        assert!((p - expect).abs() < 1e-9, "{p} vs {expect}");
    }

    #[test]
    fn out_of_range_clamps() {
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 2.0), (net_key(), 500_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Interpolate)
            .unwrap()
            .get("transmit_time")
            .unwrap();
        assert!((p - (10.0 / 1.0 + 2.0)).abs() < 1e-9, "clamped to cpu=1.0");
    }

    #[test]
    fn nearest_mode_snaps_to_grid() {
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 0.45), (net_key(), 480_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Nearest)
            .unwrap()
            .get("transmit_time")
            .unwrap();
        assert!((p - (10.0 / 0.5 + 2.0)).abs() < 1e-9, "nearest is (0.5, 5e5)");
    }

    #[test]
    fn unknown_config_returns_none() {
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 0.5), (net_key(), 500_000.0)]);
        assert!(db
            .predict(&Configuration::new(&[("c", 9)]), "img", &q, PredictMode::Interpolate)
            .is_none());
        assert!(db
            .predict(&Configuration::new(&[("c", 1)]), "other", &q, PredictMode::Interpolate)
            .is_none());
    }

    #[test]
    fn idw_fallback_on_incomplete_grid() {
        let mut db = PerfDb::new();
        // Scattered, non-grid samples.
        db.add(rec(&[("c", 1)], 0.2, 100_000.0, 60.0));
        db.add(rec(&[("c", 1)], 0.9, 900_000.0, 12.0));
        db.add(rec(&[("c", 1)], 0.5, 400_000.0, 22.0));
        let q = ResourceVector::new(&[(cpu_key(), 0.6), (net_key(), 500_000.0)]);
        let p = db
            .predict(&Configuration::new(&[("c", 1)]), "img", &q, PredictMode::Interpolate)
            .unwrap()
            .get("transmit_time")
            .unwrap();
        assert!(p > 12.0 && p < 60.0, "IDW stays within sample range, got {p}");
        assert!(!db.is_complete_grid(&Configuration::new(&[("c", 1)]), "img"));
    }

    #[test]
    fn prune_keeps_configs_best_somewhere() {
        let mut db = grid_db();
        // Config 1 wins at high net, config 2 wins at low net (crossover):
        // both must survive.
        let removed = db.prune_dominated("transmit_time", Sense::LowerIsBetter, 0.0);
        assert!(removed.is_empty());
        // Add a dominated config: always 2x config 1.
        for &cpu in &[0.2, 0.5, 1.0] {
            for &net in &[100_000.0, 500_000.0, 1_000_000.0] {
                db.add(rec(&[("c", 3)], cpu, net, 2.0 * (10.0 / cpu + 1e6 / net) + 100.0));
            }
        }
        let removed = db.prune_dominated("transmit_time", Sense::LowerIsBetter, 0.0);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].get("c"), Some(3));
        assert!(db.configs("img").len() == 2);
    }

    #[test]
    fn merge_similar_configs() {
        let mut db = grid_db();
        // Config 4 behaves within 1% of config 1 everywhere.
        for &cpu in &[0.2, 0.5, 1.0] {
            for &net in &[100_000.0, 500_000.0, 1_000_000.0] {
                db.add(rec(&[("c", 0)], cpu, net, (10.0 / cpu + 1e6 / net) * 1.005));
            }
        }
        let merged = db.merge_similar(0.02);
        assert_eq!(merged.len(), 1);
        // c=0 sorts before c=1, so c=0 survives and c=1 merges away.
        let keys: Vec<String> = db.configs("img").iter().map(|c| c.key()).collect();
        assert!(keys.contains(&"c=0".to_string()));
        assert!(!keys.contains(&"c=1".to_string()));
        assert!(keys.contains(&"c=2".to_string()));
    }

    #[test]
    fn merge_requires_shared_points() {
        let mut db = PerfDb::new();
        db.add(rec(&[("c", 1)], 0.2, 1e5, 10.0));
        db.add(rec(&[("c", 2)], 0.9, 9e5, 10.0)); // different point, same value
        assert!(db.merge_similar(0.5).is_empty(), "no shared points, no merge");
    }

    #[test]
    fn json_roundtrip() {
        let mut db = grid_db();
        // Values and names the format has to carry exactly.
        db.add(PerfRecord {
            config: Configuration::new(&[("c", -3), ("big", i64::MAX)]),
            resources: ResourceVector::new(&[
                (ResourceKey::cpu("edge.node \"µ\""), 1.0 / 3.0),
                (ResourceKey::mem("client"), 0.0),
                (ResourceKey::net("client"), 1.6e19),
            ]),
            input: "img \\ é\n".into(),
            metrics: QosReport::new(&[("t", -0.0), ("tiny", 5e-324), ("neg", -1e-7)]),
        });
        let json = db.to_json();
        let back = PerfDb::from_json(&json).expect("a saved database reloads");
        assert_eq!(back.records(), db.records());
        let bits =
            |r: &PerfRecord| -> Vec<u64> { r.metrics.iter().map(|(_, v)| v.to_bits()).collect() };
        assert_eq!(bits(&back.records()[18]), bits(&db.records()[18]), "-0.0 keeps its sign");
        assert_eq!(back.to_json(), json, "saving is a fixed point");
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 700_000.0)]);
        for mode in [PredictMode::Interpolate, PredictMode::Nearest] {
            let c = Configuration::new(&[("c", 1)]);
            assert_eq!(back.predict(&c, "img", &q, mode), db.predict(&c, "img", &q, mode));
        }
        assert_eq!(PerfDb::from_json(&PerfDb::new().to_json()).unwrap().len(), 0);
    }

    #[test]
    fn corrupt_envelopes_map_to_typed_errors() {
        use PerfDbLoadError::*;
        let good = grid_db().to_json();
        let load = |text: String| PerfDb::from_json(&text).unwrap_err();
        let syntax = |text: String| match load(text) {
            Syntax(e) => e.msg,
            other => panic!("expected a syntax error, got {other:?}"),
        };
        assert_eq!(load(good.replace("\"version\": 1", "\"version\": 2")), UnsupportedVersion(2));
        assert!(matches!(load(good.replace(FORMAT, "adapt-perfdc")), NotPerfDb(_)));
        assert!(matches!(load(good.replace("\"version\": 1,", "")), NotPerfDb(_)));
        assert!(matches!(load(good.replace("\"fnv64\"", "\"crc\"")), NotPerfDb(_)));
        assert!(matches!(load("[]".into()), NotPerfDb(_)));
        assert_eq!(syntax(format!("{good}garbage")), "trailing data");
        assert_eq!(
            syntax(good.replace("\"version\": 1", "\"version\": 1, \"version\": 1")),
            "duplicate object key"
        );
        assert_eq!(syntax(good.replacen("0.2", "1e999", 1)), "number out of range");
        assert!(matches!(load(good.replacen("0.2", "0.3", 1)), ChecksumMismatch { .. }));
        assert!(load(good.replacen("0.2", "0.3", 1)).to_string().contains("checksum"));
    }

    #[test]
    fn invalid_records_are_errors_not_assertion_failures() {
        let good = parse_records(&grid_db().to_json());
        let with = |field: &str, value: &str| -> String {
            // Record 1 with one field replaced by `value` (JSON text).
            let mut records = good.clone();
            let Json::Obj(members) = &mut records[1] else { unreachable!() };
            members.retain(|(k, _)| k != field);
            if !value.is_empty() {
                members.push((field.into(), json::parse(value).unwrap()));
            }
            envelope(Json::Arr(records)).to_string()
        };
        assert!(PerfDb::from_json(&with("input", "\"img\"")).is_ok(), "the harness itself loads");
        for (field, value) in [
            ("resources", r#"[["client", "cpu", -0.5]]"#),
            ("resources", r#"[["client", "disk", 0.5]]"#),
            ("resources", r#"[["client", "cpu", "0.5"]]"#),
            ("resources", r#"[["client", "cpu"]]"#),
            ("resources", r#"[[7, "cpu", 0.5]]"#),
            ("resources", r#"{"client.cpu": 0.5}"#),
            ("config", r#"{"c": 1.5}"#),
            ("config", r#"{"c": 18446744073709551615}"#),
            ("config", "[]"),
            ("metrics", r#"{"transmit_time": null}"#),
            ("metrics", r#"{"transmit_time": "fast"}"#),
            ("input", "3"),
            ("input", ""),
        ] {
            match PerfDb::from_json(&with(field, value)) {
                Err(PerfDbLoadError::InvalidRecord { index: 1, .. }) => {}
                other => panic!("{field} = {value:?}: {other:?}"),
            }
        }
        let not_records = envelope(Json::arr(["record"])).to_string();
        assert!(matches!(
            PerfDb::from_json(&not_records),
            Err(PerfDbLoadError::InvalidRecord { index: 0, .. })
        ));
    }

    fn parse_records(text: &str) -> Vec<Json> {
        json::parse(text).unwrap().get("records").and_then(Json::as_arr).unwrap().to_vec()
    }

    /// The PR 9 truncation-fuzz pattern applied to storage: no damaged
    /// file panics the loader, and none loads as a different database.
    #[test]
    fn truncated_and_bit_flipped_files_never_load_as_something_else() {
        let mut db = PerfDb::new();
        db.add(rec(&[("c", 1)], 0.2, 100_000.0, 60.0));
        db.add(rec(&[("c", 2)], 0.5, 500_000.0, 30.2));
        let text = db.to_json();
        for end in 0..text.len() {
            assert!(PerfDb::from_json(&text[..end]).is_err(), "{end}-byte prefix loaded");
        }
        let mut survivors = 0;
        for i in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.clone().into_bytes();
                bytes[i] ^= 1 << bit;
                // A flip that leaves UTF-8 cannot even reach the loader.
                let Ok(flipped) = String::from_utf8(bytes) else { continue };
                if let Ok(loaded) = PerfDb::from_json(&flipped) {
                    assert_eq!(loaded.records(), db.records(), "byte {i} bit {bit}");
                    survivors += 1;
                }
            }
        }
        // Only case flips of the checksum's hex letters are harmless.
        let hex_letters = format!("{:016x}", checksum(&Json::Arr(parse_records(&text))))
            .bytes()
            .filter(u8::is_ascii_alphabetic)
            .count();
        assert_eq!(survivors, hex_letters);
    }

    #[test]
    fn axis_introspection() {
        let db = grid_db();
        let c = Configuration::new(&[("c", 1)]);
        assert_eq!(db.axes(&c, "img").len(), 2);
        assert_eq!(db.axis_values(&c, "img", &cpu_key()), vec![0.2, 0.5, 1.0]);
        assert_eq!(db.configs("img").len(), 2);
        assert_eq!(db.inputs(), vec!["img".to_string()]);
        assert!(db.is_complete_grid(&c, "img"));
        assert_eq!(db.records_for(&c, "img").len(), 9);
    }

    #[test]
    fn add_after_query_invalidates_index() {
        let mut db = grid_db();
        let c1 = Configuration::new(&[("c", 1)]);
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 500_000.0)]);
        // Build the index with a query, then mutate.
        let before = db.predict(&c1, "img", &q, PredictMode::Interpolate).unwrap();
        db.add(rec(&[("c", 1)], 0.35, 500_000.0, 999.0));
        // The new record sits exactly at the query point: the rebuilt
        // index must return it, not the stale interpolation.
        let after = db.predict(&c1, "img", &q, PredictMode::Interpolate).unwrap();
        assert_eq!(after.get("transmit_time"), Some(999.0));
        assert_ne!(before.get("transmit_time"), after.get("transmit_time"));
        // New configs and inputs also appear after invalidation.
        db.add(PerfRecord {
            config: Configuration::new(&[("c", 7)]),
            resources: ResourceVector::new(&[(cpu_key(), 1.0)]),
            input: "other".into(),
            metrics: QosReport::new(&[("transmit_time", 1.0)]),
        });
        assert_eq!(db.configs("img").len(), 2);
        assert_eq!(db.configs("other").len(), 1);
        assert_eq!(db.inputs(), vec!["img".to_string(), "other".to_string()]);
        assert_eq!(db.axis_values(&c1, "img", &cpu_key()), vec![0.2, 0.35, 0.5, 1.0]);
    }

    #[test]
    fn indexed_matches_scan_on_ragged_slices() {
        let mut db = PerfDb::new();
        // Full-signature grid records plus one off-grid record missing the
        // net axis entirely.
        db.add(rec(&[("c", 1)], 0.2, 1e5, 60.0));
        db.add(rec(&[("c", 1)], 1.0, 1e5, 15.0));
        db.add(rec(&[("c", 1)], 0.2, 1e6, 52.0));
        // (1.0, 1e6) missing -> ragged; plus an off-grid cpu-only record.
        db.add(PerfRecord {
            config: Configuration::new(&[("c", 1)]),
            resources: ResourceVector::new(&[(cpu_key(), 0.6)]),
            input: "img".into(),
            metrics: QosReport::new(&[("transmit_time", 30.0)]),
        });
        let c = Configuration::new(&[("c", 1)]);
        for mode in [PredictMode::Interpolate, PredictMode::Nearest] {
            for q in [
                ResourceVector::new(&[(cpu_key(), 0.5), (net_key(), 4e5)]),
                ResourceVector::new(&[(cpu_key(), 0.2), (net_key(), 1e5)]),
                ResourceVector::new(&[(cpu_key(), 0.6)]),
                ResourceVector::new(&[(cpu_key(), 0.9), (net_key(), 9e5)]),
            ] {
                let a = db.predict(&c, "img", &q, mode);
                let b = scan_oracle::predict(&db, &c, "img", &q, mode);
                assert_eq!(a, b, "mode {mode:?} query {q}");
            }
        }
    }

    #[test]
    fn sparse_lattice_matches_scan() {
        // 3 axes x 41 diagonal samples: 41^3 cells > the dense cap, so the
        // lattice goes sparse; the grid is (very) incomplete.
        let mut db = PerfDb::new();
        let mem = ResourceKey::mem("client");
        for i in 0..41 {
            let v = 1.0 + i as f64;
            db.add(PerfRecord {
                config: Configuration::new(&[("c", 1)]),
                resources: ResourceVector::new(&[
                    (cpu_key(), v / 100.0),
                    (net_key(), v * 1e4),
                    (mem.clone(), v * 1e6),
                ]),
                input: "img".into(),
                metrics: QosReport::new(&[("t", 100.0 / v)]),
            });
        }
        let c = Configuration::new(&[("c", 1)]);
        for mode in [PredictMode::Interpolate, PredictMode::Nearest] {
            for probe in [3.3f64, 17.0, 40.5] {
                let q = ResourceVector::new(&[
                    (cpu_key(), probe / 100.0),
                    (net_key(), probe * 1e4),
                    (mem.clone(), probe * 1e6),
                ]);
                let a = db.predict(&c, "img", &q, mode);
                let b = scan_oracle::predict(&db, &c, "img", &q, mode);
                assert_eq!(a, b, "mode {mode:?} probe {probe}");
            }
        }
        assert!(!db.is_complete_grid(&c, "img"));
    }

    #[test]
    fn clone_shares_built_index_and_diverges_after_mutation() {
        let db = grid_db();
        let c = Configuration::new(&[("c", 1)]);
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 500_000.0)]);
        let built = db.predict(&c, "img", &q, PredictMode::Interpolate);
        let mut clone = db.clone();
        assert_eq!(clone.predict(&c, "img", &q, PredictMode::Interpolate), built);
        clone.add(rec(&[("c", 1)], 0.35, 500_000.0, 999.0));
        assert_eq!(
            clone.predict(&c, "img", &q, PredictMode::Interpolate).unwrap().get("transmit_time"),
            Some(999.0)
        );
        // The original is untouched.
        assert_eq!(db.predict(&c, "img", &q, PredictMode::Interpolate), built);
    }
}
