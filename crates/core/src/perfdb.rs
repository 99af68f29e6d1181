//! The performance database: profile-based models of configuration
//! behavior.
//!
//! §5: "for each application configuration, we measure the achieved
//! quality metrics for a sampling of different resource conditions, and
//! interpolate these measurements to get performance curves". Records map
//! `(configuration, input, resource vector) -> quality metrics`;
//! [`PerfDb::predict`] answers point queries by exact lookup, else by
//! multilinear interpolation over the sampled grid (with clamping
//! extrapolation). The nearest-record lookup the paper's prototype used
//! (§7.1) is test code: the ablation's baseline.
//!
//! # A slice is a complete lattice
//!
//! The records of one `(config, input)` pair form a *slice*, and a slice
//! is a complete lattice: every record samples the same resource axes, at
//! most `MAX_AXES` of them, and every combination of the sampled axis
//! values (a *cell*) holds exactly one record. The profiler's grid sweep
//! and the refine engine's re-profiling build nothing else.
//! [`PerfDb::from_json`] refuses a file that breaks this
//! ([`PerfDbLoadError::NotALattice`]), and a database assembled in memory
//! panics with the same text when its index is built. A query that lacks
//! one of a slice's axes is priced at that axis's lowest sample.
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
//!   its sorted distinct axis grid precomputed, and its records' metrics
//!   as flat **rows** of `f64` in the input's sorted metric-name union
//!   (NaN where a record lacks a metric);
//! - a slice maps each **cell** number (row-major over the per-axis sample
//!   indices) to its record's row in one dense table, so an exact match is
//!   a per-axis binary search plus arithmetic, and interpolation a
//!   2^d-corner blend of rows instead of a full scan.
//!
//! One kernel predicts into a row; [`PerfDb::predict`] turns that row into
//! a [`QosReport`], and the scheduler's decisions read rows directly
//! through a per-decision view of one input's candidates.
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

/// Prediction strategy. There is one: the enum and
/// [`PerfDb::predict`]'s argument stay only because the benchmark crate,
/// a separate workspace, names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictMode {
    /// Multilinear interpolation over the sampled grid, clamping outside
    /// the sampled range.
    Interpolate,
}

/// Tolerance when matching axis coordinates.
const AXIS_TOL: f64 = 1e-9;

/// The most axes a lattice spans, and so the most a multilinear blend
/// (2^d corners) reads. A slice with more axes is refused.
const MAX_AXES: usize = 8;

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
}

impl Clone for PerfDb {
    fn clone(&self) -> Self {
        PerfDb {
            records: self.records.clone(),
            // The index is immutable once built, so clones can share it.
            index: RwLock::new(self.index.read().expect("index lock poisoned").clone()),
        }
    }
}

impl PerfDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one record. O(1): the index is only marked dirty and rebuilt
    /// lazily on the next query, keeping profiling sweeps cheap. That
    /// query panics unless every slice is then a complete lattice.
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
    /// was asked to refresh, and so the replacement is a complete lattice
    /// too.
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

    /// The current index, building it if the database changed. Panics
    /// when a slice is not a complete lattice, with the text
    /// [`from_json`](PerfDb::from_json) refuses such a file with.
    fn index(&self) -> Arc<Index> {
        if let Some(idx) = self.index.read().expect("index lock poisoned").as_ref() {
            return Arc::clone(idx);
        }
        let built = Arc::new(Index::build(&self.records).unwrap_or_else(|e| panic!("{e}")));
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
    pub(crate) fn records_for(&self, config: &Configuration, input: &str) -> Vec<&PerfRecord> {
        let idx = self.index();
        match idx.slice(config, input) {
            Some((s, _)) => s.recs.iter().map(|&ri| &self.records[ri as usize]).collect(),
            None => Vec::new(),
        }
    }

    /// The union of resource axes sampled for `(config, input)`.
    pub fn axes(&self, config: &Configuration, input: &str) -> Vec<ResourceKey> {
        let idx = self.index();
        idx.slice(config, input).map(|(s, _)| s.axes.clone()).unwrap_or_default()
    }

    /// Predict quality metrics for `config` on `input` under `resources`.
    /// Returns `None` when the database has no records for the pair.
    ///
    /// Indexed: a query over a d-axis grid of m samples per axis costs
    /// O(d log m + 2^d) (per-axis binary searches, then one table lookup
    /// per blend corner) instead of a scan over every record. A slice
    /// axis that `resources` lacks is priced at its lowest sample. `mode`
    /// has one value.
    pub fn predict(
        &self,
        config: &Configuration,
        input: &str,
        resources: &ResourceVector,
        _mode: PredictMode,
    ) -> Option<QosReport> {
        let idx = self.index();
        let (slice, names) = idx.slice(config, input)?;
        let mut row = vec![0.0; names.len()];
        slice.predict_into(resources, &mut row);
        Some(row_report(names, &row))
    }

    /// The configurations profiled for `input`, as one decision prices
    /// them; `None` when no record has that input.
    pub(crate) fn candidates(&self, input: &str) -> Option<Candidates> {
        let idx = self.index();
        let input = *idx.input_ids.get(input)? as usize;
        Some(Candidates { idx, input })
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
                    let (Some(si), Some(sj)) = (idx.slice_of(ci, iid), idx.slice_of(cj, iid))
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
    /// records are stored; the query index is rebuilt by the process that
    /// loads the file. The text ends at the closing brace, so every strict
    /// prefix of it is a detectably truncated file.
    pub fn to_json(&self) -> String {
        format!("{:#}", envelope(Json::arr(self.records.iter().map(record_to_json))))
    }

    /// Load a database saved by [`to_json`](PerfDb::to_json). Never
    /// panics on hostile input: every way the text can be wrong maps to
    /// a [`PerfDbLoadError`] variant. The query index is built here, so a
    /// slice that is not a complete lattice is refused, not loaded.
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
        let records = (items.iter().enumerate())
            .map(|(index, item)| {
                record_from_json(item).map_err(|reason| InvalidRecord { index, reason })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let index = Index::build(&records)?;
        Ok(PerfDb { records, index: RwLock::new(Some(Arc::new(index))) })
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
    /// The records of one `(config, input)` slice are not a complete
    /// lattice: `reason` names the first record without one of the
    /// slice's axes, a cell that no record fills or that two records
    /// fill, or an axis count past the lattice's bound.
    NotALattice { config: String, input: String, reason: String },
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
            NotALattice { config, input, reason } => {
                write!(f, "slice ({config}, {input}) is not a complete lattice: {reason}")
            }
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
    /// Input id -> its slices, parallel to `configs_by_input`.
    slices: Vec<Vec<Slice>>,
    /// `(config id, input id)` -> position in both lists.
    slice_pos: HashMap<(u32, u32), u32>,
    /// Input id -> sorted union of the metric names its records carry:
    /// the column order of every metric row of the input's slices.
    metrics_by_input: Vec<Vec<String>>,
}

impl Index {
    /// The index of `records`, or the first slice that is not a complete
    /// lattice.
    fn build(records: &[PerfRecord]) -> Result<Index, PerfDbLoadError> {
        assert!(u32::try_from(records.len()).is_ok(), "record count exceeds index capacity");
        let mut configs: Vec<Configuration> = Vec::new();
        let mut config_ids: HashMap<Configuration, u32> = HashMap::new();
        let mut inputs: Vec<String> = Vec::new();
        let mut input_ids: HashMap<String, u32> = HashMap::new();
        let mut configs_by_input: Vec<Vec<u32>> = Vec::new();
        let mut recs_by_input: Vec<Vec<Vec<u32>>> = Vec::new();
        let mut slice_pos: HashMap<(u32, u32), u32> = HashMap::new();
        let mut metric_sets: Vec<BTreeSet<&str>> = Vec::new();
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
                    recs_by_input.push(Vec::new());
                    metric_sets.push(BTreeSet::new());
                    id
                }
            };
            let input = iid as usize;
            let pos = *slice_pos.entry((cid, iid)).or_insert_with(|| {
                configs_by_input[input].push(cid);
                recs_by_input[input].push(Vec::new());
                (configs_by_input[input].len() - 1) as u32
            });
            recs_by_input[input][pos as usize].push(i as u32);
            metric_sets[input].extend(r.metrics.iter().map(|(m, _)| m));
        }
        let metrics_by_input: Vec<Vec<String>> = metric_sets
            .into_iter()
            .map(|set| set.into_iter().map(str::to_string).collect())
            .collect();
        let mut slices = Vec::with_capacity(inputs.len());
        for (iid, groups) in recs_by_input.into_iter().enumerate() {
            let built = groups.into_iter().zip(&configs_by_input[iid]).map(|(recs, &cid)| {
                Slice::build(records, recs, &metrics_by_input[iid]).map_err(|reason| {
                    PerfDbLoadError::NotALattice {
                        config: configs[cid as usize].key(),
                        input: inputs[iid].clone(),
                        reason,
                    }
                })
            });
            slices.push(built.collect::<Result<Vec<_>, _>>()?);
        }
        Ok(Index {
            configs,
            config_ids,
            inputs,
            input_ids,
            configs_by_input,
            slices,
            slice_pos,
            metrics_by_input,
        })
    }

    fn slice_of(&self, cid: u32, iid: u32) -> Option<&Slice> {
        let pos = *self.slice_pos.get(&(cid, iid))?;
        Some(&self.slices[iid as usize][pos as usize])
    }

    /// The `(config, input)` slice and the column names of its rows.
    fn slice(&self, config: &Configuration, input: &str) -> Option<(&Slice, &[String])> {
        let cid = *self.config_ids.get(config)?;
        let iid = *self.input_ids.get(input)?;
        Some((self.slice_of(cid, iid)?, &self.metrics_by_input[iid as usize]))
    }
}

/// One input's configurations as a scheduler decision sees them: the
/// index snapshot taken once, candidates by position (the order of
/// [`PerfDb::configs`]), and predictions written into metric rows laid out
/// in [`metric_names`](Candidates::metric_names) order, NaN marking a
/// metric the prediction lacks.
pub(crate) struct Candidates {
    idx: Arc<Index>,
    input: usize,
}

impl Candidates {
    pub(crate) fn len(&self) -> usize {
        self.idx.slices[self.input].len()
    }

    pub(crate) fn config(&self, i: usize) -> &Configuration {
        &self.idx.configs[self.idx.configs_by_input[self.input][i] as usize]
    }

    /// The columns of every row: the sorted metric names of the input.
    pub(crate) fn metric_names(&self) -> &[String] {
        &self.idx.metrics_by_input[self.input]
    }

    /// The row column of `metric`, if any candidate reports it.
    pub(crate) fn column(&self, metric: &str) -> Option<usize> {
        self.metric_names().binary_search_by(|m| m.as_str().cmp(metric)).ok()
    }

    fn slice(&self, i: usize) -> &Slice {
        &self.idx.slices[self.input][i]
    }

    /// Candidate `i`'s sampled axes, each with its sorted sample values.
    pub(crate) fn axes(&self, i: usize) -> impl Iterator<Item = (&ResourceKey, &[f64])> {
        let s = self.slice(i);
        s.axes.iter().zip(s.axis_values.iter().map(Vec::as_slice))
    }

    /// Predict candidate `i` at `at` into `row`, exactly as
    /// [`PerfDb::predict`] does.
    pub(crate) fn predict_into(&self, i: usize, at: &ResourceVector, row: &mut [f64]) {
        self.slice(i).predict_into(at, row);
    }

    /// The report of a row.
    pub(crate) fn report(&self, row: &[f64]) -> QosReport {
        row_report(self.metric_names(), row)
    }
}

/// The report of a metric row laid out in `names` order. NaN marks an
/// absent metric, a value [`QosReport::set`] refuses, so no metric is
/// lost in the round trip.
fn row_report(names: &[String], row: &[f64]) -> QosReport {
    let mut report = QosReport::default();
    for (name, &v) in names.iter().zip(row).filter(|(_, v)| !v.is_nan()) {
        report.set(name, v);
    }
    report
}

/// All records of one `(config, input)` pair, with precomputed geometry:
/// a complete lattice, one record per cell.
#[derive(Debug)]
struct Slice {
    /// Record indices, insertion order. A slice names its records by
    /// position in this list.
    recs: Vec<u32>,
    /// Sorted union of resource axes over the slice's records.
    axes: Vec<ResourceKey>,
    /// Sorted distinct sampled values per axis (parallel to `axes`).
    axis_values: Vec<Vec<f64>>,
    /// One metric row per record, in `recs` order, with the input's
    /// metric columns; NaN where the record lacks the metric.
    rows: Vec<f64>,
    /// Where a blend starts: 0.0 in the columns some record of the slice
    /// reports, NaN in the others.
    blank: Vec<f64>,
    /// Cell number (see [`cell_of`]) -> slice position of the record
    /// there.
    cells: Vec<u32>,
}

impl Slice {
    /// The slice of `recs`, or why they are not a complete lattice: more
    /// than `MAX_AXES` axes, the first record that lacks one of the
    /// slice's axes, the first cell a second record fills, or the first
    /// cell no record fills.
    fn build(
        records: &[PerfRecord],
        recs: Vec<u32>,
        metric_names: &[String],
    ) -> Result<Slice, String> {
        let axis_set: BTreeSet<&ResourceKey> =
            recs.iter().flat_map(|&ri| records[ri as usize].resources.keys()).collect();
        let axes: Vec<ResourceKey> = axis_set.into_iter().cloned().collect();
        if axes.len() > MAX_AXES {
            return Err(format!("{} axes, past the {MAX_AXES} a lattice spans", axes.len()));
        }
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
        // A complete lattice has one cell per record. A grid of more cells
        // leaves one of its first `recs.len() + 1` empty, so the table
        // stops there (and a cell count past `usize` needs no table).
        let n_cells = axis_values.iter().try_fold(1usize, |n, vals| n.checked_mul(vals.len()));
        let mut cells = vec![u32::MAX; n_cells.unwrap_or(usize::MAX).min(recs.len() + 1)];
        for (pos, &ri) in recs.iter().enumerate() {
            let point = &records[ri as usize].resources;
            if let Some(axis) = axes.iter().find(|a| point.get(a).is_none()) {
                return Err(format!("the record at {point} lacks axis {axis}"));
            }
            // Each value snaps to its own axis's samples, so only a cell
            // number past `usize` is `None`.
            let Some(slot) = cell_of(&axes, &axis_values, point).and_then(|n| cells.get_mut(n))
            else {
                continue;
            };
            if *slot != u32::MAX {
                return Err(format!("two records at {point}"));
            }
            *slot = pos as u32;
        }
        if let Some(n) = cells.iter().position(|&pos| pos == u32::MAX) {
            return Err(format!("no record at {}", cell_point(&axes, &axis_values, n)));
        }
        let rows: Vec<f64> = recs
            .iter()
            .flat_map(|&ri| {
                let r = &records[ri as usize];
                metric_names.iter().map(|m| r.metrics.get(m).unwrap_or(f64::NAN))
            })
            .collect();
        let blank: Vec<f64> = metric_names
            .iter()
            .map(|m| {
                let reported = recs.iter().any(|&ri| records[ri as usize].metrics.get(m).is_some());
                if reported {
                    0.0
                } else {
                    f64::NAN
                }
            })
            .collect();
        Ok(Slice { recs, axes, axis_values, rows, blank, cells })
    }

    /// The metric row of the record in cell number `cell`.
    fn row(&self, cell: usize) -> &[f64] {
        let w = self.blank.len();
        let pos = self.cells[cell] as usize;
        &self.rows[pos * w..(pos + 1) * w]
    }

    /// Predict at `q` into `out` (one value per metric column): the row
    /// of the record at `q` (the same axes, each at a sampled value), else
    /// a blend.
    fn predict_into(&self, q: &ResourceVector, out: &mut [f64]) {
        match cell_of(&self.axes, &self.axis_values, q) {
            Some(cell) => out.copy_from_slice(self.row(cell)),
            None => self.multilinear(q, out),
        }
    }

    /// Multilinear interpolation over the lattice into `out`. A query
    /// coordinate past the sampled range is clamped to it, and an axis
    /// the query lacks reads as 0, so it prices at its lowest sample.
    fn multilinear(&self, q: &ResourceVector, out: &mut [f64]) {
        // Per axis: bracketing grid positions (lo, hi) and fraction t.
        let mut brackets = [(0usize, 0usize, 0.0f64); MAX_AXES];
        for ((b, axis), vals) in brackets.iter_mut().zip(&self.axes).zip(&self.axis_values) {
            let v = q.get(axis).unwrap_or(0.0).clamp(vals[0], vals[vals.len() - 1]);
            let hi_idx = vals.partition_point(|&x| x < v - AXIS_TOL);
            *b = if hi_idx == 0 {
                (0, 0, 0.0)
            } else if (vals[hi_idx.min(vals.len() - 1)] - v).abs() < AXIS_TOL {
                let p = hi_idx.min(vals.len() - 1);
                (p, p, 0.0)
            } else {
                let lo = vals[hi_idx - 1];
                let hi = vals[hi_idx];
                (hi_idx - 1, hi_idx, (v - lo) / (hi - lo))
            };
        }
        let brackets = &brackets[..self.axes.len()];
        out.copy_from_slice(&self.blank);
        let mut total_w = 0.0;
        for corner in 0..(1usize << brackets.len()) {
            let mut weight = 1.0;
            let mut cell = 0;
            for (i, (&(lo, hi, t), vals)) in brackets.iter().zip(&self.axis_values).enumerate() {
                let use_hi = corner & (1 << i) != 0;
                weight *= if use_hi { t } else { 1.0 - t };
                cell = cell * vals.len() + if use_hi { hi } else { lo };
            }
            if weight <= 0.0 {
                continue;
            }
            for (s, &v) in out.iter_mut().zip(self.row(cell)) {
                if !v.is_nan() {
                    *s += weight * v;
                }
            }
            total_w += weight;
        }
        for s in out.iter_mut() {
            *s /= total_w;
        }
    }
}

/// The number of the cell at `point`: row-major over the per-axis sample
/// indices, the last axis fastest. `None` unless `point` has exactly the
/// slice's axes, each at a sampled value (see [`snap_pos`]), or when the
/// number overflows `usize`.
fn cell_of(
    axes: &[ResourceKey],
    axis_values: &[Vec<f64>],
    point: &ResourceVector,
) -> Option<usize> {
    if point.len() != axes.len() {
        return None;
    }
    axes.iter().zip(axis_values).try_fold(0usize, |n, (axis, vals)| {
        n.checked_mul(vals.len())?.checked_add(snap_pos(vals, point.get(axis)?)?)
    })
}

/// The resource point of cell number `n`.
fn cell_point(axes: &[ResourceKey], axis_values: &[Vec<f64>], mut n: usize) -> ResourceVector {
    let mut point = ResourceVector::default();
    for (axis, vals) in axes.iter().zip(axis_values).rev() {
        point.set(axis.clone(), vals[n % vals.len()]);
        n /= vals.len();
    }
    point
}

/// Index of the grid value relatively equal to `v` (within [`AXIS_TOL`]
/// of the larger magnitude, at least 1), if any; binary search plus a
/// neighbor check.
fn snap_pos(vals: &[f64], v: f64) -> Option<usize> {
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

#[cfg(test)]
#[path = "../tests/support/scan_oracle.rs"]
mod scan_oracle;

#[cfg(test)]
#[path = "../tests/support/nearest.rs"]
mod nearest;

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

    /// Sorted distinct values the index sampled along `axis` for
    /// `(config, input)`.
    fn axis_values(
        db: &PerfDb,
        config: &Configuration,
        input: &str,
        axis: &ResourceKey,
    ) -> Vec<f64> {
        let idx = db.index();
        let (s, _) = idx.slice(config, input).expect("a profiled pair");
        s.axis_values[s.axes.binary_search(axis).expect("a sampled axis")].clone()
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
        // The paper prototype's lookup: the ablation's baseline, in test
        // code.
        let db = grid_db();
        let q = ResourceVector::new(&[(cpu_key(), 0.45), (net_key(), 480_000.0)]);
        let p = nearest::nearest(&db, &Configuration::new(&[("c", 1)]), "img", &q)
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
    fn a_missing_axis_prices_at_its_lowest_sample() {
        let db = grid_db();
        let c = Configuration::new(&[("c", 1)]);
        let predict = |q: &[(ResourceKey, f64)]| {
            let q = ResourceVector::new(q);
            let p = db.predict(&c, "img", &q, PredictMode::Interpolate);
            assert_eq!(p, scan_oracle::predict(&db, &c, "img", &q), "query {q}");
            p.unwrap()
        };
        // No CPU share: the lowest sampled share, 0.2.
        let net_only = predict(&[(net_key(), 750_000.0)]);
        assert_eq!(net_only, predict(&[(cpu_key(), 0.2), (net_key(), 750_000.0)]));
        let t = 10.0 / 0.2 + 0.5 * (1e6 / 500_000.0 + 1e6 / 1_000_000.0);
        assert!((net_only.get("transmit_time").unwrap() - t).abs() < 1e-9);
        // No bandwidth either: the lattice's first cell.
        assert_eq!(predict(&[]), predict(&[(cpu_key(), 0.2), (net_key(), 100_000.0)]));
    }

    /// A slice whose records do not fill a complete lattice is refused:
    /// by `from_json` with a typed error, and by the first query of a
    /// database assembled in memory with a panic of the same text.
    #[test]
    fn slices_that_are_not_complete_lattices_are_refused() {
        let grid: Vec<PerfRecord> = grid_db().records().to_vec();
        let without = |gone: PerfRecord| -> Vec<PerfRecord> {
            grid.iter().filter(|&r| *r != gone).cloned().collect()
        };
        let with = |extra: PerfRecord| -> Vec<PerfRecord> {
            grid.iter().cloned().chain([extra]).collect()
        };
        let nine_axes = (0..9).fold(ResourceVector::default(), |mut r, h| {
            r.set(ResourceKey::cpu(&format!("h{h}")), 0.5);
            r
        });
        let cases = [
            (
                without(rec(&[("c", 1)], 1.0, 1e6, 10.0 / 1.0 + 1e6 / 1e6)),
                "no record at {client.cpu=1.000000;client.network=1000000.000000}",
            ),
            (
                vec![rec(&[("c", 1)], 0.2, 1e5, 1.0), rec(&[("c", 1)], 1.0, 1e6, 1.0)],
                "no record at {client.cpu=0.200000;client.network=1000000.000000}",
            ),
            (
                with(rec(&[("c", 1)], 0.5, 5e5, 1.0)),
                "two records at {client.cpu=0.500000;client.network=500000.000000}",
            ),
            (
                with(PerfRecord {
                    resources: ResourceVector::new(&[(cpu_key(), 0.5)]),
                    ..rec(&[("c", 1)], 0.0, 0.0, 1.0)
                }),
                "the record at {client.cpu=0.500000} lacks axis client.network",
            ),
            (
                vec![PerfRecord { resources: nine_axes, ..rec(&[("c", 1)], 0.0, 0.0, 1.0) }],
                "9 axes, past the 8 a lattice spans",
            ),
        ];
        for (records, reason) in cases {
            let mut db = PerfDb::new();
            for r in records {
                db.add(r);
            }
            let refused = PerfDb::from_json(&db.to_json()).unwrap_err();
            let want = PerfDbLoadError::NotALattice {
                config: "c=1".into(),
                input: "img".into(),
                reason: reason.into(),
            };
            assert_eq!(refused, want);
            let panic = std::panic::catch_unwind(|| db.configs("img")).unwrap_err();
            assert_eq!(panic.downcast_ref::<String>(), Some(&refused.to_string()));
        }
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
        let c = Configuration::new(&[("c", 1)]);
        let mode = PredictMode::Interpolate;
        assert_eq!(back.predict(&c, "img", &q, mode), db.predict(&c, "img", &q, mode));
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
        assert_eq!(axis_values(&db, &c, "img", &cpu_key()), vec![0.2, 0.5, 1.0]);
        assert_eq!(db.configs("img").len(), 2);
        assert_eq!(db.inputs(), vec!["img".to_string()]);
        assert_eq!(db.records_for(&c, "img").len(), 9);
    }

    /// A lattice row of config 1 at CPU share 0.35, every bandwidth.
    fn row_at_035(db: &mut PerfDb) {
        for net in [100_000.0, 500_000.0, 1_000_000.0] {
            db.add(rec(&[("c", 1)], 0.35, net, 999.0));
        }
    }

    #[test]
    fn add_after_query_invalidates_index() {
        let mut db = grid_db();
        let c1 = Configuration::new(&[("c", 1)]);
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 500_000.0)]);
        // Build the index with a query, then mutate.
        let before = db.predict(&c1, "img", &q, PredictMode::Interpolate).unwrap();
        row_at_035(&mut db);
        // The new row holds the query point: the rebuilt index must
        // return its record, not the stale interpolation.
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
        assert_eq!(axis_values(&db, &c1, "img", &cpu_key()), vec![0.2, 0.35, 0.5, 1.0]);
    }

    /// How a known-answers row looks a point up.
    type Lookup = fn(&PerfDb, &Configuration, &str, &ResourceVector) -> Option<QosReport>;

    fn indexed(
        db: &PerfDb,
        c: &Configuration,
        input: &str,
        q: &ResourceVector,
    ) -> Option<QosReport> {
        db.predict(c, input, q, PredictMode::Interpolate)
    }

    /// FNV-1a over every answer's metric names and value bits.
    fn answers_digest(
        db: &PerfDb,
        queries: &[(Configuration, &str, ResourceVector)],
        lookup: Lookup,
    ) -> u64 {
        let mut h = Fnv64::new();
        for (config, input, q) in queries {
            match lookup(db, config, input, q) {
                None => h.write_u64(u64::MAX),
                Some(r) => {
                    h.write_u64(r.len() as u64);
                    for (m, v) in r.iter() {
                        h.write_str(m);
                        h.write_u64(v.to_bits());
                    }
                }
            }
        }
        h.finish()
    }

    /// How many cells the slice's lattice has.
    fn cells_of(db: &PerfDb, config: &Configuration) -> usize {
        db.index().slice(config, "img").expect("slice exists").0.cells.len()
    }

    /// Known answers of `predict`, one query set per path through it and
    /// lattice shape. The property tests hold the index to the scan
    /// within 1e-9; this pins every path bit for bit. The `nearest` rows
    /// pin the test-local nearest-record lookup the ablation prices
    /// against.
    #[test]
    fn predict_known_answers() {
        let c1 = Configuration::new(&[("c", 1)]);
        let at = |cpu: f64, net: f64| ResourceVector::new(&[(cpu_key(), cpu), (net_key(), net)]);
        let on = |qs: &[ResourceVector]| -> Vec<(Configuration, &str, ResourceVector)> {
            qs.iter().map(|q| (c1.clone(), "img", q.clone())).collect()
        };
        let mut digests: Vec<(&str, u64)> = Vec::new();
        // The rows pinned since the lattice became complete are held to
        // the scan oracle, bit for bit, too.
        let held_to_scan = |db: &PerfDb, qs: &[(Configuration, &str, ResourceVector)]| {
            for (c, input, q) in qs {
                assert_eq!(indexed(db, c, input, q), scan_oracle::predict(db, c, input, q), "{q}");
            }
        };

        // Dense complete grid: exact hits, then blends and clamps.
        let grid = grid_db();
        assert_eq!(cells_of(&grid, &c1), 9);
        let exact = on(&[at(0.2, 1e5), at(0.5, 5e5), at(1.0, 1e6), at(0.5 + 1e-12, 5e5)]);
        digests.push(("exact", answers_digest(&grid, &exact, indexed)));
        let blends =
            on(&[at(0.35, 7.5e5), at(0.21, 1e5), at(2.0, 3e5), at(0.01, 2e6), at(0.9, 1.3e5)]);
        digests.push(("dense", answers_digest(&grid, &blends, indexed)));
        digests.push(("nearest", answers_digest(&grid, &blends, nearest::nearest)));
        // Queries that lack an axis: priced at its lowest sample.
        let partial = on(&[
            ResourceVector::new(&[(net_key(), 7.5e5)]),
            ResourceVector::new(&[(cpu_key(), 0.35)]),
            ResourceVector::default(),
        ]);
        held_to_scan(&grid, &partial);
        digests.push(("missing axis", answers_digest(&grid, &partial, indexed)));

        // Three axes, uneven spacings, 4 x 2 x 3 cells; `u` on every
        // other cell.
        let mem = ResourceKey::mem("client");
        let point = |cpu: f64, net: f64, m: f64| {
            ResourceVector::new(&[(cpu_key(), cpu), (net_key(), net), (mem.clone(), m)])
        };
        let mut three = PerfDb::new();
        for (i, &cpu) in [0.1, 0.25, 0.3, 1.0].iter().enumerate() {
            for (j, &net) in [2e4, 7e5].iter().enumerate() {
                for (k, &m) in [1e6, 1.5e6, 8e6].iter().enumerate() {
                    let mut metrics = QosReport::new(&[("t", 10.0 / cpu + 1e6 / net + m / 1e7)]);
                    if (i + j + k) % 2 == 0 {
                        metrics.set("u", cpu * 3.0 + k as f64);
                    }
                    three.add(PerfRecord {
                        config: c1.clone(),
                        resources: point(cpu, net, m),
                        input: "img".into(),
                        metrics,
                    });
                }
            }
        }
        assert_eq!(cells_of(&three, &c1), 24);
        let qs = on(&[
            point(0.25, 7e5, 1.5e6),
            point(0.2, 3e5, 4e6),
            point(0.28, 7e5, 1e6),
            point(2.0, 1e4, 9e6),
            ResourceVector::new(&[(cpu_key(), 0.5), (mem.clone(), 2e6)]),
        ]);
        held_to_scan(&three, &qs);
        digests.push(("3-axis", answers_digest(&three, &qs, indexed)));
        digests.push(("3-axis nearest", answers_digest(&three, &qs, nearest::nearest)));

        // The widest lattice: 8 axes of 2 samples each, 256 cells.
        let axes: Vec<ResourceKey> = (0..8).map(|h| ResourceKey::cpu(&format!("h{h}"))).collect();
        let corner = |levels: &dyn Fn(usize) -> f64, n: usize| {
            let mut r = ResourceVector::default();
            for (i, k) in axes.iter().enumerate().take(n) {
                r.set(k.clone(), levels(i));
            }
            r
        };
        let mut wide = PerfDb::new();
        for bits in 0..256usize {
            let level = |i: usize| if bits & (1 << i) != 0 { 0.5 + 0.05 * i as f64 } else { 0.25 };
            let total: f64 = (0..8).map(level).sum();
            let mut metrics = QosReport::new(&[("t", 50.0 / total + bits as f64 * 1e-3)]);
            if bits % 3 != 1 {
                metrics.set("u", total);
            }
            wide.add(PerfRecord {
                config: c1.clone(),
                resources: corner(&level, 8),
                input: "img".into(),
                metrics,
            });
        }
        assert_eq!(cells_of(&wide, &c1), 256);
        let qs = on(&[
            corner(&|i| if i % 2 == 0 { 0.25 } else { 0.5 + 0.05 * i as f64 }, 8),
            corner(&|i| 0.3 + 0.02 * i as f64, 8),
            corner(&|i| 0.4 + 0.1 * i as f64, 8),
            corner(&|_| 0.45, 6),
        ]);
        held_to_scan(&wide, &qs);
        digests.push(("8-axis", answers_digest(&wide, &qs, indexed)));

        // Records missing a metric the rest of the slice reports.
        let mut partial = PerfDb::new();
        for (i, &cpu) in [0.2, 0.5, 1.0].iter().enumerate() {
            for (j, &net) in [1e5, 1e6].iter().enumerate() {
                let mut metrics = QosReport::new(&[("t", 10.0 / cpu + 1e6 / net)]);
                if (i + j) % 2 == 0 {
                    metrics.set("u", cpu * 3.0 + j as f64);
                }
                partial.add(PerfRecord {
                    config: c1.clone(),
                    resources: at(cpu, net),
                    input: "img".into(),
                    metrics,
                });
            }
        }
        let qs = on(&[at(0.5, 1e5), at(0.2, 1e5), at(0.35, 5e5), at(0.7, 1e6), at(3.0, 1.0)]);
        digests.push(("missing metric", answers_digest(&partial, &qs, indexed)));
        digests.push(("missing nearest", answers_digest(&partial, &qs, nearest::nearest)));

        // Unknown configuration and unknown input.
        let qs = vec![
            (Configuration::new(&[("c", 9)]), "img", at(0.5, 5e5)),
            (c1.clone(), "other", at(0.5, 5e5)),
        ];
        digests.push(("unknown", answers_digest(&grid, &qs, indexed)));

        let pinned = [
            ("exact", 0x8aaf_8fb4_88e3_9095),
            ("dense", 0x462d_dcfc_ff8f_e4a4),
            ("nearest", 0xaa55_51af_eb64_1596),
            ("missing axis", 0x89c7_9e6d_99a5_db1c),
            ("3-axis", 0x4613_e1cd_4a0e_995f),
            ("3-axis nearest", 0x329c_725f_f4e8_1b13),
            ("8-axis", 0x2eda_ca73_0421_2ad1),
            ("missing metric", 0x0c9f_7dc6_55cd_0e0d),
            ("missing nearest", 0x6d45_4aaf_a3d3_39e4),
            ("unknown", 0xd660_7508_f5a1_e855),
        ];
        assert_eq!(digests, pinned);
    }

    #[test]
    fn clone_shares_built_index_and_diverges_after_mutation() {
        let db = grid_db();
        let c = Configuration::new(&[("c", 1)]);
        let q = ResourceVector::new(&[(cpu_key(), 0.35), (net_key(), 500_000.0)]);
        let built = db.predict(&c, "img", &q, PredictMode::Interpolate);
        let mut clone = db.clone();
        assert_eq!(clone.predict(&c, "img", &q, PredictMode::Interpolate), built);
        row_at_035(&mut clone);
        assert_eq!(
            clone.predict(&c, "img", &q, PredictMode::Interpolate).unwrap().get("transmit_time"),
            Some(999.0)
        );
        // The original is untouched.
        assert_eq!(db.predict(&c, "img", &q, PredictMode::Interpolate), built);
    }
}
