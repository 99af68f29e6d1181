//! The performance database: profile-based models of configuration
//! behavior.
//!
//! §5: "for each application configuration, we measure the achieved
//! quality metrics for a sampling of different resource conditions, and
//! interpolate these measurements to get performance curves". Records map
//! `(configuration, input, resource vector) -> quality metrics`;
//! [`PerfDb::predict`] answers point queries by exact lookup, else by
//! multilinear interpolation over the sampled grid (with clamping
//! extrapolation), falling back to inverse-distance weighting where the
//! grid is incomplete. The nearest-record lookup the paper's prototype
//! used (§7.1) is test code: the ablation's baseline.
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
//!   its sorted distinct axis grid and per-axis scales precomputed, and
//!   its records' metrics as flat **rows** of `f64` in the input's sorted
//!   metric-name union (NaN where a record lacks a metric);
//! - a slice's full-signature records sit on a **lattice**: their grid
//!   positions (one sample index per axis) in one sorted table, so an
//!   exact match is a per-axis binary search plus one search of the table,
//!   and interpolation a 2^d-corner blend of rows instead of a full scan.
//!   The table holds one entry per record, whatever the grid's size.
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
    /// the sampled range; falls back to inverse-distance weighting where
    /// the grid is incomplete.
    Interpolate,
}

/// Tolerance when matching axis coordinates.
const AXIS_TOL: f64 = 1e-9;

/// The most axes a lattice indexes, and so the most a multilinear blend
/// (2^d corners) spans. A slice with more axes keeps every record off the
/// lattice and blends by inverse-distance weighting.
const MAX_AXES: usize = 8;

/// A lattice position: the sample index of a point on each slice axis,
/// 0 past the last axis.
type Cell = [u32; MAX_AXES];

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
    pub(crate) fn records_for(&self, config: &Configuration, input: &str) -> Vec<&PerfRecord> {
        let idx = self.index();
        match idx.slice(config, input) {
            Some((s, _)) => s.recs.iter().map(|&ri| &self.records[ri as usize]).collect(),
            None => Vec::new(),
        }
    }

    /// Sorted distinct values sampled along `axis` for `(config, input)`.
    pub fn axis_values(&self, config: &Configuration, input: &str, axis: &ResourceKey) -> Vec<f64> {
        let idx = self.index();
        idx.slice(config, input)
            .and_then(|(s, _)| s.axes.binary_search(axis).ok().map(|i| s.axis_values[i].clone()))
            .unwrap_or_default()
    }

    /// The union of resource axes sampled for `(config, input)`.
    pub fn axes(&self, config: &Configuration, input: &str) -> Vec<ResourceKey> {
        let idx = self.index();
        idx.slice(config, input).map(|(s, _)| s.axes.clone()).unwrap_or_default()
    }

    /// Predict quality metrics for `config` on `input` under `resources`.
    /// Returns `None` when the database has no records for the pair.
    ///
    /// Indexed: exact matches and interpolation corners are lattice
    /// lookups (binary searches), so a query over a d-axis grid of m
    /// samples per axis and n records costs O(d log m + 2^d log n) instead
    /// of a scan over every record. `mode` has one value.
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
        slice.predict_into(&self.records, resources, &mut row);
        Some(row_report(names, &row))
    }

    /// The configurations profiled for `input`, as one decision prices
    /// them; `None` when no record has that input.
    pub(crate) fn candidates(&self, input: &str) -> Option<Candidates<'_>> {
        let idx = self.index();
        let input = *idx.input_ids.get(input)? as usize;
        Some(Candidates { records: &self.records, idx, input })
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
    /// Input id -> its slices, parallel to `configs_by_input`.
    slices: Vec<Vec<Slice>>,
    /// `(config id, input id)` -> position in both lists.
    slice_pos: HashMap<(u32, u32), u32>,
    /// Input id -> sorted union of the metric names its records carry:
    /// the column order of every metric row of the input's slices.
    metrics_by_input: Vec<Vec<String>>,
}

impl Index {
    fn build(records: &[PerfRecord]) -> Index {
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
        let slices = recs_by_input
            .into_iter()
            .zip(&metrics_by_input)
            .map(|(groups, names)| {
                groups.into_iter().map(|recs| Slice::build(records, recs, names)).collect()
            })
            .collect();
        Index {
            configs,
            config_ids,
            inputs,
            input_ids,
            configs_by_input,
            slices,
            slice_pos,
            metrics_by_input,
        }
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
pub(crate) struct Candidates<'a> {
    records: &'a [PerfRecord],
    idx: Arc<Index>,
    input: usize,
}

impl Candidates<'_> {
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
        self.slice(i).predict_into(self.records, at, row);
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

/// All records of one `(config, input)` pair, with precomputed geometry.
#[derive(Debug)]
struct Slice {
    /// Record indices, insertion order. A slice names its records by
    /// position in this list.
    recs: Vec<u32>,
    /// Sorted union of resource axes over the slice's records.
    axes: Vec<ResourceKey>,
    /// Sorted distinct sampled values per axis (parallel to `axes`).
    axis_values: Vec<Vec<f64>>,
    /// Per-axis value ranges, for normalized distances.
    scales: BTreeMap<ResourceKey, f64>,
    /// One metric row per record, in `recs` order, with the input's
    /// metric columns; NaN where the record lacks the metric.
    rows: Vec<f64>,
    /// Where a blend starts: 0.0 in the columns some record of the slice
    /// reports, NaN in the others.
    blank: Vec<f64>,
    /// Records whose axis set differs from `axes` (every record, past
    /// `MAX_AXES` axes); they can never sit on the lattice but still
    /// participate in exact matching and IDW.
    offgrid: Vec<u32>,
    /// The other records' grid positions, sorted, each once, with the
    /// slice position of the first record at it.
    lattice: Vec<(Cell, u32)>,
}

impl Slice {
    fn build(records: &[PerfRecord], recs: Vec<u32>, metric_names: &[String]) -> Slice {
        let mut axis_set: BTreeSet<ResourceKey> = BTreeSet::new();
        for &ri in &recs {
            for (k, _) in records[ri as usize].resources.iter() {
                if !axis_set.contains(k) {
                    axis_set.insert(k.clone());
                }
            }
        }
        let axes: Vec<ResourceKey> = axis_set.into_iter().collect();
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
        let mut offgrid = Vec::new();
        let mut lattice = Vec::new();
        for (pos, &ri) in recs.iter().enumerate() {
            match cell_of(&axes, &axis_values, &records[ri as usize].resources) {
                Some(cell) => lattice.push((cell, pos as u32)),
                None => offgrid.push(pos as u32),
            }
        }
        // The sort is stable, so the dedup keeps the first record at each
        // position: the scan path's first-match semantics.
        lattice.sort_by_key(|&(cell, _)| cell);
        lattice.dedup_by_key(|&mut (cell, _)| cell);
        Slice { recs, axes, axis_values, scales, rows, blank, offgrid, lattice }
    }

    /// The record at slice position `pos`.
    fn record<'a>(&self, records: &'a [PerfRecord], pos: usize) -> &'a PerfRecord {
        &records[self.recs[pos] as usize]
    }

    /// The metric row of the record at slice position `pos`.
    fn row(&self, pos: usize) -> &[f64] {
        let w = self.blank.len();
        &self.rows[pos * w..(pos + 1) * w]
    }

    /// Predict at `q` into `out` (one value per metric column). Never
    /// fails: a slice holds at least one record, and IDW answers wherever
    /// the lattice cannot.
    fn predict_into(&self, records: &[PerfRecord], q: &ResourceVector, out: &mut [f64]) {
        if let Some(pos) = self.exact_match(records, q) {
            out.copy_from_slice(self.row(pos));
        } else if !self.multilinear(q, out) {
            self.idw(records, q, out);
        }
    }

    /// Position of the first record exactly matching `q` (the
    /// [`same_point`] semantics of the scan path): a lattice lookup for
    /// full-signature queries, then a scan over the (usually empty)
    /// off-grid records.
    fn exact_match(&self, records: &[PerfRecord], q: &ResourceVector) -> Option<usize> {
        let cell = cell_of(&self.axes, &self.axis_values, q);
        if let Some(pos) = cell.and_then(|cell| self.at_cell(cell)) {
            return Some(pos);
        }
        let matches = |pos: usize| same_point(&self.record(records, pos).resources, q);
        self.offgrid.iter().map(|&pos| pos as usize).find(|&pos| matches(pos))
    }

    /// Position of the first record at lattice position `cell`.
    fn at_cell(&self, cell: Cell) -> Option<usize> {
        let i = self.lattice.binary_search_by_key(&cell, |&(c, _)| c).ok()?;
        Some(self.lattice[i].1 as usize)
    }

    /// Multilinear interpolation over the lattice into `out`; clamps
    /// query coordinates to the sampled range (edge extrapolation).
    /// Returns `false` when a needed corner record is missing (ragged
    /// slice), leaving `out` unspecified.
    fn multilinear(&self, q: &ResourceVector, out: &mut [f64]) -> bool {
        let d = self.axes.len();
        if d == 0 || d > MAX_AXES {
            return false;
        }
        // Per axis: bracketing grid positions (lo, hi) and fraction t.
        let mut brackets = [(0u32, 0u32, 0.0f64); MAX_AXES];
        for (i, axis) in self.axes.iter().enumerate() {
            let vals = &self.axis_values[i];
            let Some(v) = q.get(axis) else { return false };
            if vals.is_empty() {
                return false;
            }
            let v = v.clamp(vals[0], vals[vals.len() - 1]);
            let hi_idx = vals.partition_point(|&x| x < v - AXIS_TOL);
            brackets[i] = if hi_idx == 0 {
                (0, 0, 0.0)
            } else if (vals[hi_idx.min(vals.len() - 1)] - v).abs() < AXIS_TOL {
                let p = hi_idx.min(vals.len() - 1) as u32;
                (p, p, 0.0)
            } else {
                let lo = vals[hi_idx - 1];
                let hi = vals[hi_idx];
                (hi_idx as u32 - 1, hi_idx as u32, (v - lo) / (hi - lo))
            };
        }
        let brackets = &brackets[..d];
        out.copy_from_slice(&self.blank);
        let mut total_w = 0.0;
        for corner in 0..(1usize << d) {
            let mut weight = 1.0;
            let mut cell = [0; MAX_AXES];
            for (i, &(lo, hi, t)) in brackets.iter().enumerate() {
                let use_hi = corner & (1 << i) != 0;
                weight *= if use_hi { t } else { 1.0 - t };
                cell[i] = if use_hi { hi } else { lo };
            }
            if weight <= 0.0 {
                continue;
            }
            let Some(pos) = self.at_cell(cell) else {
                return false;
            };
            for (s, &v) in out.iter_mut().zip(self.row(pos)) {
                if !v.is_nan() {
                    *s += weight * v;
                }
            }
            total_w += weight;
        }
        if total_w <= 0.0 {
            return false;
        }
        for s in out.iter_mut() {
            *s /= total_w;
        }
        true
    }

    /// Inverse-distance weighting over the four nearest records (the
    /// fallback for incomplete grids), into `out`: the columns none of
    /// them reports stay NaN.
    fn idw(&self, records: &[PerfRecord], q: &ResourceVector, out: &mut [f64]) {
        let mut weighted: Vec<(f64, usize)> = (0..self.recs.len())
            .map(|pos| (self.record(records, pos).resources.distance(q, &self.scales), pos))
            .collect();
        weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total_w = 0.0;
        out.fill(f64::NAN);
        for &(d, pos) in weighted.iter().take(4) {
            let w = 1.0 / (d + 1e-9);
            for (s, &v) in out.iter_mut().zip(self.row(pos)) {
                if !v.is_nan() {
                    *s = if s.is_nan() { 0.0 } else { *s } + w * v;
                }
            }
            total_w += w;
        }
        for s in out.iter_mut() {
            *s /= total_w;
        }
    }
}

/// The lattice position of `point`, or `None` unless `point` has exactly
/// the slice's axes, at most `MAX_AXES` of them, each at a sampled value
/// (relative tolerance, as in [`same_point`]).
fn cell_of(axes: &[ResourceKey], axis_values: &[Vec<f64>], point: &ResourceVector) -> Option<Cell> {
    if point.len() != axes.len() || axes.len() > MAX_AXES {
        return None;
    }
    let mut cell = [0; MAX_AXES];
    for ((c, axis), vals) in cell.iter_mut().zip(axes).zip(axis_values) {
        *c = snap_pos(vals, point.get(axis)?)? as u32;
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
        assert_eq!(db.axis_values(&c, "img", &cpu_key()), vec![0.2, 0.5, 1.0]);
        assert_eq!(db.configs("img").len(), 2);
        assert_eq!(db.inputs(), vec!["img".to_string()]);
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
        for q in [
            ResourceVector::new(&[(cpu_key(), 0.5), (net_key(), 4e5)]),
            ResourceVector::new(&[(cpu_key(), 0.2), (net_key(), 1e5)]),
            ResourceVector::new(&[(cpu_key(), 0.6)]),
            ResourceVector::new(&[(cpu_key(), 0.9), (net_key(), 9e5)]),
        ] {
            let a = db.predict(&c, "img", &q, PredictMode::Interpolate);
            assert_eq!(a, scan_oracle::predict(&db, &c, "img", &q), "query {q}");
        }
    }

    #[test]
    fn sparse_lattice_matches_scan() {
        // 3 axes x 41 diagonal samples: 41 records on a grid of 41^3
        // positions, so most blends lack a corner.
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
        for probe in [3.3f64, 17.0, 40.5] {
            let q = ResourceVector::new(&[
                (cpu_key(), probe / 100.0),
                (net_key(), probe * 1e4),
                (mem.clone(), probe * 1e6),
            ]);
            let a = db.predict(&c, "img", &q, PredictMode::Interpolate);
            assert_eq!(a, scan_oracle::predict(&db, &c, "img", &q), "probe {probe}");
        }
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

    /// How many lattice positions the slice's records fill, and how many
    /// of its records sit off the lattice.
    fn lattice_of(db: &PerfDb, config: &Configuration) -> (usize, usize) {
        let idx = db.index();
        let s = idx.slice(config, "img").expect("slice exists").0;
        (s.lattice.len(), s.offgrid.len())
    }

    /// Known answers of `predict`, one query set per path through it. The
    /// property tests hold the index to the scan within 1e-9; this pins
    /// every path bit for bit. The `nearest` rows pin the test-local
    /// nearest-record lookup the ablation prices against.
    #[test]
    fn predict_known_answers() {
        let c1 = Configuration::new(&[("c", 1)]);
        let at = |cpu: f64, net: f64| ResourceVector::new(&[(cpu_key(), cpu), (net_key(), net)]);
        let on = |qs: &[ResourceVector]| -> Vec<(Configuration, &str, ResourceVector)> {
            qs.iter().map(|q| (c1.clone(), "img", q.clone())).collect()
        };
        let mut digests: Vec<(&str, u64)> = Vec::new();

        // Dense complete grid: exact hits, then blends and clamps.
        let grid = grid_db();
        assert_eq!(lattice_of(&grid, &c1), (9, 0));
        let exact = on(&[at(0.2, 1e5), at(0.5, 5e5), at(1.0, 1e6), at(0.5 + 1e-12, 5e5)]);
        digests.push(("exact", answers_digest(&grid, &exact, indexed)));
        let blends =
            on(&[at(0.35, 7.5e5), at(0.21, 1e5), at(2.0, 3e5), at(0.01, 2e6), at(0.9, 1.3e5)]);
        digests.push(("dense", answers_digest(&grid, &blends, indexed)));
        digests.push(("nearest", answers_digest(&grid, &blends, nearest::nearest)));

        // Sparse lattice: a diagonal of 41 points plus the corners one
        // single-axis blend needs; the diagonal blend falls back to IDW.
        let mut sparse = PerfDb::new();
        let mem = ResourceKey::mem("client");
        let point = |a: f64, b: f64| {
            ResourceVector::new(&[
                (cpu_key(), a / 100.0),
                (net_key(), b * 1e4),
                (mem.clone(), b * 1e6),
            ])
        };
        for i in 0..41 {
            let v = 1.0 + i as f64;
            let metrics = QosReport::new(&[("t", 100.0 / v), ("u", v * 0.3)]);
            sparse.add(PerfRecord {
                config: c1.clone(),
                resources: point(v, v),
                input: "img".into(),
                metrics,
            });
        }
        sparse.add(PerfRecord {
            config: c1.clone(),
            resources: point(8.0, 7.0),
            input: "img".into(),
            metrics: QosReport::new(&[("t", 13.5)]),
        });
        assert_eq!(lattice_of(&sparse, &c1), (42, 0));
        // A lattice blend, not IDW: a quarter of the way to the extra
        // corner, which lacks `u` but still carries its weight.
        let blend =
            sparse.predict(&c1, "img", &point(7.25, 7.0), PredictMode::Interpolate).unwrap();
        assert!((blend.get("t").unwrap() - (0.75 * 100.0 / 7.0 + 0.25 * 13.5)).abs() < 1e-9);
        assert!((blend.get("u").unwrap() - 0.75 * 7.0 * 0.3).abs() < 1e-9);
        let qs = on(&[point(7.25, 7.0), point(7.5, 7.5), point(40.5, 40.5), point(0.5, 3.0)]);
        digests.push(("sparse", answers_digest(&sparse, &qs, indexed)));
        digests.push(("sparse nearest", answers_digest(&sparse, &qs, nearest::nearest)));

        // The widest lattice: 8 axes of 33 samples each, 33^8 positions.
        let axes: Vec<ResourceKey> = (0..8).map(|h| ResourceKey::cpu(&format!("h{h}"))).collect();
        let diag = |first: f64, rest: f64| {
            let mut r = ResourceVector::default();
            for (i, k) in axes.iter().enumerate() {
                r.set(k.clone(), if i == 0 { first } else { rest } / 64.0);
            }
            r
        };
        let mut scan = PerfDb::new();
        for i in 0..33 {
            let v = 1.0 + i as f64;
            scan.add(PerfRecord {
                config: c1.clone(),
                resources: diag(v, v),
                input: "img".into(),
                metrics: QosReport::new(&[("t", 50.0 / v + 1.0)]),
            });
        }
        scan.add(PerfRecord {
            config: c1.clone(),
            resources: diag(5.0, 4.0),
            input: "img".into(),
            metrics: QosReport::new(&[("t", 9.75), ("u", 2.0)]),
        });
        assert_eq!(lattice_of(&scan, &c1), (34, 0));
        let blend = scan.predict(&c1, "img", &diag(4.3, 4.0), PredictMode::Interpolate).unwrap();
        assert!((blend.get("t").unwrap() - (0.7 * 13.5 + 0.3 * 9.75)).abs() < 1e-9);
        assert!((blend.get("u").unwrap() - 0.3 * 2.0).abs() < 1e-9);
        let qs = on(&[diag(4.0, 4.0), diag(4.3, 4.0), diag(4.5, 4.5), diag(40.0, 0.5)]);
        digests.push(("scan", answers_digest(&scan, &qs, indexed)));

        // A slice wider than the interpolation bound: 9 axes, so blends
        // fall back to IDW. A diagonal, a duplicate of one of its points
        // (the first record wins), a corner, and a record missing an axis.
        let wide_axes: Vec<ResourceKey> =
            (0..9).map(|h| ResourceKey::net(&format!("w{h}"))).collect();
        let wide_at = |first: f64, rest: f64, n: usize| {
            let mut r = ResourceVector::default();
            for (i, k) in wide_axes.iter().take(n).enumerate() {
                r.set(k.clone(), if i == 0 { first } else { rest } * 1e5);
            }
            r
        };
        let mut wide_recs: Vec<(ResourceVector, QosReport)> = (1..=6)
            .map(|i| {
                let v = i as f64;
                (wide_at(v, v, 9), QosReport::new(&[("t", 30.0 / v + 1.0), ("u", v * 0.5)]))
            })
            .collect();
        wide_recs.push((wide_at(3.0, 3.0, 9), QosReport::new(&[("t", 99.0), ("u", -1.0)])));
        wide_recs.push((wide_at(5.0, 2.0, 9), QosReport::new(&[("t", 7.25)])));
        wide_recs.push((wide_at(4.0, 4.0, 8), QosReport::new(&[("t", 11.0), ("w", 2.0)])));
        let mut wide = PerfDb::new();
        for (resources, metrics) in wide_recs {
            wide.add(PerfRecord { config: c1.clone(), resources, input: "img".into(), metrics });
        }
        assert_eq!(lattice_of(&wide, &c1), (0, 9));
        let hit = wide.predict(&c1, "img", &wide_at(3.0, 3.0, 9), PredictMode::Interpolate);
        assert_eq!(hit.unwrap().get("t"), Some(11.0), "the first record at a point wins");
        let qs = on(&[
            wide_at(3.0, 3.0, 9),
            wide_at(3.0 + 1e-9, 3.0, 9),
            wide_at(5.0, 2.0, 9),
            wide_at(4.0, 4.0, 8),
            wide_at(2.5, 2.5, 9),
            wide_at(4.5, 1.5, 9),
            wide_at(9.0, 0.5, 8),
        ]);
        digests.push(("wide", answers_digest(&wide, &qs, indexed)));
        digests.push(("wide nearest", answers_digest(&wide, &qs, nearest::nearest)));

        // Ragged slice: IDW and nearest over scattered points.
        let mut ragged = PerfDb::new();
        ragged.add(rec(&[("c", 1)], 0.2, 100_000.0, 60.0));
        ragged.add(rec(&[("c", 1)], 0.9, 900_000.0, 12.0));
        ragged.add(rec(&[("c", 1)], 0.5, 400_000.0, 22.0));
        ragged.add(PerfRecord {
            config: c1.clone(),
            resources: ResourceVector::new(&[(cpu_key(), 0.6)]),
            input: "img".into(),
            metrics: QosReport::new(&[("transmit_time", 30.0), ("u", 4.0)]),
        });
        let qs = on(&[at(0.6, 5e5), at(0.1, 1e6), ResourceVector::new(&[(cpu_key(), 0.6)])]);
        digests.push(("idw", answers_digest(&ragged, &qs, indexed)));
        digests.push(("ragged nearest", answers_digest(&ragged, &qs, nearest::nearest)));

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
            ("sparse", 0xd90a_e589_a807_3b17),
            ("sparse nearest", 0x6bf7_a611_42da_f06e),
            ("scan", 0x9360_1bc6_fecf_fd2f),
            ("wide", 0xefdf_cec4_4ad8_d5b4),
            ("wide nearest", 0xdadf_9b31_d818_88cf),
            ("idw", 0x819c_f9bc_9996_2965),
            ("ragged nearest", 0xc44b_2a96_c4c8_b6b8),
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
        clone.add(rec(&[("c", 1)], 0.35, 500_000.0, 999.0));
        assert_eq!(
            clone.predict(&c, "img", &q, PredictMode::Interpolate).unwrap().get("transmit_time"),
            Some(999.0)
        );
        // The original is untouched.
        assert_eq!(db.predict(&c, "img", &q, PredictMode::Interpolate), built);
    }
}
