//! Self-contained repro files.
//!
//! A repro records one failing [`TrialPlan`] plus the violated invariant,
//! as JSON, and replays verbatim: parsing the file and running the plan
//! reproduces the exact trial the explorer saw. The plan is all unsigned
//! integers, which [`obs::json`] keeps exact at the full 64 bits.

use obs::json::{self, Json};

use crate::space::TrialPlan;

/// One shrunken failing trial, ready to commit under `repros/`.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Format version (currently 1).
    pub version: u64,
    /// `Violation::kind()` of the invariant the plan violated.
    pub violation: String,
    /// Human-readable description of the original violation.
    pub detail: String,
    /// Behaviour digest of the (shrunken) failing trial, pinned so a
    /// replay can assert bit-for-bit equality, not just "same violation
    /// kind". Zero means unrecorded (legacy files).
    pub digest: u64,
    /// The (shrunken) plan to replay.
    pub plan: TrialPlan,
}

impl Repro {
    pub fn new(plan: TrialPlan, violation: &str, detail: &str) -> Self {
        Repro {
            version: 1,
            violation: violation.to_string(),
            detail: detail.to_string(),
            digest: 0,
            plan,
        }
    }

    /// Pin the failing trial's behaviour digest into the repro file.
    pub fn with_digest(mut self, digest: u64) -> Self {
        self.digest = digest;
        self
    }

    /// Serialize to the committed file format: the pretty form of
    /// [`obs::json`], newline-terminated.
    pub fn to_json(&self) -> String {
        let p = &self.plan;
        let triples = |list: &[(u64, u64, u64)]| {
            Json::arr(list.iter().map(|&(a, b, c)| Json::arr([a, b, c])))
        };
        let plan = Json::obj([
            ("trial_seed", p.trial_seed.into()),
            ("schedule_seed", p.schedule_seed.into()),
            ("timer_skew_us", p.timer_skew_us.into()),
            ("loss_pct", p.loss_pct.into()),
            ("jitter_us", p.jitter_us.into()),
            ("down", Json::arr(p.down.iter().map(|&(a, b)| Json::arr([a, b])))),
            ("crash_at_ms", p.crash_at_ms.into()),
            ("restart_at_ms", p.restart_at_ms.into()),
            ("n_images", p.n_images.into()),
            ("timeout_ms", p.timeout_ms.into()),
            ("surges", triples(&p.surges)),
            ("dips", triples(&p.dips)),
            ("knobs", triples(&p.knobs)),
            ("drift_threshold_x1000", p.drift_threshold_x1000.into()),
        ]);
        let doc = Json::obj([
            ("version", self.version.into()),
            ("violation", self.violation.as_str().into()),
            ("detail", self.detail.as_str().into()),
            ("digest", self.digest.into()),
            ("plan", plan),
        ]);
        format!("{doc:#}\n")
    }

    /// Parse a repro file. Strict about structure (unknown keys are
    /// errors), lenient about whitespace and key order.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut version = None;
        let mut violation = None;
        let mut detail = String::new();
        // Legacy files carry no digest; zero means "not pinned".
        let mut digest = 0;
        let mut plan = None;
        for (key, v) in members(&doc, "repro")? {
            match key.as_str() {
                "version" => version = Some(uint(key, v)?),
                "violation" => violation = Some(string(key, v)?),
                "detail" => detail = string(key, v)?,
                "digest" => digest = uint(key, v)?,
                "plan" => plan = Some(plan_from_json(v)?),
                other => return Err(format!("unknown key '{other}'")),
            }
        }
        let version = version.ok_or("missing 'version'")?;
        if version != 1 {
            return Err(format!("unsupported repro version {version}"));
        }
        Ok(Repro {
            version,
            violation: violation.ok_or("missing 'violation'")?,
            detail,
            digest,
            plan: plan.ok_or("missing 'plan'")?,
        })
    }
}

fn members<'a>(v: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    v.as_obj().ok_or_else(|| format!("{what} is not an object"))
}

fn uint(key: &str, v: &Json) -> Result<u64, String> {
    v.as_u64().ok_or_else(|| format!("'{key}' is not an unsigned integer"))
}

fn string(key: &str, v: &Json) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| format!("'{key}' is not a string"))
}

/// `[[a, b], ...]` (`N` = 2, the down windows) or `[[a, b, c], ...]`
/// (`N` = 3, surge / dip / knob lists).
fn windows<const N: usize>(key: &str, v: &Json) -> Result<Vec<[u64; N]>, String> {
    let bad = || format!("'{key}' is not a list of {N}-integer windows");
    let mut out = Vec::new();
    for window in v.as_arr().ok_or_else(bad)? {
        let items = window.as_arr().filter(|items| items.len() == N).ok_or_else(bad)?;
        let mut w = [0; N];
        for (slot, item) in w.iter_mut().zip(items) {
            *slot = item.as_u64().ok_or_else(bad)?;
        }
        out.push(w);
    }
    Ok(out)
}

fn plan_from_json(v: &Json) -> Result<TrialPlan, String> {
    // Every axis a file does not mention stays off, so files written
    // before the overload, knob and drift axes existed keep parsing.
    let mut plan = TrialPlan { n_images: 2, timeout_ms: 250, ..TrialPlan::default() };
    let triples = |key: &str, v: &Json| -> Result<Vec<(u64, u64, u64)>, String> {
        Ok(windows::<3>(key, v)?.into_iter().map(|[a, b, c]| (a, b, c)).collect())
    };
    for (key, v) in members(v, "'plan'")? {
        match key.as_str() {
            "trial_seed" => plan.trial_seed = uint(key, v)?,
            "schedule_seed" => plan.schedule_seed = uint(key, v)?,
            "timer_skew_us" => plan.timer_skew_us = uint(key, v)?,
            "loss_pct" => plan.loss_pct = uint(key, v)?,
            "jitter_us" => plan.jitter_us = uint(key, v)?,
            "down" => {
                plan.down = windows::<2>(key, v)?.into_iter().map(|[a, b]| (a, b)).collect();
            }
            "crash_at_ms" => plan.crash_at_ms = uint(key, v)?,
            "restart_at_ms" => plan.restart_at_ms = uint(key, v)?,
            "n_images" => plan.n_images = uint(key, v)?,
            "timeout_ms" => plan.timeout_ms = uint(key, v)?,
            "surges" => plan.surges = triples(key, v)?,
            "dips" => plan.dips = triples(key, v)?,
            "knobs" => plan.knobs = triples(key, v)?,
            "drift_threshold_x1000" => plan.drift_threshold_x1000 = uint(key, v)?,
            other => return Err(format!("unknown plan key '{other}'")),
        }
    }
    // A file is input from outside the program: a plan no trial can run
    // is an error here, not a panic when the trial runs.
    plan.fault_plan().map_err(|e| e.to_string())?;
    if plan.n_images == 0 {
        return Err("'n_images' must be at least 1".into());
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::FaultSpace;

    #[test]
    fn json_round_trips_exactly() {
        for seed in [1, 7, 42, 0xDEAD_BEEF] {
            let plan = FaultSpace::default().sample(seed);
            let repro = Repro::new(plan, "duplicate_apply", "image 0 round 3 applied twice");
            let parsed = Repro::from_json(&repro.to_json()).expect("parses");
            assert_eq!(parsed, repro);
        }
    }

    #[test]
    fn overload_plans_round_trip() {
        for seed in [3, 9, 0xCAFE] {
            let plan = FaultSpace::overload().sample(seed);
            assert!(plan.has_overload());
            let repro = Repro::new(plan, "shed_order", "tier 0 shed while tier 2 ran");
            let parsed = Repro::from_json(&repro.to_json()).expect("parses");
            assert_eq!(parsed, repro);
        }
    }

    #[test]
    fn knob_plans_round_trip() {
        for seed in [2, 11, 0xB0B] {
            let plan = FaultSpace::knobs().sample(seed);
            assert!(!plan.knobs.is_empty());
            let repro = Repro::new(plan, "config_audit_incomplete", "unaudited version 2");
            let parsed = Repro::from_json(&repro.to_json()).expect("parses");
            assert_eq!(parsed, repro);
        }
    }

    #[test]
    fn pre_overload_repro_files_still_parse() {
        // A repro written before the overload axis existed has no
        // surges/dips keys; they must default to empty.
        let text = "{\"version\": 1, \"violation\": \"duplicate_apply\", \"detail\": \"d\", \
                    \"plan\": {\"trial_seed\": 5, \"schedule_seed\": 1, \"timer_skew_us\": 0, \
                    \"loss_pct\": 0, \"jitter_us\": 0, \"down\": [], \"crash_at_ms\": 0, \
                    \"restart_at_ms\": 0, \"n_images\": 2, \"timeout_ms\": 250}}";
        let r = Repro::from_json(text).expect("legacy format parses");
        assert!(r.plan.surges.is_empty() && r.plan.dips.is_empty() && r.plan.knobs.is_empty());
        assert_eq!(r.plan.drift_threshold_x1000, 0, "drift axis defaults off");
        assert_eq!(r.digest, 0, "legacy files carry no pinned digest");
    }

    #[test]
    fn drift_plans_round_trip_with_digest() {
        for seed in [4, 13, 0xD21F7] {
            let plan = FaultSpace::drift().sample(seed);
            assert!(plan.drift_threshold_x1000 > 0, "drift space arms the engine");
            let repro = Repro::new(plan, "model_drift", "config 'c=1,dR=32,l=2' residual 900/1000")
                .with_digest(0xABCD_EF01_2345_6789);
            let parsed = Repro::from_json(&repro.to_json()).expect("parses");
            assert_eq!(parsed, repro);
            assert_eq!(parsed.digest, 0xABCD_EF01_2345_6789);
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let plan = FaultSpace::quiet().sample(1);
        let repro =
            Repro::new(plan, "breaker_illegal", "tab\there \"quoted\" \\ back\nline µs \r é");
        let parsed = Repro::from_json(&repro.to_json()).expect("parses");
        assert_eq!(parsed.detail, repro.detail);
    }

    /// A plan a file describes but no trial can run is a parse error,
    /// not a panic when the trial runs.
    #[test]
    fn impossible_plans_are_errors_not_panics() {
        let file = |faults: &str| {
            format!(r#"{{"version": 1, "violation": "k", "plan": {{"trial_seed": 5, {faults}}}}}"#)
        };
        let cases = [
            (r#""loss_pct": 150"#, "loss probability out of range: 1.5"),
            (r#""down": [[50, 10]]"#, "empty down window"),
            (r#""crash_at_ms": 100, "restart_at_ms": 50"#, "restart must follow the crash"),
            (r#""n_images": 0"#, "'n_images' must be at least 1"),
        ];
        for (faults, why) in cases {
            let err = Repro::from_json(&file(faults)).unwrap_err();
            assert!(err.starts_with(why), "{faults}: {err}");
        }
        let fine =
            r#""loss_pct": 100, "down": [[10, 50]], "crash_at_ms": 50, "restart_at_ms": 100"#;
        assert!(Repro::from_json(&file(fine)).is_ok());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(Repro::from_json("").is_err());
        assert!(Repro::from_json("{}").is_err());
        assert!(Repro::from_json("{\"version\": 1}").is_err());
        assert!(Repro::from_json("{\"version\": 2, \"violation\": \"x\", \"plan\": {}}").is_err());
        let plan = FaultSpace::quiet().sample(1);
        let good = Repro::new(plan, "k", "d").to_json();
        assert!(Repro::from_json(&format!("{good}garbage")).is_err());
    }
}
