//! Committed repros replay verbatim.
//!
//! Every file under `repros/` is a shrunken failing trial some explorer
//! run emitted. On a correct build they replay clean — the violation
//! they describe was a bug that is fixed or (for the canaries) compiled
//! out. On a canary build (`--cfg dst_canary` for the duplicate-apply
//! bug, `--cfg dst_drift` for the planted model drift) the committed
//! canary repros must reproduce their recorded violations — and, where
//! a digest is pinned, bit-for-bit across every drain mode — proving the
//! repro format carries everything needed to replay the failure.

use std::fs;
use std::path::PathBuf;

use adapt_dst::{Repro, TrialContext};

fn repro_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("repros");
    let Ok(entries) = fs::read_dir(&dir) else { return Vec::new() };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    files
}

fn load(path: &PathBuf) -> Repro {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    Repro::from_json(&text).unwrap_or_else(|e| panic!("parse {path:?}: {e}"))
}

#[cfg(not(any(dst_canary, dst_drift)))]
#[test]
fn committed_repros_replay_clean_on_a_correct_build() {
    let files = repro_files();
    if files.is_empty() {
        return;
    }
    let ctx = TrialContext::new();
    for path in files {
        let repro = load(&path);
        // Files that pin a digest were written by the current writer
        // (older ones lack keys it always emits): it must still produce
        // them byte for byte.
        if repro.digest != 0 {
            assert_eq!(repro.to_json(), fs::read_to_string(&path).unwrap(), "{path:?} re-renders");
        }
        let out = ctx.run(&repro.plan);
        assert!(
            out.violations.is_empty(),
            "{path:?} ({}) violates on a correct build: {:?}",
            repro.violation,
            out.violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}

#[cfg(dst_canary)]
#[test]
fn committed_canary_repro_reproduces_the_violation() {
    let files = repro_files();
    let canaries: Vec<_> =
        files.iter().map(load).filter(|r| r.violation == "duplicate_apply").collect();
    assert!(
        !canaries.is_empty(),
        "no committed duplicate_apply repro; run the canary explorer and commit its output"
    );
    let ctx = TrialContext::new();
    for repro in canaries {
        let out = ctx.run(&repro.plan);
        assert!(
            out.violations.iter().any(|v| v.kind() == repro.violation),
            "committed repro no longer reproduces '{}' on the canary build",
            repro.violation
        );
    }
}

/// On the drift build the committed model-drift repro must reproduce the
/// alarm, and its pinned digest must match bit-for-bit — under the
/// plan's own explore drain AND the heap and batched drains.
#[cfg(dst_drift)]
#[test]
fn committed_drift_repro_reproduces_and_replays_bit_for_bit() {
    use simnet::DrainMode;

    let files = repro_files();
    let drifts: Vec<_> = files.iter().map(load).filter(|r| r.violation == "model_drift").collect();
    assert!(
        !drifts.is_empty(),
        "no committed model_drift repro; run the drift explorer and commit its output"
    );
    let ctx = TrialContext::new();
    for repro in drifts {
        let out = ctx.run(&repro.plan);
        assert!(
            out.violations.iter().any(|v| v.kind() == repro.violation),
            "committed repro no longer reproduces '{}' on the drift build",
            repro.violation
        );
        assert_ne!(repro.digest, 0, "drift repros pin the failing run's digest");
        assert_eq!(
            out.digest, repro.digest,
            "replay must be bit-for-bit identical to the captured incident"
        );
        for drain in [DrainMode::Heap, DrainMode::Batched] {
            let alt = ctx.run_with_drain(&repro.plan, drain);
            assert_eq!(alt.digest, repro.digest, "{drain:?} replay must match the pinned digest");
        }
    }
}
