//! Seed-sweep CLI for the simulation-test explorer.
//!
//! ```text
//! dst-explore [--trials N] [--seed S] [--no-shrink] [--overload] [--drift]
//!             [--max-failures N] [--out DIR] [--expect-violation]
//! ```
//!
//! Exit status: 0 when expectations hold — no violations normally, at
//! least one under `--expect-violation` (the canary build). Violations
//! are printed and, with `--out`, written as repro JSON files.

use std::path::PathBuf;
use std::process::ExitCode;

use adapt_dst::{Explorer, ExplorerOpts, TrialContext};

struct Args {
    opts: ExplorerOpts,
    out: Option<PathBuf>,
    expect_violation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = ExplorerOpts { trials: 200, ..Default::default() };
    let mut out = None;
    let mut expect_violation = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--trials" => opts.trials = val("--trials")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => opts.master_seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--max-failures" => {
                opts.max_failures = val("--max-failures")?.parse().map_err(|e| format!("{e}"))?
            }
            "--no-shrink" => opts.shrink = false,
            "--overload" => opts.space = adapt_dst::FaultSpace::overload(),
            "--drift" => opts.space = adapt_dst::FaultSpace::drift(),
            "--out" => out = Some(PathBuf::from(val("--out")?)),
            "--expect-violation" => expect_violation = true,
            "--help" | "-h" => {
                println!(
                    "usage: dst-explore [--trials N] [--seed S] [--no-shrink] [--overload] \
                     [--drift] [--max-failures N] [--out DIR] \
                     [--expect-violation]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args { opts, out, expect_violation })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dst-explore: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "dst-explore: {} trials, seed {:#x}, shrink={}",
        args.opts.trials, args.opts.master_seed, args.opts.shrink
    );
    let ctx = TrialContext::new();
    let report = Explorer::new(args.opts).run(&ctx);
    println!("trials_run: {}", report.trials_run);
    println!("digest: {:#018x}", report.digest);
    println!("failures: {}", report.failures.len());
    for f in &report.failures {
        println!("  trial {}: {}", f.trial_index, f.violation);
        if let Some(s) = &f.shrunk {
            println!(
                "    shrunk in {} steps ({} candidate trials) to weight {} (from {})",
                s.steps,
                s.trials_run,
                s.plan.weight(),
                f.plan.weight()
            );
        }
        if let Some(dir) = &args.out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("dst-explore: cannot create {}: {e}", dir.display());
                return ExitCode::from(2);
            }
            let path = dir.join(format!(
                "{}-trial-{}-seed-{:x}.json",
                f.violation.kind(),
                f.trial_index,
                f.plan.trial_seed
            ));
            if let Err(e) = std::fs::write(&path, f.repro().to_json()) {
                eprintln!("dst-explore: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("    repro written: {}", path.display());
        }
    }
    let found = report.found_violation();
    if found != args.expect_violation {
        if args.expect_violation {
            eprintln!("dst-explore: FAIL — expected a violation (canary build?), found none");
        } else {
            eprintln!("dst-explore: FAIL — invariant violations found");
        }
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
