//! CI saturation smoke: one 200-application arbiter storm, checked
//! against the arbiter invariant oracles, digest printed on stdout.
//!
//! CI runs this binary once and requires the printed digest to equal
//! the one pinned in `scripts/ci.sh`; the run also fails outright if the
//! obs event stream violates an oracle (a shed that skipped over a lower
//! tier, or an eviction with no preceding policing violation).
//!
//! Exit status: 0 with the digest on stdout, 1 on oracle violations.

use std::sync::Arc;

use arbiter::{run_storm, AppState, StormOpts};
use visapp::model_db;

fn main() {
    // 200 apps on 4 hosts with a mid-run capacity dip and one rogue in
    // five: saturating enough to queue, backfill, open the overload
    // breaker, shed, recover, and walk the full policing ladder.
    let opts = StormOpts::new(200)
        .with_seed(0xC1)
        .with_cluster_hosts(4)
        .with_rogue_every(5)
        .with_dips(vec![(500_000, 600_000, 0.4)]);
    let db = Arc::new(model_db(&opts.load_opts()));
    let report = run_storm(&opts, &db);

    let violations = adapt_dst::check_arbiter(&report.obs);
    if !violations.is_empty() {
        eprintln!("arbiter_smoke: {} oracle violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "arbiter_smoke: 200 apps, end {:.2}s, done {}, shed {}, recovered {}, \
         evicted {}, busy-util {:.3}, 0 oracle violations",
        report.end.as_secs_f64(),
        report.count(AppState::Done),
        report.counters.shed,
        report.counters.recovered,
        report.counters.evicted,
        report.busy_utilization,
    );
    println!("{:016x}", report.digest());
}
