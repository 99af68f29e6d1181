//! The arbiter saturation sweep's storm options, shared by the
//! `arbiter_bench` binary and the digest-contract test so the committed
//! `BENCH_arbiter.json` digests are pinned against the options that
//! produced them.

use arbiter::StormOpts;

/// Cluster hosts; the arrival rate below saturates them at the sweep's
/// upper points.
pub const HOSTS: usize = 4;

/// Mean Poisson inter-arrival gap, microseconds.
const MEAN_GAP_US: u64 = 10_000;

/// One rogue app per this many (rogues ignore their envelope, so the
/// policing ladder fires under load).
const ROGUE_EVERY: usize = 6;

const SEED: u64 = 42;

/// The storm `arbiter_bench` runs at `apps` applications.
pub fn bench_opts(apps: usize) -> StormOpts {
    let mut o = StormOpts::new(apps)
        .with_seed(SEED)
        .with_cluster_hosts(HOSTS)
        .with_rogue_every(ROGUE_EVERY);
    o.mean_gap_us = MEAN_GAP_US;
    o
}
