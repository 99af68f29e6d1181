//! Every metric the harness reports, by name. `BENCHMARK.json` is
//! rendered from these tables (`benchmark manifest`), so the manifest
//! and the result lines cannot drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Host-time metrics, measured with tracing off and reported on every
/// workload. README.md explains why each is the fastest repetition.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "op_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "op_ms_p90", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.2 },
];

/// End-to-end values that repeat exactly for a given seed, so any change
/// is a behaviour change: compared for equality by `repeat`, printed in
/// the detail line, and absent on workloads where they are undefined.
pub const EXACT: [(&str, &str); 6] = [
    ("fail_ratio", "ratio"),
    ("sim_makespan_s", "s"),
    ("sim_transmit_s_mean", "s"),
    ("sim_react_ms_p50", "ms"),
    ("sim_react_ms_p90", "ms"),
    ("sim_busy_util", "ratio"),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Lower }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: Better::Higher }
}

/// Per-layer metrics, from the traced run only. Counts come from the
/// traced repetition's own reports; times come from probes.
pub const PER_LAYER: [Layer; 82] = [
    lo("simnet.events", "count"),
    lo("simnet.us_per_event", "us"),
    lo("simnet.peak_queue_depth", "count"),
    lo("simnet.drain_ns_per_event", "ns"),
    lo("simnet.sim_setup_us", "us"),
    lo("simnet.share_pct", "%"),
    lo("sandbox.stats_push_ns", "ns"),
    lo("sandbox.stats_estimate_ns", "ns"),
    lo("sandbox.bucket_acquire_ns", "ns"),
    lo("core.runtime.ticks", "count"),
    lo("core.runtime.tick_ns", "ns"),
    lo("core.runtime.tick_trigger_us", "us"),
    lo("core.runtime.share_pct", "%"),
    lo("core.monitor.observe_ns", "ns"),
    lo("core.monitor.check_ns", "ns"),
    lo("core.perfdb.predict_ns", "ns"),
    lo("core.perfdb.build_us", "us"),
    lo("core.perfdb.records", "count"),
    lo("core.perfdb.approx_bytes", "B"),
    lo("core.scheduler.choose_us", "us"),
    lo("core.scheduler.choose_memo_ns", "ns"),
    lo("core.scheduler.validity_region_us", "us"),
    lo("core.scheduler.decides", "count"),
    lo("core.steering.switches", "count"),
    lo("core.steering.boundary_ns", "ns"),
    lo("core.profiler.points", "count"),
    lo("core.profiler.point_ms_p50", "ms"),
    lo("core.profiler.point_ms_p90", "ms"),
    lo("core.profiler.warm_build_ms", "ms"),
    hi("core.profiler.speedup_2t", "x"),
    lo("visapp.server.requests", "count"),
    lo("visapp.store.prepares_cold", "count"),
    hi("visapp.store.hit_ratio", "ratio"),
    lo("visapp.store.prepare_cold_ms", "ms"),
    lo("visapp.store.prepare_warm_ns", "ns"),
    lo("visapp.store.generate_ms", "ms"),
    lo("visapp.store.share_pct", "%"),
    lo("visapp.static_session_ms", "ms"),
    lo("visapp.load.us_per_event_2k", "us"),
    lo("visapp.load.scale_cost_ratio", "x"),
    lo("wavelet.pyramid_build_ms", "ms"),
    lo("wavelet.chunks_for_region_us", "us"),
    hi("wavelet.encode_chunks_mb_s", "MB/s"),
    hi("wavelet.decode_chunks_mb_s", "MB/s"),
    lo("wavelet.decoder_apply_us", "us"),
    lo("wavelet.reconstruct_ms", "ms"),
    lo("wavelet.share_pct", "%"),
    hi("compress.lzw.compress_mb_s", "MB/s"),
    hi("compress.lzw.decompress_mb_s", "MB/s"),
    hi("compress.bzip.compress_mb_s", "MB/s"),
    hi("compress.bzip.decompress_mb_s", "MB/s"),
    lo("compress.lzw.ratio_x1000", "x1000"),
    lo("compress.bzip.ratio_x1000", "x1000"),
    lo("compress.share_pct", "%"),
    lo("transport.codec.encode_ns", "ns"),
    lo("transport.codec.decode_ns", "ns"),
    hi("transport.frame.encode_mb_s", "MB/s"),
    hi("transport.frame.decode_mb_s", "MB/s"),
    lo("obs.bus_published", "count"),
    lo("obs.bus_dropped", "count"),
    lo("obs.bus_drop_ratio", "ratio"),
    lo("obs.publish_ns", "ns"),
    lo("obs.publish_full_ns", "ns"),
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.span_ns", "ns"),
    lo("obs.events_filtered_us", "us"),
    lo("obs.share_pct", "%"),
    hi("arbiter.admitted", "count"),
    lo("arbiter.queued", "count"),
    hi("arbiter.backfilled", "count"),
    lo("arbiter.evicted", "count"),
    lo("arbiter.shed", "count"),
    hi("arbiter.recovered", "count"),
    lo("arbiter.violations", "count"),
    lo("arbiter.price_us", "us"),
    lo("arbiter.us_per_event_64", "us"),
    lo("arbiter.us_per_event_256", "us"),
    lo("arbiter.scale_cost_ratio", "x"),
    lo("arbiter.p99_tier0_s", "s"),
    lo("unattributed.share_pct", "%"),
    lo("trace.spans", "count"),
    lo("trace.overhead_pct", "%"),
];

/// The layers whose `share_pct` add up to the attributed share.
/// `wavelet` and `compress` are the breakdown of `visapp.store` and are
/// not added again.
pub const SHARE_LAYERS: [&str; 4] =
    ["simnet.share_pct", "core.runtime.share_pct", "visapp.store.share_pct", "obs.share_pct"];
