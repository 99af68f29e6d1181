//! Deterministic JSON export, Prometheus text exposition, OTLP-shaped
//! span JSON, and human-readable rendering.

use crate::bus::EventBus;
use crate::event::{Event, Value};
use crate::json::{Json, Quoted};
use crate::metrics::{Data, Registry};
use crate::span::SpanRecord;
use std::fmt::Write as _;
use std::sync::Arc;

/// Serialize every metric (in registration order) plus bus totals as
/// pretty-printed JSON. The output is deterministic for deterministic
/// inputs, which is what the golden-file test locks down.
pub(crate) fn export_json(registry: &Registry, bus: &EventBus) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut hists = Vec::new();
    for m in registry.iter() {
        match &m.data {
            Data::Counter(c) => counters.push(format!("    {}: {c}", Quoted(&m.name))),
            Data::Gauge(g) => gauges.push(format!("    {}: {}", Quoted(&m.name), Json::F64(*g))),
            Data::Histogram(h) => {
                let s = h.stats();
                hists.push(format!(
                    "    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                     \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    Quoted(&m.name),
                    s.count,
                    Json::F64(s.sum),
                    Json::F64(s.min),
                    Json::F64(s.max),
                    Json::F64(s.p50),
                    Json::F64(s.p95),
                    Json::F64(s.p99),
                ));
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"counters\": {{\n{}\n  }},", counters.join(",\n"));
    let _ = writeln!(out, "  \"gauges\": {{\n{}\n  }},", gauges.join(",\n"));
    let _ = writeln!(out, "  \"histograms\": {{\n{}\n  }},", hists.join(",\n"));
    let _ = writeln!(
        out,
        "  \"events\": {{\"published\": {}, \"dropped\": {}}}",
        bus.published(),
        bus.dropped()
    );
    out.push('}');
    out
}

/// A metric name made legal for Prometheus: `[a-zA-Z0-9_:]` kept,
/// everything else (the registry's dots, mostly) becomes `_`, and a
/// leading digit gets a `_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a HELP-line value per the text exposition format: `\` and
/// newline only.
fn prom_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Format a sample value: finite floats verbatim, otherwise Prometheus'
/// `NaN` / `+Inf` / `-Inf` spellings.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Render every metric in Prometheus text exposition format, in
/// registration order.
///
/// * counters → `# TYPE <n> counter` + one sample;
/// * gauges → `# TYPE <n> gauge` + one sample;
/// * histograms → `# TYPE <n> histogram` with **cumulative**
///   `<n>_bucket{le="..."}` series (upper bounds in microseconds, from
///   the registry's power-of-two-nanosecond buckets), `<n>_sum`,
///   `<n>_count`, plus a companion `<n>_quantiles` summary carrying the
///   clamped p50/p95/p99 estimates.
///
/// Each metric keeps a `# HELP` line naming its original dotted registry
/// key, so scrape-side relabeling can recover it.
pub(crate) fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    for m in registry.iter() {
        let n = prom_name(&m.name);
        match &m.data {
            Data::Counter(c) => {
                let _ = writeln!(out, "# HELP {n} obs counter `{}`", prom_help(&m.name));
                let _ = writeln!(out, "# TYPE {n} counter");
                let _ = writeln!(out, "{n} {c}");
            }
            Data::Gauge(g) => {
                let _ = writeln!(out, "# HELP {n} obs gauge `{}`", prom_help(&m.name));
                let _ = writeln!(out, "# TYPE {n} gauge");
                let _ = writeln!(out, "{n} {}", prom_f64(*g));
            }
            Data::Histogram(h) => {
                let s = h.stats();
                let _ = writeln!(
                    out,
                    "# HELP {n} obs histogram `{}` (microseconds)",
                    prom_help(&m.name)
                );
                let _ = writeln!(out, "# TYPE {n} histogram");
                // Cumulative buckets up to the last occupied one; the
                // `+Inf` bucket always equals the total count.
                let counts = h.bucket_counts();
                let last = counts.iter().rposition(|&c| c > 0);
                let mut cum = 0u64;
                if let Some(last) = last {
                    for (ix, &c) in counts.iter().enumerate().take(last + 1) {
                        cum += c;
                        // Bucket `ix` holds values whose nanosecond
                        // magnitude has bit-length `ix`: upper bound
                        // 2^ix - 1 ns.
                        let le_us = if ix >= 63 {
                            f64::INFINITY
                        } else {
                            ((1u64 << ix) - 1) as f64 / 1000.0
                        };
                        let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cum}", prom_f64(le_us));
                    }
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", s.count);
                let _ = writeln!(out, "{n}_sum {}", prom_f64(s.sum));
                let _ = writeln!(out, "{n}_count {}", s.count);
                // Companion summary: the clamped percentile estimates the
                // rest of the workspace already reasons with.
                let _ = writeln!(out, "# TYPE {n}_quantiles summary");
                for (q, v) in [("0.5", s.p50), ("0.95", s.p95), ("0.99", s.p99)] {
                    let _ = writeln!(out, "{n}_quantiles{{quantile=\"{q}\"}} {}", prom_f64(v));
                }
            }
        }
    }
    out
}

fn hex_span_id(id: u64) -> String {
    format!("{id:016x}")
}

/// Export trace spans as OTLP-shaped JSON: the `resourceSpans` →
/// `scopeSpans` → `spans` nesting of the OTLP/JSON trace payload, with
/// 32-hex trace ids, 16-hex span ids, and `parentSpanId` reflecting the
/// RAII nesting recorded by [`crate::SpanGuard`]. All spans of one `Obs`
/// share a single trace. Valid (empty `spans` array) when nothing was
/// retained.
pub(crate) fn export_otlp_spans(registry: &Registry, spans: &[SpanRecord]) -> String {
    let mut items = Vec::with_capacity(spans.len());
    for s in spans {
        let name = registry.name(s.metric).unwrap_or("unknown");
        items.push(format!(
            "        {{\n          \"traceId\": \"{trace}\",\n          \"spanId\": \"{span}\",\n          \
             \"parentSpanId\": \"{parent}\",\n          \"name\": {name},\n          \
             \"kind\": \"SPAN_KIND_INTERNAL\",\n          \"startTimeUnixNano\": \"{start}\",\n          \
             \"endTimeUnixNano\": \"{end}\"\n        }}",
            trace = format_args!("{:032x}", 1),
            span = hex_span_id(s.span_id),
            parent = s.parent_id.map(hex_span_id).unwrap_or_default(),
            name = Quoted(name),
            start = s.start_ns,
            end = s.end_ns,
        ));
    }
    format!(
        "{{\n  \"resourceSpans\": [{{\n    \"resource\": {{\"attributes\": [{{\"key\": \"service.name\", \
         \"value\": {{\"stringValue\": \"obs\"}}}}]}},\n    \"scopeSpans\": [{{\n      \
         \"scope\": {{\"name\": \"obs\"}},\n      \"spans\": [\n{}\n      ]\n    }}]\n  }}]\n}}",
        items.join(",\n")
    )
}

/// Render events one line per event, oldest first — the successor of the
/// old `simnet::Trace::render`.
pub(crate) fn render(events: &[Arc<Event>]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(out, "{:>12}us [{}] {}", ev.at_us, ev.source.name(), ev.kind);
        for (k, v) in &ev.fields {
            match v {
                Value::I64(x) => {
                    let _ = write!(out, " {k}={x}");
                }
                Value::U64(x) => {
                    let _ = write!(out, " {k}={x}");
                }
                Value::F64(x) => {
                    let _ = write!(out, " {k}={x}");
                }
                Value::Str(x) => {
                    let _ = write!(out, " {k}={x}");
                }
                Value::Bool(x) => {
                    let _ = write!(out, " {k}={x}");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::event::Source;
    use crate::{Event, Obs};

    #[test]
    fn empty_export_is_valid_shape() {
        let obs = Obs::new();
        let json = obs.export_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"events\": {\"published\": 0, \"dropped\": 0}"));
    }

    #[test]
    fn non_finite_gauge_exports_null() {
        let obs = Obs::new();
        let g = obs.gauge("g");
        obs.set(g, f64::NAN);
        assert!(obs.export_json().contains("\"g\": null"));
    }

    #[test]
    fn render_is_line_per_event_with_fields() {
        let obs = Obs::new();
        obs.publish(Event::new(1, Source::Simnet, "msg_sent").with("bytes", 5u64));
        obs.publish(Event::new(2, Source::App, "image").with("key", "dr128"));
        let r = obs.render();
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains("[simnet] msg_sent bytes=5"));
        assert!(r.contains("[app] image key=dr128"));
    }

    #[test]
    fn escaped_metric_names_survive() {
        let obs = Obs::new();
        let c = obs.counter("weird\"name");
        obs.inc(c, 1);
        assert!(obs.export_json().contains("\"weird\\\"name\": 1"));
    }
}
