//! Harness-side spans: an in-memory tree written out when the run ends.
//!
//! Spans wrap calls the harness makes into the program (`setup`, each
//! repetition, each probe batch); nothing inside `crates/` is touched.
//! With tracing off, [`Tracer::span`] is a plain call.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the flame table: every span of one name under one parent
/// name, with self time = duration minus the direct children's.
#[derive(Debug)]
pub struct FlameRow {
    pub path: String,
    pub count: usize,
    pub total_ms: f64,
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    pub fn to_json(&self, workload: &str) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(s.id as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("name", Json::str(&s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("workload", Json::str(workload)),
                    ])
                })
                .collect(),
        )
    }

    /// Aggregate spans by `parent-name/name`, largest self time first.
    pub fn flame(&self) -> Vec<FlameRow> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end_us - s.start_us) / 1e3;
            }
        }
        let mut rows: Vec<FlameRow> = Vec::new();
        for s in &self.spans {
            let path = match s.parent {
                Some(p) => format!("{}/{}", self.spans[p].name, s.name),
                None => s.name.clone(),
            };
            let total = (s.end_us - s.start_us) / 1e3;
            let own = total - child_ms[s.id];
            match rows.iter_mut().find(|r| r.path == path) {
                Some(r) => {
                    r.count += 1;
                    r.total_ms += total;
                    r.self_ms += own;
                }
                None => rows.push(FlameRow { path, count: 1, total_ms: total, self_ms: own }),
            }
        }
        rows.sort_by(|a, b| b.self_ms.partial_cmp(&a.self_ms).expect("finite span times"));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("root", |t| {
            t.span("child", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("child", |_| ());
        });
        assert_eq!(t.span_count(), 3);
        let rows = t.flame();
        let root = rows.iter().find(|r| r.path == "root").unwrap();
        let child = rows.iter().find(|r| r.path == "root/child").unwrap();
        assert_eq!(child.count, 2);
        assert!(child.total_ms >= 5.0);
        assert!((root.total_ms - root.self_ms - child.total_ms).abs() < 1e-6);
        let Json::Arr(spans) = t.to_json("w") else { panic!("array") };
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("root", |_| 7), 7);
        assert_eq!(t.span_count(), 0);
    }
}
