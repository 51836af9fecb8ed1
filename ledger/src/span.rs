//! Wall-clock spans recorded by the benchmark around its own calls into
//! each layer, plus the order statistics every metric is reported with.
//!
//! Spans stay in memory while a workload runs and are written as one
//! Chrome `trace_event` file when it ends. Each span carries a name, a
//! label (atom op, serve outcome, kernel), start and end, the id of the
//! span that caused it and the request id it belongs to.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: Option<u64>,
    pub name: &'static str,
    pub label: String,
    pub start: f64,
    pub end: f64,
    pub tid: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// A thread-safe in-memory span sink shared by every thread of a run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the recorder was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id, for a parent whose children are recorded first.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        label: impl Into<String>,
        start: f64,
        end: f64,
        parent: Option<u64>,
        req: Option<u64>,
    ) {
        let span = Span {
            id,
            parent,
            req,
            name,
            label: label.into(),
            start,
            end,
            tid: TID.with(|t| *t),
        };
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .push(span);
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        label: impl Into<String>,
        start: f64,
        end: f64,
        parent: Option<u64>,
        req: Option<u64>,
    ) {
        self.record_as(self.reserve(), name, label, start, end, parent, req);
    }

    /// Runs `f` inside a span and returns its result and the span length.
    pub fn time<T>(
        &self,
        name: &'static str,
        label: impl Into<String>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = self.now();
        let out = f();
        let t1 = self.now();
        self.record(name, label, t0, t1, None, None);
        (out, t1 - t0)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.id.cmp(&b.id)));
        spans
    }

    /// Writes the spans as a Chrome `trace_event` document (open it in
    /// Perfetto or `chrome://tracing`): one complete event per span, one
    /// lane per recording thread, ids, parents and requests as args.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use pvc_core::Json;
        let events: Vec<Json> = self
            .spans()
            .iter()
            .map(|s| {
                let mut args = vec![("id", Json::Int(s.id as i64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Int(p as i64)));
                }
                if let Some(r) = s.req {
                    args.push(("request", Json::Int(r as i64)));
                }
                if !s.label.is_empty() {
                    args.push(("label", Json::str(s.label.clone())));
                }
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start * 1e6)),
                    ("dur", Json::Num(s.dur() * 1e6)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(s.tid as i64)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ]);
        std::fs::write(path, doc.compact())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur() - covered)
        })
        .collect()
}

/// The `q` quantile (0..=1) of `values` by linear interpolation between
/// order statistics; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            req: None,
            name: "t",
            label: String::new(),
            start,
            end,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0.0, 10.0),
            span(2, Some(1), 1.0, 4.0),
            span(3, Some(1), 3.0, 6.0),
            span(4, Some(1), 8.0, 12.0),
        ];
        let st = self_times(&spans);
        assert!(
            (st[&1] - 3.0).abs() < 1e-12,
            "10 - [1,6] - [8,10] = 3, got {}",
            st[&1]
        );
        assert!((st[&2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[5.0], 0.95), 5.0);
        assert!(median(&[]).is_nan());
    }
}
