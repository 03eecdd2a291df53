//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Nothing here touches the program: spans are
//! kept in a `Vec` and written out once, when the run ends.

use serde_json::{json, Value};
use std::time::Instant;

/// One timed call: which layer, when, for which request, inside which
/// other span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index (in the recorder's list) of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the request in the generated list; spans of one request
    /// share it.
    pub req: usize,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A single-threaded span stack. Disabled, it runs the closure and
/// records nothing, so traced and untraced runs share one code path.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: usize,
}

impl Recorder {
    pub fn new(enabled: bool, origin: Instant) -> Recorder {
        Recorder {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            req: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between requests (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = enabled;
    }

    /// Request index stamped on spans opened from now on.
    pub fn set_request(&mut self, req: usize) {
        self.req = req;
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: 0.0,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a span timed by the caller (one whose name depends on the
    /// call's outcome, or a client-side op timed by the load generator's
    /// own clock reads) as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start_us: f64, end_us: f64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent: self.open.last().copied(),
                req: self.req,
            });
        }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (from another recorder) to `all`, re-basing parents.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start_us;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Durations (µs) of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_us)
        .collect()
}

/// The span file: every span with its self time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Value {
    let selfs = self_times_us(spans);
    let rows: Vec<Value> = spans
        .iter()
        .zip(&selfs)
        .enumerate()
        .map(|(id, (s, self_us))| {
            json!({
                "id": id,
                "name": s.name,
                "req": s.req,
                "parent": s.parent,
                "start_us": s.start_us,
                "end_us": s.end_us,
                "self_us": *self_us,
            })
        })
        .collect();
    json!({ "workload": workload, "seed": seed, "spans": rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            start_us: start,
            end_us: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 30.0, Some(0)),
            span(40.0, 90.0, Some(0)),
            span(50.0, 60.0, Some(2)), // grandchild: charged to span 2 only
        ];
        assert_eq!(self_times_us(&spans), vec![30.0, 20.0, 40.0, 10.0]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(0.0, 100.0, None),
            span(10.0, 60.0, Some(0)),
            span(40.0, 80.0, Some(0)),
            span(90.0, 120.0, Some(0)), // runs past the parent: clipped
        ];
        assert_eq!(self_times_us(&spans)[0], 100.0 - 70.0 - 10.0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_request(7);
        let got = rec.span("outer", |rec| rec.span("inner", |_| 42));
        assert_eq!(got, 42);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.req == 7));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);

        let mut off = Recorder::new(false, Instant::now());
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn merge_rebases_parents() {
        let mut all = vec![span(0.0, 1.0, None)];
        merge(
            &mut all,
            vec![span(0.0, 5.0, None), span(1.0, 2.0, Some(0))],
        );
        assert_eq!(all[2].parent, Some(1));
    }
}
