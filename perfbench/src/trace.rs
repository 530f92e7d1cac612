//! The span recorder of the traced pass.
//!
//! A span has a name (`<layer>.<what>`, the layer named after the crate
//! whose public entry point it wraps), a start, an end, a parent and the
//! id of the operation it belongs to. Spans live in memory until the run
//! ends. A span's self time is its duration minus its children's; the
//! children of one span never overlap because the traced pass makes one
//! call at a time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span wrapping one replayed operation.
pub const OP: &str = "bench.op";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in recording order.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Operation the span belongs to.
    pub query: u64,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled, every call passes straight
/// through and only [`Tracer::op`] measures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, query: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                query,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Run one operation under a root [`OP`] span and return its wall
    /// time in ms, which is measured whether or not tracing is on.
    pub fn op<R>(&self, query: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = self.span(OP, query, f);
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Aggregate the recorded spans into per-name self times.
    pub fn table(&self) -> LayerTable {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for s in spans.iter() {
            match s.parent {
                Some(p) => {
                    child_ns[p] += s.dur_ns();
                    root[s.id] = root[p];
                }
                None => root[s.id] = s.id,
            }
        }
        let mut t = LayerTable::default();
        for s in spans.iter() {
            let self_ms = s.dur_ns().saturating_sub(child_ns[s.id]) as f64 / 1e6;
            let row = t.rows.entry(s.name).or_default();
            row.calls += 1;
            row.self_ms += self_ms;
            if s.name == OP {
                t.op_ms += s.dur_ns() as f64 / 1e6;
                t.ops += 1;
            } else if spans[root[s.id]].name == OP && !s.name.starts_with("bench.") {
                t.layer_in_op_ms += self_ms;
            }
        }
        t
    }

    /// Every span as one JSON object per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"query\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.id,
                parent,
                s.name,
                s.query,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out
    }
}

/// Calls and self time of one span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRow {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Σ self time, ms.
    pub self_ms: f64,
}

/// Per-name self times of a traced pass.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// By span name.
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Σ duration of the root operation spans, ms.
    pub op_ms: f64,
    /// Root operation spans.
    pub ops: u64,
    /// Σ self time of non-bench spans inside operation spans, ms.
    pub layer_in_op_ms: f64,
}

impl LayerTable {
    /// Mean self time per call of `name`, ms (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.rows
            .get(name)
            .map_or(0.0, |r| r.self_ms / r.calls.max(1) as f64)
    }

    /// Σ self time of `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.self_ms)
    }

    /// Share of operation time spent in the layers' own spans.
    pub fn coverage(&self) -> f64 {
        crate::stats::ratio(self.layer_in_op_ms, self.op_ms)
    }

    /// Plain-text table: one line per span name.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<24} {:>9} {:>13} {:>12} {:>8}\n",
            "span", "calls", "self_ms", "mean_ms", "share"
        );
        for (name, r) in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:>9} {:>13.3} {:>12.4} {:>8.4}",
                name,
                r.calls,
                r.self_ms,
                r.self_ms / r.calls.max(1) as f64,
                crate::stats::ratio(r.self_ms, self.op_ms)
            );
        }
        let _ = writeln!(
            out,
            "operations {} · op time {:.3} ms · layer coverage {:.4}",
            self.ops,
            self.op_ms,
            self.coverage()
        );
        out
    }
}
