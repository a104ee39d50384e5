//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer's public function is
//! wrapped in [`Tracer::span`]. A span records its name, start, end, the
//! span that was open when it started (its parent) and a request id (the
//! graph, function or operation index). Spans stay in memory; the caller
//! writes them out with [`Tracer::write_jsonl`] once the run is over.
//!
//! A disabled tracer (the plain run) only calls the closure: no clock
//! read, no allocation.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric-style name, e.g. `core.sort` or `service.insert`.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id shared by the spans of one graph, function or op.
    pub req: u64,
    /// Sum of the durations of the direct children.
    pub child_ns: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the part covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Span recorder; see the module docs.
pub struct Tracer {
    on: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Self {
        Tracer {
            on: Cell::new(on),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Switch recording on or off between calls (the traced run
    /// alternates traced and untraced rounds to measure overhead).
    pub fn set_enabled(&self, on: bool) {
        self.on.set(on);
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<R>(&self, name: impl Into<String>, req: u64, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            spans.push(Span {
                name: name.into(),
                start_ns: 0,
                end_ns: 0,
                parent,
                req,
                child_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[idx].start_ns = start;
        spans[idx].end_ns = end;
        if let Some(p) = spans[idx].parent {
            spans[p].child_ns += end - start;
        }
        out
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self times in milliseconds of every span named `name`, in
    /// recording order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times in milliseconds of the spans named `name`, summed per
    /// group, where `key` maps a span to its group (e.g. its round or its
    /// parent). One value per group, in order of first appearance.
    pub fn grouped_self_ms(&self, name: &str, key: impl Fn(&Span) -> u64) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut sums: Vec<(u64, f64)> = Vec::new();
        for s in spans.iter().filter(|s| s.name == name) {
            let (k, ms) = (key(s), s.self_ns() as f64 / 1e6);
            match sums.iter_mut().find(|(q, _)| *q == k) {
                Some((_, acc)) => *acc += ms,
                None => sums.push((k, ms)),
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.self_ns(),
                s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            t.span("inner", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = t.self_ms("outer")[0];
        let inner = t.self_ms("inner")[0];
        assert!(inner >= 5.0);
        assert!((1.5..5.0).contains(&outer), "outer self {outer} ms");
        assert_eq!(
            t.grouped_self_ms("inner", |s| s.parent.unwrap() as u64),
            vec![inner]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.is_empty());
    }
}
