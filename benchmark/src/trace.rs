//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded from outside the program, around calls into each
//! layer's public functions; they stay in memory and are written out
//! once, when the run ends. Every span but the root names the span
//! that caused it, and all spans of one file belong to one workload.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Starts the clock and opens the root span.
    pub fn new(root: &str) -> Tracer {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        };
        t.open(root, None);
        t
    }

    pub const ROOT: SpanId = 0;

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.us(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_us = self.us(Instant::now());
        (self.spans[id].end_us - self.spans[id].start_us) * 1e-6
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn timed<T>(&mut self, name: &str, parent: SpanId, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, Some(parent));
        let out = f();
        (out, self.close(id))
    }

    /// Records a span measured elsewhere (a client thread, or a stage
    /// the service reported).
    pub fn add(&mut self, name: &str, parent: SpanId, start: Instant, dur_s: f64) -> SpanId {
        let start_us = self.us(start);
        self.add_at(name, parent, start_us, dur_s * 1e6)
    }

    pub fn add_at(&mut self, name: &str, parent: SpanId, start_us: f64, dur_us: f64) -> SpanId {
        self.spans.push(Span {
            name: name.to_string(),
            parent: Some(parent),
            start_us,
            end_us: start_us + dur_us,
        });
        self.spans.len() - 1
    }

    /// Every span but the root has a parent recorded before it.
    pub fn orphans(&self) -> usize {
        self.spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| match s.parent {
                None => i != Self::ROOT,
                Some(p) => p >= i,
            })
            .count()
    }

    /// The spans as JSON; close the root first.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + 96 * self.spans.len());
        let _ = write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"us\", \"spans\": ["
        );
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"start\": {:.1}, \"end\": {:.1}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_have_parents_and_ordered_times() {
        let mut t = Tracer::new("run");
        let (v, dur) = t.timed("child", Tracer::ROOT, || 41 + 1);
        assert_eq!(v, 42);
        assert!(dur >= 0.0);
        let child = t.spans.len() - 1;
        t.add("leaf", child, Instant::now(), 0.5);
        assert_eq!(t.orphans(), 0);
        t.close(Tracer::ROOT);
        let json = t.to_json("w", 1);
        assert!(json.contains("\"parent\": null"));
        assert!(json.contains("\"name\": \"leaf\""));
        assert!(t.spans[0].end_us >= t.spans[1].end_us);
    }

    #[test]
    fn a_span_without_a_parent_is_an_orphan() {
        let mut t = Tracer::new("run");
        t.open("stray", None);
        assert_eq!(t.orphans(), 1);
    }
}
