//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are held in memory and written out once, when the run ends. They
//! are taken from outside the program: a root span per façade op, child
//! spans rebuilt from the matching `RepairOutcome`, and one span per timed
//! probe batch. Spans inside the program are a later change.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::Res;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

/// Total and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread sharing this one's clock; fold it back
    /// with [`absorb`](Self::absorb).
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Records a child covering `length` from `offset` into its parent — for
    /// durations the program reports without timestamps.
    pub fn record_child(
        &mut self,
        name: &'static str,
        parent: usize,
        offset: Duration,
        length: Duration,
    ) {
        let (start_ns, op) = {
            let p = &self.spans[parent];
            (p.start_ns + offset.as_nanos() as u64, p.op)
        };
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + length.as_nanos() as u64,
            parent: Some(parent),
            op,
        });
    }

    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals. A span's self time is its duration minus the part of
    /// that interval its direct children cover (overlapping children are
    /// counted once).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(cursor, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                cursor = end;
            }
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration - covered;
        }
        totals
    }

    pub fn write(&self, path: &Path) -> Res<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("start_ns".to_string(), Value::Number(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Number(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                    ),
                    ("op".to_string(), Value::Number(s.op as f64)),
                ])
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, Value::Array(spans).render())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_the_union_of_its_children() {
        let mut tracer = Tracer::new();
        let t0 = tracer.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let root = tracer.record("root", at(0), at(100), None, 1);
        // Two overlapping children cover 10..60; one runs past the parent.
        tracer.record("child", at(10), at(40), Some(root), 1);
        tracer.record("child", at(30), at(60), Some(root), 1);
        tracer.record("child", at(90), at(120), Some(root), 1);
        let totals = tracer.totals();
        assert_eq!(totals["root"].total_ns, 100_000);
        assert_eq!(totals["root"].self_ns, 100_000 - 50_000 - 10_000);
        assert_eq!(totals["child"].count, 3);
        assert_eq!(totals["child"].self_ns, totals["child"].total_ns);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new();
        let now = Instant::now();
        main.record("a", now, now, None, 0);
        let mut other = main.sibling();
        let root = other.record("b", now, now, None, 1);
        other.record_child("c", root, Duration::ZERO, Duration::from_nanos(5));
        main.absorb(other);
        assert_eq!(main.len(), 3);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].op, 1);
    }
}
