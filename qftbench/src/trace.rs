//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the log's
//! origin), the span that caused it and the request it belongs to. Each
//! client thread owns a [`SpanLog`]; logs are merged and written out once
//! the run ends, so recording costs one `Instant::now()` per edge.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (an index into this log).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span; returns its result and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Appends `other`, re-basing its span ids after this log's.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Every span's self time in ms: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once, and a child reaching outside the parent counts only inside it).
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let a = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let b = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            if b > a {
                covered[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(parent, mut children)| {
            children.sort_unstable();
            let mut union = 0u64;
            let mut reach = parent.start_ns;
            for (a, b) in children {
                let a = a.max(reach);
                if b > a {
                    union += b - a;
                    reach = b;
                }
            }
            (parent.end_ns - parent.start_ns - union) as f64 / 1e6
        })
        .collect()
}

/// Per span name: count, total ms and self ms, so the traced run shows
/// which layer call the time went to.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut rows: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ms(spans)) {
        let row = rows.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.ms();
        row.2 += own;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", None, 0, 10_000_000),
            span("a", Some(0), 1_000_000, 4_000_000),
            span("b", Some(0), 3_000_000, 5_000_000), // overlaps a: counted once
            span("c", Some(0), 9_000_000, 12_000_000), // reaches past the root
            span("grandchild", Some(1), 1_000_000, 4_000_000), // not a direct child
        ];
        let own = self_times_ms(&spans);
        assert!((own[0] - 5.0).abs() < 1e-12);
        assert!((own[1] - 0.0).abs() < 1e-12);
        assert!((own[2] - 2.0).abs() < 1e-12);
        assert!((own[4] - 3.0).abs() < 1e-12);
        let rows = by_name(&spans);
        assert_eq!(rows["root"].0, 1);
        assert!((rows["root"].1 - 10.0).abs() < 1e-12);
        assert!((rows["root"].2 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_and_merge() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin);
        let ((), root) = log.time("root", None, 7, || {});
        let mut other = SpanLog::new(origin);
        let outer = other.open("outer", None, 8);
        other.time("inner", Some(outer), 8, || std::hint::black_box(1 + 1));
        other.close(outer);
        log.absorb(other);
        assert_eq!(root, 0);
        assert_eq!(log.spans.len(), 3);
        assert_eq!(log.spans[2].parent, Some(1));
        assert!(log.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(self_times_ms(&log.spans)[1] <= log.spans[1].ms());
    }
}
