//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, an optional parent and a request
//! id shared by every span of one request (or one sweep). Spans stay in
//! memory during the run and are written out as JSON lines when it ends.
//! A span's *self time* is its duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder for one thread. `Tracer::off()` records nothing, so the
/// timed run carries no tracing work.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn on(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Some(Vec::new()),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: None,
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a span timed by the caller; returns its id (0 when off).
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let origin = self.origin;
        let Some(spans) = self.spans.as_mut() else {
            return 0;
        };
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: start.saturating_duration_since(origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(origin).as_nanos() as u64,
        });
        id
    }

    /// Opens a span ending now; [`Tracer::end`] moves its end. Children
    /// recorded meanwhile can name it as their parent.
    pub fn begin(&mut self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn end(&mut self, id: usize) {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(id)) {
            span.end_ns = end_ns;
        }
    }

    /// Times `f` as a span (untimed and unrecorded when off).
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, parent, request, t0, Instant::now());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Concatenates per-thread span lists, renumbering ids (and parent links)
/// so they stay unique.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of span `id`: its duration minus the time its direct
/// children cover (overlapping children count once).
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let span = &spans[id];
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    span.dur_ns() - covered_ns(children, span.start_ns, span.end_ns)
}

/// Share of the spans named in `parent_names` that their children cover:
/// 1 − Σ self time / Σ duration. 1.0 means the children account for all
/// of the parents' time.
pub fn coverage(spans: &[Span], parent_names: &[&str]) -> f64 {
    let (mut own, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| parent_names.contains(&s.name.as_str()))
    {
        own += self_time_ns(spans, s.id);
        total += s.dur_ns();
    }
    if total == 0 {
        return 0.0;
    }
    1.0 - own as f64 / total as f64
}

/// Total duration (seconds) of the spans named `name`, per request id.
pub fn seconds_by_request(spans: &[Span], name: &str) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.request).or_insert(0.0) += s.dur_ns() as f64 * 1e-9;
    }
    out
}

/// Median over requests of the per-request total of spans named `name`
/// (0 when there are none).
pub fn median_seconds(spans: &[Span], name: &str) -> f64 {
    crate::stats::median(seconds_by_request(spans, name).into_values().collect())
}

/// Median duration (seconds) of the individual spans named `name`.
pub fn median_span_seconds(spans: &[Span], name: &str) -> f64 {
    crate::stats::median(
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect(),
    )
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    /// A hand-built tree: a 100 ns root with three children, two of which
    /// overlap, and one grandchild that must not count against the root.
    fn tree() -> Vec<Span> {
        vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            span(3, Some(0), "c", 70, 80),
            span(4, Some(2), "leaf", 25, 45),
            // a child running past its parent's end is clipped to it
            span(5, Some(3), "late", 75, 95),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = tree();
        // children cover [10, 50) ∪ [70, 80) = 50 ns of the root's 100
        assert_eq!(self_time_ns(&spans, 0), 50);
        assert_eq!(self_time_ns(&spans, 1), 20);
        // b (30 ns) minus its child leaf (20 ns)
        assert_eq!(self_time_ns(&spans, 2), 10);
        // c (10 ns) minus its child clipped to [75, 80)
        assert_eq!(self_time_ns(&spans, 3), 5);
        assert_eq!(self_time_ns(&spans, 4), 20);
    }

    #[test]
    fn coverage_and_per_request_totals() {
        let spans = tree();
        assert!((coverage(&spans, &["root"]) - 0.5).abs() < 1e-12);
        assert_eq!(coverage(&spans, &["missing"]), 0.0);
        let by_req = seconds_by_request(&spans, "a");
        assert_eq!(by_req.len(), 1);
        assert!((by_req[&7] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn merge_renumbers_ids_and_parents() {
        let merged = merge(vec![tree(), tree()]);
        assert_eq!(merged.len(), 12);
        assert_eq!(merged[7].id, 7);
        assert_eq!(merged[7].parent, Some(6));
        assert_eq!(self_time_ns(&merged, 6), 50);
    }
}
