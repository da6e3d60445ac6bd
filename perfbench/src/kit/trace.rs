//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the crates under measurement knows it
//! is being traced. A span carries its name, start and end (nanoseconds
//! since the tracer was created), the span that caused it, and the id of
//! the solve or request it belongs to. Spans stay in memory and are
//! written out once, when the run ends.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.backend.run_block`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (`start_ns` while still open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Solve or request id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Span length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`], consumed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has zero length"]
pub struct Open(Option<u32>);

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per call, so the untraced run executes the same statements.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = now;
    }

    /// Records a closed span of known extent (measured elsewhere, e.g.
    /// on another thread) under the innermost open span.
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.stack.last().copied(),
            id,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all spans called `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        total_ns(&self.spans, name) as f64 * 1e-9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total self time of all spans called `name`, in seconds.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let children = children_of(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, _)| self_ns(&self.spans, &children, i))
            .sum::<u64>() as f64
            * 1e-9
    }

    /// Share of the spans called `name` that their direct children
    /// cover: `1 − self/total`. This is the "layers sum to the total"
    /// number.
    pub fn coverage(&self, name: &str) -> f64 {
        let total = self.total_seconds(name);
        if total > 0.0 {
            1.0 - self.self_seconds(name) / total
        } else {
            0.0
        }
    }

    /// The spans as a JSON document (`{"workload": …, "spans": […]}`).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!("{{\"workload\": \"{workload}\", \"spans\": ["));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"index\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Direct children of every span, by index.
fn children_of(spans: &[Span]) -> Vec<Vec<u32>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p as usize].push(i as u32);
        }
    }
    children
}

/// Self time of span `i`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
fn self_ns(spans: &[Span], children: &[Vec<u32>], i: usize) -> u64 {
    let me = &spans[i];
    let mut intervals: Vec<(u64, u64)> = children[i]
        .iter()
        .map(|&c| {
            let c = &spans[c as usize];
            (c.start_ns.max(me.start_ns), c.end_ns.min(me.end_ns))
        })
        .filter(|(lo, hi)| hi > lo)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        if hi > lo {
            covered += hi - lo;
            reach = hi;
        }
    }
    me.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("leaf", 50, 60, Some(2)),
        ];
        let children = children_of(&spans);
        assert_eq!(self_ns(&spans, &children, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, &children, 1), 20);
        // Grandchildren are the child's business, not the root's.
        assert_eq!(self_ns(&spans, &children, 2), 50 - 10);
        assert_eq!(self_ns(&spans, &children, 3), 10);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 180, Some(0)), // overlaps a by 10
            span("c", 190, 250, Some(0)), // overhangs the parent's end
            span("d", 120, 130, Some(0)), // inside a
        ];
        let children = children_of(&spans);
        // Covered: [110,180) ∪ [190,200) = 80.
        assert_eq!(self_ns(&spans, &children, 0), 20);
    }

    #[test]
    fn tracer_nests_and_sums() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.count("inner"), 2);
        let total = t.total_seconds("outer");
        let covered = t.total_seconds("inner");
        assert!((t.self_seconds("outer") - (total - covered)).abs() < 1e-12);
        assert!((t.coverage("outer") - covered / total).abs() < 1e-9 || total == 0.0);
        let json = t.to_json("w");
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        t.record("y", 0, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert_eq!(t.coverage("x"), 0.0);
    }
}
