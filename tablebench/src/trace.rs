//! In-memory span recording for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer: a name, start and
//! end, the enclosing span and a request id. They are kept in memory and
//! written out when the run ends. A span's self time is its duration minus
//! the part of it that its child spans cover; the self times of all spans
//! under one root add up to the root's duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer records nothing and costs
/// one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, closed by [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        assert_eq!(self.open.pop(), Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let out = f();
        self.end(open);
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Total duration (s) of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// Self time (ns) of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// Self time (s) summed per span name, sorted by name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9;
        }
        out
    }

    /// Total duration (s) of the root spans — the traced wall time the
    /// self times partition.
    pub fn root_s(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum::<u64>() as f64 / 1e9
    }

    /// The spans as a JSON array (times in microseconds from the tracer's
    /// creation).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.req
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_times_partition_the_root() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("b.inner", 50, 60, Some(2)),
            span("b.inner", 70, 85, Some(2)),
        ];
        assert_eq!(t.self_times(), vec![30, 20, 25, 10, 15]);
        let sum: f64 = t.self_by_name().values().sum();
        assert!((sum - t.root_s()).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a", 40, 80, Some(0)),
        ];
        assert_eq!(t.self_times()[0], 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("x", 1, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        t.span("inner", 2, || ());
        t.end(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].req, 2);
        assert!(t.to_json().contains("\"name\":\"inner\""));
    }
}
