//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records one span per call: name, start, end, the span that
//! was open when it began (its parent) and the trace it belongs to. One
//! trace covers one op or one job. Spans stay in memory until the run ends
//! and are then written out as JSON lines. A disabled tracer records
//! nothing and costs a branch per call.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub id: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread of calls.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new trace; spans opened at the top level from now on
    /// belong to it. Returns its id.
    pub fn new_trace(&mut self) -> u64 {
        self.trace += 1;
        self.trace
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace: self.trace,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes a span opened by [`Tracer::enter`], and any left open inside it.
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"trace\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.id, parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Nanoseconds of each span covered by its direct children (overlapping
/// children count once; parts outside the parent do not count).
pub fn child_coverage_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_coverage_ns(spans))
        .map(|(s, covered)| s.duration_ns() - covered)
        .collect()
}

/// Durations (ns) of every span with this name.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            trace: 1,
            id,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover 10..50 once: 40 ns.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A grandchild is covered by its parent, not by the root.
            span(3, Some(2), 35, 45),
            // A child running past its parent only counts inside it.
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(child_coverage_ns(&spans), vec![50, 0, 10, 0, 0]);
        assert_eq!(self_times_ns(&spans), vec![50, 30, 10, 10, 30]);
    }

    #[test]
    fn nested_calls_are_parented_to_the_open_span() {
        let mut t = Tracer::new(true);
        let trace = t.new_trace();
        let job = t.enter("job");
        t.span("round", || t_leaf());
        let round = t.enter("round");
        t.span("leaf", || ());
        t.exit(round);
        t.exit(job);
        let next = t.new_trace();
        t.span("op", || ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert!(s[..4].iter().all(|x| x.trace == trace));
        assert_eq!(s[4].trace, next);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        // Children lie within their parent.
        assert!(s[3].start_ns >= s[2].start_ns && s[3].end_ns <= s[2].end_ns);
        assert!(s[2].end_ns <= s[0].end_ns);
    }

    fn t_leaf() {}

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        t.enter("inner");
        t.exit(outer);
        let late = t.enter("late");
        assert_eq!(t.spans()[2].parent, None);
        t.exit(late);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.new_trace();
        let id = t.enter("x");
        assert_eq!(t.span("y", || 7), 7);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
