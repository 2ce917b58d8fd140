//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory, written as `trace.jsonl` when the run ends.
//!
//! All load is generated and all calls are made by one thread, so the
//! tracer is a plain value threaded through the workload: no locks, no
//! thread-locals. With tracing off, `begin`/`end` cost one branch and take
//! no timestamp.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of an open span; `SpanId::NONE` when tracing is off.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One completed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call`, the layer being the crate/module the call enters.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`u32::MAX` for a root).
    pub parent: u32,
    /// One id per request / per network trained / per batch scored.
    pub trace_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals derived from a finished trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, trace_id: u64) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            trace_id,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id` (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top as usize].end_ns = end_ns;
            if top == id.0 {
                break;
            }
        }
    }

    /// Records a span whose ends were observed elsewhere (a request: due
    /// instant to the server-stamped answer), under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, trace_id: u64) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied().unwrap_or(u32::MAX),
            trace_id,
        });
    }

    /// Times one call into a layer. The elapsed time is returned whether or
    /// not tracing is on, so traced and untraced runs compute their numbers
    /// from the same two timestamps.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, trace_id);
        (out, end - start)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.count += 1;
            e.total_ns += span.duration_ns();
            e.self_ns += self_ns;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"trace\":{}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if b > a {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, u32::MAX),
            span("a", 10, 40, 0),
            span("b", 30, 60, 0),  // overlaps a: union is 10..60
            span("c", 90, 120, 0), // sticks out of the parent: clipped
            span("a.inner", 15, 20, 1),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn nesting_follows_begin_end_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let ((), d) = t.time("leaf", 7, || std::thread::sleep(Duration::from_millis(2)));
        assert!(d >= Duration::from_millis(2));
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.end(outer);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, vec![("outer", u32::MAX), ("leaf", 0), ("inner", 0)]);
        let totals = t.totals_by_name();
        assert_eq!(totals["outer"].count, 1);
        assert!(totals["outer"].self_ns < totals["outer"].total_ns);

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        assert_eq!(id, SpanId::NONE);
        off.end(id);
        let (v, _) = off.time("y", 0, || 3);
        assert_eq!(v, 3);
        assert!(off.spans().is_empty());
    }
}
