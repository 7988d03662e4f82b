//! The probe's span recorder: one span per call into a layer, kept in
//! memory and written out when the run ends.
//!
//! A span is (name, start, end, parent, op id). A layer's *self time* is
//! its span's duration minus the part its child spans cover. Spans come
//! from the benchmark's own files, around the calls into each layer's
//! public functions; spans inside the program are ROADMAP item 3's work.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[must_use]
pub struct Open(u32);

impl Recorder {
    pub fn new() -> Self {
        Self { t0: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn exit(&mut self, span: Open) {
        assert_eq!(self.open.pop(), Some(span.0), "spans must close innermost-first");
        self.spans[span.0 as usize].end_ns = self.now_ns();
    }

    /// Spans opened from now on belong to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name over the spans whose op
    /// satisfies `keep`.
    pub fn totals(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            if keep(s.op) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += s.duration_ns();
                t.self_ns += s.duration_ns() - children.min(s.duration_ns());
            }
        }
        out
    }

    /// The spans of ops below `op_limit` as a Chrome `trace_event`
    /// document (load it in Perfetto or `chrome://tracing`): one complete
    /// event per span, `args` carrying the op id, the span id and the
    /// parent span id.
    pub fn chrome_trace(&self, op_limit: u32, header: &str) -> String {
        let mut out = String::from("{");
        out.push_str(header);
        out.push_str("\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.op < op_limit) {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.op,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new();
        rec.set_op(3);
        let outer = rec.enter("outer");
        let a = rec.enter("inner");
        rec.exit(a);
        let b = rec.enter("inner");
        rec.exit(b);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent, spans[0].parent), (Some(0), Some(0), None));
        let totals = rec.totals(|op| op == 3);
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(rec.totals(|op| op != 3).is_empty());
        let doc = rec.chrome_trace(4, "\"workload\":\"t\",");
        assert_eq!(gcbfs_trace::json::validate_chrome_trace(&doc), Ok(3));
        assert_eq!(gcbfs_trace::json::validate_chrome_trace(&rec.chrome_trace(3, "")), Ok(0));
    }
}
