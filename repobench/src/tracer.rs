//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, start, end, parent span and the op it belongs to.
//! Spans are kept in memory and written out once, at exit. A disabled
//! tracer records nothing, so measured runs and traced runs share one code
//! path and the difference between them is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, or `NONE` for an untraced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. One per thread of traced work.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new op: spans opened from now on share its identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id.0), "spans close innermost first");
        self.spans[id.0 as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records a closed span timed by the caller, nested in the innermost
    /// open one; for calls whose layer is known only once they return.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per op, the summed duration in microseconds of spans named `name`
    /// (ops without one are absent).
    pub fn per_op_us(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        out
    }

    /// Self time of each span: its duration minus its children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = child_ns.get_mut(s.parent as usize) {
                *slot += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Summed self time in milliseconds and span count, per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += ns as f64 / 1e6;
            e.1 += 1;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.next_op();
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let by_name = t.self_time_by_name();
        let (outer_self, _) = by_name["outer"];
        let (inner_self, _) = by_name["inner"];
        assert!(inner_self >= 2.0);
        assert!(outer_self < inner_self);
        assert!(t.to_jsonl().contains("\"parent\":0"));

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.durations_us("x").is_empty());
    }
}
