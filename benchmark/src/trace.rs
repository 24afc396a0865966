//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! `crates/` are a later issue). A span has a name, a start and an end on
//! one monotonic clock, the span that was open when it started (its
//! parent) and the id of the operation it served (0 when it served a
//! whole burst). They stay in memory until the run ends, then go to
//! `benchmark/out/trace.json`; the per-layer rows report *self time*: a
//! span's duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per run; later ones are counted in `dropped`, not stored,
/// so a traced run cannot grow without bound.
const MAX_SPANS: usize = 1_000_000;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any.
    pub parent: Option<u32>,
    /// Operation id (0 = not tied to one operation).
    pub op: u64,
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// The span recorder. Disabled, `enter`/`exit` cost one branch each.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// Turns recording on or off; only legal between spans.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the currently open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `open` (which must be the innermost open one).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"dropped\": {}, \"spans\": [", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Count and total self time of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the part of that
/// interval its direct children cover (children are clipped to the
/// parent, so a child that outlives it cannot make self time negative).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, cov) in spans.iter().zip(covered) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += (s.end_ns - s.start_ns).saturating_sub(cov);
    }
    out
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
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pump [0,100] has recv [10,30] and run [40,90]; run has inject [50,60].
        let spans = vec![
            span("pump", 0, 100, None),
            span("recv", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("inject", 50, 60, Some(2)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pump"].self_ns, 100 - 20 - 50);
        assert_eq!(st["recv"].self_ns, 20);
        assert_eq!(st["run"].self_ns, 50 - 10);
        assert_eq!(st["inject"].self_ns, 10);
        // Self times add up to the root's duration: nothing counted twice.
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn self_time_groups_by_name_and_clips_children() {
        let spans = vec![
            span("a", 0, 10, None),
            span("a", 20, 50, None),
            // A child that ends after its parent is clipped to it.
            span("b", 40, 70, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["a"],
            SelfTime {
                count: 2,
                self_ns: 10 + 20
            }
        );
        assert_eq!(st["b"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new();
        let o = t.enter("off", 1);
        t.exit(o);
        assert!(t.spans().is_empty());

        t.set_enabled(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
