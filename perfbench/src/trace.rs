//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every public call it makes into a
//! layer. Spans stay in memory and are written out once, when the run
//! ends. A span's self time is its duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `opt.gvn`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (`u64::MAX` while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// A per-thread span recorder. When disabled every call is a no-op, so
/// the timed runs pay one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span (ignored when tracing is off).
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A recorder whose clock starts at `epoch` (share one epoch across
    /// threads so their spans line up).
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = on;
    }

    /// Tags the spans opened from now on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(i), "spans closed out of order");
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this recorder (both must share an epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per span: duration minus the union of its children's
/// intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds, keyed by `(name, op)`.
pub fn self_time_by_name_op(spans: &[Span]) -> BTreeMap<(&'static str, u64), u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry((s.name, s.op)).or_insert(0) += t;
    }
    out
}

/// Writes the spans as JSON lines: name, start, end, parent, op.
///
/// # Errors
/// Returns the I/O error if the file cannot be created or written.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            span("a.leaf", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 50, 25, 20, 10, 5]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x");
        t.end(s);
        assert_eq!(t.time("y", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_and_absorb_keep_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        let outer = a.begin("outer");
        a.time("inner", || ());
        a.end(outer);
        let mut b = Tracer::new(true, epoch);
        b.time("solo", || ());
        b.absorb(a);
        let s = b.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].name, "inner");
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
