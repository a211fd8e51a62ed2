//! In-memory wall-clock spans recorded from the benchmark's own files,
//! around the calls into each layer. Nothing inside the program is
//! instrumented; tracing inside the crates is a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// Index of a span in its [`Tracer`]; [`NO_PARENT`] marks a root.
pub type SpanIx = u32;

/// Parent of a root span.
pub const NO_PARENT: SpanIx = u32::MAX;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer-qualified phase name, e.g. `cor-kernel.run`.
    pub name: &'static str,
    /// The span that was open when this one started.
    pub parent: SpanIx,
    /// The cell (trial, fleet cell, saturation cell) this span belongs to —
    /// the identifier spans of one unit of work share.
    pub cell: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Heap allocations between start and end (children included); zero
    /// unless the counting allocator is armed.
    pub allocs: u64,
}

impl SpanRec {
    /// Wall-clock length, children included.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans for one traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<SpanIx>,
    cell: u32,
}

impl Tracer {
    /// A tracer whose span table is pre-sized, so recording does not
    /// allocate (and so does not count against the span it interrupts).
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            cell: 0,
        }
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: u32) {
        self.cell = cell;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_at(&mut self, name: &'static str, at_ns: u64) -> SpanIx {
        let ix = self.spans.len() as SpanIx;
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            cell: self.cell,
            start_ns: at_ns,
            end_ns: at_ns,
            // Holds the counter reading at start until the span closes.
            allocs: alloc::allocs_now(),
        });
        self.open.push(ix);
        ix
    }

    fn close_at(&mut self, ix: SpanIx, at_ns: u64) {
        let top = self.open.pop();
        assert_eq!(top, Some(ix), "spans close innermost first");
        let span = &mut self.spans[ix as usize];
        span.end_ns = at_ns;
        span.allocs = alloc::allocs_now() - span.allocs;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanIx {
        let now = self.now_ns();
        self.open_at(name, now)
    }

    /// Closes `ix`, which must be the innermost open span.
    pub fn exit(&mut self, ix: SpanIx) {
        let now = self.now_ns();
        self.close_at(ix, now);
    }

    /// Closes `ix` and opens `next` at the same instant: back-to-back
    /// phases cost one clock read per boundary instead of two.
    pub fn switch(&mut self, ix: SpanIx, next: &'static str) -> SpanIx {
        let now = self.now_ns();
        self.close_at(ix, now);
        self.open_at(next, now)
    }

    /// The recorded spans, in open order.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn finish(self) -> Vec<SpanRec> {
        assert!(self.open.is_empty(), "unclosed span at the end of a pass");
        self.spans
    }
}

/// `value` of every span minus the `value` of its direct children.
fn minus_children(spans: &[SpanRec], value: impl Fn(&SpanRec) -> u64) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(&value).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= value(s);
        }
    }
    own
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap here
/// (one thread, strictly nested), so the covered part is their sum.
pub fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    minus_children(spans, SpanRec::duration_ns)
}

/// Self allocations of every span, by the same rule as [`self_ns`].
pub fn self_allocs(spans: &[SpanRec]) -> Vec<u64> {
    minus_children(spans, |s| s.allocs)
}

/// Self time and self allocations summed per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed self allocations.
    pub self_allocs: u64,
    /// Spans of this name.
    pub count: u64,
}

/// Groups a pass's spans by name.
pub fn by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, PhaseTotal> {
    let ns = self_ns(spans);
    let allocs = self_allocs(spans);
    let mut out: BTreeMap<&'static str, PhaseTotal> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.self_ns += ns[i];
        t.self_allocs += allocs[i];
        t.count += 1;
    }
    out
}

/// Appends `spans` to `out` as JSON lines, one span each, tagged with the
/// workload they belong to. Span ids are per workload.
///
/// # Errors
///
/// I/O errors from `out`.
pub fn write_jsonl(out: &mut impl Write, workload: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{i},\"parent\":{parent},\"cell\":{},\
             \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
            s.cell, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: SpanIx,
        start_ns: u64,
        end_ns: u64,
        allocs: u64,
    ) -> SpanRec {
        SpanRec {
            name,
            parent,
            cell: 0,
            start_ns,
            end_ns,
            allocs,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100) > cell [10,90) > build [10,40), run [40,85)
        let spans = vec![
            span("pass", NO_PARENT, 0, 100, 50),
            span("cell", 0, 10, 90, 40),
            span("build", 1, 10, 40, 30),
            span("run", 1, 40, 85, 4),
        ];
        assert_eq!(self_ns(&spans), vec![20, 5, 30, 45]);
        assert_eq!(self_allocs(&spans), vec![10, 6, 30, 4]);
        let total: u64 = self_ns(&spans).iter().sum();
        assert_eq!(
            total,
            spans[0].duration_ns(),
            "self times partition the root"
        );
    }

    #[test]
    fn phases_sum_by_name_across_cells() {
        let spans = vec![
            span("pass", NO_PARENT, 0, 100, 0),
            span("run", 0, 0, 30, 0),
            span("run", 0, 50, 90, 0),
        ];
        let phases = by_name(&spans);
        assert_eq!(phases["run"].self_ns, 70);
        assert_eq!(phases["run"].count, 2);
        assert_eq!(phases["pass"].self_ns, 30);
    }

    #[test]
    fn tracer_nests_and_switches_without_gaps() {
        let mut tr = Tracer::with_capacity(8);
        let pass = tr.enter("pass");
        tr.set_cell(3);
        let a = tr.enter("a");
        let b = tr.switch(a, "b");
        tr.exit(b);
        tr.exit(pass);
        let spans = tr.finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(
            spans[1].end_ns, spans[2].start_ns,
            "switch shares one instant"
        );
        assert_eq!((spans[0].cell, spans[1].cell), (0, 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let spans = vec![span("pass", NO_PARENT, 0, 9, 1), span("run", 0, 2, 5, 0)];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, "w", &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&crate::json::Value::Null));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(second.get("name").and_then(|v| v.as_str()), Some("run"));
    }
}
