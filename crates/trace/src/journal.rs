//! The typed journal: an append-only event log plus a span table over
//! virtual time.
//!
//! This is the successor of the stringly `(instant, kind, String)`
//! journal that used to live in `cor-sim`: records are now structured
//! [`TraceEvent`]s (recording never formats or allocates a detail
//! string), each record is attributed to the innermost open [`Span`], and
//! the familiar query surface — [`Journal::of_kind`],
//! [`Journal::render_tail`] — is preserved byte-for-byte via the events'
//! lossless `Display`.
//!
//! Recording remains gated by [`JournalLevel`] (which stays defined in
//! `cor-sim` next to the rest of the simulation substrate): `Off` drops
//! everything before the event is even constructed, `Summary` keeps
//! lifecycle milestones only, `Full` keeps every per-page event and every
//! fine-grained span.

use cor_ipc::NodeId;
pub use cor_sim::JournalLevel;
use cor_sim::SimTime;

use crate::event::TraceEvent;
use crate::span::{Span, SpanId};

/// One journal record: a typed event, stamped with virtual time and the
/// innermost span that was open when it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// When it happened.
    pub at: SimTime,
    /// The innermost open span, or [`SpanId::NONE`].
    pub span: SpanId,
    /// The structured event.
    pub event: TraceEvent,
}

impl JournalEvent {
    /// The event's short category tag (`"fault"`, `"send"`, ...).
    pub fn kind(&self) -> &'static str {
        self.event.kind()
    }

    /// The human-readable detail, identical to the historical stringly
    /// journal's formatting.
    pub fn detail(&self) -> String {
        self.event.to_string()
    }
}

/// An append-only, time-ordered event log with a causal span table.
///
/// # Examples
///
/// ```
/// use cor_ipc::NodeId;
/// use cor_sim::SimTime;
/// use cor_trace::{Journal, TraceEvent};
///
/// let mut j = Journal::new();
/// let span = j.span_start(SimTime::ZERO, "imag-fault", Some(NodeId(1)));
/// j.record(
///     SimTime::from_millis(2),
///     TraceEvent::FillZero { pid: 0, node: NodeId(1), page: 7 },
/// );
/// j.span_end(SimTime::from_millis(3), span);
/// assert_eq!(j.of_kind("fault").count(), 1);
/// assert_eq!(j.events()[0].span, span);
/// assert!(j.render_tail(10).contains("FillZero pid0 page 7"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Journal {
    events: Vec<JournalEvent>,
    spans: Vec<Span>,
    /// Stack of currently open span ids; the top is the attribution
    /// target for new events and the default parent for new spans.
    open: Vec<SpanId>,
    level: JournalLevel,
    /// Offset added to span indices when minting ids, so journals
    /// exported together keep disjoint id ranges.
    span_base: u64,
}

impl Journal {
    /// Creates an empty journal recording at [`JournalLevel::Full`].
    pub fn new() -> Self {
        Journal::default()
    }

    /// Creates an empty journal recording at `level`.
    pub fn with_level(level: JournalLevel) -> Self {
        Journal {
            level,
            ..Journal::default()
        }
    }

    /// Creates an empty journal recording at `level` whose span ids start
    /// above `span_base`. Give each journal of a merged export a distinct
    /// base (the kernel uses base `0` for the world journal and `1 << 32`
    /// for the fabric journal) so ids stay globally unique.
    pub fn with_level_and_base(level: JournalLevel, span_base: u64) -> Self {
        Journal {
            level,
            span_base,
            ..Journal::default()
        }
    }

    /// The current recording level.
    pub fn level(&self) -> JournalLevel {
        self.level
    }

    /// Appends an already-constructed event (subject to the level gate).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        self.record_with(at, || event);
    }

    /// Appends an event, constructing it lazily.
    ///
    /// The closure only runs when the level is not
    /// [`JournalLevel::Off`], so a muted journal costs one branch per
    /// call site. At [`JournalLevel::Summary`] the (allocation-free)
    /// event is constructed and kept only if
    /// [`TraceEvent::is_milestone`].
    pub fn record_with(&mut self, at: SimTime, event: impl FnOnce() -> TraceEvent) {
        if self.level == JournalLevel::Off {
            return;
        }
        let event = event();
        if self.level == JournalLevel::Summary && !event.is_milestone() {
            return;
        }
        let span = self.open.last().copied().unwrap_or(SpanId::NONE);
        self.events.push(JournalEvent { at, span, event });
    }

    /// Opens a fine-grained span (recorded only at
    /// [`JournalLevel::Full`]). The parent is the innermost open span.
    /// Returns [`SpanId::NONE`] when the level mutes it — every other
    /// span method accepts the sentinel as a no-op.
    pub fn span_start(&mut self, at: SimTime, name: &'static str, node: Option<NodeId>) -> SpanId {
        self.open_span(at, name, node, SpanId::NONE, false)
    }

    /// Like [`Journal::span_start`], but `fallback_parent` is used when
    /// no span is open — the hook for parenting across journals (the
    /// fabric parents its `wire-send` spans under the kernel's fault
    /// span this way).
    pub fn span_start_under(
        &mut self,
        at: SimTime,
        name: &'static str,
        node: Option<NodeId>,
        fallback_parent: SpanId,
    ) -> SpanId {
        self.open_span(at, name, node, fallback_parent, false)
    }

    /// Opens a milestone span (recorded at [`JournalLevel::Summary`] and
    /// above): migration and execution phases, not per-fault detail.
    pub fn milestone_span_start(
        &mut self,
        at: SimTime,
        name: &'static str,
        node: Option<NodeId>,
    ) -> SpanId {
        self.open_span(at, name, node, SpanId::NONE, true)
    }

    fn open_span(
        &mut self,
        at: SimTime,
        name: &'static str,
        node: Option<NodeId>,
        fallback_parent: SpanId,
        milestone: bool,
    ) -> SpanId {
        let admitted = match self.level {
            JournalLevel::Off => false,
            JournalLevel::Summary => milestone,
            JournalLevel::Full => true,
        };
        if !admitted {
            return SpanId::NONE;
        }
        let parent = self.open.last().copied().unwrap_or(fallback_parent);
        let id = self.push_span(Span {
            id: SpanId::NONE,
            parent,
            name,
            node,
            start: at,
            end: None,
        });
        self.open.push(id);
        id
    }

    fn push_span(&mut self, mut span: Span) -> SpanId {
        let id = SpanId(self.span_base + self.spans.len() as u64 + 1);
        span.id = id;
        self.spans.push(span);
        id
    }

    /// Appends an already-closed span with an explicit interval and
    /// parent, without touching the open-span stack. This is for
    /// intervals reconstructed after the fact (the coalescing relay's
    /// `coalesce-park`, which is only known at unpark time and does not
    /// nest inside whatever happens to be open then). Recorded only at
    /// [`JournalLevel::Full`]; returns [`SpanId::NONE`] otherwise.
    pub fn closed_span(
        &mut self,
        start: SimTime,
        end: SimTime,
        name: &'static str,
        node: Option<NodeId>,
        parent: SpanId,
    ) -> SpanId {
        if self.level != JournalLevel::Full {
            return SpanId::NONE;
        }
        self.push_span(Span {
            id: SpanId::NONE,
            parent,
            name,
            node,
            start,
            end: Some(end),
        })
    }

    /// Depth of the open-span stack (0 when every span is closed).
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// The innermost open span, or [`SpanId::NONE`] when none is — what
    /// a sibling journal's cross-journal parent hook should point at.
    pub fn open_top(&self) -> SpanId {
        self.open.last().copied().unwrap_or(SpanId::NONE)
    }

    /// Closes span `id` at instant `at`. Any spans opened under it that
    /// are still open are closed at the same instant (error paths may
    /// abandon children; the tree stays well-formed). A
    /// [`SpanId::NONE`] argument is a no-op.
    pub fn span_end(&mut self, at: SimTime, id: SpanId) {
        if id.is_none() {
            return;
        }
        if self.open.contains(&id) {
            while let Some(top) = self.open.pop() {
                self.set_end(top, at);
                if top == id {
                    break;
                }
            }
        } else {
            // Not on the open stack (already closed, or foreign): close
            // it directly, best-effort.
            self.set_end(id, at);
        }
    }

    fn set_end(&mut self, id: SpanId, at: SimTime) {
        let Some(idx) = id.0.checked_sub(self.span_base + 1) else {
            return;
        };
        if let Some(span) = self.spans.get_mut(idx as usize) {
            if span.end.is_none() {
                span.end = Some(at);
            }
        }
    }

    /// All recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Looks up a span this journal minted.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        let idx = id.0.checked_sub(self.span_base + 1)?;
        self.spans.get(idx as usize)
    }

    /// All events in record order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one kind.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a JournalEvent> {
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// Renders the last `n` events, one per line — the same format the
    /// stringly journal produced.
    pub fn render_tail(&self, n: usize) -> String {
        let start = self.events.len().saturating_sub(n);
        let mut out = String::new();
        for e in &self.events[start..] {
            out.push_str(&format!(
                "{:>12} {:<9} {}\n",
                e.at.to_string(),
                e.kind(),
                e.detail()
            ));
        }
        out
    }

    /// Clears events and spans, keeping the level and span base.
    pub fn clear(&mut self) {
        self.events.clear();
        self.spans.clear();
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_ipc::MsgKind;

    fn fault(page: u64) -> TraceEvent {
        TraceEvent::FillZero {
            pid: 0,
            node: NodeId(0),
            page,
        }
    }

    fn exec(ops: u64) -> TraceEvent {
        TraceEvent::Exec {
            pid: 0,
            node: NodeId(0),
            ops,
            finished: false,
        }
    }

    #[test]
    fn record_and_filter() {
        let mut j = Journal::new();
        j.record(SimTime::ZERO, fault(1));
        j.record(SimTime::from_secs(1), exec(5));
        j.record(SimTime::from_secs(2), fault(2));
        assert_eq!(j.len(), 3);
        assert_eq!(j.of_kind("fault").count(), 2);
        assert_eq!(j.of_kind("exec").count(), 1);
        assert_eq!(j.of_kind("send").count(), 0);
        assert_eq!(j.events()[1].detail(), "pid0 ran 5 ops on node0");
    }

    #[test]
    fn tail_rendering() {
        let mut j = Journal::new();
        for i in 0..10 {
            j.record(SimTime::from_secs(i), fault(i));
        }
        let tail = j.render_tail(3);
        assert!(tail.contains("page 7") && tail.contains("page 9"));
        assert!(!tail.contains("page 6"));
        assert_eq!(tail.lines().count(), 3);
    }

    #[test]
    fn off_level_skips_construction() {
        let mut j = Journal::with_level(JournalLevel::Off);
        let mut built = false;
        j.record_with(SimTime::ZERO, || {
            built = true;
            fault(0)
        });
        assert!(!built, "event closure must not run at Off");
        assert!(j.is_empty());
        assert!(j
            .span_start(SimTime::ZERO, "imag-fault", None)
            .is_none());
    }

    #[test]
    fn summary_keeps_milestones_only() {
        let mut j = Journal::with_level(JournalLevel::Summary);
        j.record(SimTime::ZERO, fault(0));
        j.record(
            SimTime::ZERO,
            TraceEvent::Send {
                msg: MsgKind::Core,
                from: NodeId(0),
                wire_bytes: 64,
            },
        );
        j.record(SimTime::from_secs(1), exec(3));
        assert_eq!(j.len(), 1, "only the exec milestone survives");
        assert_eq!(j.events()[0].kind(), "exec");
        // Fine spans are muted, milestone spans admitted.
        assert!(j.span_start(SimTime::ZERO, "imag-fault", None).is_none());
        let s = j.milestone_span_start(SimTime::ZERO, "exec", Some(NodeId(0)));
        assert!(!s.is_none());
        j.span_end(SimTime::from_secs(2), s);
        assert_eq!(j.spans().len(), 1);
    }

    #[test]
    fn span_tree_nesting_and_attribution() {
        let mut j = Journal::new();
        let outer = j.span_start(SimTime::ZERO, "imag-fault", Some(NodeId(1)));
        let inner = j.span_start(SimTime::from_millis(1), "cor-roundtrip", Some(NodeId(1)));
        j.record(SimTime::from_millis(2), fault(9));
        j.span_end(SimTime::from_millis(3), inner);
        j.record(SimTime::from_millis(4), fault(10));
        j.span_end(SimTime::from_millis(5), outer);

        let spans = j.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, SpanId::NONE);
        assert_eq!(spans[1].parent, outer);
        assert_eq!(j.events()[0].span, inner);
        assert_eq!(j.events()[1].span, outer, "after inner closes, outer is current");
        assert_eq!(spans[1].duration(), Some(cor_sim::SimDuration::from_millis(2)));
    }

    #[test]
    fn closing_a_parent_closes_abandoned_children() {
        let mut j = Journal::new();
        let outer = j.span_start(SimTime::ZERO, "a", None);
        let _leaked = j.span_start(SimTime::from_millis(1), "b", None);
        j.span_end(SimTime::from_millis(9), outer);
        assert!(j.spans().iter().all(|s| s.end == Some(SimTime::from_millis(9))));
    }

    #[test]
    fn span_bases_keep_ids_disjoint() {
        let mut a = Journal::with_level_and_base(JournalLevel::Full, 0);
        let mut b = Journal::with_level_and_base(JournalLevel::Full, 1 << 32);
        let ia = a.span_start(SimTime::ZERO, "x", None);
        let ib = b.span_start(SimTime::ZERO, "y", None);
        assert_ne!(ia, ib);
        assert_eq!(a.span(ia).unwrap().name, "x");
        assert_eq!(b.span(ib).unwrap().name, "y");
        assert!(a.span(ib).is_none());
    }

    #[test]
    fn closed_span_bypasses_the_stack() {
        let mut j = Journal::new();
        let outer = j.span_start(SimTime::from_millis(5), "a", None);
        assert_eq!(j.open_len(), 1);
        // A backdated interval: starts before the open span, parented
        // explicitly at the root, and never appears on the stack.
        let s = j.closed_span(
            SimTime::ZERO,
            SimTime::from_millis(3),
            "coalesce-park",
            Some(NodeId(2)),
            SpanId::NONE,
        );
        assert!(!s.is_none());
        assert_eq!(j.open_len(), 1, "closed_span must not push");
        j.record(SimTime::from_millis(6), fault(1));
        assert_eq!(j.events()[0].span, outer, "attribution unaffected");
        j.span_end(SimTime::from_millis(7), outer);
        assert_eq!(j.open_len(), 0);
        let park = j.span(s).unwrap();
        assert_eq!(park.parent, SpanId::NONE);
        assert_eq!(park.end, Some(SimTime::from_millis(3)));

        let muted = Journal::with_level(JournalLevel::Summary)
            .closed_span(SimTime::ZERO, SimTime::ZERO, "x", None, SpanId::NONE);
        assert!(muted.is_none());
    }

    #[test]
    fn clear_empties() {
        let mut j = Journal::new();
        j.record(SimTime::ZERO, fault(0));
        let s = j.span_start(SimTime::ZERO, "x", None);
        assert!(!s.is_none());
        j.clear();
        assert!(j.is_empty());
        assert!(j.spans().is_empty());
        assert_eq!(j.render_tail(5), "");
    }
}
