//! Trace exporters: JSONL event streams and Chrome/Perfetto
//! `trace.json`.
//!
//! Both exporters take a set of named journals (typically the world
//! journal and the fabric journal) and merge them into one
//! chronologically ordered document. JSON is written without a
//! serializer (the simulator is dependency-free): an event's `args` are
//! [`TraceEvent::json_args`](crate::TraceEvent::json_args), generated
//! with the event from its one table row, and every string that can
//! carry arbitrary content passes through [`escape`]-style quoting.
//!
//! The Perfetto document maps the simulation onto the [trace event
//! format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
//! each node becomes a process track (`pid = node index + 1`, with
//! `pid 0` reserved for the global `wire` track), spans become `"X"`
//! complete events with `ts`/`dur` in virtual-time microseconds, and
//! point events become `"i"` instants. Load the file at
//! <https://ui.perfetto.dev> and the whole migration reads left to
//! right.

use std::fmt::Write as _;

use cor_ipc::NodeId;

use crate::journal::Journal;
use crate::span::{Span, SpanId};

/// Escapes `s` for inclusion inside a JSON string literal (no
/// surrounding quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One merged record for chronological ordering across journals.
enum Record<'a> {
    Span(&'a str, &'a Span),
    Event(&'a str, &'a crate::journal::JournalEvent),
}

impl Record<'_> {
    fn at_us(&self) -> u64 {
        match self {
            Record::Span(_, s) => s.start.as_micros(),
            Record::Event(_, e) => e.at.as_micros(),
        }
    }
    /// Orders spans before events at the same instant, so a parent span
    /// precedes the events it encloses.
    fn rank(&self) -> u8 {
        match self {
            Record::Span(..) => 0,
            Record::Event(..) => 1,
        }
    }
}

fn merged<'a>(journals: &[(&'a str, &'a Journal)]) -> Vec<Record<'a>> {
    let mut records = Vec::new();
    for (source, j) in journals {
        for s in j.spans() {
            records.push(Record::Span(source, s));
        }
        for e in j.events() {
            records.push(Record::Event(source, e));
        }
    }
    // Stable sort keeps intra-journal record order for same-instant ties.
    records.sort_by_key(|r| (r.at_us(), r.rank()));
    records
}

/// Exports the journals as one JSONL document: one JSON object per
/// line, chronologically merged. Span lines carry `"type":"span"` with
/// `start_us`/`end_us` (null while open); event lines carry
/// `"type":"event"` with the structured fields under `"args"` and the
/// historical detail string under `"detail"`.
pub fn jsonl(journals: &[(&str, &Journal)]) -> String {
    let mut out = String::new();
    for r in merged(journals) {
        match r {
            Record::Span(source, s) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span\",\"source\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"node\":",
                    escape(source),
                    s.id.0,
                    s.parent.0,
                    escape(s.name)
                );
                match s.node {
                    Some(n) => {
                        let _ = write!(out, "{}", n.0);
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"start_us\":{},\"end_us\":", s.start.as_micros());
                match s.end {
                    Some(e) => {
                        let _ = write!(out, "{}", e.as_micros());
                    }
                    // Spans abandoned by an error path (or still open at
                    // export time) are flagged explicitly.
                    None => out.push_str("null,\"abandoned\":true"),
                }
                out.push_str("}\n");
            }
            Record::Event(source, e) => {
                let _ = writeln!(
                    out,
                    "{{\"type\":\"event\",\"source\":\"{}\",\"t_us\":{},\"kind\":\"{}\",\"span\":{},\"detail\":\"{}\",\"args\":{{{}}}}}",
                    escape(source),
                    e.at.as_micros(),
                    escape(e.kind()),
                    e.span.0,
                    escape(&e.detail()),
                    e.event.json_args()
                );
            }
        }
    }
    out
}

/// The Perfetto process id a node's track uses: `0` is the global
/// `wire` track, node *n* is process *n + 1*.
pub fn perfetto_pid(node: Option<NodeId>) -> u64 {
    match node {
        Some(n) => n.0 as u64 + 1,
        None => 0,
    }
}

/// Exports the journals as a Chrome/Perfetto `trace.json` document.
///
/// Spans become `"X"` (complete) duration events; still-open spans are
/// closed at `end_us` for display. Point events become `"i"` instants.
/// An event with no node of its own inherits the track of its owning
/// span, falling back to the global `wire` track.
pub fn perfetto(journals: &[(&str, &Journal)], end_us: u64) -> String {
    // Resolve any span id minted by any of the journals.
    let find_span = |id: SpanId| -> Option<&Span> {
        if id.is_none() {
            return None;
        }
        journals.iter().find_map(|(_, j)| j.span(id))
    };

    // One record per line: the Chrome JSON format ignores the whitespace,
    // and line-oriented output diffs (and greps) cleanly.
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, item: String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&item);
    };

    // Process-name metadata: one track per node seen anywhere, plus the
    // global wire track.
    let mut pids: Vec<u64> = Vec::new();
    for r in merged(journals) {
        let pid = match &r {
            Record::Span(_, s) => perfetto_pid(s.node),
            Record::Event(_, e) => {
                let node = e.event.node().or_else(|| {
                    find_span(e.span).and_then(|s| s.node)
                });
                perfetto_pid(node)
            }
        };
        if !pids.contains(&pid) {
            pids.push(pid);
        }
    }
    pids.sort_unstable();
    for pid in &pids {
        let name = if *pid == 0 {
            "wire".to_string()
        } else {
            format!("node{}", pid - 1)
        };
        push(
            &mut out,
            &mut first,
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }

    for r in merged(journals) {
        match r {
            Record::Span(source, s) => {
                let pid = perfetto_pid(s.node);
                let ts = s.start.as_micros();
                let dur = s.end.map(|e| e.as_micros()).unwrap_or(end_us).saturating_sub(ts);
                // Abandoned/open spans render closed at the trace end but
                // carry an explicit flag for the profiler and the UI.
                let abandoned = if s.end.is_none() { ",\"abandoned\":true" } else { "" };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{ts},\"dur\":{dur},\"args\":{{\"source\":\"{}\",\"span\":{},\"parent\":{}{abandoned}}}}}",
                        escape(s.name),
                        escape(source),
                        s.id.0,
                        s.parent.0
                    ),
                );
            }
            Record::Event(source, e) => {
                let node = e.event.node().or_else(|| {
                    find_span(e.span).and_then(|s| s.node)
                });
                let pid = perfetto_pid(node);
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":1,\"ts\":{},\"args\":{{\"source\":\"{}\",\"detail\":\"{}\",{}}}}}",
                        escape(e.kind()),
                        e.at.as_micros(),
                        escape(source),
                        escape(&e.detail()),
                        e.event.json_args()
                    ),
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use cor_sim::SimTime;

    fn sample() -> Journal {
        let mut j = Journal::new();
        let outer = j.span_start(SimTime::ZERO, "imag-fault", Some(NodeId(1)));
        j.record(
            SimTime::from_millis(1),
            TraceEvent::FillZero {
                pid: 3,
                node: NodeId(1),
                page: 7,
            },
        );
        j.span_end(SimTime::from_millis(2), outer);
        j
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn jsonl_emits_one_object_per_line() {
        let j = sample();
        let doc = jsonl(&[("world", &j)]);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2, "one span + one event");
        assert!(lines[0].starts_with("{\"type\":\"span\""));
        assert!(lines[0].contains("\"name\":\"imag-fault\""));
        assert!(lines[0].contains("\"end_us\":2000"));
        assert!(lines[1].starts_with("{\"type\":\"event\""));
        assert!(lines[1].contains("\"kind\":\"fault\""));
        assert!(lines[1].contains("\"page\":7"));
        assert!(lines[1].contains("\"detail\":\"FillZero pid3 page 7\""));
    }

    #[test]
    fn perfetto_has_metadata_spans_and_instants() {
        let j = sample();
        let doc = perfetto(&[("world", &j)], 5_000);
        assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        assert!(doc.ends_with("\n]}\n"));
        assert!(doc.contains("\"ph\":\"M\""));
        assert!(doc.contains("\"name\":\"node1\""));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"dur\":2000"));
        assert!(doc.contains("\"ph\":\"i\""));
    }

    #[test]
    fn open_spans_close_at_trace_end() {
        let mut j = Journal::new();
        let _leaked = j.span_start(SimTime::from_millis(1), "exec", Some(NodeId(0)));
        let doc = perfetto(&[("world", &j)], 9_000);
        assert!(doc.contains("\"ts\":1000,\"dur\":8000"));
        assert!(doc.contains("\"abandoned\":true"), "open span is flagged");
        let doc = jsonl(&[("world", &j)]);
        assert!(doc.contains("\"end_us\":null,\"abandoned\":true"));

        // Closed spans never carry the flag.
        let j = sample();
        assert!(!perfetto(&[("world", &j)], 9_000).contains("abandoned"));
        assert!(!jsonl(&[("world", &j)]).contains("abandoned"));
    }

    #[test]
    fn nodeless_event_inherits_owning_spans_track() {
        let mut j = Journal::new();
        let s = j.span_start(SimTime::ZERO, "wire-send", Some(NodeId(2)));
        j.record(
            SimTime::from_millis(1),
            TraceEvent::NetStale {
                seg: 4,
                offset: 1,
                seq: 9,
            },
        );
        j.span_end(SimTime::from_millis(2), s);
        let doc = perfetto(&[("fabric", &j)], 2_000);
        // NetStale has no node; it must land on node2's track (pid 3).
        assert!(doc.contains("\"name\":\"net-stale\",\"ph\":\"i\",\"s\":\"p\",\"pid\":3"));
    }
}
