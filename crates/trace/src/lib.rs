//! Typed tracing for the copy-on-reference simulator: structured
//! events, causal spans, per-node metrics, and trace export.
//!
//! The simulation substrate (`cor-sim`) keeps the [`JournalLevel`]
//! knob; everything that *interprets* what happened lives here:
//!
//! - [`TraceEvent`] — the typed vocabulary of journal records, each one
//!   table row that generates its tag, milestone flag, owner node, the
//!   historical detail string and its JSON args.
//! - [`Journal`] — the append-only event log plus a [`Span`] table:
//!   every event is attributed to the innermost open span, so one remote
//!   fault is a single tree from touch to page-install.
//! - [`MetricsRegistry`] — per-node counters, byte gauges, and
//!   log-scaled latency histograms ([`LogHistogram`]) with p50/p95/p99,
//!   snapshotable at any `SimTime`.
//! - [`export`] — JSONL event streams and Chrome/Perfetto
//!   `trace.json` on a virtual-time clock.
//! - [`profile`] — the critical-path profiler: exact per-span blame
//!   decomposition into seven latency buckets, per-node/per-link blame
//!   tables, and folded-stack virtual-time flamegraphs.
//!
//! Recording costs one branch when the journal is
//! [`JournalLevel::Off`] and never allocates per event (all variants
//! are `Copy`); the zero-allocation discipline of the hot paths is
//! unchanged with tracing off.

pub mod event;
pub mod export;
pub mod journal;
pub mod metrics;
pub mod profile;
pub mod span;

pub use cor_sim::JournalLevel;
pub use event::TraceEvent;
pub use journal::{Journal, JournalEvent};
pub use metrics::{LogHistogram, MetricsRegistry, NodeMetrics};
pub use profile::{BlameBucket, CriticalPath, CriticalStep, ProfSpan, Profile, BUCKET_COUNT};
pub use span::{Span, SpanId};
