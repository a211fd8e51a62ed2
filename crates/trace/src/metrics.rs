//! The per-node metrics registry: counters, byte gauges, and log-scaled
//! latency histograms with percentile estimation.
//!
//! Everything is keyed `(node, name)` with a global pseudo-node (`None`,
//! rendered as `wire`) for fabric-wide series — the [`Ledger`] byte
//! categories and the [`ReliabilityStats`] counters feed it directly, and
//! closed [`Journal`] spans feed the latency histograms.
//! The registry is a *view*, rebuildable at any `SimTime`:
//! [`MetricsRegistry::ingest_ledger`] and
//! [`MetricsRegistry::ingest_spans`] take an `until` bound, so a snapshot
//! mid-trial reflects only what had happened by that instant.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cor_ipc::NodeId;
use cor_sim::{Ledger, LedgerCategory, ReliabilityStats, SimDuration, SimTime};

use crate::journal::Journal;

/// A latency histogram with logarithmic (power-of-two) buckets.
///
/// Values are recorded in microseconds of virtual time. Bucket `0` holds
/// exact zeros; bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`.
/// Percentiles are estimated as the upper bound of the bucket containing
/// the requested rank, clamped to the observed maximum — so `p100` is
/// exact and lower percentiles are within a factor of two, plenty for
/// spotting tail behavior at a glance.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one value (microseconds).
    pub fn record(&mut self, value_us: u64) {
        let bucket = if value_us == 0 {
            0
        } else {
            64 - value_us.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_us);
        self.min = self.min.min(value_us);
        self.max = self.max.max(value_us);
    }

    /// Records a [`SimDuration`] sample.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_micros());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, rounded down (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `p`-quantile (`0.0 < p <= 1.0`) as the upper bound
    /// of the bucket holding that rank, clamped to the observed range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let upper = if idx == 0 {
                    0
                } else if idx >= 64 {
                    u64::MAX
                } else {
                    (1u64 << idx) - 1
                };
                return upper.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Merges another histogram into this one. Buckets, counts, and
    /// sums add; min/max take the extremes — so merging per-node
    /// histograms in any order reproduces the pooled histogram exactly.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (b, &n) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The metric series of one node (or of the global `wire` pseudo-node).
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Event counters by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Byte gauges by name.
    pub bytes: BTreeMap<&'static str, u64>,
    /// Latency histograms by name (virtual-time microseconds).
    pub latencies: BTreeMap<&'static str, LogHistogram>,
}

/// Per-node metrics, keyed by [`NodeId`] with `None` as the global
/// (`wire`) pseudo-node. All iteration orders are deterministic
/// (`BTreeMap` everywhere), so rendered snapshots are byte-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    nodes: BTreeMap<Option<NodeId>, NodeMetrics>,
}

fn category_name(c: LedgerCategory) -> &'static str {
    match c {
        LedgerCategory::Bulk => "wire.bulk",
        LedgerCategory::FaultSupport => "wire.fault-support",
        LedgerCategory::Control => "wire.control",
        LedgerCategory::Retransmit => "wire.retransmit",
        LedgerCategory::Drain => "wire.drain",
        LedgerCategory::Replicate => "wire.replicate",
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn entry(&mut self, node: Option<NodeId>) -> &mut NodeMetrics {
        self.nodes.entry(node).or_default()
    }

    /// Adds `n` to the `(node, name)` counter.
    pub fn counter_add(&mut self, node: Option<NodeId>, name: &'static str, n: u64) {
        *self.entry(node).counters.entry(name).or_insert(0) += n;
    }

    /// Adds `n` bytes to the `(node, name)` gauge.
    pub fn bytes_add(&mut self, node: Option<NodeId>, name: &'static str, n: u64) {
        *self.entry(node).bytes.entry(name).or_insert(0) += n;
    }

    /// Records one latency sample into the `(node, name)` histogram.
    pub fn latency_record(&mut self, node: Option<NodeId>, name: &'static str, d: SimDuration) {
        self.entry(node)
            .latencies
            .entry(name)
            .or_default()
            .record_duration(d);
    }

    /// The `(node, name)` counter value (0 if absent).
    #[cfg(test)]
    fn counter(&self, node: Option<NodeId>, name: &str) -> u64 {
        self.nodes
            .get(&node)
            .and_then(|m| m.counters.get(name).copied())
            .unwrap_or(0)
    }

    /// The `(node, name)` byte-gauge value (0 if absent).
    #[cfg(test)]
    fn bytes(&self, node: Option<NodeId>, name: &str) -> u64 {
        self.nodes
            .get(&node)
            .and_then(|m| m.bytes.get(name).copied())
            .unwrap_or(0)
    }

    /// Feeds the wire [`Ledger`] into the global byte gauges, one per
    /// [`LedgerCategory`], counting only traffic at or before `until`.
    pub fn ingest_ledger(&mut self, ledger: &Ledger, until: SimTime) {
        for e in ledger.entries() {
            if e.at <= until {
                self.bytes_add(None, category_name(e.category), e.bytes);
            }
        }
    }

    /// Feeds every non-zero [`ReliabilityStats::counters`] entry into the
    /// global counters and the retransmitted wire bytes into a byte
    /// gauge. (The stats are cumulative end-state counters, so no time
    /// bound applies.)
    pub fn ingest_reliability(&mut self, r: &ReliabilityStats) {
        for (name, v) in r.counters() {
            if v > 0 {
                self.counter_add(None, name, v);
            }
        }
        if r.retransmit_wire_bytes.get() > 0 {
            self.bytes_add(None, "net.retransmit-wire", r.retransmit_wire_bytes.get());
        }
    }

    /// Feeds every span closed at or before `until` into the latency
    /// histogram named after the span, on the span's node.
    pub fn ingest_spans(&mut self, journal: &Journal, until: SimTime) {
        for span in journal.spans() {
            if let Some(end) = span.end {
                if end <= until {
                    self.latency_record(span.node, span.name, end.since(span.start));
                }
            }
        }
    }

    /// Renders a deterministic plain-text snapshot as of `at`.
    pub fn render(&self, at: SimTime) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics @ {at}");
        for (node, m) in &self.nodes {
            let label = match node {
                Some(n) => n.to_string(),
                None => "wire".to_string(),
            };
            let _ = writeln!(out, "{label}:");
            for (name, v) in &m.counters {
                let _ = writeln!(out, "  {name:<28} {v:>12}");
            }
            for (name, v) in &m.bytes {
                let _ = writeln!(out, "  {name:<28} {v:>12} bytes");
            }
            for (name, h) in &m.latencies {
                let _ = writeln!(
                    out,
                    "  {name:<28} n {:>6}  p50 {:>8}us  p95 {:>8}us  p99 {:>8}us  max {:>8}us",
                    h.count(),
                    h.p50(),
                    h.p95(),
                    h.p99(),
                    h.max()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_percentiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!(h.p50() <= 7, "median of mostly-small samples stays small");
        assert_eq!(h.percentile(1.0), 1000, "p100 is exact");
        assert!(h.p99() >= 100);
        let empty = LogHistogram::new();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.min(), 0);
    }

    #[test]
    fn log_histogram_empty_and_single_sample_edges() {
        let empty = LogHistogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.mean(), 0);
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(empty.percentile(p), 0, "empty histogram reports 0");
        }

        let mut one = LogHistogram::new();
        one.record(37);
        assert_eq!(one.count(), 1);
        assert_eq!((one.min(), one.max(), one.mean()), (37, 37, 37));
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(p), 37, "single sample: every percentile is it");
        }

        let mut zero = LogHistogram::new();
        zero.record(0);
        assert_eq!((zero.p50(), zero.min(), zero.max()), (0, 0, 0));
    }

    #[test]
    fn log_histogram_top_bucket_saturation() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1u64 << 63);
        // The top bucket's nominal upper bound would overflow; the
        // percentile clamps to the observed maximum instead.
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert_eq!(h.p50(), u64::MAX, "clamped to observed range");
        assert_eq!(h.min(), 1u64 << 63);
        // The sum saturates rather than wrapping.
        assert_eq!(h.mean(), u64::MAX / 3);
    }

    #[test]
    fn log_histogram_merge_matches_pooled() {
        let samples_a = [0u64, 1, 3, 900, 64, 65];
        let samples_b = [2u64, 4096, 7, 0];
        let mut pooled = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for &v in &samples_a {
            a.record(v);
            pooled.record(v);
        }
        for &v in &samples_b {
            b.record(v);
            pooled.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        let mut with_empty = ab.clone();
        with_empty.merge(&LogHistogram::new());
        for h in [&ab, &ba, &with_empty] {
            assert_eq!(h.count(), pooled.count());
            assert_eq!(h.min(), pooled.min());
            assert_eq!(h.max(), pooled.max());
            assert_eq!(h.mean(), pooled.mean());
            for p in [0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                assert_eq!(h.percentile(p), pooled.percentile(p));
            }
        }
    }

    #[test]
    fn registry_keys_and_snapshot_are_deterministic() {
        let mut r = MetricsRegistry::new();
        r.counter_add(Some(NodeId(1)), "faults.imaginary", 3);
        r.counter_add(Some(NodeId(0)), "faults.imaginary", 1);
        r.bytes_add(None, "wire.bulk", 4096);
        r.latency_record(Some(NodeId(1)), "imag-fault", SimDuration::from_millis(2));
        assert_eq!(r.counter(Some(NodeId(1)), "faults.imaginary"), 3);
        assert_eq!(r.bytes(None, "wire.bulk"), 4096);
        let snap = r.render(SimTime::from_secs(1));
        let wire_pos = snap.find("wire:").unwrap();
        let n0_pos = snap.find("node0:").unwrap();
        let n1_pos = snap.find("node1:").unwrap();
        assert!(wire_pos < n0_pos && n0_pos < n1_pos, "global first, nodes in order");
        assert!(snap.contains("imag-fault"));
    }

    #[test]
    fn ledger_ingest_respects_time_bound() {
        let mut ledger = Ledger::new();
        ledger.record(SimTime::from_secs(1), 100, LedgerCategory::Bulk);
        ledger.record(SimTime::from_secs(5), 900, LedgerCategory::Bulk);
        let mut r = MetricsRegistry::new();
        r.ingest_ledger(&ledger, SimTime::from_secs(2));
        assert_eq!(r.bytes(None, "wire.bulk"), 100);
        let mut r2 = MetricsRegistry::new();
        r2.ingest_ledger(&ledger, SimTime::from_secs(10));
        assert_eq!(r2.bytes(None, "wire.bulk"), 1000);
    }
}
