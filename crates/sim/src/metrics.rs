//! Measurement instruments: counters, byte ledgers, reliability stats.
//!
//! The experiments regenerate the paper's tables and figures from these
//! records. In particular the [`Ledger`] tags every wire transmission with a
//! [`LedgerCategory`] and timestamp, which is exactly the data needed for
//! Figure 4-3 (bytes per trial), Figure 4-4 (message-handling time) and
//! Figure 4-5 (transfer-rate time series split into fault-support vs bulk
//! traffic).

use std::fmt;

use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Why bytes crossed the wire. Mirrors the traffic split in Figure 4-5 of
/// the paper (white = imaginary fault support, black = everything else).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LedgerCategory {
    /// Bulk context shipment during the migration phase (Core and RIMAS
    /// message payloads, resident-set pages, pure-copy pages).
    Bulk,
    /// Traffic generated in support of imaginary faults during remote
    /// execution: read requests, replies, prefetched pages.
    FaultSupport,
    /// Protocol control traffic: acknowledgements, segment death notices,
    /// migration commands.
    Control,
    /// Bytes that crossed the wire more than once: link-layer
    /// retransmissions after an injected drop and injected duplicate
    /// deliveries. Zero on a lossless wire, so the other categories always
    /// reproduce the lossless byte counts exactly.
    Retransmit,
    /// Residual-dependency draining and crash recovery: background
    /// prefetch of owed pages, flushes of owed pages to a crash-survivable
    /// disk backer, and post-crash recovery reads. Zero unless a drain
    /// policy or crash plan is configured, so the paper's byte categories
    /// are untouched by the robustness machinery.
    Drain,
    /// Page-home replication: write-through installs of owed-page backing
    /// on replica nodes and reads served by a replica
    /// (nearest-replica routing and crash failover). Zero unless a
    /// replication plan is configured, so the paper's byte categories are
    /// untouched by the replication machinery.
    Replicate,
}

impl LedgerCategory {
    /// All categories, in display order.
    pub const ALL: [LedgerCategory; 6] = [
        LedgerCategory::Bulk,
        LedgerCategory::FaultSupport,
        LedgerCategory::Control,
        LedgerCategory::Retransmit,
        LedgerCategory::Drain,
        LedgerCategory::Replicate,
    ];

    fn index(self) -> usize {
        match self {
            LedgerCategory::Bulk => 0,
            LedgerCategory::FaultSupport => 1,
            LedgerCategory::Control => 2,
            LedgerCategory::Retransmit => 3,
            LedgerCategory::Drain => 4,
            LedgerCategory::Replicate => 5,
        }
    }
}

impl fmt::Display for LedgerCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LedgerCategory::Bulk => "bulk",
            LedgerCategory::FaultSupport => "fault-support",
            LedgerCategory::Control => "control",
            LedgerCategory::Retransmit => "retransmit",
            LedgerCategory::Drain => "drain",
            LedgerCategory::Replicate => "replicate",
        };
        f.write_str(s)
    }
}

/// One ledger entry: `bytes` of `category` traffic observed at `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// When the transmission completed.
    pub at: SimTime,
    /// Payload plus protocol overhead bytes.
    pub bytes: u64,
    /// Traffic class.
    pub category: LedgerCategory,
}

/// An append-only record of categorized byte traffic over virtual time.
///
/// # Examples
///
/// ```
/// use cor_sim::{Ledger, LedgerCategory, SimTime};
///
/// let mut ledger = Ledger::new();
/// ledger.record(SimTime::from_millis(1), 512, LedgerCategory::Bulk);
/// ledger.record(SimTime::from_millis(2), 64, LedgerCategory::FaultSupport);
/// assert_eq!(ledger.total(), 576);
/// assert_eq!(ledger.total_for(LedgerCategory::Bulk), 512);
/// assert_eq!(ledger.total_for(LedgerCategory::Retransmit), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    entries: Vec<LedgerEntry>,
    totals: [u64; 6],
    coarse: bool,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Switches the ledger between full entry recording (the default,
    /// needed for the Figure 4-5 time-series binning) and coarse mode,
    /// where [`Ledger::record`] only bumps the fixed per-category total
    /// array — no allocation, no entry push. Load harnesses that only
    /// need byte totals run coarse so stats stay off the service hot
    /// path; totals are identical either way.
    pub fn set_coarse(&mut self, coarse: bool) {
        self.coarse = coarse;
    }

    /// `true` when only per-category totals are being kept.
    pub fn is_coarse(&self) -> bool {
        self.coarse
    }

    /// Records `bytes` of `category` traffic at instant `at`.
    pub fn record(&mut self, at: SimTime, bytes: u64, category: LedgerCategory) {
        self.totals[category.index()] += bytes;
        if !self.coarse {
            self.entries.push(LedgerEntry {
                at,
                bytes,
                category,
            });
        }
    }

    /// Total bytes across all categories.
    pub fn total(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Total bytes for one category.
    pub fn total_for(&self, category: LedgerCategory) -> u64 {
        self.totals[category.index()]
    }

    /// All entries in record order (which is also time order, because the
    /// simulation clock is monotone).
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.total() == 0
    }

    /// Bins the ledger into fixed-width buckets of `bin` virtual time,
    /// returning per-bin byte totals for `category` from time zero through
    /// `end`. Used to draw the Figure 4-5 rate panels.
    pub fn binned(&self, bin: SimDuration, end: SimTime, category: LedgerCategory) -> Vec<u64> {
        assert!(bin.as_micros() > 0, "bin width must be positive");
        let nbins = (end.as_micros() / bin.as_micros() + 1) as usize;
        let mut out = vec![0u64; nbins];
        for e in &self.entries {
            if e.category == category && e.at <= end {
                let idx = (e.at.as_micros() / bin.as_micros()) as usize;
                out[idx] += e.bytes;
            }
        }
        out
    }
}

/// Counters for the unreliable-wire machinery: injected faults on one side,
/// the recovery work they forced on the other. A lossless run leaves every
/// field zero.
///
/// # Examples
///
/// ```
/// use cor_sim::{ReliabilityStats, SimDuration};
///
/// let mut r = ReliabilityStats::default();
/// r.drops_injected.incr();
/// r.retransmissions.incr();
/// r.timeout_stalls.incr();
/// r.stall_time += SimDuration::from_millis(25);
/// assert_eq!(r.retransmissions.get(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Transmission attempts the fault plan destroyed in flight.
    pub drops_injected: Counter,
    /// Deliveries the fault plan repeated on the wire.
    pub duplicates_injected: Counter,
    /// Deliveries the fault plan held back past later traffic.
    pub reorders_injected: Counter,
    /// Link-layer retransmissions (attempts beyond the first) forced by
    /// drops.
    pub retransmissions: Counter,
    /// Wire bytes carried by those retransmissions (and by injected
    /// duplicate deliveries). Mirrors the ledger's retransmit category:
    /// the two are kept consistent by a fabric debug assertion.
    pub retransmit_wire_bytes: Counter,
    /// Injected duplicates the link layer dropped: every one of them, so
    /// this always equals `duplicates_injected`.
    pub duplicate_drops: Counter,
    /// Stale or already-satisfied protocol replies dropped by idempotent
    /// handlers above the link layer.
    pub stale_replies: Counter,
    /// Retransmission timeouts that expired (one per backoff wait).
    pub timeout_stalls: Counter,
    /// Total virtual time senders spent stalled in retransmission backoff.
    pub stall_time: SimDuration,
    /// Sends abandoned after the retry budget was exhausted.
    pub unreachable_failures: Counter,
    /// Whole-node crashes fired by the crash plan (or injected manually).
    pub node_crashes: Counter,
    /// In-flight messages lost when a node crashed: its queued deliveries
    /// plus limbo traffic that was headed to it.
    pub crash_dropped_messages: Counter,
    /// Sends abandoned immediately because the peer was already marked
    /// crashed — no transmission attempt, no backoff.
    pub crash_fast_fails: Counter,
    /// Owed pages drained in the background (prefetched to the dependent
    /// node or flushed to a crash-survivable disk backer).
    pub drained_pages: Counter,
    /// Owed pages recovered from a crashed node's disk backer after the
    /// crash.
    pub pages_recovered: Counter,
    /// Owed pages confirmed unrecoverable when a process was orphaned.
    pub pages_lost: Counter,
    /// Owed-page copies installed on replica homes by write-through
    /// replication (one count per page per replica).
    pub replicated_pages: Counter,
    /// Owed pages served from a live replica on the healthy fault path
    /// (quorum-mode nearest-replica routing, the primary still up).
    pub replica_reads: Counter,
    /// Failover fetches: copy-on-reference reads promoted to a surviving
    /// replica because the primary home lost its volatile state.
    pub failover_fetches: Counter,
    /// Owed pages delivered by those failover fetches.
    pub failover_pages: Counter,
    /// Total virtual time spent in failover fetches (the replication
    /// ladder's recovery latency).
    pub failover_time: SimDuration,
    /// Coalesced pending-interest waiters failed out of the table because
    /// their upstream crashed mid-flight (instead of hanging parked).
    pub pit_waiters_failed: Counter,
    /// Coalesced pending-interest waiters re-routed to a live replica
    /// after their upstream crashed mid-flight.
    pub pit_waiters_rerouted: Counter,
}

impl ReliabilityStats {
    /// Every counter under the name the metrics view reports it by;
    /// durations are whole microseconds. The destructure names every
    /// field, so a new one does not compile until it is listed here.
    /// `retransmit_wire_bytes` is the one field left out: the view
    /// reports it as a byte gauge, not a counter.
    pub fn counters(&self) -> [(&'static str, u64); 22] {
        let ReliabilityStats {
            drops_injected,
            duplicates_injected,
            reorders_injected,
            retransmissions,
            retransmit_wire_bytes: _,
            duplicate_drops,
            stale_replies,
            timeout_stalls,
            stall_time,
            unreachable_failures,
            node_crashes,
            crash_dropped_messages,
            crash_fast_fails,
            drained_pages,
            pages_recovered,
            pages_lost,
            replicated_pages,
            replica_reads,
            failover_fetches,
            failover_pages,
            failover_time,
            pit_waiters_failed,
            pit_waiters_rerouted,
        } = self;
        [
            ("net.drops-injected", drops_injected.get()),
            ("net.duplicates-injected", duplicates_injected.get()),
            ("net.reorders-injected", reorders_injected.get()),
            ("net.retransmissions", retransmissions.get()),
            ("net.duplicate-drops", duplicate_drops.get()),
            ("net.stale-replies", stale_replies.get()),
            ("net.timeout-stalls", timeout_stalls.get()),
            ("net.stall-time-us", stall_time.as_micros()),
            ("net.unreachable-failures", unreachable_failures.get()),
            ("net.node-crashes", node_crashes.get()),
            ("net.crash-dropped-messages", crash_dropped_messages.get()),
            ("net.crash-fast-fails", crash_fast_fails.get()),
            ("net.drained-pages", drained_pages.get()),
            ("net.pages-recovered", pages_recovered.get()),
            ("net.pages-lost", pages_lost.get()),
            ("net.replicated-pages", replicated_pages.get()),
            ("net.replica-reads", replica_reads.get()),
            ("net.failover-fetches", failover_fetches.get()),
            ("net.failover-pages", failover_pages.get()),
            ("net.failover-time-us", failover_time.as_micros()),
            ("net.pit-waiters-failed", pit_waiters_failed.get()),
            ("net.pit-waiters-rerouted", pit_waiters_rerouted.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn ledger_totals_by_category() {
        let mut l = Ledger::new();
        l.record(SimTime::from_millis(1), 100, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(2), 50, LedgerCategory::FaultSupport);
        l.record(SimTime::from_millis(3), 25, LedgerCategory::Bulk);
        assert_eq!(l.total(), 175);
        assert_eq!(l.total_for(LedgerCategory::Bulk), 125);
        assert_eq!(l.total_for(LedgerCategory::FaultSupport), 50);
        assert_eq!(l.total_for(LedgerCategory::Control), 0);
        assert_eq!(l.entries().len(), 3);
    }

    #[test]
    fn ledger_binning() {
        let mut l = Ledger::new();
        l.record(SimTime::from_millis(100), 10, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(150), 20, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(1100), 30, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(1200), 99, LedgerCategory::FaultSupport);
        let bins = l.binned(
            SimDuration::from_secs(1),
            SimTime::from_secs(2),
            LedgerCategory::Bulk,
        );
        assert_eq!(bins[0], 30);
        assert_eq!(bins[1], 30);
        assert_eq!(bins[2], 0);
    }

    #[test]
    fn retransmit_category_is_separate_and_displayed() {
        let mut l = Ledger::new();
        l.record(SimTime::from_millis(1), 100, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(2), 100, LedgerCategory::Retransmit);
        assert_eq!(l.total_for(LedgerCategory::Retransmit), 100);
        assert_eq!(l.total_for(LedgerCategory::Bulk), 100);
        assert_eq!(l.total(), 200);
        assert_eq!(LedgerCategory::Retransmit.to_string(), "retransmit");
        assert_eq!(LedgerCategory::ALL.len(), 6);
    }

    #[test]
    fn replicate_category_is_separate_and_displayed() {
        let mut l = Ledger::new();
        l.record(SimTime::from_millis(1), 100, LedgerCategory::Bulk);
        l.record(SimTime::from_millis(2), 40, LedgerCategory::Replicate);
        assert_eq!(l.total_for(LedgerCategory::Replicate), 40);
        assert_eq!(l.total_for(LedgerCategory::Bulk), 100);
        assert_eq!(l.total(), 140);
        assert_eq!(LedgerCategory::Replicate.to_string(), "replicate");
    }

    #[test]
    fn replication_counters_stay_zero_without_a_plan() {
        let r = ReliabilityStats::default();
        assert_eq!(r.replicated_pages.get(), 0);
        assert_eq!(r.replica_reads.get(), 0);
        assert_eq!(r.failover_fetches.get(), 0);
        assert_eq!(r.failover_pages.get(), 0);
        assert_eq!(r.failover_time, SimDuration::ZERO);
        assert_eq!(r.pit_waiters_failed.get(), 0);
        assert_eq!(r.pit_waiters_rerouted.get(), 0);
    }

    #[test]
    fn drain_category_is_separate_and_displayed() {
        let mut l = Ledger::new();
        l.record(SimTime::from_millis(1), 100, LedgerCategory::FaultSupport);
        l.record(SimTime::from_millis(2), 75, LedgerCategory::Drain);
        assert_eq!(l.total_for(LedgerCategory::Drain), 75);
        assert_eq!(l.total_for(LedgerCategory::FaultSupport), 100);
        assert_eq!(l.total(), 175);
        assert_eq!(LedgerCategory::Drain.to_string(), "drain");
    }

    #[test]
    fn crash_counters_stay_zero_without_a_crash_plan() {
        let r = ReliabilityStats::default();
        assert_eq!(r.node_crashes.get(), 0);
        assert_eq!(r.crash_dropped_messages.get(), 0);
        assert_eq!(r.crash_fast_fails.get(), 0);
        assert_eq!(r.drained_pages.get(), 0);
        assert_eq!(r.pages_recovered.get(), 0);
        assert_eq!(r.pages_lost.get(), 0);
    }

    #[test]
    fn reliability_stats_track_injection_and_recovery() {
        let mut r = ReliabilityStats::default();
        r.drops_injected.add(3);
        r.retransmissions.add(3);
        r.timeout_stalls.add(3);
        r.stall_time += SimDuration::from_millis(25 + 50 + 100);
        r.duplicates_injected.incr();
        r.duplicate_drops.incr();
        r.reorders_injected.incr();
        r.stale_replies.incr();
        r.unreachable_failures.incr();
        assert_eq!(r.drops_injected.get(), r.retransmissions.get());
        assert_eq!(r.duplicates_injected.get(), r.duplicate_drops.get());
        assert_eq!(r.stall_time, SimDuration::from_millis(175));
        let copy = r.clone();
        assert_eq!(copy, r, "stats compare for determinism checks");
    }
}
