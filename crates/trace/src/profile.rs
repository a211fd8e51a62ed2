//! The critical-path profiler: exact blame decomposition over span
//! trees, per-node/per-link blame tables, and folded-stack virtual-time
//! flamegraphs.
//!
//! The journal records *what happened* as a causal span tree; this
//! module answers *where the time went*. Every closed span's duration
//! is partitioned — exactly, in integer virtual-time microseconds —
//! into seven blame buckets:
//!
//! | bucket | charged from |
//! |---|---|
//! | `local-service` | any self time not claimed below (CPU, page install, disk) |
//! | `link-queue-wait` | `link-queue` spans (routed sends waiting for busy links) |
//! | `wire-transit` | `link-transit` spans and `xmit-attempt` self time |
//! | `retransmit-backoff` | `retry-backoff` spans (timeout → exponential backoff) |
//! | `coalesce-park` | `coalesce-park` spans (PIT-parked relay requests) |
//! | `failover` | all self time under a `failover` span (replica reads after a crash) |
//! | `replication` | all self time under a `replicate` span (healthy-path replica reads) |
//!
//! The decomposition works bottom-up on **self time**: a span's self
//! time is its duration minus the durations of its children (children
//! nest, so this never double-counts), classified by the span's name —
//! except inside a `failover`/`replicate` subtree, where every
//! descendant's self time is charged to that bucket (the question "how
//! much did failover cost" dominates "how was the failover's wire time
//! split"). Summing a span's buckets reproduces its duration exactly
//! ([`Profile::sums_exactly`] guards the invariant), and summing self
//! time over a whole trace gives the fleet-level blame table.
//!
//! A span abandoned by an error path (`end == None`) contributes zero
//! duration and is exported with an explicit `"abandoned":true` flag.
//!
//! The [`Profile::critical_path`] of a root follows the latest-ending
//! child at every level — the chain of operations that determined when
//! the root finished; its self-time total is a lower bound on the
//! root's duration and tells you what to optimize first.
//!
//! [`Profile::folded`] renders the whole tree as inferno /
//! `flamegraph.pl`-compatible folded stacks (`frame;frame;frame N`
//! with self-time microsecond counts), deterministic by construction
//! (stacks are aggregated and emitted in sorted order).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cor_ipc::NodeId;
use cor_sim::{IdMap, SimTime};

use crate::export::escape;
use crate::journal::Journal;
use crate::metrics::LogHistogram;

/// Number of blame buckets.
pub const BUCKET_COUNT: usize = 7;

/// One blame bucket of the exact latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BlameBucket {
    /// CPU, page install, disk, and anything else unclaimed.
    LocalService = 0,
    /// Waiting for a busy interconnect link (`link-queue`).
    LinkQueueWait = 1,
    /// Time on the wire: hop latency and transmission (`link-transit`,
    /// `xmit-attempt` self time).
    WireTransit = 2,
    /// Exponential backoff between retransmit attempts.
    RetransmitBackoff = 3,
    /// Parked in a relay's pending-interest table behind an in-flight
    /// upstream request.
    CoalescePark = 4,
    /// Fetching from a replica home because the primary is down.
    Failover = 5,
    /// Healthy-path replica reads and write-through.
    Replication = 6,
}

impl BlameBucket {
    /// All buckets, in column order.
    pub const ALL: [BlameBucket; BUCKET_COUNT] = [
        BlameBucket::LocalService,
        BlameBucket::LinkQueueWait,
        BlameBucket::WireTransit,
        BlameBucket::RetransmitBackoff,
        BlameBucket::CoalescePark,
        BlameBucket::Failover,
        BlameBucket::Replication,
    ];

    /// The bucket's stable kebab-case name (CSV column, docs).
    pub fn name(self) -> &'static str {
        match self {
            BlameBucket::LocalService => "local-service",
            BlameBucket::LinkQueueWait => "link-queue-wait",
            BlameBucket::WireTransit => "wire-transit",
            BlameBucket::RetransmitBackoff => "retransmit-backoff",
            BlameBucket::CoalescePark => "coalesce-park",
            BlameBucket::Failover => "failover",
            BlameBucket::Replication => "replication",
        }
    }

    /// Column index, `0..BUCKET_COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The bucket a span's *self* time belongs to, by span name (before the
/// failover/replication subtree override).
pub fn self_bucket(name: &str) -> BlameBucket {
    match name {
        "link-queue" => BlameBucket::LinkQueueWait,
        "link-transit" | "xmit-attempt" => BlameBucket::WireTransit,
        "retry-backoff" => BlameBucket::RetransmitBackoff,
        "coalesce-park" => BlameBucket::CoalescePark,
        "failover" => BlameBucket::Failover,
        "replicate" => BlameBucket::Replication,
        _ => BlameBucket::LocalService,
    }
}

/// One span of a profile: a [`crate::Span`] with its parent resolved to
/// a dense index (parents always precede children) and the journal of
/// origin remembered as `source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfSpan {
    /// Journal of origin (`"world"` / `"fabric"`).
    pub source: &'static str,
    /// Static operation name.
    pub name: &'static str,
    /// The node the operation ran on, if attributable.
    pub node: Option<NodeId>,
    /// Open instant.
    pub start: SimTime,
    /// Close instant; `None` marks a span abandoned by an error path
    /// (zero duration, exported with an `abandoned` flag).
    pub end: Option<SimTime>,
    /// Index of the enclosing span, or `None` for a root.
    pub parent: Option<usize>,
}

impl ProfSpan {
    /// The span's duration in virtual-time microseconds (0 if
    /// abandoned).
    pub fn dur_us(&self) -> u64 {
        self.end.map(|e| e.since(self.start).as_micros()).unwrap_or(0)
    }

    /// Whether the span was abandoned (never closed).
    pub fn abandoned(&self) -> bool {
        self.end.is_none()
    }
}

/// One step of a critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalStep {
    /// Span name.
    pub name: &'static str,
    /// Span node.
    pub node: Option<NodeId>,
    /// Self time contributed by this step.
    pub self_us: u64,
}

/// The latest-ending-child chain below one root span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Index of the root span.
    pub root: usize,
    /// Steps from the root down to a leaf.
    pub steps: Vec<CriticalStep>,
    /// Sum of step self times — never exceeds the root's duration.
    pub total_us: u64,
}

/// An analyzed span forest: self times, exact blame decompositions,
/// critical paths, blame tables, folded flamegraphs, and a
/// deterministic span export.
#[derive(Debug, Clone)]
pub struct Profile {
    spans: Vec<ProfSpan>,
    children: Vec<Vec<usize>>,
    self_us: Vec<u64>,
    bucket: Vec<BlameBucket>,
    blame: Vec<[u64; BUCKET_COUNT]>,
    exact: bool,
}

impl Profile {
    /// Builds a profile from merged journals, in journal order (the
    /// kernel exports the world journal first, then the fabric journal).
    /// Parents are resolved across journals; an unknown parent id
    /// demotes the span to a root.
    pub fn from_journals(journals: &[(&'static str, &Journal)]) -> Profile {
        let total: usize = journals.iter().map(|(_, j)| j.spans().len()).sum();
        let mut index = IdMap::with_capacity_and_hasher(total, Default::default());
        let mut spans = Vec::with_capacity(total);
        for (source, j) in journals {
            for s in j.spans() {
                let parent = if s.parent.is_none() {
                    None
                } else {
                    let p = index.get(&s.parent.0).copied();
                    debug_assert!(p.is_some(), "parent {:?} of {:?} unseen", s.parent, s.id);
                    p
                };
                index.insert(s.id.0, spans.len());
                spans.push(ProfSpan {
                    source,
                    name: s.name,
                    node: s.node,
                    start: s.start,
                    end: s.end,
                    parent,
                });
            }
        }
        Profile::from_spans(spans)
    }

    /// Builds a profile from pre-resolved spans. Parents must precede
    /// children.
    fn from_spans(spans: Vec<ProfSpan>) -> Profile {
        let n = spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                debug_assert!(p < i, "parent index {p} must precede child {i}");
                if p < i {
                    children[p].push(i);
                }
            }
        }

        // Self time: duration minus children's durations. Children nest
        // inside their parent, so the subtraction is exact; `exact`
        // records whether that held everywhere.
        let mut exact = true;
        let mut self_us = vec![0u64; n];
        for i in 0..n {
            let kids: u64 = children[i].iter().map(|&c| spans[c].dur_us()).sum();
            let dur = spans[i].dur_us();
            exact &= kids <= dur;
            self_us[i] = dur.saturating_sub(kids);
        }

        // Effective bucket per span: by name, except inside a
        // failover/replicate subtree where the override is inherited.
        let mut bucket: Vec<BlameBucket> = Vec::with_capacity(n);
        for (i, s) in spans.iter().enumerate() {
            debug_assert_eq!(bucket.len(), i);
            let inherited = s
                .parent
                .map(|p| bucket[p])
                .filter(|b| matches!(b, BlameBucket::Failover | BlameBucket::Replication));
            let b = match s.name {
                "failover" => BlameBucket::Failover,
                "replicate" => BlameBucket::Replication,
                name => inherited.unwrap_or_else(|| self_bucket(name)),
            };
            bucket.push(b);
        }

        // Bottom-up blame: children (higher indices) fold into parents.
        let mut blame = vec![[0u64; BUCKET_COUNT]; n];
        for i in (0..n).rev() {
            blame[i][bucket[i].index()] += self_us[i];
            if let Some(p) = spans[i].parent {
                if p < i {
                    let (head, tail) = blame.split_at_mut(i);
                    for b in 0..BUCKET_COUNT {
                        head[p][b] += tail[0][b];
                    }
                }
            }
        }

        Profile {
            spans,
            children,
            self_us,
            bucket,
            blame,
            exact,
        }
    }

    /// All spans, parents before children.
    pub fn spans(&self) -> &[ProfSpan] {
        &self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the profile holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of span `i` (duration minus children's durations).
    pub fn self_us(&self, i: usize) -> u64 {
        self.self_us[i]
    }

    /// The bucket span `i`'s self time is charged to.
    pub fn bucket(&self, i: usize) -> BlameBucket {
        self.bucket[i]
    }

    /// The exact blame decomposition of span `i`'s whole subtree; the
    /// seven entries sum to the span's duration (see
    /// [`Profile::sums_exactly`]).
    pub fn blame(&self, i: usize) -> &[u64; BUCKET_COUNT] {
        &self.blame[i]
    }

    /// Whether every span's blame buckets sum exactly to its duration —
    /// true whenever children nest properly inside their parents, which
    /// the journal's stack discipline guarantees.
    pub fn sums_exactly(&self) -> bool {
        self.exact
    }

    /// Indices of root spans, ascending.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(move |&i| self.spans[i].parent.is_none())
    }

    /// Indices of spans with the given name, ascending.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Whole-trace blame: summed self time per bucket. Equals the sum
    /// of every root's blame decomposition.
    pub fn total_blame(&self) -> [u64; BUCKET_COUNT] {
        let mut total = [0u64; BUCKET_COUNT];
        for i in 0..self.spans.len() {
            total[self.bucket[i].index()] += self.self_us[i];
        }
        total
    }

    /// Total profiled self time (the sum of [`Profile::total_blame`]).
    pub fn total_us(&self) -> u64 {
        self.self_us.iter().sum()
    }

    /// Per-node blame table, keyed by the node the self time accrued
    /// on (`None` is the global wire pseudo-node).
    pub fn node_blame(&self) -> BTreeMap<Option<NodeId>, [u64; BUCKET_COUNT]> {
        let mut per: BTreeMap<Option<NodeId>, [u64; BUCKET_COUNT]> = BTreeMap::new();
        for i in 0..self.spans.len() {
            per.entry(self.spans[i].node).or_insert([0; BUCKET_COUNT])
                [self.bucket[i].index()] += self.self_us[i];
        }
        per
    }

    /// A latency histogram over the durations of every closed span
    /// named `name`.
    pub fn histogram(&self, name: &str) -> LogHistogram {
        let mut h = LogHistogram::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && s.end.is_some() {
                h.record(self.spans[i].dur_us());
            }
        }
        h
    }

    /// The critical path below root `i`: follow the latest-ending child
    /// at every level (ties resolved toward the later index, i.e. the
    /// later-created span). The chain's self-time total never exceeds
    /// the root's duration.
    pub fn critical_path(&self, root: usize) -> CriticalPath {
        let mut steps = Vec::new();
        let mut total = 0u64;
        let mut cur = root;
        loop {
            steps.push(CriticalStep {
                name: self.spans[cur].name,
                node: self.spans[cur].node,
                self_us: self.self_us[cur],
            });
            total += self.self_us[cur];
            let next = self.children[cur]
                .iter()
                .copied()
                .max_by_key(|&c| (self.spans[c].end.unwrap_or(self.spans[c].start), c));
            match next {
                Some(c) => cur = c,
                None => break,
            }
        }
        CriticalPath {
            root,
            steps,
            total_us: total,
        }
    }

    /// Renders the blame tables as CSV: one `total` row, one row per
    /// node, and one `link-queue-wait` row per directed link (link
    /// waits are passed in from the fabric's per-link statistics; the
    /// span tree attributes queue wait to the sending node, the link
    /// table splits it by link).
    pub fn blame_csv(&self, links: &[((NodeId, NodeId), u64)]) -> String {
        let mut out = String::from("scope,key");
        for b in BlameBucket::ALL {
            let _ = write!(out, ",{}_us", b.name());
        }
        out.push_str(",total_us\n");
        let row = |out: &mut String, scope: &str, key: &str, cells: &[u64; BUCKET_COUNT]| {
            let _ = write!(out, "{scope},{key}");
            let mut total = 0u64;
            for &v in cells {
                let _ = write!(out, ",{v}");
                total += v;
            }
            let _ = writeln!(out, ",{total}");
        };
        row(&mut out, "total", "all", &self.total_blame());
        for (node, cells) in self.node_blame() {
            let key = match node {
                Some(n) => n.to_string(),
                None => "wire".to_string(),
            };
            row(&mut out, "node", &key, &cells);
        }
        for &((from, to), wait_us) in links {
            let mut cells = [0u64; BUCKET_COUNT];
            cells[BlameBucket::LinkQueueWait.index()] = wait_us;
            row(&mut out, "link", &format!("{from}->{to}"), &cells);
        }
        out
    }

    /// Renders the forest as folded stacks, one line per distinct stack
    /// (`nX;root;child;leaf SELF_US`), aggregated and sorted — feed it
    /// to inferno or `flamegraph.pl` for a virtual-time flamegraph. The
    /// leading frame names the root's node (`n-` when unattributed);
    /// zero-self stacks are skipped.
    pub fn folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        let mut chain: Vec<usize> = Vec::new();
        for i in 0..self.spans.len() {
            if self.self_us[i] == 0 {
                continue;
            }
            chain.clear();
            let mut cur = i;
            chain.push(cur);
            while let Some(p) = self.spans[cur].parent {
                chain.push(p);
                cur = p;
            }
            chain.reverse();
            let mut stack = match self.spans[chain[0]].node {
                Some(n) => format!("n{}", n.0),
                None => "n-".to_string(),
            };
            for &s in &chain {
                stack.push(';');
                stack.push_str(self.spans[s].name);
            }
            *agg.entry(stack).or_insert(0) += self.self_us[i];
        }
        let mut out = String::new();
        for (stack, us) in agg {
            let _ = writeln!(out, "{stack} {us}");
        }
        out
    }

    /// Exports the spans as JSONL with dense re-minted ids (`id =
    /// index + 1`, `parent = 0` for roots), so the id space does not
    /// depend on which journal minted a span. Abandoned spans close at
    /// their start with an explicit `"abandoned":true`.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"source\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"node\":",
                escape(s.source),
                i + 1,
                s.parent.map(|p| p + 1).unwrap_or(0),
                escape(s.name)
            );
            match s.node {
                Some(n) => {
                    let _ = write!(out, "{}", n.0);
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"start_us\":{}", s.start.as_micros());
            match s.end {
                Some(e) => {
                    let _ = write!(out, ",\"end_us\":{}", e.as_micros());
                }
                None => {
                    let _ = write!(out, ",\"end_us\":{},\"abandoned\":true", s.start.as_micros());
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Renders a human-readable blame + critical-path report for the
    /// roots named `root_name` (typically `"imag-fault"` or
    /// `"migration"`).
    pub fn report(&self, root_name: &str) -> String {
        let mut out = String::new();
        let total = self.total_blame();
        let grand: u64 = total.iter().sum();
        let _ = writeln!(out, "blame totals ({grand} us profiled):");
        for b in BlameBucket::ALL {
            let v = total[b.index()];
            let pct = if grand == 0 {
                0.0
            } else {
                100.0 * v as f64 / grand as f64
            };
            let _ = writeln!(out, "  {:<20} {v:>12} us  {pct:>5.1}%", b.name());
        }
        let roots: Vec<usize> = self.named(root_name).filter(|&i| self.spans[i].parent.is_none() || self.spans[i].end.is_some()).collect();
        let _ = writeln!(out, "critical paths of {} '{root_name}' span(s):", roots.len());
        for (k, &r) in roots.iter().enumerate().take(8) {
            let cp = self.critical_path(r);
            let _ = writeln!(
                out,
                "  [{k}] dur {} us, path {} us:",
                self.spans[r].dur_us(),
                cp.total_us
            );
            for step in &cp.steps {
                let node = match step.node {
                    Some(n) => n.to_string(),
                    None => "wire".to_string(),
                };
                let _ = writeln!(out, "      {:<16} {:<8} {:>10} us", step.name, node, step.self_us);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_sim::SimDuration;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn span(
        name: &'static str,
        node: Option<NodeId>,
        start: u64,
        end: Option<u64>,
        parent: Option<usize>,
    ) -> ProfSpan {
        ProfSpan {
            source: "world",
            name,
            node,
            start: t(start),
            end: end.map(t),
            parent,
        }
    }

    /// imag-fault [0,100] -> cor-roundtrip [10,90] -> wire-send [20,80]
    /// -> xmit-attempt [20,80] -> {link-queue [20,50], link-transit
    /// [50,70]}, plus a map-in [90,95] child of the fault.
    fn sample() -> Profile {
        Profile::from_spans(vec![
            span("imag-fault", Some(NodeId(1)), 0, Some(100), None),
            span("cor-roundtrip", Some(NodeId(1)), 10, Some(90), Some(0)),
            span("wire-send", Some(NodeId(1)), 20, Some(80), Some(1)),
            span("xmit-attempt", Some(NodeId(1)), 20, Some(80), Some(2)),
            span("link-queue", Some(NodeId(1)), 20, Some(50), Some(3)),
            span("link-transit", Some(NodeId(1)), 50, Some(70), Some(3)),
            span("map-in", Some(NodeId(1)), 90, Some(95), Some(0)),
        ])
    }

    #[test]
    fn blame_sums_to_duration_exactly() {
        let p = sample();
        assert!(p.sums_exactly());
        // Root: 100 us total.
        let blame = p.blame(0);
        assert_eq!(blame.iter().sum::<u64>(), 100);
        assert_eq!(blame[BlameBucket::LinkQueueWait.index()], 30);
        // transit 20 + xmit-attempt self (60 - 50) = 30.
        assert_eq!(blame[BlameBucket::WireTransit.index()], 30);
        // fault self 15 + roundtrip self 20 + wire-send self 0 + map-in 5.
        assert_eq!(blame[BlameBucket::LocalService.index()], 40);
        for i in 0..p.len() {
            assert_eq!(
                p.blame(i).iter().sum::<u64>(),
                p.spans()[i].dur_us(),
                "span {i} blame must sum to its duration"
            );
        }
        let total = p.total_blame();
        assert_eq!(total.iter().sum::<u64>(), 100);
        assert_eq!(p.total_us(), 100);
    }

    #[test]
    fn failover_subtree_override_claims_descendants() {
        let p = Profile::from_spans(vec![
            span("imag-fault", Some(NodeId(0)), 0, Some(100), None),
            span("failover", Some(NodeId(0)), 10, Some(60), Some(0)),
            span("link-queue", Some(NodeId(0)), 20, Some(40), Some(1)),
            span("replicate", Some(NodeId(0)), 60, Some(80), Some(0)),
        ]);
        let blame = p.blame(0);
        assert_eq!(blame[BlameBucket::Failover.index()], 50);
        assert_eq!(blame[BlameBucket::Replication.index()], 20);
        assert_eq!(blame[BlameBucket::LinkQueueWait.index()], 0, "claimed by failover");
        assert_eq!(blame[BlameBucket::LocalService.index()], 30);
        assert_eq!(blame.iter().sum::<u64>(), 100);
    }

    #[test]
    fn critical_path_follows_latest_ending_child() {
        let p = sample();
        let cp = p.critical_path(0);
        let names: Vec<&str> = cp.steps.iter().map(|s| s.name).collect();
        // map-in ends at 95 — later than roundtrip's 90.
        assert_eq!(names, vec!["imag-fault", "map-in"]);
        assert_eq!(cp.total_us, 15 + 5);
        assert!(cp.total_us <= p.spans()[0].dur_us());

        // Below the roundtrip, the chain goes all the way down the wire.
        let cp = p.critical_path(1);
        let names: Vec<&str> = cp.steps.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            vec!["cor-roundtrip", "wire-send", "xmit-attempt", "link-transit"]
        );
        assert!(cp.total_us <= p.spans()[1].dur_us());
    }

    #[test]
    fn abandoned_spans_have_zero_duration_and_flagged_export() {
        let p = Profile::from_spans(vec![
            span("imag-fault", Some(NodeId(0)), 0, Some(50), None),
            span("wire-send", Some(NodeId(0)), 10, None, Some(0)),
        ]);
        assert!(p.sums_exactly());
        assert_eq!(p.spans()[1].dur_us(), 0);
        assert_eq!(p.blame(0).iter().sum::<u64>(), 50);
        let doc = p.jsonl();
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].contains("\"end_us\":10,\"abandoned\":true"));
        assert!(!lines[0].contains("abandoned"));
    }

    #[test]
    fn folded_stacks_aggregate_deterministically() {
        let p = sample();
        let folded = p.folded();
        let expect = "\
n1;imag-fault 15
n1;imag-fault;cor-roundtrip 20
n1;imag-fault;cor-roundtrip;wire-send;xmit-attempt 10
n1;imag-fault;cor-roundtrip;wire-send;xmit-attempt;link-queue 30
n1;imag-fault;cor-roundtrip;wire-send;xmit-attempt;link-transit 20
n1;imag-fault;map-in 5
";
        assert_eq!(folded, expect);
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(total, p.total_us());
    }

    #[test]
    fn blame_csv_has_total_node_and_link_rows() {
        let p = sample();
        let csv = p.blame_csv(&[((NodeId(0), NodeId(1)), 30)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "scope,key,local-service_us,link-queue-wait_us,wire-transit_us,\
             retransmit-backoff_us,coalesce-park_us,failover_us,replication_us,total_us"
                .replace(' ', "")
        );
        assert_eq!(lines[1], "total,all,40,30,30,0,0,0,0,100");
        assert_eq!(lines[2], "node,node1,40,30,30,0,0,0,0,100");
        assert_eq!(lines[3], "link,node0->node1,0,30,0,0,0,0,0,30");
    }

    #[test]
    fn from_journals_resolves_cross_journal_parents() {
        let mut world = Journal::with_level_and_base(crate::JournalLevel::Full, 0);
        let mut fabric = Journal::with_level_and_base(crate::JournalLevel::Full, 1 << 32);
        let fault = world.span_start(t(0), "imag-fault", Some(NodeId(2)));
        let send = fabric.span_start_under(t(5), "wire-send", Some(NodeId(2)), fault);
        fabric.span_end(t(40), send);
        world.span_end(t(50), fault);

        let p = Profile::from_journals(&[("world", &world), ("fabric", &fabric)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.spans()[0].source, "world");
        assert_eq!(p.spans()[1].source, "fabric");
        assert_eq!(p.spans()[1].parent, Some(0));
        assert_eq!(p.self_us(0), 15);
        assert_eq!(p.histogram("imag-fault").count(), 1);
        assert_eq!(
            p.histogram("imag-fault").max(),
            SimDuration::from_micros(50).as_micros()
        );
        let doc = p.jsonl();
        assert!(doc.contains("\"id\":2,\"parent\":1,\"name\":\"wire-send\""));
    }
}
