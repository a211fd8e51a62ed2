//! The calibrated wire and message-handling cost model.
//!
//! Constants are derived from the paper's own measurements (see DESIGN.md
//! §5 for the arithmetic):
//!
//! * Pure-copy RIMAS transfers (Table 4-5 ÷ Table 4-1) cluster around
//!   60–77 µs/byte of effective throughput, i.e. ≈15 KB/s end to end on the
//!   testbed's network and Perq protocol stack → `per_byte_ns = 62_000`.
//! * Resident-set transfers cost ≈35 ms per page when runs are contiguous
//!   but ≈69 ms per page for Lisp's scattered resident set → a
//!   per-discontiguous-run overhead of ≈33 ms.
//! * The 115 ms imaginary fault round trip (§4.3.3) bounds the per-message
//!   fixed cost: two messages plus handling must fit in it → 30 ms.
//! * The *Core* context message takes "approximately one second in all
//!   cases" (§4.3.2) despite carrying ~1 KB; the dominant term is
//!   translating the process's port rights at the destination → 12 ms per
//!   right with a few dozen rights per process.

use cor_ipc::NodeId;
use cor_sim::{SimDuration, SimTime};

use crate::topology::Topology;
use crate::NetError;

/// Fault rates for one directed link, applied per transmission attempt by
/// the fabric's fault-injection layer. All rates are probabilities in
/// `[0, 1]`; the all-zero default is a perfect wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaults {
    /// Probability that a transmission attempt is destroyed in flight.
    /// The sender times out and retransmits with exponential backoff, up
    /// to [`WireParams::retry_budget`] attempts.
    pub drop: f64,
    /// Probability that a delivered message is repeated on the wire. The
    /// copy pays full wire bytes (charged to the `Retransmit` ledger
    /// category) and is dropped by the link layer: nothing above it ever
    /// sees a duplicate.
    pub duplicate: f64,
    /// Probability that a delivered message is held back and released
    /// only when later traffic (or a pump) flushes the link — i.e. it
    /// arrives *after* messages sent later.
    pub reorder: f64,
    /// Maximum extra delivery delay; each delivery adds a uniform draw
    /// from `[0, jitter]` to its latency.
    pub jitter: SimDuration,
}

impl Default for LinkFaults {
    fn default() -> Self {
        LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter: SimDuration::ZERO,
        }
    }
}

impl LinkFaults {
    /// A link that only drops, at rate `p`.
    pub fn dropping(p: f64) -> Self {
        LinkFaults {
            drop: p,
            ..LinkFaults::default()
        }
    }

    /// `true` when every rate is zero — injection can be skipped entirely.
    pub fn is_clean(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.jitter == SimDuration::ZERO
    }
}

/// A deterministic fault-injection plan: a seed for the injection RNG and
/// the fault profile every directed link runs under. Identical plans over
/// identical traffic produce identical faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injection RNG (a dedicated `cor-sim` PCG stream).
    pub seed: u64,
    /// Faults applied to every link.
    pub all: LinkFaults,
}

impl FaultPlan {
    /// A plan applying `faults` to every link.
    pub fn uniform(seed: u64, faults: LinkFaults) -> Self {
        FaultPlan { seed, all: faults }
    }

    /// A plan that drops every message at rate `p` on every link.
    pub fn dropping(seed: u64, p: f64) -> Self {
        FaultPlan::uniform(seed, LinkFaults::dropping(p))
    }
}

/// When a planned crash fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTrigger {
    /// The node dies at this virtual instant. Fires lazily: the fabric
    /// checks the clock at every send, service and pump step, so the
    /// crash lands at the first network activity at or after the chosen
    /// time.
    AtTime(SimTime),
    /// The node dies after carrying its `n`-th remote message (sent or
    /// received). The `n`-th message itself is delivered at the link
    /// layer, but anything still queued on the node — including that
    /// message, if nobody consumed it yet — dies with it.
    ///
    /// Only deliveries count, from the moment the plan is installed.
    /// Replica write-through and replica reads are billed as transfers,
    /// not delivered, so a node that carries no delivered message (a
    /// bystander, a replica home) is never crashed by this trigger. The
    /// count is checked only after a delivery, so `n = 0` behaves like
    /// `n = 1`.
    AfterMessages(u64),
}

/// One planned node crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that dies.
    pub node: NodeId,
    /// When it dies.
    pub trigger: CrashTrigger,
    /// `false`: the node stays down for the rest of the run. `true`: the
    /// node reboots instantly but amnesiac — its NetMsgServer cache,
    /// forward tables, pending relays and every queued message are gone,
    /// yet it answers the wire again (stale requests then surface
    /// `MissingData` rather than `NodeDown`).
    pub reboot_amnesiac: bool,
}

/// A deterministic whole-node crash plan: the crash-injection sibling of
/// [`FaultPlan`]. Identical plans over identical traffic kill identical
/// nodes at identical instants.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CrashPlan {
    /// The planned crashes, applied in order of appearance.
    pub events: Vec<CrashEvent>,
}

impl CrashPlan {
    /// An empty plan.
    pub fn new() -> Self {
        CrashPlan::default()
    }

    /// A plan that permanently kills `node` at virtual time `at`.
    pub fn at_time(node: NodeId, at: SimTime) -> Self {
        CrashPlan::new().killing(node, CrashTrigger::AtTime(at))
    }

    /// A plan that permanently kills `node` after it carries its `n`-th
    /// remote message.
    pub fn after_messages(node: NodeId, n: u64) -> Self {
        CrashPlan::new().killing(node, CrashTrigger::AfterMessages(n))
    }

    /// Builder-style: adds a permanent crash of `node` on `trigger`.
    pub fn killing(mut self, node: NodeId, trigger: CrashTrigger) -> Self {
        self.events.push(CrashEvent {
            node,
            trigger,
            reboot_amnesiac: false,
        });
        self
    }

    /// Builder-style: adds an amnesiac-reboot crash of `node` on
    /// `trigger`.
    pub fn rebooting(mut self, node: NodeId, trigger: CrashTrigger) -> Self {
        self.events.push(CrashEvent {
            node,
            trigger,
            reboot_amnesiac: true,
        });
        self
    }

    /// Validates that every crash event names a node drawn from `nodes`
    /// (the fabric's registered set) — a crash aimed at a node that does
    /// not exist can never fire and almost certainly marks a mis-built
    /// plan.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] naming the first unregistered node.
    pub fn validate(&self, nodes: &std::collections::BTreeSet<NodeId>) -> Result<(), NetError> {
        for e in &self.events {
            if !nodes.contains(&e.node) {
                return Err(NetError::UnknownNode(e.node));
            }
        }
        Ok(())
    }
}

/// How replicated page homes answer COR reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// Replicas are cold standbys: every COR read goes to the primary
    /// home, and a replica serves pages only after the primary has
    /// crashed (the failover ladder promotes the nearest live replica).
    #[default]
    PrimaryBackup,
    /// Replicas are live read targets: every COR read routes to the
    /// nearest live home — primary or replica — by the topology's
    /// hop-count metric with deterministic tie-breaks, so a well-placed
    /// replica shortens the fault path even before any crash.
    Quorum,
}

/// A page-home replication plan: the migration page-out path
/// write-through installs each segment on `factor` extra deterministic
/// replica nodes, and a COR fault may read the segment's pages, by
/// `(segment, offset)`, from a live replica home the directory names.
/// The default, f = 0, replicates nothing: no home is placed, no
/// directory entry is made, and every output is that of a single home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationParams {
    /// Number of replicas beyond the primary home (`f`); a page is backed
    /// on `f + 1` nodes. `0` replicates nothing.
    pub factor: u64,
    /// Read-routing discipline across the `f + 1` homes.
    pub mode: ReplicationMode,
    /// Seed for the deterministic replica-placement draws (a dedicated
    /// `cor-sim` PCG stream, disjoint from fault/crash/placement streams).
    pub seed: u64,
}

impl ReplicationParams {
    /// A primary-backup plan with `factor` replicas.
    pub const fn primary_backup(factor: u64, seed: u64) -> Self {
        ReplicationParams {
            factor,
            mode: ReplicationMode::PrimaryBackup,
            seed,
        }
    }

    /// A quorum-read plan with `factor` replicas.
    pub const fn quorum(factor: u64, seed: u64) -> Self {
        ReplicationParams {
            factor,
            mode: ReplicationMode::Quorum,
            seed,
        }
    }
}

/// Link and NetMsgServer cost parameters.
#[derive(Debug, Clone)]
pub struct WireParams {
    /// Wire time per byte, in nanoseconds (effective, including protocol
    /// stack overheads).
    pub per_byte_ns: u64,
    /// Fixed per-message latency (NMS dispatch + kernel handoff both ends).
    pub per_message: SimDuration,
    /// Extra latency per discontiguous physically-carried page run *beyond
    /// the first* (scatter/gather and buffer management).
    pub per_run: SimDuration,
    /// Service time for the NetMsgServer to interpret one request aimed at
    /// a segment it backs or forwards.
    pub nms_service: SimDuration,
    /// NetMsgServer work per page when it caches out-of-line data and
    /// substitutes IOUs (wiring frames down and recording ownership). This
    /// keeps the paper's pure-IOU RIMAS transfers at a small but non-zero
    /// 0.1–0.2 s despite shipping almost no bytes.
    pub iou_cache_per_page_ns: u64,
    /// Cost of translating one port right at the receiving site.
    pub per_right: SimDuration,
    /// Fragment payload size in bytes.
    pub frag_payload: u64,
    /// Per-fragment header bytes added on the wire.
    pub frag_header: u64,
    /// Fixed message-handling CPU per message per node (Figure 4-4
    /// accounting; does not advance the clock separately — elapsed time is
    /// covered by the latency terms above).
    pub msg_cpu_fixed: SimDuration,
    /// Message-handling CPU per wire byte per node, in nanoseconds.
    pub msg_cpu_per_byte_ns: u64,
    /// Latency of a purely local (same node) message delivery.
    pub local_delivery: SimDuration,
    /// Maximum transmission attempts per message (first send plus
    /// retransmissions) before the sender gives up with
    /// [`SourceUnreachable`](crate::NetError::SourceUnreachable).
    pub retry_budget: u32,
    /// Base retransmission timeout: the wait after the first lost attempt.
    /// Each further loss doubles it (exponential backoff).
    pub retry_timeout: SimDuration,
    /// Optional deterministic fault-injection plan. `None` (the default)
    /// is a perfect wire with behaviour byte-identical to a fabric built
    /// before fault injection existed.
    pub faults: Option<FaultPlan>,
    /// Deterministic whole-node crash plan. The default is empty: nodes
    /// never die, and no message is counted toward a crash.
    pub crashes: CrashPlan,
    /// Optional routed interconnect. `None` (the default) is the seed-era
    /// point-to-point wire: every remote pair is directly connected and
    /// behaviour is byte-identical to a fabric built before topologies
    /// existed. `Some` routes every remote delivery over the topology's
    /// deterministic multi-hop path, accumulating per-hop latency,
    /// per-link queueing, and per-link byte accounting
    /// ([`Fabric::link_stats`](crate::Fabric::link_stats)).
    pub topology: Option<Topology>,
    /// Batched COR service: when on, a NetMsgServer defers cache-hit read
    /// requests while draining its queue and answers requests for pages in
    /// the same contiguous fragment run with one multi-page reply,
    /// amortizing the per-message and per-run costs. Off (the default)
    /// answers each request individually, byte-identical to the seed.
    /// A single batched reply carries at most 32 pages.
    pub batch_replies: bool,
    /// CCNx-style in-flight request coalescing (a pending-interest table):
    /// when on, a relaying NetMsgServer that already has a fetch in flight
    /// for a (segment, page) key parks duplicate requests and answers all
    /// waiters from the single upstream reply instead of re-forwarding.
    /// Off (the default) keeps the seed's latest-waiter-wins semantics.
    pub coalesce: bool,
    /// Page-home replication plan. The default, f = 0, keeps every page
    /// on its one home; f > 0 installs page backing on `factor + 1`
    /// nodes at page-out and routes COR reads across the live homes.
    pub replication: ReplicationParams,
}

impl Default for WireParams {
    fn default() -> Self {
        WireParams {
            per_byte_ns: 62_000,
            per_message: SimDuration::from_millis(28),
            per_run: SimDuration::from_millis(33),
            nms_service: SimDuration::from_millis(1),
            iou_cache_per_page_ns: 30_000,
            per_right: SimDuration::from_millis(12),
            frag_payload: 1536,
            frag_header: 64,
            msg_cpu_fixed: SimDuration::from_micros(150),
            msg_cpu_per_byte_ns: 11_000,
            local_delivery: SimDuration::from_millis(2),
            retry_budget: 10,
            retry_timeout: SimDuration::from_millis(25),
            faults: None,
            crashes: CrashPlan::new(),
            topology: None,
            batch_replies: false,
            coalesce: false,
            replication: ReplicationParams::default(),
        }
    }
}

impl WireParams {
    /// Total bytes on the wire for a message of `payload` bytes, including
    /// fragmentation headers.
    pub fn wire_bytes(&self, payload: u64) -> u64 {
        payload + self.fragments(payload) * self.frag_header
    }

    /// Number of fragments a `payload`-byte message occupies.
    pub fn fragments(&self, payload: u64) -> u64 {
        payload.div_ceil(self.frag_payload).max(1)
    }

    /// End-to-end transmission latency for a message of `payload` bytes
    /// carrying `runs` discontiguous physical page runs.
    pub fn xmit_time(&self, payload: u64, runs: u64) -> SimDuration {
        let bytes = self.wire_bytes(payload);
        self.per_message
            + self.per_run.saturating_mul(runs.saturating_sub(1))
            + SimDuration::from_micros(bytes.saturating_mul(self.per_byte_ns) / 1_000)
    }

    /// Message-handling CPU charged to *each* endpoint for a message of
    /// `payload` bytes.
    pub fn handling_cpu(&self, payload: u64) -> SimDuration {
        let bytes = self.wire_bytes(payload);
        self.msg_cpu_fixed
            + SimDuration::from_micros(bytes.saturating_mul(self.msg_cpu_per_byte_ns) / 1_000)
    }

    /// The optimized fault-service hot path: batched multi-page replies
    /// plus in-flight request coalescing. Paper tables are byte-identical
    /// with these on or off; they change only behaviour under concurrent
    /// load, where synchronous faulters never queue more than one request.
    pub fn hot_path(mut self) -> Self {
        self.batch_replies = true;
        self.coalesce = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_math() {
        let p = WireParams::default();
        assert_eq!(p.fragments(0), 1);
        assert_eq!(p.fragments(1536), 1);
        assert_eq!(p.fragments(1537), 2);
        assert_eq!(p.wire_bytes(1536), 1536 + 64);
        assert_eq!(p.wire_bytes(3000), 3000 + 2 * 64);
    }

    #[test]
    fn xmit_time_scales_with_bytes_and_runs() {
        let p = WireParams::default();
        let small = p.xmit_time(100, 0);
        let big = p.xmit_time(100_000, 0);
        assert!(big > small * 100);
        let flat = p.xmit_time(10_000, 1);
        let scattered = p.xmit_time(10_000, 20);
        assert_eq!(
            (scattered - flat).as_micros(),
            p.per_run.as_micros() * 19,
            "only runs beyond the first cost extra"
        );
        assert_eq!(p.xmit_time(10_000, 0), p.xmit_time(10_000, 1));
    }

    #[test]
    fn calibration_sanity_pure_copy_throughput() {
        // A Minprog-sized pure-copy RIMAS (Table 4-1: 142,336 real bytes,
        // Table 4-5: 8.5 s) should land within a factor of ~1.3 of the
        // paper's measurement under the default parameters.
        let p = WireParams::default();
        let t = p.xmit_time(142_336, 1).as_secs_f64();
        assert!((6.0..11.0).contains(&t), "got {t}");
    }

    #[test]
    fn default_wire_is_perfect() {
        let p = WireParams::default();
        assert!(p.faults.is_none(), "fault injection is strictly opt-in");
        assert_eq!(p.crashes, CrashPlan::new(), "no node dies by default");
        let unreplicated = ReplicationParams::primary_backup(0, 0);
        assert_eq!(p.replication, unreplicated, "nothing replicated by default");
        assert!(p.retry_budget >= 2);
        assert!(p.retry_timeout > SimDuration::ZERO);
        assert!(LinkFaults::default().is_clean());
    }

    #[test]
    fn plan_validation_names_the_miswired_entity() {
        let (a, b, ghost) = (NodeId(0), NodeId(1), NodeId(9));
        let nodes: std::collections::BTreeSet<NodeId> = [a, b].into_iter().collect();
        let crash = CrashPlan::at_time(ghost, SimTime::from_secs(1));
        assert_eq!(crash.validate(&nodes), Err(NetError::UnknownNode(ghost)));
        assert!(CrashPlan::at_time(b, SimTime::from_secs(1))
            .validate(&nodes)
            .is_ok());
    }

    #[test]
    fn crash_plan_builders() {
        let (a, b) = (NodeId(0), NodeId(1));
        let plan = CrashPlan::at_time(a, SimTime::from_secs(3))
            .rebooting(b, CrashTrigger::AfterMessages(12));
        assert_eq!(plan.events.len(), 2);
        assert!(!plan.events[0].reboot_amnesiac);
        assert_eq!(
            plan.events[0].trigger,
            CrashTrigger::AtTime(SimTime::from_secs(3))
        );
        assert!(plan.events[1].reboot_amnesiac);
        assert_eq!(plan.events[1].trigger, CrashTrigger::AfterMessages(12));
    }

    #[test]
    fn calibration_sanity_fault_round_trip_fits() {
        // Request (~90 B) + reply (one page) must leave room for pager and
        // backer handling inside the paper's 115 ms imaginary fault.
        let p = WireParams::default();
        let req = p.xmit_time(64 + 32, 0); // header + encoded request
        let reply = p.xmit_time(64 + 32 + 16 + 512, 1); // header + desc + one page
        let total = (req + reply).as_secs_f64();
        assert!((0.085..0.115).contains(&total), "got {total}");
    }
}
