//! The distributed-system data path: wire + NetMsgServers.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::ops::Bound;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::{PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::content::ContentStore;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_sim::{Clock, Ledger, LedgerCategory, Pcg32, ReliabilityStats, SimDuration, SimTime};
use cor_trace::{Journal, SpanId, TraceEvent};

use crate::error::NetError;
use crate::params::{CrashTrigger, LinkFaults, ReplicationMode, WireParams};
use crate::topology::{LinkStats, Topology};

/// Outcome of one `send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReport {
    /// Bytes put on the wire (zero for node-local deliveries).
    pub wire_bytes: u64,
    /// Elapsed virtual time consumed by the delivery.
    pub elapsed: SimDuration,
    /// Whether the message crossed the network.
    pub remote: bool,
}

/// Where a stand-in segment's pages really come from.
#[derive(Debug, Clone, Copy)]
struct ForwardEntry {
    /// The origin segment at the backing site.
    orig_seg: SegmentId,
    /// Offset of the stand-in's page 0 within the origin segment.
    orig_base: u64,
    /// Pages claimed against the origin (released at stand-in death).
    claim: u64,
}

/// A pending reply relay: a forwarded request whose answer must be renamed
/// back to the stand-in segment before delivery to the original faulter.
#[derive(Debug, Clone, Copy)]
struct PendingRelay {
    final_reply: PortId,
    stand_in: SegmentId,
    stand_in_offset: u64,
    /// The original request's sequence number, echoed on the renamed reply.
    seq: u64,
    /// Pages the waiter asked for, so a covering (possibly wider) reply
    /// can carve out exactly the slice this waiter needs.
    count: u64,
    /// When the waiter was parked behind an already-in-flight upstream
    /// fetch (`None` for the waiter whose own request went upstream);
    /// unparking records the interval as a `coalesce-park` span.
    parked_at: Option<SimTime>,
}

/// One interned page in a node's reply-dedup table, stamped for LRU
/// eviction and tagged with the node whose reply carried it so a crash
/// of that source can invalidate exactly its contributions.
#[derive(Debug, Clone)]
struct DedupEntry {
    frame: Frame,
    /// Monotonic recency stamp (per node); refreshed on every hit.
    stamp: u64,
    /// The node whose reply first interned this page.
    src: NodeId,
}

/// Per-node NetMsgServer state.
#[derive(Debug)]
struct NmsState {
    port: PortId,
    /// Segments this NMS backs, with their cached page data (offset-indexed).
    cache: HashMap<SegmentId, Vec<Frame>>,
    /// Stand-in segments this NMS created for remote imaginary objects.
    forward: HashMap<SegmentId, ForwardEntry>,
    /// Keyed by (origin segment, origin offset) of a forwarded request.
    /// With [`WireParams::coalesce`] off the vector never holds more than
    /// one waiter (latest wins, the seed semantics); with it on, duplicate
    /// in-flight requests park here CCNx-PIT-style and are all answered
    /// from the single upstream reply.
    pending: HashMap<(SegmentId, u64), Vec<PendingRelay>>,
    /// Content-addressed page cache for incoming COR replies: content hash
    /// → entries already held with that hash (a short list, since unequal
    /// pages practically never collide). Replies carrying bytes this node
    /// already holds install the held frame instead of a fresh copy.
    /// Volatile: wiped on crash like the rest of the NMS state.
    dedup: HashMap<u64, Vec<DedupEntry>>,
    /// Deterministic LRU order over `dedup`: recency stamp → content
    /// hash. At [`DEDUP_CAP_PAGES`] the least-recently-used entry
    /// (`pop_first`) is evicted to make room.
    dedup_lru: BTreeMap<u64, u64>,
    /// Source of `DedupEntry::stamp` values, bumped on insert and hit.
    dedup_stamp: u64,
    /// Pages currently interned in `dedup`, bounded by
    /// [`DEDUP_CAP_PAGES`] so the table cannot grow without limit.
    dedup_pages: u64,
    /// Content-addressed replica store: pages the replication layer
    /// write-through installed here at page-out time, resolvable by any
    /// COR requester holding the content hash. Volatile — a crash wipes
    /// it, which is why survival requires a *live* replica.
    replicas: ContentStore,
    cpu: SimDuration,
}

/// Upper bound on pages a node's reply-dedup table may intern (2 MiB of
/// page data at 512-byte pages). At the cap, inserting a new page first
/// evicts the least-recently-used entry, deterministically.
const DEDUP_CAP_PAGES: u64 = 4096;

impl NmsState {
    /// Evicts the least-recently-used dedup entry (smallest recency
    /// stamp). Deterministic: stamps are unique and totally ordered.
    fn evict_lru_dedup_entry(&mut self) {
        let Some((stamp, hash)) = self.dedup_lru.pop_first() else {
            return;
        };
        if let Some(bucket) = self.dedup.get_mut(&hash) {
            bucket.retain(|e| e.stamp != stamp);
            if bucket.is_empty() {
                self.dedup.remove(&hash);
            }
        }
        self.dedup_pages = self.dedup_pages.saturating_sub(1);
    }

    /// Wipes every dedup entry whose bytes were interned from `src`'s
    /// replies — called when `src` crashes, so stale contributions of a
    /// dead (possibly later amnesiac-rebooted) node cannot linger.
    fn wipe_dedup_from(&mut self, src: NodeId) -> u64 {
        let mut wiped = 0u64;
        self.dedup.retain(|_, bucket| {
            bucket.retain(|e| {
                if e.src == src {
                    self.dedup_lru.remove(&e.stamp);
                    wiped += 1;
                    false
                } else {
                    true
                }
            });
            !bucket.is_empty()
        });
        self.dedup_pages = self.dedup_pages.saturating_sub(wiped);
        wiped
    }
}

/// Aggregate fabric statistics.
#[derive(Debug, Clone, Default)]
pub struct FabricStats {
    /// All messages sent (local + remote).
    pub msgs_total: u64,
    /// Messages that crossed the wire.
    pub msgs_remote: u64,
    /// Message-handling CPU summed over every node.
    pub cpu_total: SimDuration,
    /// Pages cached by NMS IOU-substitution.
    pub pages_cached: u64,
    /// Stand-in segments created on receipt of IOU items.
    pub standins_created: u64,
    /// Segment death notices sent.
    pub deaths_sent: u64,
    /// Multi-request read batches answered with a single reply
    /// ([`WireParams::batch_replies`]).
    pub batched_replies: u64,
    /// Pages carried by those batched replies.
    pub batched_pages: u64,
    /// Read requests that piggybacked on an already-in-flight fetch
    /// instead of being re-forwarded ([`WireParams::coalesce`]).
    pub coalesced_requests: u64,
}

/// The network fabric: wire model, ledger, and one NetMsgServer per node.
///
/// All methods take the world's [`Clock`], [`PortRegistry`] and
/// [`SegmentRegistry`] explicitly; the fabric owns only its own state, so
/// the kernel crate can hold everything side by side without aliasing.
#[derive(Debug)]
pub struct Fabric {
    /// The wire cost model.
    pub params: WireParams,
    /// Categorized record of every wire transmission.
    pub ledger: Ledger,
    /// Fault-injection and recovery counters. All zero on a perfect wire.
    pub reliability: ReliabilityStats,
    /// Optional event log of injected faults and recovery actions
    /// (`net-drop`, `net-dup`, `net-jitter`, `net-reorder`,
    /// `net-unreachable`, `net-stale`, `net-crash`, `net-node-down`,
    /// `net-death-lost`, `net-dedup`), plus `wire-send`/`xmit-attempt`
    /// causal spans around every remote delivery. Install a [`Journal`]
    /// to record.
    pub journal: Option<Journal>,
    /// Cross-journal span parent for wire spans: the kernel points this
    /// at its open fault span before a copy-on-reference round trip, so
    /// the fabric's `wire-send` spans (including relay hops served
    /// during the settle) hang under the fault in a merged trace.
    trace_parent: SpanId,
    nodes: HashMap<NodeId, NmsState>,
    node_order: BTreeSet<NodeId>,
    stats: FabricStats,
    /// Dedicated injection RNG, created lazily from the plan's seed.
    rng: Option<Pcg32>,
    /// Per-directed-link transmission sequence counters.
    link_seq: HashMap<(NodeId, NodeId), u64>,
    /// Per-directed-link sequence numbers already accepted by the
    /// receiver's link layer; a repeat delivery of a seen number is
    /// suppressed (duplicate drop). Only populated when faults are active.
    delivered: HashMap<(NodeId, NodeId), HashSet<u64>>,
    /// Deliveries held back by reorder injection, released (FIFO) by the
    /// next non-reordered send or by [`Fabric::pump`].
    limbo: Vec<Message>,
    /// Nodes currently down. Sends toward them fail fast with
    /// [`NetError::NodeDown`]; their NetMsgServers answer nothing.
    crashed: HashSet<NodeId>,
    /// Nodes that crashed at least once, including amnesiac reboots: their
    /// volatile NetMsgServer state (cache, forwards, relays) is gone even
    /// if they answer the wire again. The recovery ladder consults this to
    /// tell "the backer forgot" from "the chain was always broken".
    ever_crashed: HashSet<NodeId>,
    /// Crash-plan events that already fired (by event index).
    crash_fired: HashSet<usize>,
    /// Remote messages carried per node (sent or received), feeding
    /// `AfterMessages` crash triggers.
    node_msgs: HashMap<NodeId, u64>,
    /// Per-node crash-survivable disk backers ("Sesame" in the paper's
    /// flush variation): pages flushed here by the drain machinery outlive
    /// the node's crash and serve post-crash recovery reads. Keyed by
    /// `(segment, offset)`; deterministic iteration order.
    disk: HashMap<NodeId, BTreeMap<(u64, u64), Frame>>,
    /// While set, wire traffic is ledgered as [`LedgerCategory::Drain`]
    /// instead of its semantic category, so background draining and
    /// recovery never pollute the paper's byte accounting.
    drain_accounting: bool,
    /// Per-directed-link traffic accounting, populated only when
    /// [`WireParams::topology`] is installed: every link a routed message
    /// traverses bills its bytes here (deterministic iteration order).
    link_stats: BTreeMap<(NodeId, NodeId), LinkStats>,
    /// The instant each physical link frees up, for per-link queueing
    /// under a routed topology.
    link_busy: HashMap<(NodeId, NodeId), SimTime>,
    /// Replica directory: origin segment → the replica nodes its pages
    /// were write-through installed on (primary excluded). Populated only
    /// under [`WireParams::replication`]; survives crashes — liveness is
    /// checked at lookup time, which is what makes the failover ladder's
    /// "all homes down" outcome reachable.
    replica_homes: HashMap<SegmentId, Vec<NodeId>>,
    /// Content-hash directory: `(origin segment, offset)` → the page's
    /// content hash at page-out time, the key a content-addressed COR
    /// request resolves against a replica's [`ContentStore`].
    replica_hash: HashMap<(u64, u64), u64>,
}

fn category_for(kind: MsgKind) -> LedgerCategory {
    match kind {
        MsgKind::ImagReadRequest | MsgKind::ImagReadReply => LedgerCategory::FaultSupport,
        MsgKind::Core | MsgKind::Rimas | MsgKind::PreCopyRound => LedgerCategory::Bulk,
        _ => LedgerCategory::Control,
    }
}

/// Injection RNG stream selector, so fault draws never collide with any
/// workload RNG seeded from the same number.
const FAULT_STREAM: u64 = 0xFA_17;

/// Replica-placement RNG stream, disjoint from the fault, crash and
/// kernel placement streams so enabling replication never perturbs any
/// other seeded draw.
const REPLICA_STREAM: u64 = 0x9E_0F;

impl Fabric {
    /// Creates a fabric with the given wire parameters.
    pub fn new(params: WireParams) -> Self {
        Fabric {
            params,
            ledger: Ledger::new(),
            reliability: ReliabilityStats::default(),
            journal: None,
            trace_parent: SpanId::NONE,
            nodes: HashMap::new(),
            node_order: BTreeSet::new(),
            stats: FabricStats::default(),
            rng: None,
            link_seq: HashMap::new(),
            delivered: HashMap::new(),
            limbo: Vec::new(),
            crashed: HashSet::new(),
            ever_crashed: HashSet::new(),
            crash_fired: HashSet::new(),
            node_msgs: HashMap::new(),
            disk: HashMap::new(),
            drain_accounting: false,
            link_stats: BTreeMap::new(),
            link_busy: HashMap::new(),
            replica_homes: HashMap::new(),
            replica_hash: HashMap::new(),
        }
    }

    /// Records a fault-layer journal event if a journal is installed.
    fn note(&mut self, at: SimTime, event: impl FnOnce() -> TraceEvent) {
        if let Some(j) = &mut self.journal {
            j.record_with(at, event);
        }
    }

    /// Sets the cross-journal parent for subsequently opened wire spans
    /// ([`SpanId::NONE`] to clear). The kernel brackets each
    /// copy-on-reference round trip with this.
    pub fn set_trace_parent(&mut self, parent: SpanId) {
        self.trace_parent = parent;
    }

    /// Opens a wire span parented under the innermost open wire span,
    /// falling back to [`Fabric::set_trace_parent`]'s cross-journal hook.
    fn span_start(&mut self, at: SimTime, name: &'static str, node: NodeId) -> SpanId {
        let parent = self.trace_parent;
        match &mut self.journal {
            Some(j) => j.span_start_under(at, name, Some(node), parent),
            None => SpanId::NONE,
        }
    }

    /// Closes a wire span (no-op for [`SpanId::NONE`]); still-open
    /// children close with it.
    fn span_end(&mut self, at: SimTime, id: SpanId) {
        if let Some(j) = &mut self.journal {
            j.span_end(at, id);
        }
    }

    /// Registers `node` with the fabric, starting its NetMsgServer.
    /// Returns the NMS service port.
    pub fn add_node(&mut self, node: NodeId, ports: &mut PortRegistry) -> PortId {
        let port = ports.allocate(node);
        ports.set_served(port, true);
        self.nodes.insert(
            node,
            NmsState {
                port,
                cache: HashMap::new(),
                forward: HashMap::new(),
                pending: HashMap::new(),
                dedup: HashMap::new(),
                dedup_lru: BTreeMap::new(),
                dedup_stamp: 0,
                dedup_pages: 0,
                replicas: ContentStore::new(),
                cpu: SimDuration::ZERO,
            },
        );
        self.node_order.insert(node);
        port
    }

    /// The NMS service port of `node`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the node was never added.
    pub fn nms_port(&self, node: NodeId) -> Result<PortId, NetError> {
        self.nodes
            .get(&node)
            .map(|n| n.port)
            .ok_or(NetError::UnknownNode(node))
    }

    /// Hands the NMS on `node` the backing data for a segment it is to
    /// serve (used when a caller pre-arranges NMS backing rather than
    /// relying on automatic IOU caching).
    pub fn install_cache(
        &mut self,
        node: NodeId,
        seg: SegmentId,
        frames: Vec<Frame>,
    ) -> Result<(), NetError> {
        let nms = self
            .nodes
            .get_mut(&node)
            .ok_or(NetError::UnknownNode(node))?;
        self.stats.pages_cached += frames.len() as u64;
        nms.cache.insert(seg, frames);
        Ok(())
    }

    /// Sends `msg` on behalf of `from`. Local deliveries cost
    /// [`WireParams::local_delivery`]; remote deliveries run the full NMS
    /// pipeline (outgoing IOU caching unless `NoIOUs`, transmission with
    /// ledger accounting, incoming stand-in creation and rights
    /// translation) and advance the clock accordingly.
    ///
    /// # Errors
    ///
    /// Port/segment failures and unknown nodes.
    pub fn send(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        from: NodeId,
        msg: Message,
    ) -> Result<SendReport, NetError> {
        self.send_impl(clock, ports, segs, from, msg, false)
    }

    /// Like [`Fabric::send`], but fire-and-forget: the sender is charged
    /// only the local handoff to its NetMsgServer, not the wire latency
    /// (bytes and handling CPU are still fully accounted). Used for
    /// asynchronous notices — segment deaths — that do not sit on anyone's
    /// critical path.
    ///
    /// # Errors
    ///
    /// As for [`Fabric::send`].
    pub fn send_detached(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        from: NodeId,
        msg: Message,
    ) -> Result<SendReport, NetError> {
        self.send_impl(clock, ports, segs, from, msg, true)
    }

    fn send_impl(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        from: NodeId,
        mut msg: Message,
        detached: bool,
    ) -> Result<SendReport, NetError> {
        let dest_home = ports.home(msg.dest)?;
        if self.params.crashes.is_some() {
            self.poll_time_crashes(clock.now(), ports);
        }
        self.stats.msgs_total += 1;
        if dest_home == from {
            clock.advance(self.params.local_delivery);
            ports.enqueue(msg.dest, msg)?;
            return Ok(SendReport {
                wire_bytes: 0,
                elapsed: self.params.local_delivery,
                remote: false,
            });
        }
        if !self.nodes.contains_key(&from) {
            return Err(NetError::UnknownNode(from));
        }
        if !self.nodes.contains_key(&dest_home) {
            return Err(NetError::UnknownNode(dest_home));
        }
        // Fast-fail against a known-dead peer: no transmission attempt and
        // no retransmit backoff — there is nobody to acknowledge.
        if self.crashed.contains(&dest_home) {
            return Err(self.node_down(clock.now(), from, dest_home, msg.kind));
        }
        let start = clock.now();
        // 1. Outgoing translation: cache page runs and substitute IOUs.
        if !msg.no_ious {
            let cached = self.cache_page_items(clock, segs, from, &mut msg)?;
            if cached > 0 {
                clock.advance(SimDuration::from_micros(
                    cached.saturating_mul(self.params.iou_cache_per_page_ns) / 1_000,
                ));
            }
        }
        // 2. Transmission, through the fault-injection layer. The link
        // layer guarantees exactly-once-or-error delivery: a dropped
        // attempt stalls the sender for a timeout, then retransmits with
        // exponential backoff until the retry budget runs out.
        let faults: Option<LinkFaults> = match &self.params.faults {
            Some(plan) => {
                if self.rng.is_none() {
                    self.rng = Some(Pcg32::with_stream(plan.seed, FAULT_STREAM));
                }
                // Strict plans surface NetError::UnknownLink here instead
                // of silently applying the `all` default.
                Some(plan.try_for_link(from, dest_home)?).filter(|f| !f.is_clean())
            }
            None => None,
        };
        let payload = msg.wire_size();
        let runs = msg
            .items
            .iter()
            .filter(|i| matches!(i, MsgItem::Pages { .. }))
            .count() as u64;
        let wire_bytes = self.params.wire_bytes(payload);
        let cpu = self.params.handling_cpu(payload);
        let category = if self.drain_accounting {
            LedgerCategory::Drain
        } else {
            category_for(msg.kind)
        };
        let kind = msg.kind;
        let send_span = self.span_start(start, "wire-send", from);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let xmit_start = clock.now();
            let attempt_span = self.span_start(xmit_start, "xmit-attempt", from);
            if detached {
                clock.advance(self.params.local_delivery);
            } else {
                clock.advance(self.params.xmit_time(payload, runs));
            }
            // The first attempt's bytes keep their semantic category;
            // every further attempt is pure retransmission overhead.
            let cat = if attempts == 1 {
                category
            } else {
                LedgerCategory::Retransmit
            };
            if attempts > 1 {
                self.reliability.retransmit_wire_bytes.add(wire_bytes);
            }
            self.record_spread(xmit_start, clock.now(), wire_bytes, cat);
            self.charge_cpu(from, cpu); // the sender pays for every attempt
            let dropped = match faults {
                Some(f) if f.drop > 0.0 => self
                    .rng
                    .as_mut()
                    .expect("injection rng exists when faults are active")
                    .chance(f.drop),
                _ => false,
            };
            if !dropped {
                self.span_end(clock.now(), attempt_span);
                break;
            }
            self.reliability.drops_injected.incr();
            self.note(clock.now(), || TraceEvent::NetDrop {
                kind,
                from,
                to: dest_home,
                attempt: attempts,
            });
            if attempts >= self.params.retry_budget {
                self.reliability.unreachable_failures.incr();
                self.note(clock.now(), || TraceEvent::NetUnreachable {
                    kind,
                    from,
                    to: dest_home,
                    attempts,
                });
                self.span_end(clock.now(), send_span); // closes the attempt too
                debug_assert!(self.retransmit_accounting_consistent());
                return Err(NetError::SourceUnreachable {
                    from,
                    to: dest_home,
                    attempts,
                });
            }
            // Ack timeout, doubling per consecutive loss. Detached sends
            // retransmit in the background without stalling the caller.
            let backoff = self
                .params
                .retry_timeout
                .saturating_mul(1u64 << (attempts - 1).min(16));
            if !detached {
                // The blame-visible backoff wait, a child of the attempt
                // span (detached retransmissions happen off the caller's
                // clock and get no span).
                let backoff_span = self.span_start(clock.now(), "retry-backoff", from);
                clock.advance(backoff);
                self.span_end(clock.now(), backoff_span);
            }
            self.reliability.timeout_stalls.incr();
            self.reliability.stall_time += backoff;
            self.reliability.retransmissions.incr();
            // The attempt span covers its backoff wait: the lost attempt
            // cost the sender the transmission plus the timeout.
            self.span_end(clock.now(), attempt_span);
            // If the peer died while we were backing off, abort at once
            // rather than burning the rest of the retry budget against a
            // known-dead node.
            if self.params.crashes.is_some() {
                self.poll_time_crashes(clock.now(), ports);
                if self.crashed.contains(&dest_home) {
                    self.span_end(clock.now(), send_span);
                    return Err(self.node_down(clock.now(), from, dest_home, kind));
                }
            }
        }
        // Routed topology: the delivery traverses its deterministic
        // multi-hop route. Bytes are billed to every link crossed, each
        // hop beyond the first adds store-and-forward latency, and a
        // still-busy link queues the delivery. `None` (the default) keeps
        // the seed-era point-to-point behaviour byte-identical.
        if let Some(topo) = self.params.topology {
            if let Err(e) =
                self.route_and_charge(clock, topo, from, dest_home, wire_bytes, kind, detached)
            {
                self.span_end(clock.now(), send_span);
                return Err(e);
            }
        }
        // Link-layer sequence bookkeeping (only maintained under faults:
        // a perfect wire cannot duplicate).
        let link = (from, dest_home);
        let link_seq = if faults.is_some() {
            let next = self.link_seq.entry(link).or_insert(0);
            *next += 1;
            let seq = *next;
            self.delivered.entry(link).or_default().insert(seq);
            seq
        } else {
            0
        };
        // Delay jitter on the successful delivery.
        if let Some(f) = faults {
            if f.jitter > SimDuration::ZERO {
                let extra_us = self
                    .rng
                    .as_mut()
                    .expect("injection rng exists when faults are active")
                    .range(0, f.jitter.as_micros() + 1);
                if extra_us > 0 {
                    if !detached {
                        clock.advance(SimDuration::from_micros(extra_us));
                    }
                    self.note(clock.now(), || TraceEvent::NetJitter {
                        kind,
                        from,
                        to: dest_home,
                        delay_us: extra_us,
                    });
                }
            }
        }
        self.charge_cpu(dest_home, cpu); // the receiver pays once
        self.stats.msgs_remote += 1;
        // Duplicate injection: the wire repeats the delivery in full (the
        // copy pays wire bytes and header inspection), and the receiver's
        // link layer recognises the already-seen sequence number and
        // suppresses it.
        if let Some(f) = faults {
            if f.duplicate > 0.0
                && self
                    .rng
                    .as_mut()
                    .expect("injection rng exists when faults are active")
                    .chance(f.duplicate)
            {
                self.reliability.duplicates_injected.incr();
                self.ledger
                    .record(clock.now(), wire_bytes, LedgerCategory::Retransmit);
                self.reliability.retransmit_wire_bytes.add(wire_bytes);
                self.charge_cpu(dest_home, self.params.msg_cpu_fixed);
                let seen = self
                    .delivered
                    .get(&link)
                    .is_some_and(|s| s.contains(&link_seq));
                debug_assert!(seen, "first delivery must have recorded its sequence");
                if seen {
                    self.reliability.duplicate_drops.incr();
                    self.note(clock.now(), || TraceEvent::NetDup {
                        kind,
                        from,
                        to: dest_home,
                        seq: link_seq,
                    });
                }
            }
        }
        // 3. Incoming translation: rights, then stand-ins for IOUs.
        // Receive and ownership rights carried in a message move with it:
        // their ports are now served from the destination, and every
        // outstanding send right keeps working (location transparency).
        let n_rights = msg.rights_iter().count() as u64;
        if n_rights > 0 {
            clock.advance(self.params.per_right.saturating_mul(n_rights));
            for right in msg.rights_iter() {
                if matches!(
                    right.right,
                    cor_ipc::Right::Receive | cor_ipc::Right::Ownership
                ) {
                    if let Err(e) = ports.relocate(right.port, dest_home) {
                        self.span_end(clock.now(), send_span);
                        return Err(e.into());
                    }
                }
            }
        }
        if let Err(e) = self.create_standins(ports, segs, dest_home, &mut msg) {
            self.span_end(clock.now(), send_span);
            return Err(e);
        }
        // Content dedup on the receiving NetMsgServer: a reply page whose
        // bytes this node already holds (retransmitted/duplicate COR
        // replies under chaos, repeated zero or constant pages) installs
        // the already-held frame instead of a fresh copy. Pure bookkeeping
        // on identical bytes — no virtual time is charged.
        if matches!(kind, MsgKind::ImagReadReply) {
            let hits = self.dedup_reply_pages(dest_home, from, &mut msg);
            if hits > 0 {
                self.note(clock.now(), || TraceEvent::NetDedup {
                    node: dest_home,
                    pages: hits,
                });
            }
        }
        // 4. Reorder injection: hold this delivery back so traffic sent
        // later overtakes it; any non-reordered delivery (or a pump)
        // releases the held messages afterwards.
        let reordered = match faults {
            Some(f) if f.reorder > 0.0 => self
                .rng
                .as_mut()
                .expect("injection rng exists when faults are active")
                .chance(f.reorder),
            _ => false,
        };
        if reordered {
            self.reliability.reorders_injected.incr();
            self.note(clock.now(), || TraceEvent::NetReorder {
                kind,
                from,
                to: dest_home,
            });
            self.limbo.push(msg);
        } else {
            let delivered = ports
                .enqueue(msg.dest, msg)
                .map_err(NetError::from)
                .and_then(|()| self.flush_limbo(ports));
            if let Err(e) = delivered {
                self.span_end(clock.now(), send_span);
                return Err(e);
            }
        }
        // Count the carried message against both endpoints last, so an
        // `AfterMessages` trigger reached by this very delivery purges it
        // (it died on the crashing node) before anyone consumes it.
        if self.params.crashes.is_some() {
            self.count_carried(clock.now(), ports, from, dest_home);
        }
        self.span_end(clock.now(), send_span);
        debug_assert!(
            self.retransmit_accounting_consistent(),
            "ledger retransmit bytes must match the bytes implied by attempts"
        );
        Ok(SendReport {
            wire_bytes,
            elapsed: clock.now().since(start),
            remote: true,
        })
    }

    /// Records `bytes` spread across the transmission interval (in
    /// one-second chunks) so rate-over-time views see the flow, not a
    /// spike at completion.
    fn record_spread(&mut self, from: SimTime, to: SimTime, bytes: u64, category: LedgerCategory) {
        // Coarse (totals-only) ledgers keep no per-instant entries, so the
        // spreading loop is pure overhead on the fault-service hot path.
        if self.ledger.is_coarse() {
            self.ledger.record(to, bytes, category);
            return;
        }
        let span = to.since(from);
        let chunks = (span.as_micros() / 1_000_000).clamp(1, 600);
        let per = bytes / chunks;
        for i in 1..=chunks {
            let at = from + span.saturating_mul(i) / chunks;
            let b = if i == chunks {
                bytes - per * (chunks - 1)
            } else {
                per
            };
            self.ledger.record(at, b, category);
        }
    }

    /// Releases every delivery held back by reorder injection, in the
    /// order the wire originally carried them.
    fn flush_limbo(&mut self, ports: &mut PortRegistry) -> Result<(), NetError> {
        for held in std::mem::take(&mut self.limbo) {
            if !self.crashed.is_empty() {
                if let Ok(home) = ports.home(held.dest) {
                    if self.crashed.contains(&home) {
                        // The delivery outlived its destination.
                        self.reliability.crash_dropped_messages.incr();
                        continue;
                    }
                }
            }
            ports.enqueue(held.dest, held)?;
        }
        Ok(())
    }

    fn cache_page_items(
        &mut self,
        clock: &mut Clock,
        segs: &mut SegmentRegistry,
        from: NodeId,
        msg: &mut Message,
    ) -> Result<u64, NetError> {
        let mut cached_total = 0u64;
        let nms_port = self.nms_port(from)?;
        for item in &mut msg.items {
            if let MsgItem::Pages { base_page, frames } = item {
                let pages = frames.len() as u64;
                if pages == 0 {
                    continue;
                }
                let seg = segs.create(nms_port, pages);
                segs.add_refs(seg, pages)?;
                let cached = std::mem::take(frames);
                self.stats.pages_cached += pages;
                cached_total += pages;
                // Page-out: the sending NMS becomes these pages' primary
                // home. With replicated page homes enabled, write them
                // through to the segment's replica set as well.
                if self.params.replication.is_some() {
                    self.replicate_backing(clock, from, seg, &cached)?;
                }
                let nms = self
                    .nodes
                    .get_mut(&from)
                    .expect("nms_port already checked node");
                nms.cache.insert(seg, cached);
                *item = MsgItem::Iou {
                    base_page: *base_page,
                    seg,
                    seg_offset: 0,
                    pages,
                };
            }
        }
        Ok(cached_total)
    }

    fn create_standins(
        &mut self,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        dest: NodeId,
        msg: &mut Message,
    ) -> Result<(), NetError> {
        let nms_port = self.nms_port(dest)?;
        for item in &mut msg.items {
            if let MsgItem::Iou {
                base_page,
                seg,
                seg_offset,
                pages,
            } = item
            {
                let backer_home = ports.home(segs.backing_port(*seg)?)?;
                if backer_home == dest {
                    continue; // the data is owed locally; no stand-in needed
                }
                let stand_in = segs.create(nms_port, *pages);
                segs.add_refs(stand_in, *pages)?;
                let nms = self
                    .nodes
                    .get_mut(&dest)
                    .expect("nms_port already checked node");
                nms.forward.insert(
                    stand_in,
                    ForwardEntry {
                        orig_seg: *seg,
                        orig_base: *seg_offset,
                        claim: *pages,
                    },
                );
                self.stats.standins_created += 1;
                *item = MsgItem::Iou {
                    base_page: *base_page,
                    seg: stand_in,
                    seg_offset: 0,
                    pages: *pages,
                };
            }
        }
        Ok(())
    }

    fn charge_cpu(&mut self, node: NodeId, cpu: SimDuration) {
        if let Some(n) = self.nodes.get_mut(&node) {
            n.cpu += cpu;
        }
        self.stats.cpu_total += cpu;
    }

    /// Releases `pages` references on `seg` on behalf of `from`, sending
    /// the `ImaginarySegmentDeath` notice to the backer if that was the
    /// last reference. Callers should [`Fabric::pump`] afterwards so NMS
    /// backers process the notice.
    ///
    /// # Errors
    ///
    /// Port/segment failures.
    pub fn release_refs(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        from: NodeId,
        seg: SegmentId,
        pages: u64,
    ) -> Result<(), NetError> {
        let backer = segs.backing_port(seg)?;
        if segs.release_refs(seg, pages)? {
            self.stats.deaths_sent += 1;
            let death = protocol::imag_segment_death(backer, seg).with_no_ious(true);
            match self.send_detached(clock, ports, segs, from, death) {
                Ok(_) => {}
                Err(NetError::NodeDown { to, .. }) => {
                    // The backer died with its node: there is nobody left
                    // to notify, and its cached pages are already gone.
                    // The local bookkeeping above is all that matters.
                    self.note(clock.now(), || TraceEvent::NetDeathLost { seg: seg.0, to });
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Processes every message queued at `node`'s NMS port: serves read
    /// requests from cache, forwards requests on stand-ins toward their
    /// origin, relays renamed replies, and handles segment deaths.
    /// Returns messages the NMS did not understand (none are expected in a
    /// healthy run).
    ///
    /// # Errors
    ///
    /// Port/segment failures, and [`NetError::MissingData`] if a request
    /// names pages the cache does not hold.
    pub fn serve_nms(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
    ) -> Result<Vec<Message>, NetError> {
        let port = self.nms_port(node)?;
        if self.params.crashes.is_some() {
            self.poll_time_crashes(clock.now(), ports);
        }
        if self.crashed.contains(&node) {
            // A dead NetMsgServer answers nothing; anything that somehow
            // reached its queue dies with the node.
            while ports.dequeue(port)?.is_some() {
                self.reliability.crash_dropped_messages.incr();
            }
            return Ok(Vec::new());
        }
        let mut unhandled = Vec::new();
        // Batched COR service: cache-hit read requests are deferred into
        // `batch` while the queue drains, then answered in merged
        // contiguous runs. The batch flushes before any message that takes
        // a different path, so relative ordering against relays, replies
        // and deaths is preserved. With `batch_replies` off (the default)
        // the buffer is never used and every request answers immediately,
        // byte-identical to the seed.
        let batching = self.params.batch_replies;
        let mut batch: Vec<(SegmentId, u64, u64, PortId, u64)> = Vec::new();
        while let Some(msg) = ports.dequeue(port)? {
            clock.advance(self.params.nms_service);
            // Parse by value: relayed replies hand their frames through
            // without cloning the page vector.
            match protocol::parse_owned(msg) {
                Ok(ProtocolMsg::ImagReadRequest {
                    seg,
                    offset,
                    count,
                    reply,
                    seq,
                }) => {
                    if batching && self.is_cache_hit(node, seg, offset, count) {
                        batch.push((seg, offset, count, reply, seq));
                    } else {
                        self.flush_batch(clock, ports, segs, node, &mut batch)?;
                        self.handle_read_request(
                            clock, ports, segs, node, seg, offset, count, reply, seq,
                        )?;
                    }
                }
                Ok(ProtocolMsg::ImagReadReply {
                    seg,
                    offset,
                    frames,
                    seq,
                }) => {
                    self.flush_batch(clock, ports, segs, node, &mut batch)?;
                    self.handle_relayed_reply(clock, ports, segs, node, seg, offset, frames, seq)?;
                }
                Ok(ProtocolMsg::ImagSegmentDeath { seg }) => {
                    self.flush_batch(clock, ports, segs, node, &mut batch)?;
                    self.handle_death(clock, ports, segs, node, seg)?;
                }
                Err(msg) => unhandled.push(msg),
            }
        }
        self.flush_batch(clock, ports, segs, node, &mut batch)?;
        Ok(unhandled)
    }

    /// Whether `node`'s NMS can answer a read for `[offset, offset+count)`
    /// of `seg` straight from its cache.
    fn is_cache_hit(&self, node: NodeId, seg: SegmentId, offset: u64, count: u64) -> bool {
        self.nodes
            .get(&node)
            .and_then(|n| n.cache.get(&seg))
            .is_some_and(|c| offset + count <= c.len() as u64)
    }

    /// Answers every deferred cache-hit read request, merging requests for
    /// pages in the same contiguous fragment run (same segment, same reply
    /// port) into one multi-page reply with a single amortized message
    /// cost. A run covering exactly one request answers through the
    /// regular path with that request's sequence number; a multi-request
    /// run answers once with sequence 0 and the covering range, and the
    /// receiver matches outstanding requests by coverage.
    fn flush_batch(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        batch: &mut Vec<(SegmentId, u64, u64, PortId, u64)>,
    ) -> Result<(), NetError> {
        if batch.is_empty() {
            return Ok(());
        }
        if batch.len() == 1 {
            let (seg, offset, count, reply, seq) = batch.pop().expect("len checked");
            return self
                .handle_read_request(clock, ports, segs, node, seg, offset, count, reply, seq);
        }
        batch.sort_by_key(|&(seg, offset, _, reply, _)| (seg.0, reply.0, offset));
        let max_pages = self.params.max_batch_pages.max(1);
        let mut i = 0;
        while i < batch.len() {
            let (seg, run_start, count, reply, seq) = batch[i];
            let mut run_end = run_start + count;
            let mut members = 1u64;
            let mut j = i + 1;
            while j < batch.len() {
                let (s2, o2, c2, r2, _) = batch[j];
                if s2 != seg || r2 != reply || o2 > run_end {
                    break;
                }
                let new_end = run_end.max(o2 + c2);
                if new_end - run_start > max_pages {
                    break;
                }
                run_end = new_end;
                members += 1;
                j += 1;
            }
            if members == 1 {
                self.handle_read_request(
                    clock, ports, segs, node, seg, run_start, count, reply, seq,
                )?;
            } else {
                let pages = run_end - run_start;
                let nms = self
                    .nodes
                    .get_mut(&node)
                    .ok_or(NetError::UnknownNode(node))?;
                let cache = nms.cache.get(&seg).ok_or(NetError::MissingData {
                    seg,
                    offset: run_start,
                })?;
                if run_end > cache.len() as u64 {
                    return Err(NetError::MissingData {
                        seg,
                        offset: run_start,
                    });
                }
                let mut frames = cor_mem::page::frame_pool::take(pages as usize);
                frames.extend_from_slice(&cache[run_start as usize..run_end as usize]);
                self.stats.batched_replies += 1;
                self.stats.batched_pages += pages;
                self.note(clock.now(), || TraceEvent::NetBatch {
                    node,
                    requests: members,
                    pages,
                });
                let reply_msg = protocol::imag_read_reply(reply, seg, run_start, frames)
                    .with_seq(0)
                    .with_no_ious(true);
                self.send(clock, ports, segs, node, reply_msg)?;
            }
            i = j;
        }
        batch.clear();
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // the world state travels together
    fn handle_read_request(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        seg: SegmentId,
        offset: u64,
        count: u64,
        reply: PortId,
        seq: u64,
    ) -> Result<(), NetError> {
        let nms = self
            .nodes
            .get_mut(&node)
            .ok_or(NetError::UnknownNode(node))?;
        if let Some(cache) = nms.cache.get(&seg) {
            let end = offset + count;
            if end > cache.len() as u64 {
                return Err(NetError::MissingData { seg, offset });
            }
            // Scratch-pooled reply assembly: reuse a recycled frame vector
            // instead of allocating one per reply. Contents are identical
            // to a fresh `to_vec`.
            let mut frames = cor_mem::page::frame_pool::take(count as usize);
            frames.extend_from_slice(&cache[offset as usize..end as usize]);
            let reply_msg = protocol::imag_read_reply(reply, seg, offset, frames)
                .with_seq(seq)
                .with_no_ious(true);
            self.send(clock, ports, segs, node, reply_msg)?;
            return Ok(());
        }
        if let Some(fwd) = nms.forward.get(&seg).copied() {
            // Forward toward the origin; the reply comes back to us so we
            // can rename it to the stand-in before final delivery. The
            // forwarded request keeps the original sequence number, so the
            // final renamed reply still pairs with the faulter's request.
            let my_port = nms.port;
            let key = (fwd.orig_seg, fwd.orig_base + offset);
            let mut relay = PendingRelay {
                final_reply: reply,
                stand_in: seg,
                stand_in_offset: offset,
                seq,
                count,
                parked_at: None,
            };
            if self.params.coalesce {
                // CCNx-style pending-interest table: if a fetch wide
                // enough to cover this request is already in flight for
                // the same origin page, park the waiter and let it
                // piggyback on the upstream reply instead of re-sending.
                let waiters = nms.pending.entry(key).or_default();
                let in_flight = waiters.iter().any(|w| w.count >= count);
                if in_flight {
                    relay.parked_at = Some(clock.now());
                }
                waiters.push(relay);
                if in_flight {
                    self.stats.coalesced_requests += 1;
                    self.note(clock.now(), || TraceEvent::NetCoalesce {
                        node,
                        seg: key.0 .0,
                        offset: key.1,
                    });
                    return Ok(());
                }
            } else {
                // Seed semantics: the latest forwarded request replaces
                // any earlier waiter on the same origin page.
                nms.pending.insert(key, vec![relay]);
            }
            let backer = segs.backing_port(fwd.orig_seg)?;
            let req = protocol::imag_read_request(
                backer,
                my_port,
                fwd.orig_seg,
                fwd.orig_base + offset,
                count,
            )
            .with_seq(seq)
            .with_no_ious(true);
            if let Err(e) = self.send(clock, ports, segs, node, req) {
                // The upstream hop is gone (crashed peer or exhausted
                // retries): every waiter parked under this key would hang
                // forever waiting on a reply that cannot come. Unpark
                // them — the faulters' own error/retry ladders take over
                // — and propagate the failure unchanged.
                if matches!(
                    e,
                    NetError::NodeDown { .. } | NetError::SourceUnreachable { .. }
                ) {
                    if let Some(nms) = self.nodes.get_mut(&node) {
                        if let Some(waiters) = nms.pending.remove(&key) {
                            let upstream = ports.home(backer).unwrap_or(node);
                            let n = waiters.len() as u64;
                            self.reliability.pit_waiters_failed.add(n);
                            self.note(clock.now(), || TraceEvent::NetPitFail {
                                node,
                                upstream,
                                seg: key.0 .0,
                                offset: key.1,
                                waiters: n,
                                rerouted: 0,
                            });
                        }
                    }
                }
                return Err(e);
            }
            return Ok(());
        }
        Err(NetError::MissingData { seg, offset })
    }

    #[allow(clippy::too_many_arguments)] // the world state travels together
    fn handle_relayed_reply(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        seg: SegmentId,
        offset: u64,
        frames: Vec<Frame>,
        seq: u64,
    ) -> Result<(), NetError> {
        let nms = self
            .nodes
            .get_mut(&node)
            .ok_or(NetError::UnknownNode(node))?;
        // Collect every parked waiter this reply covers, in deterministic
        // (origin offset, arrival) order. With coalescing off each key
        // holds at most one waiter and a reply covers exactly its own key,
        // so this reduces to the seed's exact-match relay.
        let n = frames.len() as u64;
        let mut covered: Vec<u64> = nms
            .pending
            .keys()
            .filter(|&&(s, o)| s == seg && o >= offset && o < offset + n)
            .map(|&(_, o)| o)
            .collect();
        covered.sort_unstable();
        let mut matched: Vec<(u64, PendingRelay)> = Vec::new();
        for o in covered {
            if let Some(mut waiters) = nms.pending.remove(&(seg, o)) {
                let mut kept = Vec::new();
                for w in waiters.drain(..) {
                    if o + w.count <= offset + n {
                        matched.push((o, w));
                    } else {
                        kept.push(w);
                    }
                }
                if !kept.is_empty() {
                    nms.pending.insert((seg, o), kept);
                }
            }
        }
        if !matched.is_empty() {
            for (o, relay) in matched {
                if let (Some(parked), Some(j)) = (relay.parked_at, &mut self.journal) {
                    // Coalesced waiters spent this interval parked in the
                    // pending-interest table; recorded as a root span
                    // because the parking started before whatever span is
                    // currently open.
                    j.closed_span(parked, clock.now(), "coalesce-park", Some(node), SpanId::NONE);
                }
                let lo = (o - offset) as usize;
                let hi = lo + relay.count as usize;
                let mut sub = cor_mem::page::frame_pool::take(relay.count as usize);
                sub.extend_from_slice(&frames[lo..hi]);
                let renamed = protocol::imag_read_reply(
                    relay.final_reply,
                    relay.stand_in,
                    relay.stand_in_offset,
                    sub,
                )
                .with_seq(relay.seq)
                .with_no_ious(true);
                self.send(clock, ports, segs, node, renamed)?;
            }
            cor_mem::page::frame_pool::give(frames);
            Ok(())
        } else if seq != 0 || self.params.faults.is_some() {
            // A reply with no pending relay is stale: the request it
            // answers was already satisfied (e.g. a duplicated or
            // reordered response). Drop it — idempotent handling.
            self.reliability.stale_replies.incr();
            let at = clock.now();
            self.note(at, || TraceEvent::NetStale {
                seg: seg.0,
                offset,
                seq,
            });
            Ok(())
        } else {
            Err(NetError::MissingData { seg, offset })
        }
    }

    fn handle_death(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        seg: SegmentId,
    ) -> Result<(), NetError> {
        let nms = self
            .nodes
            .get_mut(&node)
            .ok_or(NetError::UnknownNode(node))?;
        if nms.cache.remove(&seg).is_some() {
            return Ok(()); // our cached copy is released; nothing further
        }
        if let Some(fwd) = nms.forward.remove(&seg) {
            // The stand-in died: release its claim against the origin.
            self.release_refs(clock, ports, segs, node, fwd.orig_seg, fwd.claim)?;
        }
        Ok(())
    }

    /// Serves NetMsgServers in rounds until a round finds nothing to do.
    /// Returns the number of messages processed.
    ///
    /// A round runs the housekeeping (time-triggered crashes, limbo
    /// release, the dead-PIT sweep) and then serves, in ascending
    /// [`NodeId`] order, every live node whose NMS queue is non-empty *at
    /// the moment the walk reaches it*. So a message a served node sends
    /// to a higher-numbered node is served in the same round, and one to
    /// a lower-numbered node in the next round, after the housekeeping
    /// has run again. This order is part of the model — virtual time,
    /// link queueing and every journal depend on it — but its cost is
    /// per ready queue ([`PortRegistry::ready_ports`]), not per node.
    ///
    /// # Errors
    ///
    /// Propagates the first failure from [`Fabric::serve_nms`].
    pub fn pump(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
    ) -> Result<usize, NetError> {
        let mut processed = 0;
        loop {
            if self.params.crashes.is_some() {
                self.poll_time_crashes(clock.now(), ports);
            }
            // Release anything reorder injection is still holding, so a
            // pump always drains the wire completely.
            self.flush_limbo(ports)?;
            // A crash mid-flight strands coalesced waiters whose upstream
            // fetch died with the peer: unpark them (re-routing through a
            // live replica when one holds the pages) so no pump leaves
            // the pending-interest table pointing at a dead node. Gated on
            // `ever_crashed`: an amnesiac reboot clears `crashed` but the
            // purged in-flight fetch is just as unanswerable.
            if self.params.coalesce && !self.ever_crashed.is_empty() {
                self.sweep_dead_pit_waiters(clock, ports, segs)?;
            }
            let mut last = None;
            while let Some((node, port)) = self.next_ready_nms(ports, last) {
                processed += ports.queue_len(port);
                let unhandled = self.serve_nms(clock, ports, segs, node)?;
                processed -= unhandled.len();
                last = Some(node);
            }
            if last.is_none() {
                debug_assert!(
                    self.nodes.iter().all(|(n, nms)| self.crashed.contains(n)
                        || ports.queue_len(nms.port) == 0),
                    "pump went quiescent with a live NMS queue non-empty"
                );
                return Ok(processed);
            }
        }
    }

    /// The lowest-numbered live node above `after` whose NMS queue has
    /// work, with its NMS port. A crashed node is skipped, not
    /// served: whatever was enqueued directly on its port stays queued
    /// (and its port ready), which must not keep [`Fabric::pump`] going.
    fn next_ready_nms(
        &self,
        ports: &PortRegistry,
        after: Option<NodeId>,
    ) -> Option<(NodeId, PortId)> {
        ports
            .ready_ports()
            .filter_map(|port| {
                let node = ports.home(port).ok()?;
                let is_nms = self.nodes.get(&node)?.port == port;
                (is_nms && Some(node) > after && !self.crashed.contains(&node))
                    .then_some((node, port))
            })
            .min_by_key(|&(node, _)| node)
    }

    /// Fails or re-routes every pending-interest waiter whose upstream
    /// fetch died with a crashed peer. For each live node, each parked
    /// key (deterministic segment/offset order) whose origin backer's
    /// home is down is drained: when a live replica holds the requested
    /// pages the waiters are answered from it through the retry path
    /// ([`ReliabilityStats::pit_waiters_rerouted`]); otherwise they are
    /// dropped ([`ReliabilityStats::pit_waiters_failed`]) and the
    /// faulters' empty reply queues push them onto the ordinary recovery
    /// ladder. Without this sweep a coalesced waiter whose upstream
    /// crashed mid-flight would hang parked forever.
    fn sweep_dead_pit_waiters(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
    ) -> Result<(), NetError> {
        let mut next = self.node_order.first().copied();
        while let Some(node) = next {
            next = self
                .node_order
                .range((Bound::Excluded(node), Bound::Unbounded))
                .next()
                .copied();
            if self.crashed.contains(&node) {
                continue;
            }
            let mut keys: Vec<(SegmentId, u64)> = match self.nodes.get(&node) {
                Some(nms) if !nms.pending.is_empty() => nms.pending.keys().copied().collect(),
                _ => continue,
            };
            keys.sort_unstable_by_key(|&(s, o)| (s.0, o));
            for key in keys {
                let (oseg, ooff) = key;
                // The upstream hop is the origin segment's backing home;
                // a dead segment means the waiters can never be answered
                // either way.
                let upstream = match segs.backing_port(oseg).ok().and_then(|p| ports.home(p).ok())
                {
                    Some(h) => h,
                    None => node,
                };
                // A waiter is unanswerable once the upstream lost its
                // volatile state — whether it is still down or already
                // answering the wire again after an amnesiac reboot (the
                // in-flight fetch was purged either way). The one
                // exception: a rebooted node that has since re-cached the
                // segment serves fetches normally again, so its waiters
                // stay parked for the live reply.
                let upstream_answers = !self.is_crashed(upstream)
                    && (!self.lost_volatile_state(upstream)
                        || self
                            .nodes
                            .get(&upstream)
                            .is_some_and(|n| n.cache.contains_key(&oseg)));
                if upstream != node && upstream_answers {
                    continue;
                }
                let Some(waiters) = self
                    .nodes
                    .get_mut(&node)
                    .and_then(|nms| nms.pending.remove(&key))
                else {
                    continue;
                };
                let total = waiters.len() as u64;
                let mut rerouted = 0u64;
                for w in waiters {
                    let served = self
                        .replica_read(clock, node, upstream, oseg, ooff, w.count)
                        .map(|(_, frames, _)| frames);
                    match served {
                        Some(frames) => {
                            let renamed = protocol::imag_read_reply(
                                w.final_reply,
                                w.stand_in,
                                w.stand_in_offset,
                                frames,
                            )
                            .with_seq(w.seq)
                            .with_no_ious(true);
                            match self.send(clock, ports, segs, node, renamed) {
                                Ok(_) => {
                                    self.reliability.pit_waiters_rerouted.incr();
                                    rerouted += 1;
                                }
                                // The waiter's own node died too; nothing
                                // left to deliver to.
                                Err(NetError::NodeDown { .. })
                                | Err(NetError::SourceUnreachable { .. }) => {
                                    self.reliability.pit_waiters_failed.incr();
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        None => {
                            self.reliability.pit_waiters_failed.incr();
                        }
                    }
                }
                self.note(clock.now(), || TraceEvent::NetPitFail {
                    node,
                    upstream,
                    seg: oseg.0,
                    offset: ooff,
                    waiters: total,
                    rerouted,
                });
            }
        }
        Ok(())
    }

    /// Resolves where a segment's data *ultimately* lives, following the
    /// NMS stand-in forwarding chain: a stand-in's first-hop backer is its
    /// local NetMsgServer, but the pages are really held wherever the
    /// chain ends (an NMS cache or a user-level backer). Load metrics for
    /// automatic migration use this to measure true dispersion (paper §6).
    ///
    /// # Errors
    ///
    /// Dead segments or ports along the chain.
    pub fn ultimate_backer(
        &self,
        ports: &PortRegistry,
        segs: &SegmentRegistry,
        seg: SegmentId,
    ) -> Result<NodeId, NetError> {
        let mut current = seg;
        // The chain length is bounded by the number of nodes.
        for _ in 0..=self.nodes.len() {
            let port = segs.backing_port(current)?;
            let home = ports.home(port)?;
            match self.nodes.get(&home) {
                Some(nms) if nms.port == port => {
                    if let Some(f) = nms.forward.get(&current) {
                        current = f.orig_seg;
                        continue;
                    }
                    return Ok(home); // the NMS cache holds the data
                }
                _ => return Ok(home), // a user-level backer holds it
            }
        }
        Err(NetError::MissingData { seg, offset: 0 })
    }

    /// Whether `node` is currently down.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.contains(&node)
    }

    /// `true` if `node` has lost its volatile NetMsgServer state to a
    /// crash at any point — including crashes followed by an amnesiac
    /// reboot, after which the node answers the wire but remembers
    /// nothing. Owed pages it backed are recoverable only from its disk.
    pub fn lost_volatile_state(&self, node: NodeId) -> bool {
        self.ever_crashed.contains(&node)
    }

    /// Crashes `node` at instant `now`: every message queued on any of its
    /// ports is dropped, limbo traffic headed to it is lost, and its
    /// volatile NetMsgServer state (cache, forward tables, pending relays)
    /// is wiped. With `reboot_amnesiac` the node immediately answers the
    /// wire again — minus everything it knew; otherwise it stays down and
    /// sends toward it fail fast with [`NetError::NodeDown`]. The node's
    /// [disk backer](Fabric::disk_install_page) survives either way.
    ///
    /// Usually driven by the [`CrashPlan`](crate::CrashPlan) on
    /// [`WireParams`], but callable directly by tests and experiments.
    pub fn crash_node(
        &mut self,
        now: SimTime,
        ports: &mut PortRegistry,
        node: NodeId,
        reboot_amnesiac: bool,
    ) {
        let Some(nms) = self.nodes.get_mut(&node) else {
            return;
        };
        nms.cache.clear();
        nms.forward.clear();
        nms.pending.clear();
        nms.dedup.clear();
        nms.dedup_lru.clear();
        nms.dedup_pages = 0;
        // Replica pages are volatile NMS state too: this is why a process
        // survives only while at least one of its f+1 homes is up.
        nms.replicas.clear();
        // Every *other* node's dedup table drops the entries this node's
        // replies interned: the contributions of a dead (possibly later
        // amnesiac-rebooted) source must not linger.
        for (&n, other) in self.nodes.iter_mut() {
            if n != node {
                other.wipe_dedup_from(node);
            }
        }
        let mut dropped = ports.purge_node(node) as u64;
        // Limbo entries headed to the node die in flight too.
        let before = self.limbo.len();
        self.limbo
            .retain(|m| ports.home(m.dest).map(|h| h != node).unwrap_or(true));
        dropped += (before - self.limbo.len()) as u64;
        if !reboot_amnesiac {
            self.crashed.insert(node);
        }
        self.ever_crashed.insert(node);
        self.reliability.node_crashes.incr();
        self.reliability.crash_dropped_messages.add(dropped);
        self.note(now, || TraceEvent::NetCrash {
            node,
            amnesiac: reboot_amnesiac,
            dropped,
        });
    }

    /// Fires any pending `AtTime` crash triggers at or before `now`.
    fn poll_time_crashes(&mut self, now: SimTime, ports: &mut PortRegistry) {
        let Some(plan) = self.params.crashes.clone() else {
            return;
        };
        for (idx, event) in plan.events.iter().enumerate() {
            if self.crash_fired.contains(&idx) {
                continue;
            }
            if let Some(at) = plan.fire_time(idx) {
                if now >= at {
                    self.crash_fired.insert(idx);
                    self.crash_node(now, ports, event.node, event.reboot_amnesiac);
                }
            }
        }
    }

    /// Counts one carried remote message against both endpoints and fires
    /// any `AfterMessages` crash triggers they just reached.
    fn count_carried(&mut self, now: SimTime, ports: &mut PortRegistry, from: NodeId, to: NodeId) {
        *self.node_msgs.entry(from).or_insert(0) += 1;
        *self.node_msgs.entry(to).or_insert(0) += 1;
        let Some(plan) = self.params.crashes.clone() else {
            return;
        };
        for (idx, event) in plan.events.iter().enumerate() {
            if self.crash_fired.contains(&idx) {
                continue;
            }
            let CrashTrigger::AfterMessages(n) = event.trigger else {
                continue;
            };
            if self.node_msgs.get(&event.node).copied().unwrap_or(0) >= n {
                self.crash_fired.insert(idx);
                self.crash_node(now, ports, event.node, event.reboot_amnesiac);
            }
        }
    }

    /// The fast-fail path: records and reports a send aborted because the
    /// peer is known dead — no transmission attempt, no backoff.
    fn node_down(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: MsgKind) -> NetError {
        self.reliability.crash_fast_fails.incr();
        self.note(now, || TraceEvent::NetNodeDown { kind, from, to });
        NetError::NodeDown { from, to }
    }

    /// Installs one page in `node`'s crash-survivable disk backer. Used by
    /// the kernel's flush-draining and by tests; survives
    /// [`Fabric::crash_node`].
    pub fn disk_install_page(&mut self, node: NodeId, seg: SegmentId, offset: u64, frame: Frame) {
        self.disk
            .entry(node)
            .or_default()
            .insert((seg.0, offset), frame);
    }

    /// Whether `node`'s disk backer holds `seg`'s page at `offset`.
    pub fn disk_has(&self, node: NodeId, seg: SegmentId, offset: u64) -> bool {
        self.disk
            .get(&node)
            .is_some_and(|d| d.contains_key(&(seg.0, offset)))
    }

    /// Reads `count` consecutive pages of `seg` starting at `offset` from
    /// `node`'s disk backer; `None` if any page is missing.
    pub fn disk_recover(
        &self,
        node: NodeId,
        seg: SegmentId,
        offset: u64,
        count: u64,
    ) -> Option<Vec<Frame>> {
        let disk = self.disk.get(&node)?;
        (offset..offset + count)
            .map(|o| disk.get(&(seg.0, o)).cloned())
            .collect()
    }

    /// Pages held by `node`'s disk backer.
    pub fn disk_pages(&self, node: NodeId) -> u64 {
        self.disk.get(&node).map(|d| d.len() as u64).unwrap_or(0)
    }

    // ----- page-home replication ------------------------------------------

    /// The deterministic replica homes for `seg` with primary `primary`:
    /// a seeded draw of up to `factor` distinct nodes from the registered
    /// set (primary excluded), keyed on the plan seed and the segment so
    /// every segment spreads independently but reproducibly.
    fn replica_targets(&self, primary: NodeId, seg: SegmentId, factor: u64, seed: u64) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = self
            .node_order
            .iter()
            .copied()
            .filter(|&n| n != primary)
            .collect();
        let mut rng = Pcg32::with_stream(
            seed ^ seg.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            REPLICA_STREAM,
        );
        let take = (factor as usize).min(pool.len());
        let mut targets = Vec::with_capacity(take);
        for _ in 0..take {
            let i = rng.range(0, pool.len() as u64) as usize;
            targets.push(pool.swap_remove(i));
        }
        targets.sort_unstable();
        targets
    }

    /// Write-through installs `seg`'s page backing on its replica homes
    /// (the migration page-out hook). Under a
    /// [`ReplicationParams`](crate::ReplicationParams) plan with factor
    /// `f`, the pages land in `f` replica [`ContentStore`]s, the replica
    /// directory and content-hash directory are recorded, and each
    /// replica's copy is charged to the wire — bytes under
    /// [`LedgerCategory::Replicate`] (spread over the transmission
    /// interval), handling CPU at both ends, and per-link accounting
    /// when a topology is installed. The install is fire-and-forget on
    /// the virtual clock (the same discipline as segment-death notices):
    /// the migration's foreground path is never stalled by its own
    /// replication traffic. Without a plan (the default) this is a
    /// no-op, byte-identical to the seed.
    ///
    /// Returns the total pages installed across all replicas.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if `primary` was never added.
    pub fn replicate_backing(
        &mut self,
        clock: &mut Clock,
        primary: NodeId,
        seg: SegmentId,
        frames: &[Frame],
    ) -> Result<u64, NetError> {
        let Some(rep) = self.params.replication else {
            return Ok(0);
        };
        if !self.nodes.contains_key(&primary) {
            return Err(NetError::UnknownNode(primary));
        }
        if rep.factor == 0 || frames.is_empty() {
            return Ok(0);
        }
        let targets = self.replica_targets(primary, seg, rep.factor, rep.seed);
        if targets.is_empty() {
            return Ok(0);
        }
        for (i, f) in frames.iter().enumerate() {
            self.replica_hash.insert((seg.0, i as u64), f.content_hash());
        }
        let pages = frames.len() as u64;
        let payload = pages * cor_mem::PAGE_SIZE;
        let wire_bytes = self.params.wire_bytes(payload);
        let xmit = self.params.xmit_time(payload, 1);
        let cpu = self.params.handling_cpu(payload);
        let now = clock.now();
        let mut total = 0u64;
        // Fire-and-forget on the clock, so this span is zero-duration:
        // it marks *that* replication happened on the trace without
        // blaming the foreground path for off-clock traffic.
        let rep_span = self.span_start(now, "replicate", primary);
        for &replica in &targets {
            let nms = self
                .nodes
                .get_mut(&replica)
                .expect("replica targets are drawn from registered nodes");
            for f in frames {
                nms.replicas.insert(f);
            }
            self.record_spread(now, now + xmit, wire_bytes, LedgerCategory::Replicate);
            self.charge_cpu(primary, cpu);
            self.charge_cpu(replica, cpu);
            if let Some(topo) = self.params.topology {
                if let Err(e) = self.route_and_charge(
                    clock,
                    topo,
                    primary,
                    replica,
                    wire_bytes,
                    MsgKind::Rimas,
                    true,
                ) {
                    self.span_end(clock.now(), rep_span);
                    return Err(e);
                }
            }
            self.reliability.replicated_pages.add(pages);
            total += pages;
            self.note(now, || TraceEvent::NetReplicate {
                node: primary,
                replica,
                pages,
            });
        }
        self.span_end(clock.now(), rep_span);
        self.replica_homes.insert(seg, targets);
        Ok(total)
    }

    /// Whether a *live* replica other than `avoid` holds the page of
    /// `oseg` at `ooff`. The residual-dependency and lost-page
    /// accounting use this: a page with a surviving replica home is not
    /// hostage to `avoid`'s volatile state.
    pub fn replica_live_elsewhere(&self, avoid: NodeId, oseg: SegmentId, ooff: u64) -> bool {
        if self.params.replication.is_none() {
            return false;
        }
        let Some(&hash) = self.replica_hash.get(&(oseg.0, ooff)) else {
            return false;
        };
        self.replica_homes.get(&oseg).is_some_and(|homes| {
            homes.iter().any(|&r| {
                r != avoid
                    && !self.is_crashed(r)
                    && !self.lost_volatile_state(r)
                    && self.nodes.get(&r).is_some_and(|n| n.replicas.contains(hash))
            })
        })
    }

    /// The hop distance from `from` to `to` for nearest-replica routing:
    /// zero for a local copy, the topology's hop count when one is
    /// installed, and one hop on the point-to-point wire.
    fn replica_distance(&self, from: NodeId, to: NodeId) -> u64 {
        if from == to {
            return 0;
        }
        match &self.params.topology {
            Some(t) => t.distance(from, to).map(u64::from).unwrap_or(u64::MAX),
            None => 1,
        }
    }

    /// Content-addressed COR read against the replica directory: resolves
    /// the content hashes of `count` pages of `oseg` starting at `ooff`
    /// and serves them from the nearest live replica (hop-count metric,
    /// deterministic smallest-`NodeId` tie-break). `backer` is the
    /// page's primary home as resolved through the forwarding chain.
    ///
    /// Routing discipline by [`ReplicationMode`]:
    /// * `PrimaryBackup` serves from a replica only once the primary is
    ///   down (crashed, or amnesiac — its volatile copy is gone either
    ///   way);
    /// * `Quorum` additionally serves healthy reads whenever a live
    ///   replica is strictly nearer than the primary.
    ///
    /// The fetch is charged like the request/reply round trip it
    /// replaces — wire bytes under [`LedgerCategory::Replicate`], clock
    /// time for both transmissions plus the replica's NMS service, and
    /// per-link accounting under a topology. A same-node replica costs
    /// one local delivery.
    ///
    /// Returns `(replica, frames, failover)` — `failover` is `true` when
    /// the read substituted for a down primary — or `None` when no live
    /// replica can serve the full run (the caller falls through to the
    /// ordinary path or the next recovery rung).
    pub fn replica_read(
        &mut self,
        clock: &mut Clock,
        requester: NodeId,
        backer: NodeId,
        oseg: SegmentId,
        ooff: u64,
        count: u64,
    ) -> Option<(NodeId, Vec<Frame>, bool)> {
        let rep = self.params.replication?;
        if count == 0 {
            return None;
        }
        let homes = self.replica_homes.get(&oseg)?;
        let mut hashes = Vec::with_capacity(count as usize);
        for i in 0..count {
            hashes.push(*self.replica_hash.get(&(oseg.0, ooff + i))?);
        }
        let primary_down = self.is_crashed(backer) || self.lost_volatile_state(backer);
        let mut best: Option<(u64, NodeId)> = None;
        for &r in homes {
            if r == backer || self.is_crashed(r) || self.lost_volatile_state(r) {
                continue;
            }
            let Some(nms) = self.nodes.get(&r) else {
                continue;
            };
            if !hashes.iter().all(|&h| nms.replicas.contains(h)) {
                continue;
            }
            let cand = (self.replica_distance(requester, r), r);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        let (d, replica) = best?;
        match rep.mode {
            ReplicationMode::PrimaryBackup => {
                if !primary_down {
                    return None;
                }
            }
            ReplicationMode::Quorum => {
                if !primary_down && d >= self.replica_distance(requester, backer) {
                    return None;
                }
            }
        }
        let frames: Vec<Frame> = {
            let store = &self.nodes.get(&replica)?.replicas;
            hashes
                .iter()
                .map(|&h| store.get(h).cloned())
                .collect::<Option<Vec<_>>>()?
        };
        let start = clock.now();
        // The replica round trip gets its own blame span: `failover` when
        // it substitutes for a down primary, `replicate` when a live
        // replica merely serves the read nearer. Link spans the routed
        // charge opens nest under it.
        let name: &'static str = if primary_down { "failover" } else { "replicate" };
        let span = self.span_start(start, name, requester);
        if replica == requester {
            clock.advance(self.params.local_delivery);
        } else {
            // Request out, replica NMS service, reply back — the same
            // shape as the round trip it replaces, with real message
            // sizes.
            let Some(my_port) = self.nodes.get(&requester).map(|n| n.port) else {
                self.span_end(clock.now(), span);
                return None;
            };
            let req_payload =
                protocol::imag_read_request(my_port, my_port, oseg, ooff, count).wire_size();
            let reply_payload =
                protocol::imag_read_reply(my_port, oseg, ooff, frames.clone()).wire_size();
            let req_bytes = self.params.wire_bytes(req_payload);
            let reply_bytes = self.params.wire_bytes(reply_payload);
            clock.advance(self.params.xmit_time(req_payload, 0));
            clock.advance(self.params.nms_service);
            clock.advance(self.params.xmit_time(reply_payload, 1));
            self.record_spread(
                start,
                clock.now(),
                req_bytes + reply_bytes,
                LedgerCategory::Replicate,
            );
            let cpu = self.params.handling_cpu(req_payload) + self.params.handling_cpu(reply_payload);
            self.charge_cpu(requester, cpu);
            self.charge_cpu(replica, cpu);
            if let Some(topo) = self.params.topology {
                let routed = self
                    .route_and_charge(
                        clock,
                        topo,
                        requester,
                        replica,
                        req_bytes,
                        MsgKind::ImagReadRequest,
                        false,
                    )
                    .and_then(|()| {
                        self.route_and_charge(
                            clock,
                            topo,
                            replica,
                            requester,
                            reply_bytes,
                            MsgKind::ImagReadReply,
                            false,
                        )
                    });
                if routed.is_err() {
                    self.span_end(clock.now(), span);
                    return None;
                }
            }
        }
        self.span_end(clock.now(), span);
        let elapsed = clock.now().since(start);
        if primary_down {
            self.reliability.failover_fetches.incr();
            self.reliability.failover_pages.add(count);
            self.reliability.failover_time += elapsed;
        } else {
            self.reliability.replica_reads.incr();
        }
        Some((replica, frames, primary_down))
    }

    /// Pages held in `node`'s replica [`ContentStore`].
    pub fn replica_pages(&self, node: NodeId) -> u64 {
        self.nodes.get(&node).map(|n| n.replicas.pages()).unwrap_or(0)
    }

    /// The recorded replica homes of `oseg` (empty when no replication
    /// plan installed pages for it).
    pub fn replica_homes_of(&self, oseg: SegmentId) -> &[NodeId] {
        self.replica_homes
            .get(&oseg)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The set of nodes currently down, for crash-aware placement.
    pub fn crashed_nodes(&self) -> BTreeSet<NodeId> {
        self.crashed.iter().copied().collect()
    }

    /// Parked pending-interest waiters on `node` (all keys), for tests.
    pub fn pending_waiters(&self, node: NodeId) -> usize {
        self.nodes
            .get(&node)
            .map(|n| n.pending.values().map(Vec::len).sum())
            .unwrap_or(0)
    }

    /// Replaces reply page frames whose bytes `node` already holds with
    /// the held frames, interning unseen pages tagged with the sending
    /// node `from`. Hits are counted in
    /// [`ReliabilityStats::dedup_hits`] and returned. Byte-for-byte
    /// equality is confirmed on every hash match, so a collision can
    /// never substitute wrong contents.
    ///
    /// The table is bounded at [`DEDUP_CAP_PAGES`] with deterministic
    /// least-recently-used eviction: every hit refreshes an entry's
    /// recency stamp, and an insert at the cap evicts the entry with the
    /// smallest stamp (counted in
    /// [`ReliabilityStats::dedup_evictions`]). A crash of `from` later
    /// wipes exactly the entries it contributed
    /// ([`Fabric::crash_node`]).
    fn dedup_reply_pages(&mut self, node: NodeId, from: NodeId, msg: &mut Message) -> u64 {
        let Some(nms) = self.nodes.get_mut(&node) else {
            return 0;
        };
        let mut hits = 0u64;
        let mut evictions = 0u64;
        for item in &mut msg.items {
            let MsgItem::Pages { frames, .. } = item else {
                continue;
            };
            for frame in frames.iter_mut() {
                let hash = frame.content_hash();
                let held = nms.dedup.get_mut(&hash).and_then(|bucket| {
                    bucket.iter_mut().find(|e| e.frame.same_contents(frame))
                });
                match held {
                    Some(entry) => {
                        *frame = entry.frame.clone();
                        // Refresh recency: the hit entry moves to the
                        // youngest LRU position.
                        nms.dedup_lru.remove(&entry.stamp);
                        nms.dedup_stamp += 1;
                        entry.stamp = nms.dedup_stamp;
                        nms.dedup_lru.insert(entry.stamp, hash);
                        self.reliability.dedup_hits.incr();
                        hits += 1;
                    }
                    None => {
                        if nms.dedup_pages >= DEDUP_CAP_PAGES {
                            nms.evict_lru_dedup_entry();
                            evictions += 1;
                        }
                        nms.dedup_stamp += 1;
                        let stamp = nms.dedup_stamp;
                        nms.dedup.entry(hash).or_default().push(DedupEntry {
                            frame: frame.clone(),
                            stamp,
                            src: from,
                        });
                        nms.dedup_lru.insert(stamp, hash);
                        nms.dedup_pages += 1;
                    }
                }
            }
        }
        self.reliability.dedup_evictions.add(evictions);
        hits
    }

    /// Copies one cached page (if the NMS cache of `node` holds it) into
    /// `node`'s disk backer. Returns `true` if a page was written.
    pub fn flush_cached_page_to_disk(&mut self, node: NodeId, seg: SegmentId, offset: u64) -> bool {
        let Some(frame) = self
            .nodes
            .get(&node)
            .and_then(|n| n.cache.get(&seg))
            .and_then(|c| c.get(offset as usize))
            .cloned()
        else {
            return false;
        };
        self.disk_install_page(node, seg, offset, frame);
        true
    }

    /// While enabled, every wire transmission is ledgered as
    /// [`LedgerCategory::Drain`] regardless of message kind (retransmits
    /// keep their own category). The kernel brackets background draining
    /// and crash-recovery work with this so the paper's byte categories
    /// stay clean.
    pub fn set_drain_accounting(&mut self, on: bool) {
        self.drain_accounting = on;
    }

    /// Resolves where the data behind `seg` at page `offset` ultimately
    /// lives, following the NMS stand-in forwarding chain and translating
    /// the offset at each hop. Returns the terminal `(node, segment,
    /// offset)` — the coordinates the crash-recovery ladder and the
    /// flush-drainer need. The chain may legitimately end at a crashed
    /// node.
    ///
    /// # Errors
    ///
    /// Dead segments or ports along the chain.
    pub fn resolve_owed(
        &self,
        ports: &PortRegistry,
        segs: &SegmentRegistry,
        seg: SegmentId,
        offset: u64,
    ) -> Result<(NodeId, SegmentId, u64), NetError> {
        let mut current = seg;
        let mut off = offset;
        // The chain length is bounded by the number of nodes.
        for _ in 0..=self.nodes.len() {
            let port = segs.backing_port(current)?;
            let home = ports.home(port)?;
            match self.nodes.get(&home) {
                Some(nms) if nms.port == port => {
                    if let Some(f) = nms.forward.get(&current) {
                        off += f.orig_base;
                        current = f.orig_seg;
                        continue;
                    }
                    return Ok((home, current, off)); // the NMS cache holds it
                }
                _ => return Ok((home, current, off)), // a user-level backer
            }
        }
        Err(NetError::MissingData { seg, offset })
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
    }

    /// Message-handling CPU charged to one node.
    pub fn node_cpu(&self, node: NodeId) -> SimDuration {
        self.nodes.get(&node).map(|n| n.cpu).unwrap_or_default()
    }

    /// Whether the two independent retransmission accounts agree: the
    /// wire bytes the ledger filed under
    /// [`LedgerCategory::Retransmit`] (attempts beyond the first, plus
    /// injected duplicate deliveries) must equal the bytes implied by
    /// [`ReliabilityStats::retransmit_wire_bytes`]. Checked by a debug
    /// assertion at every send exit; exposed for regression tests.
    pub fn retransmit_accounting_consistent(&self) -> bool {
        self.ledger.total_for(LedgerCategory::Retransmit)
            == self.reliability.retransmit_wire_bytes.get()
    }

    /// Pages currently held in `node`'s NMS cache.
    pub fn cached_pages_live(&self, node: NodeId) -> u64 {
        self.nodes
            .get(&node)
            .map(|n| n.cache.values().map(|v| v.len() as u64).sum())
            .unwrap_or(0)
    }

    /// Live stand-in segments on `node`.
    pub fn standins_live(&self, node: NodeId) -> usize {
        self.nodes.get(&node).map(|n| n.forward.len()).unwrap_or(0)
    }

    /// Walks the routed topology's path for one successful remote
    /// delivery: per-link byte/message accounting, per-link queueing
    /// behind earlier traffic, and store-and-forward latency for every
    /// hop beyond the first (which the transmission loop already
    /// charged). Detached sends account bytes but never stall the caller.
    #[allow(clippy::too_many_arguments)] // the world state travels together
    fn route_and_charge(
        &mut self,
        clock: &mut Clock,
        topo: Topology,
        from: NodeId,
        to: NodeId,
        wire_bytes: u64,
        kind: MsgKind,
        detached: bool,
    ) -> Result<(), NetError> {
        let route = topo.hops(from, to)?;
        // The link holds each message for its serialization time (bytes
        // only — the fixed per-message latency is an end-to-end charge,
        // not a per-link occupancy).
        let occupancy =
            SimDuration::from_micros(wire_bytes.saturating_mul(self.params.per_byte_ns) / 1_000);
        let depart = clock.now();
        let mut cursor = depart;
        let mut wait_total = SimDuration::ZERO;
        let mut hops = 0u32;
        let mut at = from;
        for next in route {
            let link = (at, next);
            at = next;
            let busy = self.link_busy.get(&link).copied().unwrap_or(SimTime::ZERO);
            let wait = busy.saturating_since(cursor);
            if wait > SimDuration::ZERO {
                cursor = busy;
            }
            if hops > 0 {
                // Cut-through forwarding: each extra hop adds its relay
                // latency, not a full re-serialization.
                cursor += topo.hop_latency;
            }
            hops += 1;
            self.link_busy.insert(link, cursor + occupancy);
            let s = self.link_stats.entry(link).or_default();
            s.msgs += 1;
            s.bytes += wire_bytes;
            s.queue_wait += wait;
            wait_total += wait;
        }
        let extra = cursor.since(depart);
        if !detached {
            // The traversal's sub-spans, zero-duration included: queue
            // wait behind busy links, then hop transit. Detached sends
            // never stall the caller and get none.
            let queued = depart + wait_total;
            let lq = self.span_start(depart, "link-queue", from);
            self.span_end(queued, lq);
            let lt = self.span_start(queued, "link-transit", from);
            self.span_end(depart + extra, lt);
            if extra > SimDuration::ZERO {
                clock.advance(extra);
            }
        }
        if hops > 1 {
            self.note(clock.now(), || TraceEvent::NetRoute {
                kind,
                from,
                to,
                hops,
            });
        }
        Ok(())
    }

    /// Per-directed-link traffic table, populated only under an installed
    /// [`WireParams::topology`]. Keys iterate in deterministic
    /// `(from, to)` order.
    pub fn link_stats(&self) -> &BTreeMap<(NodeId, NodeId), LinkStats> {
        &self.link_stats
    }

    /// Renders the per-link traffic table ([`crate::topology::link_table`]).
    pub fn link_table(&self) -> String {
        crate::topology::link_table(&self.link_stats)
    }

    /// Validates the installed plans against the registered node set: a
    /// topology must cover every node, fault-plan overrides must name
    /// registered pairs, and crash events must name registered nodes.
    /// Call after building an N-node world to surface a mis-wired plan as
    /// a typed error up front rather than as silent defaulting later.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] or [`NetError::UnknownLink`] naming the
    /// first mis-wired entity.
    pub fn validate_plans(&self) -> Result<(), NetError> {
        if let Some(topo) = &self.params.topology {
            for &n in &self.node_order {
                if !topo.contains(n) {
                    return Err(NetError::UnknownNode(n));
                }
            }
        }
        if let Some(plan) = &self.params.faults {
            plan.validate(&self.node_order)?;
        }
        if let Some(plan) = &self.params.crashes {
            plan.validate(&self.node_order)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_ipc::message::INLINE_THRESHOLD;
    use cor_mem::page::page_from_bytes;

    struct World {
        clock: Clock,
        ports: PortRegistry,
        segs: SegmentRegistry,
        fabric: Fabric,
    }

    fn world() -> (World, NodeId, NodeId) {
        let mut ports = PortRegistry::new();
        let mut fabric = Fabric::new(WireParams::default());
        let a = NodeId(0);
        let b = NodeId(1);
        fabric.add_node(a, &mut ports);
        fabric.add_node(b, &mut ports);
        (
            World {
                clock: Clock::new(),
                ports,
                segs: SegmentRegistry::new(),
                fabric,
            },
            a,
            b,
        )
    }

    fn fleet_world(params: WireParams, n: u32) -> World {
        let mut ports = PortRegistry::new();
        let mut fabric = Fabric::new(params);
        for i in 0..n {
            fabric.add_node(NodeId(i), &mut ports);
        }
        World {
            clock: Clock::new(),
            ports,
            segs: SegmentRegistry::new(),
            fabric,
        }
    }

    fn user_msg(w: &mut World, to: NodeId, bytes: usize) -> Message {
        let dest = w.ports.allocate(to);
        Message::new(MsgKind::User(1), dest)
            .push(MsgItem::Inline(vec![0; bytes]))
            .with_no_ious(true)
    }

    #[test]
    fn routed_send_bills_every_link_and_adds_hop_latency() {
        let topo = crate::Topology::ring(4);
        let hop_latency = topo.hop_latency;
        let mut direct = fleet_world(WireParams::default(), 4);
        let msg = user_msg(&mut direct, NodeId(2), 1000);
        direct
            .fabric
            .send(&mut direct.clock, &mut direct.ports, &mut direct.segs, NodeId(0), msg)
            .unwrap();
        let direct_elapsed = direct.clock.now();
        assert!(direct.fabric.link_stats().is_empty(), "no topology, no link table");

        let mut routed = fleet_world(
            WireParams {
                topology: Some(topo),
                ..WireParams::default()
            },
            4,
        );
        let msg = user_msg(&mut routed, NodeId(2), 1000);
        let rep = routed
            .fabric
            .send(&mut routed.clock, &mut routed.ports, &mut routed.segs, NodeId(0), msg)
            .unwrap();
        // 0 -> 2 on a 4-ring is two hops: one extra hop latency.
        assert_eq!(routed.clock.now(), direct_elapsed + hop_latency);
        let links = routed.fabric.link_stats();
        assert_eq!(links.len(), 2);
        let total_link_bytes: u64 = links.values().map(|s| s.bytes).sum();
        assert_eq!(total_link_bytes, rep.wire_bytes * 2, "each link bills the full message");
        for s in links.values() {
            assert_eq!(s.msgs, 1);
        }
        assert!(routed.fabric.link_table().contains("->"));
    }

    #[test]
    fn full_mesh_topology_matches_direct_wire_latency() {
        let mut direct = fleet_world(WireParams::default(), 4);
        let msg = user_msg(&mut direct, NodeId(3), 4000);
        direct
            .fabric
            .send(&mut direct.clock, &mut direct.ports, &mut direct.segs, NodeId(0), msg)
            .unwrap();
        let mut meshed = fleet_world(
            WireParams {
                topology: Some(crate::Topology::full_mesh(4)),
                ..WireParams::default()
            },
            4,
        );
        let msg = user_msg(&mut meshed, NodeId(3), 4000);
        meshed
            .fabric
            .send(&mut meshed.clock, &mut meshed.ports, &mut meshed.segs, NodeId(0), msg)
            .unwrap();
        assert_eq!(
            direct.clock.now(),
            meshed.clock.now(),
            "single-hop routes add no latency over the point-to-point wire"
        );
        assert_eq!(meshed.fabric.link_stats().len(), 1);
    }

    #[test]
    fn strict_fault_plan_surfaces_unknown_link_on_send() {
        let plan = crate::FaultPlan::dropping(7, 0.0)
            .with_link(NodeId(0), NodeId(1), LinkFaults::dropping(0.0))
            .strict();
        let mut w = fleet_world(
            WireParams {
                faults: Some(plan),
                ..WireParams::default()
            },
            3,
        );
        let msg = user_msg(&mut w, NodeId(1), 100);
        assert!(w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, NodeId(0), msg)
            .is_ok());
        let msg = user_msg(&mut w, NodeId(2), 100);
        assert_eq!(
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, NodeId(0), msg)
                .unwrap_err(),
            NetError::UnknownLink {
                from: NodeId(0),
                to: NodeId(2)
            }
        );
    }

    #[test]
    fn validate_plans_catches_miswired_worlds() {
        let w = fleet_world(
            WireParams {
                topology: Some(crate::Topology::torus(2, 2)),
                ..WireParams::default()
            },
            4,
        );
        assert!(w.fabric.validate_plans().is_ok());
        // A 2x2 torus cannot cover a fifth node.
        let w = fleet_world(
            WireParams {
                topology: Some(crate::Topology::torus(2, 2)),
                ..WireParams::default()
            },
            5,
        );
        assert_eq!(
            w.fabric.validate_plans(),
            Err(NetError::UnknownNode(NodeId(4)))
        );
        // A fault-plan override naming an unregistered node.
        let w = fleet_world(
            WireParams {
                faults: Some(
                    crate::FaultPlan::dropping(7, 0.0).with_link(
                        NodeId(0),
                        NodeId(9),
                        LinkFaults::dropping(0.5),
                    ),
                ),
                ..WireParams::default()
            },
            2,
        );
        assert_eq!(
            w.fabric.validate_plans(),
            Err(NetError::UnknownLink {
                from: NodeId(0),
                to: NodeId(9)
            })
        );
    }

    #[test]
    fn local_delivery_is_cheap_and_off_wire() {
        let (mut w, a, _) = world();
        let dest = w.ports.allocate(a);
        let msg = Message::new(MsgKind::User(1), dest).push(MsgItem::Inline(vec![0; 100]));
        let rep = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert!(!rep.remote);
        assert_eq!(rep.wire_bytes, 0);
        assert!(w.fabric.ledger.is_empty());
        assert_eq!(w.ports.queue_len(dest), 1);
    }

    #[test]
    fn remote_delivery_charges_wire_and_cpu() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let msg = Message::new(MsgKind::User(1), dest)
            .push(MsgItem::Inline(vec![0; 5000]))
            .with_no_ious(true);
        let rep = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert!(rep.remote);
        assert!(rep.wire_bytes > 5000);
        assert_eq!(w.fabric.ledger.total(), rep.wire_bytes);
        assert!(w.fabric.node_cpu(a) > SimDuration::ZERO);
        assert_eq!(w.fabric.node_cpu(a), w.fabric.node_cpu(b));
        assert_eq!(w.ports.queue_len(dest), 1);
    }

    #[test]
    fn nms_caches_pages_and_substitutes_ious() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..8)
            .map(|i| Frame::new(page_from_bytes(&[i as u8 + 1])))
            .collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        let rep = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        // Only IOU descriptors crossed the wire, not 8 pages.
        assert!(
            rep.wire_bytes < 8 * 512 / 4,
            "wire bytes {}",
            rep.wire_bytes
        );
        assert_eq!(w.fabric.stats().pages_cached, 8);
        assert_eq!(w.fabric.cached_pages_live(a), 8);
        // The receiver got an IOU naming a *stand-in* segment homed at b.
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        match &got.items[0] {
            MsgItem::Iou { seg, pages, .. } => {
                assert_eq!(*pages, 8);
                let backer = w.segs.backing_port(*seg).unwrap();
                assert_eq!(w.ports.home(backer), Ok(b));
            }
            other => panic!("expected Iou, got {other:?}"),
        }
        assert_eq!(w.fabric.standins_live(b), 1);
    }

    #[test]
    fn no_ious_bit_forces_physical_copy() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..8).map(|_| Frame::zeroed()).collect();
        let msg = Message::new(MsgKind::Rimas, dest)
            .with_no_ious(true)
            .push(MsgItem::Pages {
                base_page: 0,
                frames,
            });
        let rep = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert!(rep.wire_bytes > 8 * 512);
        assert_eq!(w.fabric.stats().pages_cached, 0);
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        assert!(matches!(&got.items[0], MsgItem::Pages { frames, .. } if frames.len() == 8));
    }

    #[test]
    fn fault_round_trip_through_standin_delivers_real_data() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::new(page_from_bytes(&[0x40 + i as u8])))
            .collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected Iou");
        };
        // A "pager" on b requests page 2 of the stand-in.
        let pager_port = w.ports.allocate(b);
        let backer = w.segs.backing_port(stand_in).unwrap();
        let req =
            protocol::imag_read_request(backer, pager_port, stand_in, 2, 1).with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, b, req)
            .unwrap();
        w.fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        let reply = w
            .ports
            .dequeue(pager_port)
            .unwrap()
            .expect("reply expected");
        match protocol::parse(&reply) {
            Some(ProtocolMsg::ImagReadReply {
                seg,
                offset,
                frames,
                ..
            }) => {
                assert_eq!(seg, stand_in, "reply renamed to the stand-in");
                assert_eq!(offset, 2);
                frames[0].with(|d| assert_eq!(d[0], 0x42));
            }
            other => panic!("bad reply: {other:?}"),
        }
        // Fault-support traffic was recorded separately from bulk.
        assert!(w.fabric.ledger.total_for(LedgerCategory::FaultSupport) > 512);
    }

    #[test]
    fn death_cascades_from_standin_to_cache() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..3).map(|_| Frame::zeroed()).collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou {
            seg: stand_in,
            pages,
            ..
        } = got.items[0]
        else {
            panic!("expected Iou");
        };
        // The consumer releases all references (e.g. the process died
        // without touching the pages).
        w.fabric
            .release_refs(&mut w.clock, &mut w.ports, &mut w.segs, b, stand_in, pages)
            .unwrap();
        w.fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        assert_eq!(w.segs.live(), 0, "both stand-in and origin died");
        assert_eq!(w.fabric.cached_pages_live(a), 0, "cache released");
        assert_eq!(w.fabric.standins_live(b), 0);
        assert_eq!(w.fabric.stats().deaths_sent, 2);
    }

    #[test]
    fn receive_rights_relocate_with_the_message() {
        use cor_ipc::{PortRight, Right};
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let moving = w.ports.allocate(a);
        let msg = Message::new(MsgKind::User(1), dest)
            .with_no_ious(true)
            .push(MsgItem::Rights(vec![
                PortRight {
                    port: moving,
                    right: Right::Receive,
                },
                PortRight {
                    port: moving,
                    right: Right::Ownership,
                },
            ]));
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert_eq!(w.ports.home(moving), Ok(b), "receive right moved to b");
        // A send right elsewhere still reaches it, at its new home.
        let rep = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(2), moving).with_no_ious(true),
            )
            .unwrap();
        assert!(rep.remote);
        assert_eq!(w.ports.queue_len(moving), 1);
    }

    #[test]
    fn send_rights_do_not_relocate() {
        use cor_ipc::{PortRight, Right};
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let stationary = w.ports.allocate(a);
        let msg = Message::new(MsgKind::User(1), dest)
            .with_no_ious(true)
            .push(MsgItem::Rights(vec![PortRight {
                port: stationary,
                right: Right::Send,
            }]));
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert_eq!(w.ports.home(stationary), Ok(a), "send rights are copies");
    }

    #[test]
    fn ultimate_backer_follows_standin_chains() {
        let (mut w, a, b) = world();
        // Cache a segment at a, deliver an IOU to b (creating a stand-in).
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..2).map(|_| Frame::zeroed()).collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected Iou");
        };
        // The stand-in's first-hop backer is b's NMS, but the data is at a.
        assert_eq!(w.fabric.ultimate_backer(&w.ports, &w.segs, stand_in), Ok(a));
    }

    #[test]
    fn send_to_dead_port_fails() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        w.ports.deallocate(dest);
        let err = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(0), dest),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Port(_)));
    }

    #[test]
    fn inline_threshold_constant_is_one_page() {
        // Guards the documented Accent behaviour: data below a page is
        // physically copied, larger data is remapped.
        assert_eq!(INLINE_THRESHOLD, 512);
    }

    use crate::params::{FaultPlan, LinkFaults};

    fn faulty_world(faults: LinkFaults, seed: u64) -> (World, NodeId, NodeId) {
        let (mut w, a, b) = world();
        w.fabric.params.faults = Some(FaultPlan::uniform(seed, faults));
        (w, a, b)
    }

    #[test]
    fn clean_fault_plan_changes_nothing() {
        // A plan whose rates are all zero must behave byte- and
        // time-identically to no plan at all.
        let run = |faults: Option<FaultPlan>| {
            let (mut w, a, b) = world();
            w.fabric.params.faults = faults;
            let dest = w.ports.allocate(b);
            let msg = Message::new(MsgKind::User(1), dest)
                .push(MsgItem::Inline(vec![0; 5000]))
                .with_no_ious(true);
            let rep = w
                .fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
            (rep, w.clock.now(), w.fabric.ledger.total())
        };
        let clean = run(Some(FaultPlan::uniform(42, LinkFaults::default())));
        let none = run(None);
        assert_eq!(clean, none);
    }

    #[test]
    fn drops_force_retransmission_and_charge_retransmit_bytes() {
        let (mut w, a, b) = faulty_world(LinkFaults::dropping(0.3), 7);
        let dest = w.ports.allocate(b);
        let mut retransmissions = 0;
        for i in 0..40 {
            let msg = Message::new(MsgKind::User(i), dest)
                .push(MsgItem::Inline(vec![0; 2000]))
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        }
        retransmissions += w.fabric.reliability.retransmissions.get();
        assert!(
            retransmissions > 5,
            "at 30% drop over 40 sends, retransmissions must occur (got {retransmissions})"
        );
        assert_eq!(
            w.fabric.reliability.drops_injected.get(),
            w.fabric.reliability.retransmissions.get(),
            "every drop below the budget becomes a retransmission"
        );
        assert!(
            w.fabric.ledger.total_for(LedgerCategory::Retransmit) > 0,
            "retried attempts land in the Retransmit category"
        );
        assert_eq!(
            w.fabric.reliability.timeout_stalls.get(),
            w.fabric.reliability.retransmissions.get()
        );
        assert!(w.fabric.reliability.stall_time > SimDuration::ZERO);
        assert_eq!(w.ports.queue_len(dest), 40, "every message got through");
    }

    #[test]
    fn total_loss_surfaces_source_unreachable() {
        let (mut w, a, b) = faulty_world(LinkFaults::dropping(1.0), 1);
        w.fabric.params.retry_budget = 4;
        let dest = w.ports.allocate(b);
        let msg = Message::new(MsgKind::User(1), dest).with_no_ious(true);
        let err = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap_err();
        assert_eq!(
            err,
            NetError::SourceUnreachable {
                from: a,
                to: b,
                attempts: 4
            }
        );
        assert_eq!(w.fabric.reliability.unreachable_failures.get(), 1);
        assert_eq!(w.fabric.reliability.drops_injected.get(), 4);
        assert_eq!(
            w.fabric.reliability.retransmissions.get(),
            3,
            "the final drop is abandoned, not retransmitted"
        );
        assert_eq!(w.ports.queue_len(dest), 0, "nothing was delivered");
    }

    #[test]
    fn backoff_doubles_per_consecutive_loss() {
        let (mut w, a, b) = faulty_world(LinkFaults::dropping(1.0), 1);
        w.fabric.params.retry_budget = 4;
        let dest = w.ports.allocate(b);
        let msg = Message::new(MsgKind::User(1), dest).with_no_ious(true);
        let t0 = w.clock.now();
        let _ = w
            .fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap_err();
        let elapsed = w.clock.now().since(t0);
        // Three timeouts at 1x, 2x, 4x the base plus four transmissions.
        let stalls = w.fabric.params.retry_timeout.saturating_mul(1 + 2 + 4);
        assert_eq!(w.fabric.reliability.stall_time, stalls);
        assert!(elapsed > stalls, "elapsed includes stalls and xmit time");
    }

    #[test]
    fn duplicates_are_suppressed_by_sequence_tracking() {
        let faults = LinkFaults {
            duplicate: 1.0,
            ..LinkFaults::default()
        };
        let (mut w, a, b) = faulty_world(faults, 3);
        let dest = w.ports.allocate(b);
        for i in 0..5 {
            let msg = Message::new(MsgKind::User(i), dest)
                .push(MsgItem::Inline(vec![0; 1000]))
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        }
        assert_eq!(w.fabric.reliability.duplicates_injected.get(), 5);
        assert_eq!(
            w.fabric.reliability.duplicate_drops.get(),
            5,
            "every duplicate is recognised and suppressed"
        );
        assert_eq!(
            w.ports.queue_len(dest),
            5,
            "exactly one copy of each message is delivered"
        );
        assert!(w.fabric.ledger.total_for(LedgerCategory::Retransmit) > 0);
    }

    #[test]
    fn reordered_messages_arrive_late_but_arrive() {
        // Reorder the first message with certainty, then none after.
        let faults = LinkFaults {
            reorder: 1.0,
            ..LinkFaults::default()
        };
        let (mut w, a, b) = faulty_world(faults, 11);
        let dest = w.ports.allocate(b);
        let first = Message::new(MsgKind::User(1), dest).with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, first)
            .unwrap();
        assert_eq!(
            w.ports.queue_len(dest),
            0,
            "reordered message held in limbo"
        );
        w.fabric.params.faults = Some(FaultPlan::uniform(11, LinkFaults::default()));
        let second = Message::new(MsgKind::User(2), dest).with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, second)
            .unwrap();
        assert_eq!(w.ports.queue_len(dest), 2, "limbo flushed after delivery");
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        assert_eq!(got.kind, MsgKind::User(2), "later message overtook");
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        assert_eq!(got.kind, MsgKind::User(1));
        assert_eq!(w.fabric.reliability.reorders_injected.get(), 1);
    }

    #[test]
    fn pump_releases_limbo() {
        let faults = LinkFaults {
            reorder: 1.0,
            ..LinkFaults::default()
        };
        let (mut w, a, b) = faulty_world(faults, 11);
        let dest = w.ports.allocate(b);
        let msg = Message::new(MsgKind::User(1), dest).with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        assert_eq!(w.ports.queue_len(dest), 0);
        w.fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        assert_eq!(w.ports.queue_len(dest), 1, "pump flushes limbo");
    }

    /// The round semantics of [`Fabric::pump`], pinned: within a round
    /// the walk only moves up the node order, so a message sent to a
    /// lower-numbered NMS waits for the next round — even while a
    /// higher-numbered NMS still has work in this one.
    #[test]
    fn pump_serves_a_lower_node_in_the_following_round() {
        let mut w = fleet_world(WireParams::default(), 3);
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        // Pages paged out from node0 to a port on node1: node0's NMS
        // caches them, node1's NMS holds the stand-in.
        let dest = w.ports.allocate(n1);
        let rimas = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames: vec![Frame::zeroed()],
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, n0, rimas)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected a stand-in IOU");
        };
        // node2's NMS serves a segment of its own.
        let own = w.segs.create(w.fabric.nms_port(n2).unwrap(), 1);
        w.fabric
            .install_cache(n2, own, vec![Frame::zeroed()])
            .unwrap();
        // Two faulters on node1: one asks the stand-in (node1's NMS must
        // forward *down* to node0), one asks node2 directly.
        let pager = w.ports.allocate(n1);
        for (nms, seg) in [(n1, stand_in), (n2, own)] {
            let port = w.fabric.nms_port(nms).unwrap();
            let req = protocol::imag_read_request(port, pager, seg, 0, 1).with_no_ious(true);
            w.ports.enqueue(port, req).unwrap();
        }
        w.fabric.journal = Some(Journal::new());
        let processed = w
            .fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        // Round 1: node1 forwards to node0 (lower: deferred), node2
        // answers. Round 2: node0 replies to node1's NMS (higher: same
        // round), node1 relays to the faulter (a local delivery: no wire
        // span). Round 3 finds nothing.
        let senders: Vec<NodeId> = w
            .fabric
            .journal
            .as_ref()
            .unwrap()
            .spans()
            .iter()
            .filter(|s| s.name == "wire-send")
            .filter_map(|s| s.node)
            .collect();
        assert_eq!(senders, [n1, n2, n0]);
        assert_eq!(processed, 4);
        assert_eq!(w.ports.queue_len(pager), 2, "both faulters were answered");
        assert_eq!(w.ports.ready_ports().count(), 0);
    }

    #[test]
    fn jitter_delays_but_preserves_delivery() {
        let faults = LinkFaults {
            jitter: SimDuration::from_millis(50),
            ..LinkFaults::default()
        };
        let run = |faults| {
            let (mut w, a, b) = world();
            w.fabric.params.faults = faults;
            let dest = w.ports.allocate(b);
            for i in 0..10 {
                let msg = Message::new(MsgKind::User(i), dest).with_no_ious(true);
                w.fabric
                    .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                    .unwrap();
            }
            (w.clock.now(), w.ports.queue_len(dest))
        };
        let (t_jitter, n_jitter) = run(Some(FaultPlan::uniform(5, faults)));
        let (t_clean, n_clean) = run(None);
        assert_eq!(n_jitter, n_clean, "jitter never loses messages");
        assert!(t_jitter > t_clean, "jitter adds latency");
        assert!(
            t_jitter.since(t_clean) <= SimDuration::from_millis(500),
            "bounded by 10 draws of at most 50 ms"
        );
    }

    #[test]
    fn identical_seeds_give_identical_fault_sequences() {
        let run = |seed| {
            let (mut w, a, b) = faulty_world(LinkFaults::dropping(0.3), seed);
            let dest = w.ports.allocate(b);
            for i in 0..30 {
                let msg = Message::new(MsgKind::User(i), dest).with_no_ious(true);
                w.fabric
                    .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                    .unwrap();
            }
            (
                w.fabric.reliability.clone(),
                w.clock.now(),
                w.fabric.ledger.total(),
            )
        };
        assert_eq!(run(99), run(99), "same seed, same faults");
        assert_ne!(
            run(99).0,
            run(100).0,
            "different seeds draw different faults"
        );
    }

    #[test]
    fn fault_round_trip_survives_heavy_loss() {
        // The COR fault path (request forwarded through a stand-in chain,
        // reply renamed) completes under 30% drop + duplicates.
        let faults = LinkFaults {
            drop: 0.3,
            duplicate: 0.2,
            ..LinkFaults::default()
        };
        let (mut w, a, b) = faulty_world(faults, 21);
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..4)
            .map(|i| Frame::new(page_from_bytes(&[0x40 + i as u8])))
            .collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected Iou");
        };
        let pager_port = w.ports.allocate(b);
        let backer = w.segs.backing_port(stand_in).unwrap();
        let req = protocol::imag_read_request(backer, pager_port, stand_in, 2, 1)
            .with_seq(7)
            .with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, b, req)
            .unwrap();
        w.fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        let reply = w
            .ports
            .dequeue(pager_port)
            .unwrap()
            .expect("reply expected despite loss");
        match protocol::parse(&reply) {
            Some(ProtocolMsg::ImagReadReply {
                seg,
                offset,
                frames,
                seq,
            }) => {
                assert_eq!(seg, stand_in);
                assert_eq!(offset, 2);
                assert_eq!(seq, 7, "reply echoes the request's sequence number");
                frames[0].with(|d| assert_eq!(d[0], 0x42));
            }
            other => panic!("bad reply: {other:?}"),
        }
    }

    #[test]
    fn journal_records_injected_faults() {
        let (mut w, a, b) = faulty_world(LinkFaults::dropping(0.3), 7);
        w.fabric.journal = Some(Journal::new());
        let dest = w.ports.allocate(b);
        for i in 0..20 {
            let msg = Message::new(MsgKind::User(i), dest).with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        }
        let j = w.fabric.journal.as_ref().unwrap();
        assert_eq!(
            j.of_kind("net-drop").count() as u64,
            w.fabric.reliability.drops_injected.get(),
            "every injected drop is journaled"
        );
        assert!(j.of_kind("net-drop").count() > 0);
    }

    #[test]
    fn crashed_peer_fails_fast_without_backoff() {
        // Regression test for the fast-fail latency: a send toward a node
        // already marked crashed must abort instantly, not walk the full
        // exponential-backoff ladder the way SourceUnreachable does.
        let (mut w, a, b) = world();
        w.fabric.crash_node(w.clock.now(), &mut w.ports, b, false);
        assert!(w.fabric.is_crashed(b));
        let dest = w.ports.allocate(b);
        let before = w.clock.now();
        let err = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(1), dest).with_no_ious(true),
            )
            .unwrap_err();
        assert_eq!(err, NetError::NodeDown { from: a, to: b });
        assert_eq!(w.clock.now(), before, "fast-fail consumes no virtual time");
        assert_eq!(w.fabric.reliability.crash_fast_fails.get(), 1);
        assert_eq!(w.fabric.reliability.stall_time, SimDuration::ZERO);
        assert_eq!(w.fabric.reliability.retransmissions.get(), 0);
    }

    #[test]
    fn at_time_crash_fires_and_purges_queues() {
        let (mut w, a, b) = world();
        w.fabric.journal = Some(Journal::new());
        w.fabric.params.crashes = Some(crate::CrashPlan::at_time(
            1,
            b,
            SimTime::from_millis(500),
        ));
        let dest = w.ports.allocate(b);
        // Delivered before the crash instant: sits in b's queue.
        w.fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(1), dest).with_no_ious(true),
            )
            .unwrap();
        assert_eq!(w.ports.queue_len(dest), 1);
        w.clock.advance(SimDuration::from_secs(1));
        // First network activity past the fire time lands the crash.
        let err = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(2), dest).with_no_ious(true),
            )
            .unwrap_err();
        assert_eq!(err, NetError::NodeDown { from: a, to: b });
        assert!(w.fabric.is_crashed(b));
        assert_eq!(w.ports.queue_len(dest), 0, "in-flight delivery died");
        assert_eq!(w.fabric.reliability.node_crashes.get(), 1);
        assert_eq!(w.fabric.reliability.crash_dropped_messages.get(), 1);
        let j = w.fabric.journal.as_ref().unwrap();
        assert_eq!(j.of_kind("net-crash").count(), 1);
        assert_eq!(j.of_kind("net-node-down").count(), 1);
    }

    #[test]
    fn mid_backoff_crash_aborts_instead_of_exhausting_retries() {
        // Peer dies while the sender is in retransmission backoff: the
        // retry loop must notice and abort instead of burning the full
        // budget (about 12.8 s of stall at the default parameters).
        let (mut w, a, b) = faulty_world(LinkFaults::dropping(1.0), 3);
        w.fabric.params.crashes = Some(crate::CrashPlan::at_time(
            1,
            b,
            SimTime::from_millis(40),
        ));
        let dest = w.ports.allocate(b);
        let err = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(1), dest).with_no_ious(true),
            )
            .unwrap_err();
        assert_eq!(err, NetError::NodeDown { from: a, to: b });
        let budget = w.fabric.params.retry_budget;
        assert!(
            w.fabric.reliability.retransmissions.get() < budget as u64 - 1,
            "aborted early, not at budget exhaustion"
        );
        assert_eq!(w.fabric.reliability.unreachable_failures.get(), 0);
        assert!(
            w.fabric.reliability.stall_time < SimDuration::from_secs(1),
            "stalled {:?}, expected far below the full backoff ladder",
            w.fabric.reliability.stall_time
        );
    }

    #[test]
    fn after_messages_trigger_kills_the_node() {
        let (mut w, a, b) = world();
        w.fabric.params.crashes = Some(crate::CrashPlan::after_messages(1, b, 3));
        let dest = w.ports.allocate(b);
        for i in 0..3 {
            w.fabric
                .send(
                    &mut w.clock,
                    &mut w.ports,
                    &mut w.segs,
                    a,
                    Message::new(MsgKind::User(i), dest).with_no_ious(true),
                )
                .unwrap();
        }
        assert!(w.fabric.is_crashed(b), "third carried message was fatal");
        assert_eq!(
            w.ports.queue_len(dest),
            0,
            "everything still queued on b died with it"
        );
        let err = w
            .fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::User(9), dest).with_no_ious(true),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::NodeDown { .. }));
    }

    #[test]
    fn amnesiac_reboot_answers_but_forgets() {
        let (mut w, a, b) = world();
        let seg = w.segs.create(w.fabric.nms_port(b).unwrap(), 2);
        w.segs.add_refs(seg, 2).unwrap();
        w.fabric
            .install_cache(b, seg, vec![Frame::zeroed(), Frame::zeroed()])
            .unwrap();
        w.fabric.crash_node(w.clock.now(), &mut w.ports, b, true);
        assert!(!w.fabric.is_crashed(b), "amnesiac node is back up");
        assert_eq!(w.fabric.cached_pages_live(b), 0, "but its memory is gone");
        // It answers the wire again — with MissingData for forgotten state.
        let pager = w.ports.allocate(a);
        let req = protocol::imag_read_request(w.fabric.nms_port(b).unwrap(), pager, seg, 0, 1)
            .with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, req)
            .unwrap();
        let err = w
            .fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap_err();
        assert_eq!(err, NetError::MissingData { seg, offset: 0 });
    }

    #[test]
    fn disk_backer_survives_the_crash() {
        let (mut w, _, b) = world();
        let seg = w.segs.create(w.fabric.nms_port(b).unwrap(), 4);
        w.fabric
            .disk_install_page(b, seg, 0, Frame::new(page_from_bytes(&[0xAA])));
        w.fabric
            .disk_install_page(b, seg, 1, Frame::new(page_from_bytes(&[0xBB])));
        w.fabric.crash_node(w.clock.now(), &mut w.ports, b, false);
        assert!(w.fabric.is_crashed(b));
        assert_eq!(w.fabric.disk_pages(b), 2, "disk outlives the node");
        assert!(w.fabric.disk_has(b, seg, 0));
        assert!(!w.fabric.disk_has(b, seg, 2));
        let frames = w.fabric.disk_recover(b, seg, 0, 2).expect("both pages");
        frames[0].with(|d| assert_eq!(d[0], 0xAA));
        frames[1].with(|d| assert_eq!(d[0], 0xBB));
        assert!(
            w.fabric.disk_recover(b, seg, 0, 3).is_none(),
            "a hole anywhere in the range fails the whole read"
        );
    }

    #[test]
    fn resolve_owed_tracks_offsets_through_standins() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let frames: Vec<Frame> = (0..4).map(|_| Frame::zeroed()).collect();
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames,
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected Iou");
        };
        let (node, seg, off) = w
            .fabric
            .resolve_owed(&w.ports, &w.segs, stand_in, 2)
            .unwrap();
        assert_eq!(node, a, "the data really lives in a's NMS cache");
        assert_ne!(seg, stand_in, "resolution followed the forward entry");
        assert_eq!(off, 2);
        // The resolution agrees with ultimate_backer on the node.
        assert_eq!(
            w.fabric.ultimate_backer(&w.ports, &w.segs, stand_in).unwrap(),
            node
        );
    }

    #[test]
    fn drain_accounting_redirects_the_ledger() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        w.fabric.set_drain_accounting(true);
        w.fabric
            .send(
                &mut w.clock,
                &mut w.ports,
                &mut w.segs,
                a,
                Message::new(MsgKind::ImagReadRequest, dest).with_no_ious(true),
            )
            .unwrap();
        w.fabric.set_drain_accounting(false);
        assert!(w.fabric.ledger.total_for(LedgerCategory::Drain) > 0);
        assert_eq!(
            w.fabric.ledger.total_for(LedgerCategory::FaultSupport),
            0,
            "drained traffic stays out of the paper's categories"
        );
    }

    #[test]
    fn duplicate_reply_pages_dedup_into_one_frame() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        // Two replies carrying byte-identical pages (a retransmission, or
        // the same hot page fetched twice).
        for _ in 0..2 {
            let msg = Message::new(MsgKind::ImagReadReply, dest)
                .push(MsgItem::Pages {
                    base_page: 0,
                    frames: vec![Frame::new(page_from_bytes(b"hot page"))],
                })
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        }
        assert_eq!(w.fabric.reliability.dedup_hits.get(), 1);
        // Both delivered messages hold the *same* frame: the second reply
        // was substituted with the copy node b already interned.
        let first = w.ports.dequeue(dest).unwrap().unwrap();
        let second = w.ports.dequeue(dest).unwrap().unwrap();
        let frame_of = |m: &Message| match &m.items[0] {
            MsgItem::Pages { frames, .. } => frames[0].clone(),
            other => panic!("unexpected item {other:?}"),
        };
        let (f1, f2) = (frame_of(&first), frame_of(&second));
        assert!(f1.is_shared(), "deduped frames share storage");
        assert!(f1.same_contents(&f2));
        f1.with(|d| assert_eq!(&d[..8], b"hot page"));
    }

    #[test]
    fn dedup_never_substitutes_different_contents() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        for byte in [1u8, 2u8] {
            let msg = Message::new(MsgKind::ImagReadReply, dest)
                .push(MsgItem::Pages {
                    base_page: 0,
                    frames: vec![Frame::new(page_from_bytes(&[byte]))],
                })
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        }
        assert_eq!(w.fabric.reliability.dedup_hits.get(), 0);
        let first = w.ports.dequeue(dest).unwrap().unwrap();
        let second = w.ports.dequeue(dest).unwrap().unwrap();
        for (m, byte) in [(&first, 1u8), (&second, 2u8)] {
            match &m.items[0] {
                MsgItem::Pages { frames, .. } => frames[0].with(|d| assert_eq!(d[0], byte)),
                other => panic!("unexpected item {other:?}"),
            }
        }
    }

    #[test]
    fn crash_wipes_the_dedup_table() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let send_reply = |w: &mut World| {
            let msg = Message::new(MsgKind::ImagReadReply, dest)
                .push(MsgItem::Pages {
                    base_page: 0,
                    frames: vec![Frame::new(page_from_bytes(b"survivor"))],
                })
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
                .unwrap();
        };
        send_reply(&mut w);
        // Amnesiac reboot: b answers the wire again, minus everything it
        // knew — including the dedup table.
        w.fabric.crash_node(w.clock.now(), &mut w.ports, b, true);
        send_reply(&mut w);
        // The post-crash reply found an empty table: no hit.
        assert_eq!(w.fabric.reliability.dedup_hits.get(), 0);
    }

    /// Sends one `ImagReadReply` carrying `frames` from `a` toward a port
    /// on the node that owns `dest`, so the receiver's dedup table interns
    /// (or hits) every frame.
    fn send_reply_frames(w: &mut World, from: NodeId, dest: PortId, frames: Vec<Frame>) {
        let msg = Message::new(MsgKind::ImagReadReply, dest)
            .push(MsgItem::Pages {
                base_page: 0,
                frames,
            })
            .with_no_ious(true);
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, from, msg)
            .unwrap();
    }

    #[test]
    fn dedup_table_evicts_lru_at_cap_deterministically() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let page_for = |i: u64| Frame::new(page_from_bytes(&i.to_le_bytes()));
        // Fill b's table exactly to the cap with distinct pages.
        let mut i = 0u64;
        while i < DEDUP_CAP_PAGES {
            let chunk: Vec<Frame> = (i..(i + 64).min(DEDUP_CAP_PAGES)).map(page_for).collect();
            i += chunk.len() as u64;
            send_reply_frames(&mut w, a, dest, chunk);
        }
        assert_eq!(w.fabric.reliability.dedup_evictions.get(), 0);
        // Refresh page 0: the hit bumps its recency stamp past page 1's.
        send_reply_frames(&mut w, a, dest, vec![page_for(0)]);
        assert_eq!(w.fabric.reliability.dedup_hits.get(), 1);
        // Insert one more page at the cap: the LRU entry — page 1, not the
        // just-refreshed page 0 — is evicted, deterministically.
        send_reply_frames(&mut w, a, dest, vec![page_for(DEDUP_CAP_PAGES)]);
        assert_eq!(w.fabric.reliability.dedup_evictions.get(), 1);
        send_reply_frames(&mut w, a, dest, vec![page_for(0)]);
        assert_eq!(
            w.fabric.reliability.dedup_hits.get(),
            2,
            "the refreshed entry survived the eviction"
        );
        send_reply_frames(&mut w, a, dest, vec![page_for(1)]);
        assert_eq!(
            w.fabric.reliability.dedup_hits.get(),
            2,
            "the least-recently-used entry was the one evicted"
        );
    }

    #[test]
    fn crash_wipes_dedup_entries_interned_from_the_dead_node() {
        let mut w = fleet_world(WireParams::default(), 3);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let dest = w.ports.allocate(b);
        // b interns a page from a's reply…
        send_reply_frames(&mut w, a, dest, vec![Frame::new(page_from_bytes(b"from a"))]);
        // …then a dies. b's own table survives the crash of a *different*
        // node, but every entry a's replies contributed must go: a dead
        // (possibly amnesiac-rebooted) source cannot keep vouching for
        // bytes.
        w.fabric.crash_node(w.clock.now(), &mut w.ports, a, false);
        send_reply_frames(&mut w, c, dest, vec![Frame::new(page_from_bytes(b"from a"))]);
        assert_eq!(
            w.fabric.reliability.dedup_hits.get(),
            0,
            "the dead node's contribution was wiped, not re-used"
        );
    }

    #[test]
    fn replicate_backing_spreads_pages_and_replica_read_fails_over() {
        let mut params = WireParams::default();
        params.replication = Some(crate::ReplicationParams::primary_backup(2, 7));
        let mut w = fleet_world(params, 4);
        let primary = NodeId(0);
        let seg = SegmentId(91);
        let frames: Vec<Frame> = (0..5u64)
            .map(|i| Frame::new(page_from_bytes(&[i as u8 + 1])))
            .collect();
        let installed = w
            .fabric
            .replicate_backing(&mut w.clock, primary, seg, &frames)
            .unwrap();
        assert_eq!(installed, 10, "5 pages × factor 2");
        let homes: Vec<NodeId> = w.fabric.replica_homes_of(seg).to_vec();
        assert_eq!(homes.len(), 2);
        assert!(!homes.contains(&primary), "the primary is not its own replica");
        for &h in &homes {
            assert_eq!(w.fabric.replica_pages(h), 5);
        }
        assert!(
            w.fabric.ledger.total_for(LedgerCategory::Replicate) > 0,
            "write-through bytes land in their own category"
        );
        assert_eq!(w.fabric.ledger.total_for(LedgerCategory::Bulk), 0);
        // The install is fire-and-forget: the foreground clock never moved.
        assert_eq!(w.clock.now(), SimTime::ZERO);
        // The requester is the one node that is neither primary nor
        // replica (4 nodes, 1 primary, 2 replicas → exactly one).
        let requester = (1..4).map(NodeId).find(|n| !homes.contains(n)).unwrap();
        // Primary up, PrimaryBackup mode: the primary still answers.
        assert!(w
            .fabric
            .replica_read(&mut w.clock, requester, primary, seg, 0, 2)
            .is_none());
        // Primary down: the nearest live replica serves the same bytes,
        // flagged as a failover, with the fetch latency on the clock.
        w.fabric.crash_node(w.clock.now(), &mut w.ports, primary, false);
        let before = w.clock.now();
        let (replica, got, failover) = w
            .fabric
            .replica_read(&mut w.clock, requester, primary, seg, 0, 2)
            .expect("a live replica must answer");
        assert!(failover);
        assert!(homes.contains(&replica));
        assert_eq!(got.len(), 2);
        assert!(got[0].same_contents(&frames[0]));
        assert!(got[1].same_contents(&frames[1]));
        assert!(w.clock.now() > before, "the failover fetch costs real time");
        assert_eq!(w.fabric.reliability.failover_fetches.get(), 1);
        assert_eq!(w.fabric.reliability.failover_pages.get(), 2);
        // Kill every home: content-addressed resolution has nowhere left
        // to go, and the caller falls through to the next recovery rung.
        for &h in &homes {
            w.fabric.crash_node(w.clock.now(), &mut w.ports, h, false);
        }
        assert!(w
            .fabric
            .replica_read(&mut w.clock, requester, primary, seg, 0, 2)
            .is_none());
        assert!(!w.fabric.replica_live_elsewhere(primary, seg, 0));
    }

    #[test]
    fn replica_placement_is_deterministic_per_segment() {
        let mut params = WireParams::default();
        params.replication = Some(crate::ReplicationParams::quorum(2, 0xABCD));
        let build = || {
            let mut w = fleet_world(params.clone(), 6);
            let frames = vec![Frame::new(page_from_bytes(b"page"))];
            for seg in [SegmentId(1), SegmentId(2), SegmentId(3)] {
                w.fabric
                    .replicate_backing(&mut w.clock, NodeId(0), seg, &frames)
                    .unwrap();
            }
            [SegmentId(1), SegmentId(2), SegmentId(3)]
                .map(|s| w.fabric.replica_homes_of(s).to_vec())
        };
        let first = build();
        assert_eq!(first, build(), "same seed, same placement, run over run");
        assert!(
            first.iter().any(|h| h != &first[0]),
            "segments spread independently: {first:?}"
        );
    }
}
