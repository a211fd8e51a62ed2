//! The distributed-system data path: wire + NetMsgServers.
//!
//! [`Fabric`] is the orchestrator: it owns the wire parameters, the ledger
//! and the counters, and runs the send pipeline and the pump. Everything
//! with state of its own sits behind one of five components, each private
//! to its module — link reliability (`reliability.rs`), routing and link
//! charging (`route.rs`), the per-node NetMsgServers (`nms.rs`), page-home
//! replication (`replica.rs`) and crash state (`crash.rs`).

use std::collections::BTreeSet;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortRegistry;
use cor_ipc::protocol;
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::space::SegmentId;
use cor_sim::{Clock, Ledger, LedgerCategory, ReliabilityStats, SimDuration, SimTime};
use cor_trace::{Journal, SpanId, TraceEvent};

use crate::crash::CrashState;
use crate::error::NetError;
use crate::nms::NmsTable;
use crate::params::WireParams;
use crate::reliability::LinkLayer;
use crate::replica::ReplicaDirectory;
use crate::route::Links;

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

/// What one transfer between two nodes costs, for
/// [`Fabric::charge_transfer`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    /// What the crossing `from → to` carries.
    pub(crate) kind: MsgKind,
    /// Its wire bytes.
    pub(crate) bytes: u64,
    /// Kind and wire bytes of the reply crossing `to → from`, when a
    /// round trip is charged as one transfer.
    pub(crate) back: Option<(MsgKind, u64)>,
    /// Message-handling CPU billed to *each* endpoint.
    pub(crate) cpu: SimDuration,
    pub(crate) category: LedgerCategory,
    /// Detached transfers account bytes but never stall the caller.
    pub(crate) detached: bool,
}

/// The network fabric: wire model, ledger, and one NetMsgServer per node.
///
/// All methods take the world's [`Clock`], [`PortRegistry`] and
/// [`SegmentRegistry`] explicitly; the fabric owns only its own state, so
/// the kernel crate can hold everything side by side without aliasing.
#[derive(Debug, Default)]
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
    /// `net-death-lost`), plus `wire-send`/`xmit-attempt`
    /// causal spans around every remote delivery. Install a [`Journal`]
    /// to record.
    pub journal: Option<Journal>,
    /// Cross-journal span parent for wire spans: the kernel points this
    /// at its open fault span before a copy-on-reference round trip, so
    /// the fabric's `wire-send` spans (including relay hops served
    /// during the settle) hang under the fault in a merged trace.
    trace_parent: SpanId,
    pub(crate) stats: FabricStats,
    /// While set, wire traffic is ledgered as [`LedgerCategory::Drain`]
    /// instead of its semantic category ([`Fabric::set_drain_accounting`]).
    drain_accounting: bool,
    /// One NetMsgServer per registered node.
    pub(crate) nms: NmsTable,
    /// Sequence numbers, the injection RNG, limbo.
    pub(crate) link: LinkLayer,
    /// Per-link busy times and traffic, under a routed topology.
    pub(crate) links: Links,
    /// Where replicated pages live.
    pub(crate) replicas: ReplicaDirectory,
    /// Who is down, who forgot, which triggers fired, the disk backers.
    pub(crate) crash: CrashState,
}

/// The ledger category of a message's wire bytes. While `draining`, all
/// traffic is drain traffic, so background draining and recovery never
/// pollute the paper's byte accounting.
fn category_for(kind: MsgKind, draining: bool) -> LedgerCategory {
    match kind {
        _ if draining => LedgerCategory::Drain,
        MsgKind::ImagReadRequest | MsgKind::ImagReadReply => LedgerCategory::FaultSupport,
        MsgKind::Core | MsgKind::Rimas | MsgKind::PreCopyRound => LedgerCategory::Bulk,
        _ => LedgerCategory::Control,
    }
}

impl Fabric {
    /// Creates a fabric with the given wire parameters.
    pub fn new(params: WireParams) -> Self {
        Fabric {
            params,
            ..Fabric::default()
        }
    }

    /// Records a fault-layer journal event if a journal is installed.
    pub(crate) fn note(&mut self, at: SimTime, event: impl FnOnce() -> TraceEvent) {
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
    pub(crate) fn span_start(&mut self, at: SimTime, name: &'static str, node: NodeId) -> SpanId {
        let parent = self.trace_parent;
        match &mut self.journal {
            Some(j) => j.span_start_under(at, name, Some(node), parent),
            None => SpanId::NONE,
        }
    }

    /// Closes a wire span (no-op for [`SpanId::NONE`]); still-open
    /// children close with it.
    pub(crate) fn span_end(&mut self, at: SimTime, id: SpanId) {
        if let Some(j) = &mut self.journal {
            j.span_end(at, id);
        }
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
        self.fire_due_crashes(clock.now(), ports, None);
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
        self.nms_port(from)?;
        self.nms_port(dest_home)?;
        let kind = msg.kind;
        // Fast-fail against a known-dead peer: no transmission attempt and
        // no retransmit backoff — there is nobody to acknowledge.
        if self.is_crashed(dest_home) {
            return Err(self.node_down(clock.now(), from, dest_home, kind));
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
        let payload = msg.wire_size();
        let is_run = |i: &&MsgItem| matches!(i, MsgItem::Pages { .. });
        let runs = msg.items.iter().filter(is_run).count() as u64;
        let category = category_for(kind, self.drain_accounting);
        let wire = self.one_way(from, dest_home, kind, payload, category, detached);
        let xmit = if detached {
            self.params.local_delivery
        } else {
            self.params.xmit_time(payload, runs)
        };
        // Every exit of the delivery closes the send span at the instant
        // it happened: no step advances the clock after it fails.
        let send_span = self.span_start(start, "wire-send", from);
        let delivered = self.deliver(clock, ports, segs, &wire, xmit, msg);
        self.span_end(clock.now(), send_span);
        debug_assert!(
            self.retransmit_accounting_consistent(),
            "ledger retransmit bytes must match the bytes implied by attempts"
        );
        if let Err(NetError::NodeDown { .. }) = delivered {
            // The peer died mid-backoff ([`Fabric::transmit`]).
            return Err(self.node_down(clock.now(), from, dest_home, kind));
        }
        delivered.map(|()| SendReport {
            wire_bytes: wire.bytes,
            elapsed: clock.now().since(start),
            remote: true,
        })
    }

    /// Steps 2–4 of a remote send, between the opening and the closing of
    /// its `wire-send` span: transmission through the fault-injection
    /// layer, incoming translation, delivery.
    fn deliver(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        wire: &Transfer,
        xmit: SimDuration,
        mut msg: Message,
    ) -> Result<(), NetError> {
        let (from, to) = (wire.from, wire.to);
        let faults = match &self.params.faults {
            Some(plan) => self.link.arm(plan),
            None => None,
        };
        // 2. Transmission. Under a routed topology the attempt that gets
        // through traverses its deterministic multi-hop route: bytes are
        // billed to every link crossed, each hop beyond the first adds
        // store-and-forward latency, and a still-busy link queues the
        // delivery.
        self.transmit(clock, ports, wire, xmit, faults)?;
        self.stats.msgs_remote += 1;
        if let Some(faults) = faults {
            self.inject_on_delivery(clock, wire, faults);
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
                    ports.relocate(right.port, to)?;
                }
            }
        }
        self.translate_incoming(ports, segs, to, &mut msg)?;
        // 4. Delivery, unless reorder injection holds it back.
        self.enqueue_or_hold(clock, ports, wire, faults, msg)?;
        // Count the carried message against both endpoints last, so an
        // `AfterMessages` trigger reached by this very delivery purges it
        // (it died on the crashing node) before anyone consumes it.
        self.fire_due_crashes(clock.now(), ports, Some((from, to)));
        Ok(())
    }

    /// The cost of carrying one `payload`-byte message `from → to`.
    pub(crate) fn one_way(
        &self,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        payload: u64,
        category: LedgerCategory,
        detached: bool,
    ) -> Transfer {
        Transfer {
            from,
            to,
            kind,
            bytes: self.params.wire_bytes(payload),
            back: None,
            cpu: self.params.handling_cpu(payload),
            category,
            detached,
        }
    }

    /// The one charged transfer: ledgers its wire bytes under its
    /// category, spread over `[since, until]`; bills its handling CPU to
    /// both endpoints; and routes each crossing over the topology, which
    /// may queue behind busy links and advance the clock.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] when the topology does not span an
    /// endpoint; the receiving side is then never billed.
    pub(crate) fn charge_transfer(
        &mut self,
        clock: &mut Clock,
        since: SimTime,
        until: SimTime,
        t: &Transfer,
    ) -> Result<(), NetError> {
        let bytes = t.bytes + t.back.map_or(0, |(_, bytes)| bytes);
        self.record_spread(since, until, bytes, t.category);
        self.charge_cpu(t.from, t.cpu);
        self.route_and_charge(clock, t.from, t.to, t.kind, t.bytes, t.detached)?;
        if let Some((kind, bytes)) = t.back {
            self.route_and_charge(clock, t.to, t.from, kind, bytes, t.detached)?;
        }
        self.charge_cpu(t.to, t.cpu);
        Ok(())
    }

    /// Records `bytes` spread across the transmission interval (in
    /// one-second chunks) so rate-over-time views see the flow, not a
    /// spike at completion.
    pub(crate) fn record_spread(
        &mut self,
        from: SimTime,
        to: SimTime,
        bytes: u64,
        category: LedgerCategory,
    ) {
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
            self.drop_replicas(seg);
            self.drop_disk_pages(seg);
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
            self.fire_due_crashes(clock.now(), ports, None);
            // Release anything reorder injection is still holding, so a
            // pump always drains the wire completely.
            self.flush_limbo(ports)?;
            // A crash mid-flight strands coalesced waiters whose upstream
            // fetch died with the peer: unpark them (re-routing through a
            // live replica when one holds the pages) so no pump leaves
            // the pending-interest table pointing at a dead node. Gated on
            // any node having *ever* crashed: an amnesiac reboot is no
            // longer down but the purged in-flight fetch is just as
            // unanswerable.
            if self.params.coalesce && self.any_lost_volatile_state() {
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
                    self.nms.nodes().all(|n| self.is_crashed(n)
                        || self.nms_port(n).is_ok_and(|p| ports.queue_len(p) == 0)),
                    "pump went quiescent with a live NMS queue non-empty"
                );
                return Ok(processed);
            }
        }
    }

    /// The fast-fail path: records and reports a send aborted because the
    /// peer is known dead — no transmission attempt, no backoff.
    fn node_down(&mut self, now: SimTime, from: NodeId, to: NodeId, kind: MsgKind) -> NetError {
        self.reliability.crash_fast_fails.incr();
        self.note(now, || TraceEvent::NetNodeDown {
            msg: kind,
            from,
            to,
        });
        NetError::NodeDown { from, to }
    }

    /// While enabled, every wire transmission is ledgered as
    /// [`LedgerCategory::Drain`] regardless of message kind (retransmits
    /// keep their own category). The kernel brackets background draining
    /// and crash-recovery work with this so the paper's byte categories
    /// stay clean.
    pub fn set_drain_accounting(&mut self, on: bool) {
        self.drain_accounting = on;
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &FabricStats {
        &self.stats
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

    /// Validates the installed plans against the registered node set: a
    /// topology must cover every node, and crash events must name
    /// registered nodes. Call after building an N-node world to surface a
    /// mis-wired plan as a typed error up front rather than as silent
    /// defaulting later.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] naming the first unregistered node.
    pub fn validate_plans(&self) -> Result<(), NetError> {
        let registered: BTreeSet<NodeId> = self.nms.nodes().collect();
        if let Some(topo) = &self.params.topology {
            if let Some(&n) = registered.iter().find(|&&n| !topo.contains(n)) {
                return Err(NetError::UnknownNode(n));
            }
        }
        self.params.crashes.validate(&registered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_ipc::message::INLINE_THRESHOLD;
    use cor_ipc::protocol::ProtocolMsg;
    use cor_mem::page::{page_from_bytes, Frame};

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
        // A crash aimed at an unregistered node.
        let w = fleet_world(
            WireParams {
                crashes: crate::CrashPlan::at_time(NodeId(9), SimTime::ZERO),
                ..WireParams::default()
            },
            2,
        );
        assert_eq!(
            w.fabric.validate_plans(),
            Err(NetError::UnknownNode(NodeId(9)))
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
    fn without_coalescing_the_latest_relay_waiter_wins() {
        let (mut w, a, b) = world();
        let dest = w.ports.allocate(b);
        let msg = Message::new(MsgKind::Rimas, dest).push(MsgItem::Pages {
            base_page: 0,
            frames: vec![Frame::new(page_from_bytes(b"p0"))],
        });
        w.fabric
            .send(&mut w.clock, &mut w.ports, &mut w.segs, a, msg)
            .unwrap();
        let got = w.ports.dequeue(dest).unwrap().unwrap();
        let MsgItem::Iou { seg: stand_in, .. } = got.items[0] else {
            panic!("expected Iou");
        };
        // Two faulters on b ask the stand-in for the same page before the
        // relay hears back: the second waiter replaces the first, so only
        // it is answered, and the first fetch's reply comes back stale.
        let backer = w.segs.backing_port(stand_in).unwrap();
        let pagers = [w.ports.allocate(b), w.ports.allocate(b)];
        for (seq, &pager) in (1..).zip(&pagers) {
            let req = protocol::imag_read_request(backer, pager, stand_in, 0, 1)
                .with_seq(seq)
                .with_no_ious(true);
            w.fabric
                .send(&mut w.clock, &mut w.ports, &mut w.segs, b, req)
                .unwrap();
        }
        w.fabric
            .pump(&mut w.clock, &mut w.ports, &mut w.segs)
            .unwrap();
        assert_eq!(w.ports.queue_len(pagers[0]), 0, "the replaced waiter");
        let reply = w.ports.dequeue(pagers[1]).unwrap().expect("latest waiter");
        assert!(matches!(
            protocol::parse(&reply),
            Some(ProtocolMsg::ImagReadReply { seq: 2, .. })
        ));
        assert_eq!(w.fabric.reliability.stale_replies.get(), 1);
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
            "the link layer drops every duplicate"
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
        w.fabric.params.crashes = crate::CrashPlan::at_time(b, SimTime::from_millis(500));
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
        w.fabric.params.crashes = crate::CrashPlan::at_time(b, SimTime::from_millis(40));
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
        w.fabric.params.crashes = crate::CrashPlan::after_messages(b, 3);
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
        let page = |o| w.fabric.disk_recover(b, seg, o).expect("page on disk");
        page(0).with(|d| assert_eq!(d[0], 0xAA));
        page(1).with(|d| assert_eq!(d[0], 0xBB));
        assert!(
            w.fabric.disk_recover(b, seg, 2).is_none(),
            "a hole reads nothing"
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
    fn replicate_backing_spreads_pages_and_replica_read_fails_over() {
        let params = WireParams {
            replication: crate::ReplicationParams::primary_backup(2, 7),
            ..WireParams::default()
        };
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
        let homes: Vec<NodeId> = w.fabric.replicas.homes_of(seg).to_vec();
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
        // Kill every home: the read has nowhere left to go, and the caller
        // falls through to the next recovery rung.
        for &h in &homes {
            w.fabric.crash_node(w.clock.now(), &mut w.ports, h, false);
        }
        assert!(w
            .fabric
            .replica_read(&mut w.clock, requester, primary, seg, 0, 2)
            .is_none());
        assert!(!w.fabric.replica_live_elsewhere(primary, seg, 0));
    }

    /// Two pages with unequal bytes and one content hash. The page hash
    /// folds word 0 and then word 4 into lane 0, so a word 4 that differs
    /// by exactly what word 0 did to the lane state cancels the difference.
    fn colliding_pages() -> (Frame, Frame) {
        const K0: u64 = 0x9e37_79b9_7f4a_7c15;
        let lane = |w: u64| {
            let product = u128::from(K0 ^ w) * u128::from(K0);
            product as u64 ^ (product >> 64) as u64
        };
        let page = |w0: u64, w4: u64| {
            let mut bytes = [0u8; 40];
            bytes[..8].copy_from_slice(&w0.to_le_bytes());
            bytes[32..].copy_from_slice(&w4.to_le_bytes());
            Frame::new(page_from_bytes(&bytes))
        };
        (page(1, 0), page(2, lane(1) ^ lane(2)))
    }

    /// A replica home names each page by segment and offset, so two
    /// segments whose pages share a content hash each get their own bytes
    /// back on failover.
    #[test]
    fn a_failover_read_serves_the_segment_asked_for_under_a_hash_collision() {
        let (a, b) = colliding_pages();
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(!a.same_contents(&b));
        let params = WireParams {
            replication: crate::ReplicationParams::primary_backup(1, 7),
            ..WireParams::default()
        };
        let mut w = fleet_world(params, 2);
        let (primary, home) = (NodeId(0), NodeId(1));
        for (seg, page) in [(SegmentId(5), &a), (SegmentId(6), &b)] {
            let pages = std::slice::from_ref(page);
            w.fabric
                .replicate_backing(&mut w.clock, primary, seg, pages)
                .unwrap();
        }
        assert_eq!(w.fabric.replica_pages(home), 2);
        w.fabric.crash_node(w.clock.now(), &mut w.ports, primary, false);
        for (seg, page) in [(SegmentId(5), &a), (SegmentId(6), &b)] {
            let (replica, got, failover) = w
                .fabric
                .replica_read(&mut w.clock, home, primary, seg, 0, 1)
                .expect("the home holds both segments");
            assert!(failover && replica == home);
            let own = got[0].same_contents(page);
            assert!(own, "{seg:?} got another segment's bytes");
        }
    }

    #[test]
    fn replica_placement_is_deterministic_per_segment() {
        let params = WireParams {
            replication: crate::ReplicationParams::quorum(2, 0xABCD),
            ..WireParams::default()
        };
        let build = || {
            let mut w = fleet_world(params.clone(), 6);
            let frames = vec![Frame::new(page_from_bytes(b"page"))];
            for seg in [SegmentId(1), SegmentId(2), SegmentId(3)] {
                w.fabric
                    .replicate_backing(&mut w.clock, NodeId(0), seg, &frames)
                    .unwrap();
            }
            [SegmentId(1), SegmentId(2), SegmentId(3)]
                .map(|s| w.fabric.replicas.homes_of(s).to_vec())
        };
        let first = build();
        assert_eq!(first, build(), "same seed, same placement, run over run");
        assert!(
            first.iter().any(|h| h != &first[0]),
            "segments spread independently: {first:?}"
        );
    }
}
