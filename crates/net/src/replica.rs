//! Page-home replication: the placement draw, the replica directory,
//! nearest-live-home selection, and the write-through and read paths built
//! on them. A replica home holds each replicated segment by name, in its
//! NetMsgServer's `replicas` store, and serves a read of `count` pages of
//! the segment from an offset exactly as the primary would.

use cor_ipc::message::MsgKind;
use cor_ipc::protocol;
use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_mem::SegmentStore;
use cor_sim::{Clock, IdMap, LedgerCategory, Pcg32};
use cor_trace::TraceEvent;

use crate::error::NetError;
use crate::fabric::{Fabric, Transfer};
use crate::params::{ReplicationMode, ReplicationParams};

/// Replica-placement RNG stream, disjoint from the fault, crash and
/// kernel placement streams so enabling replication never perturbs any
/// other seeded draw.
const REPLICA_STREAM: u64 = 0x9E_0F;

/// Where replicated pages live, one entry per live segment replicated at
/// f > 0. Entries survive crashes — liveness is checked at lookup time,
/// which is what makes the failover ladder's "all homes down" outcome
/// reachable.
#[derive(Debug, Default)]
pub(crate) struct ReplicaDirectory {
    /// Origin segment → the replica nodes its pages were write-through
    /// installed on (primary excluded).
    homes: IdMap<SegmentId, Vec<NodeId>>,
}

impl ReplicaDirectory {
    /// The deterministic replica homes for `seg` with primary `primary`:
    /// a seeded draw of up to `rep.factor` distinct nodes from
    /// `registered` (ascending, primary excluded), keyed on the plan seed
    /// and the segment so every segment spreads independently but
    /// reproducibly.
    fn place(
        registered: impl Iterator<Item = NodeId>,
        primary: NodeId,
        seg: SegmentId,
        rep: ReplicationParams,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = registered.filter(|&n| n != primary).collect();
        let mut rng = Pcg32::with_stream(
            rep.seed ^ seg.0.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            REPLICA_STREAM,
        );
        let take = (rep.factor as usize).min(pool.len());
        let mut targets = Vec::with_capacity(take);
        for _ in 0..take {
            let i = rng.range(0, pool.len() as u64) as usize;
            targets.push(pool.swap_remove(i));
        }
        targets.sort_unstable();
        targets
    }

    /// The recorded replica homes of `oseg` (empty when none).
    pub(crate) fn homes_of(&self, oseg: SegmentId) -> &[NodeId] {
        self.homes.get(&oseg).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl Fabric {
    /// Write-through installs `seg`'s page backing on its replica homes
    /// (the migration page-out hook). Under a [`ReplicationParams`] plan
    /// with factor `f`, `seg` is installed on `f` replica homes under its
    /// own name, the replica directory records them, and each replica's
    /// copy is charged to the wire — bytes under
    /// [`LedgerCategory::Replicate`] (spread over the transmission
    /// interval), handling CPU at both ends, and per-link accounting
    /// when a topology is installed. The install is fire-and-forget on
    /// the virtual clock (the same discipline as segment-death notices):
    /// the migration's foreground path is never stalled by its own
    /// replication traffic. At f = 0 (the default) this does nothing.
    ///
    /// Returns the total pages installed across all replicas.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if f > 0 and `primary` was never added.
    pub fn replicate_backing(
        &mut self,
        clock: &mut Clock,
        primary: NodeId,
        seg: SegmentId,
        frames: &[Frame],
    ) -> Result<u64, NetError> {
        let rep = self.params.replication;
        if rep.factor == 0 || frames.is_empty() {
            return Ok(0);
        }
        self.nms_port(primary)?;
        let targets = ReplicaDirectory::place(self.nms.nodes(), primary, seg, rep);
        if targets.is_empty() {
            return Ok(0);
        }
        let pages = frames.len() as u64;
        let payload = pages * cor_mem::PAGE_SIZE;
        let now = clock.now();
        let arrives = now + self.params.xmit_time(payload, 1);
        // Fire-and-forget on the clock, so this span is zero-duration:
        // it marks *that* replication happened on the trace without
        // blaming the foreground path for off-clock traffic.
        let rep_span = self.span_start(now, "replicate", primary);
        // Each replica's copy is one detached transfer from the primary.
        let installed = targets.iter().try_fold(0u64, |total, &replica| {
            self.nms.replicas_mut(replica)?.insert(seg, frames.to_vec());
            let category = LedgerCategory::Replicate;
            let copy = self.one_way(primary, replica, MsgKind::Rimas, payload, category, true);
            self.charge_transfer(clock, now, arrives, &copy)?;
            self.reliability.replicated_pages.add(pages);
            self.note(now, || TraceEvent::NetReplicate {
                node: primary,
                replica,
                pages,
            });
            Ok::<u64, NetError>(total + pages)
        });
        self.span_end(clock.now(), rep_span);
        let total = installed?;
        self.replicas.homes.insert(seg, targets);
        Ok(total)
    }

    /// The *live* homes of `oseg` other than `avoid`, ascending: up, with
    /// their volatile state intact, and holding the `count` pages of `oseg`
    /// from `ooff`.
    fn live_homes(
        &self,
        avoid: NodeId,
        oseg: SegmentId,
        ooff: u64,
        count: u64,
    ) -> impl Iterator<Item = NodeId> + '_ {
        let homes = self.replicas.homes_of(oseg).iter().copied();
        let holds = move |r| self.nms.replicas(r)?.range(oseg, ooff, count);
        homes.filter(move |&r| r != avoid && !self.lost_volatile_state(r) && holds(r).is_some())
    }

    /// Whether a *live* replica other than `avoid` holds the page of
    /// `oseg` at `ooff`. The residual-dependency and lost-page
    /// accounting use this: a page with a surviving replica home is not
    /// hostage to `avoid`'s volatile state.
    pub fn replica_live_elsewhere(&self, avoid: NodeId, oseg: SegmentId, ooff: u64) -> bool {
        self.live_homes(avoid, oseg, ooff, 1).next().is_some()
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

    /// COR read against the replica directory: serves `count` pages of
    /// `oseg` starting at `ooff` from the nearest live replica home that
    /// holds them. `backer` is the page's primary home as resolved through
    /// the forwarding chain.
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
        if count == 0 || self.replicas.homes_of(oseg).is_empty() {
            return None;
        }
        let primary_down = self.lost_volatile_state(backer);
        // The nearest live home by hop count, smallest `NodeId` on a tie.
        let live = self.live_homes(backer, oseg, ooff, count);
        let (d, replica) = live
            .map(|r| (self.replica_distance(requester, r), r))
            .min()?;
        // A healthy primary keeps the read unless quorum routing finds the
        // replica strictly nearer.
        let nearer = || d < self.replica_distance(requester, backer);
        let quorum = self.params.replication.mode == ReplicationMode::Quorum;
        let serves = primary_down || (quorum && nearer());
        if !serves {
            return None;
        }
        let held = self.nms.replicas(replica)?.range(oseg, ooff, count)?;
        let frames = held.to_vec();
        let start = clock.now();
        // The replica round trip gets its own blame span: `failover` when
        // it substitutes for a down primary, `replicate` when a live
        // replica merely serves the read nearer. Link spans the routed
        // charge opens nest under it.
        let name: &'static str = if primary_down {
            "failover"
        } else {
            "replicate"
        };
        let span = self.span_start(start, name, requester);
        let fetched = self.charge_replica_fetch(clock, requester, replica, (oseg, ooff), count);
        self.span_end(clock.now(), span);
        fetched?;
        if primary_down {
            self.reliability.failover_fetches.incr();
            self.reliability.failover_pages.add(count);
            self.reliability.failover_time += clock.now().since(start);
        } else {
            self.reliability.replica_reads.incr();
        }
        Some((replica, frames, primary_down))
    }

    /// Charges fetching the `count` pages of `oseg` from `ooff` from
    /// `replica`: request out, replica NMS service, reply back — the same
    /// shape as the round trip it replaces, with real message sizes — as
    /// one transfer. `None` if the requester is unknown or a leg cannot
    /// be routed.
    fn charge_replica_fetch(
        &mut self,
        clock: &mut Clock,
        requester: NodeId,
        replica: NodeId,
        (oseg, ooff): (SegmentId, u64),
        count: u64,
    ) -> Option<()> {
        if replica == requester {
            clock.advance(self.params.local_delivery);
            return Some(());
        }
        let start = clock.now();
        let my_port = self.nms_port(requester).ok()?;
        let req_payload =
            protocol::imag_read_request(my_port, my_port, oseg, ooff, count).wire_size();
        let reply_payload = protocol::imag_read_reply_size(count);
        clock.advance(self.params.xmit_time(req_payload, 0));
        clock.advance(self.params.nms_service);
        clock.advance(self.params.xmit_time(reply_payload, 1));
        let category = LedgerCategory::Replicate;
        let request = self.one_way(
            requester,
            replica,
            MsgKind::ImagReadRequest,
            req_payload,
            category,
            false,
        );
        let round_trip = Transfer {
            back: Some((
                MsgKind::ImagReadReply,
                self.params.wire_bytes(reply_payload),
            )),
            cpu: request.cpu + self.params.handling_cpu(reply_payload),
            ..request
        };
        self.charge_transfer(clock, start, clock.now(), &round_trip)
            .ok()
    }

    /// Forgets the replicas of `seg`, whose last reference just died: its
    /// directory entry and every home's copy. No read can name the
    /// segment again, so this is bookkeeping — nothing is sent or billed.
    pub(crate) fn drop_replicas(&mut self, seg: SegmentId) {
        for home in self.replicas.homes.remove(&seg).unwrap_or_default() {
            if let Ok(store) = self.nms.replicas_mut(home) {
                store.remove(seg);
            }
        }
    }

    /// Replica pages `node` holds as a replica home.
    pub fn replica_pages(&self, node: NodeId) -> u64 {
        self.nms.replicas(node).map_or(0, SegmentStore::pages)
    }
}
