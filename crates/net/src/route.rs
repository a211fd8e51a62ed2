//! Routing and link charging: walks a delivery's deterministic route over
//! the installed [`Topology`](crate::Topology), bills every link crossed, and queues behind
//! links still busy with earlier traffic.

use std::collections::BTreeMap;

use cor_ipc::message::MsgKind;
use cor_ipc::NodeId;
use cor_sim::{Clock, IdMap, SimDuration, SimTime};
use cor_trace::TraceEvent;

use crate::error::NetError;
use crate::fabric::Fabric;
use crate::topology::LinkStats;

/// Per-directed-link state, populated only under a routed topology: the
/// instant the physical link frees up (for per-link queueing) and the
/// traffic every routed message traversing it has billed.
#[derive(Debug, Default)]
pub(crate) struct Links(IdMap<(NodeId, NodeId), (SimTime, LinkStats)>);

impl Fabric {
    /// Walks the routed topology's path for one remote crossing: per-link
    /// byte/message accounting, per-link queueing behind earlier traffic,
    /// and store-and-forward latency for every hop beyond the first (which
    /// the transmission already charged). Detached crossings account
    /// bytes but never stall the caller. Without a topology (the default)
    /// every pair is one direct wire and there is nothing to walk.
    pub(crate) fn route_and_charge(
        &mut self,
        clock: &mut Clock,
        from: NodeId,
        to: NodeId,
        kind: MsgKind,
        bytes: u64,
        detached: bool,
    ) -> Result<(), NetError> {
        let Some(topo) = self.params.topology else {
            return Ok(());
        };
        // The link holds each message for its serialization time (bytes
        // only — the fixed per-message latency is an end-to-end charge,
        // not a per-link occupancy).
        let occupancy =
            SimDuration::from_micros(bytes.saturating_mul(self.params.per_byte_ns) / 1_000);
        let depart = clock.now();
        let mut cursor = depart;
        let mut wait_total = SimDuration::ZERO;
        let mut hops = 0u32;
        let mut at = from;
        for next in topo.hops(from, to)? {
            let (busy, s) = self.links.0.entry((at, next)).or_default();
            at = next;
            let wait = busy.saturating_since(cursor);
            if wait > SimDuration::ZERO {
                cursor = *busy;
            }
            if hops > 0 {
                // Cut-through forwarding: each extra hop adds its relay
                // latency, not a full re-serialization.
                cursor += topo.hop_latency;
            }
            hops += 1;
            *busy = cursor + occupancy;
            s.msgs += 1;
            s.bytes += bytes;
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
                msg: kind,
                from,
                to,
                hops,
            });
        }
        Ok(())
    }

    /// Per-directed-link traffic table, populated only under an installed
    /// [`WireParams::topology`](crate::WireParams::topology). Collected on
    /// each call, sorted by `(from, to)`.
    pub fn link_stats(&self) -> BTreeMap<(NodeId, NodeId), LinkStats> {
        self.links.0.iter().map(|(&l, &(_, s))| (l, s)).collect()
    }

    /// Renders the per-link traffic table ([`crate::topology::link_table`]).
    pub fn link_table(&self) -> String {
        crate::topology::link_table(&self.link_stats())
    }
}
