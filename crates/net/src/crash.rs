//! Crash state: which nodes are down or amnesiac, which planned crashes
//! already fired, how many messages each node carried, and the
//! crash-survivable disk backers — plus the slice of [`Fabric`]'s surface
//! that reads and writes them. Nothing outside this module can mark a
//! node down without also marking its volatile state lost.

use std::collections::{BTreeMap, BTreeSet};

use cor_ipc::port::PortRegistry;
use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_sim::{IdMap, IdSet, SimTime};
use cor_trace::TraceEvent;

use crate::fabric::Fabric;
use crate::params::CrashTrigger;

/// The fabric's crash bookkeeping.
#[derive(Debug, Default)]
pub(crate) struct CrashState {
    /// Nodes currently down. Sends toward them fail fast with
    /// [`NetError::NodeDown`](crate::NetError::NodeDown); their
    /// NetMsgServers answer nothing. Always a subset of `lost_volatile`.
    down: IdSet<NodeId>,
    /// Nodes that crashed at least once, including amnesiac reboots: their
    /// volatile NetMsgServer state (cache, forwards, relays) is gone even
    /// if they answer the wire again. The recovery ladder consults this to
    /// tell "the backer forgot" from "the chain was always broken".
    lost_volatile: IdSet<NodeId>,
    /// Crash-plan events that already fired (by event index).
    fired: IdSet<usize>,
    /// Remote messages carried per node (sent or received) under a crash
    /// plan, feeding `AfterMessages` triggers.
    carried: IdMap<NodeId, u64>,
    /// Per-node crash-survivable disk backers ("Sesame" in the paper's
    /// flush variation): pages flushed here by the drain machinery outlive
    /// the node's crash and serve post-crash recovery reads. Keyed by
    /// `(segment, offset)`; deterministic iteration order.
    disk: IdMap<NodeId, BTreeMap<(u64, u64), Frame>>,
}

impl Fabric {
    /// Whether `node` is currently down.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crash.down.contains(&node)
    }

    /// `true` if `node` has lost its volatile NetMsgServer state to a
    /// crash at any point — including crashes followed by an amnesiac
    /// reboot, after which the node answers the wire but remembers
    /// nothing. Owed pages it backed are recoverable only from its disk.
    pub fn lost_volatile_state(&self, node: NodeId) -> bool {
        self.crash.lost_volatile.contains(&node)
    }

    /// The set of nodes currently down, for crash-aware placement.
    pub fn crashed_nodes(&self) -> BTreeSet<NodeId> {
        self.crash.down.iter().copied().collect()
    }

    /// Whether any node ever crashed, down or rebooted since.
    pub(crate) fn any_lost_volatile_state(&self) -> bool {
        !self.crash.lost_volatile.is_empty()
    }

    /// Crashes `node` at instant `now`: every message queued on any of its
    /// ports is dropped, limbo traffic headed to it is lost, and its
    /// volatile NetMsgServer state (cache, forward tables, pending relays)
    /// is wiped. With `reboot_amnesiac` the node immediately answers the
    /// wire again — minus everything it knew; otherwise it stays down and
    /// sends toward it fail fast with
    /// [`NetError::NodeDown`](crate::NetError::NodeDown). The node's
    /// [disk backer](Fabric::disk_install_page) survives either way.
    ///
    /// Usually driven by the [`CrashPlan`](crate::CrashPlan) on
    /// [`WireParams`](crate::WireParams), but callable directly by tests
    /// and experiments.
    pub fn crash_node(
        &mut self,
        now: SimTime,
        ports: &mut PortRegistry,
        node: NodeId,
        reboot_amnesiac: bool,
    ) {
        if !self.nms.wipe(node) {
            return;
        }
        let mut dropped = ports.purge_node(node) as u64;
        // Limbo entries headed to the node die in flight too.
        dropped += self
            .link
            .purge_limbo(|m| ports.home(m.dest).is_ok_and(|h| h == node));
        if !reboot_amnesiac {
            self.crash.down.insert(node);
        }
        self.crash.lost_volatile.insert(node);
        self.reliability.node_crashes.incr();
        self.reliability.crash_dropped_messages.add(dropped);
        self.note(now, || TraceEvent::NetCrash {
            node,
            amnesiac: reboot_amnesiac,
            dropped,
        });
    }

    /// Fires every not-yet-fired event of the crash plan that is due, in
    /// plan order. With `carried` a delivery was just carried between the
    /// two nodes: their message counts advance and `AfterMessages`
    /// triggers are checked. Without it a send,
    /// service or pump step is looking at the clock: `AtTime` triggers at
    /// or before `now` are due. The two never mix — an `AtTime` crash
    /// lands at the next network activity, never in the tail of the
    /// delivery that happened to straddle it. An empty plan does nothing
    /// and counts nothing, so `AfterMessages` counts deliveries from the
    /// moment a non-empty plan is installed.
    pub(crate) fn fire_due_crashes(
        &mut self,
        now: SimTime,
        ports: &mut PortRegistry,
        carried: Option<(NodeId, NodeId)>,
    ) {
        let plan = &self.params.crashes;
        if plan.events.is_empty() {
            return;
        }
        let state = &mut self.crash;
        if let Some((from, to)) = carried {
            *state.carried.entry(from).or_insert(0) += 1;
            *state.carried.entry(to).or_insert(0) += 1;
        }
        let mut due = Vec::new();
        for (idx, event) in plan.events.iter().enumerate() {
            if state.fired.contains(&idx) {
                continue;
            }
            let is_due = match (event.trigger, carried) {
                (CrashTrigger::AtTime(at), None) => now >= at,
                (CrashTrigger::AfterMessages(n), Some(_)) => {
                    state.carried.get(&event.node).is_some_and(|&c| c >= n)
                }
                _ => false,
            };
            if is_due {
                state.fired.insert(idx);
                due.push(*event);
            }
        }
        for event in due {
            self.crash_node(now, ports, event.node, event.reboot_amnesiac);
        }
    }

    /// Installs one page in `node`'s crash-survivable disk backer. Used by
    /// the kernel's flush-draining and by tests; survives
    /// [`Fabric::crash_node`].
    pub fn disk_install_page(&mut self, node: NodeId, seg: SegmentId, offset: u64, frame: Frame) {
        let disk = self.crash.disk.entry(node).or_default();
        disk.insert((seg.0, offset), frame);
    }

    /// Whether `node`'s disk backer holds `seg`'s page at `offset`.
    pub fn disk_has(&self, node: NodeId, seg: SegmentId, offset: u64) -> bool {
        let disk = self.crash.disk.get(&node);
        disk.is_some_and(|d| d.contains_key(&(seg.0, offset)))
    }

    /// Reads `seg`'s page at `offset` from `node`'s disk backer; `None` if
    /// the disk does not hold it.
    pub fn disk_recover(&self, node: NodeId, seg: SegmentId, offset: u64) -> Option<Frame> {
        self.crash.disk.get(&node)?.get(&(seg.0, offset)).cloned()
    }

    /// Pages held by `node`'s disk backer.
    pub fn disk_pages(&self, node: NodeId) -> u64 {
        let disk = self.crash.disk.get(&node);
        disk.map(|d| d.len() as u64).unwrap_or(0)
    }

    /// Drops `seg`'s pages from every node's disk backer: the segment
    /// died, so no owed page can name them again. Unbilled bookkeeping, as
    /// the replica drop beside it is.
    pub(crate) fn drop_disk_pages(&mut self, seg: SegmentId) {
        for disk in self.crash.disk.values_mut() {
            disk.retain(|&(s, _), _| s != seg.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_ipc::message::{Message, MsgKind};
    use cor_ipc::segment::SegmentRegistry;
    use cor_sim::Clock;

    #[test]
    fn an_at_time_crash_waits_for_the_next_network_activity() {
        // The crash time falls inside a delivery to the victim. The
        // carried-message poll at the end of that delivery must not look
        // at the clock: the message lands, and the node dies — taking the
        // message with it — only when the network is next active.
        let (a, b) = (NodeId(0), NodeId(1));
        let due = SimTime::from_millis(10);
        let mut ports = PortRegistry::new();
        let mut segs = SegmentRegistry::new();
        let mut clock = Clock::new();
        let mut fabric = Fabric::new(crate::WireParams {
            crashes: crate::CrashPlan::at_time(b, due),
            ..crate::WireParams::default()
        });
        fabric.add_node(a, &mut ports);
        fabric.add_node(b, &mut ports);
        let dest = ports.allocate(b);
        let msg = Message::new(MsgKind::User(1), dest);
        fabric
            .send(&mut clock, &mut ports, &mut segs, a, msg)
            .unwrap();
        assert!(clock.now() > due, "the delivery straddled the crash time");
        assert!(!fabric.is_crashed(b));
        assert_eq!(ports.queue_len(dest), 1);
        fabric.pump(&mut clock, &mut ports, &mut segs).unwrap();
        assert!(fabric.is_crashed(b));
        assert_eq!(ports.queue_len(dest), 0, "the message died with the node");
    }
}
