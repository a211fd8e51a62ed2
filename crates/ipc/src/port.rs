//! Ports: location-transparent communication endpoints.
//!
//! A port is a protected kernel queue named independently of its location.
//! Processes hold *rights* to ports; the unique receive right determines
//! where messages are delivered, and moving it (as `InsertProcess` does
//! when a migrated process carries its ports along) leaves every
//! outstanding send right valid — the location transparency that RIG and
//! DCN lacked and that Accent migration depends on (paper §5).

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use crate::message::Message;

/// Identifies a machine in the simulated distributed system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A globally unique port name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u64);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// The kinds of rights a process can hold on a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Right {
    /// May enqueue messages.
    Send,
    /// May dequeue messages; unique per port.
    Receive,
    /// Owns the port's lifetime; unique per port.
    Ownership,
}

/// A right on a specific port, as carried in messages and process contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRight {
    /// The named port.
    pub port: PortId,
    /// The right held.
    pub right: Right,
}

#[derive(Debug)]
struct PortEntry {
    home: NodeId,
    queue: VecDeque<Message>,
    alive: bool,
    /// A server drains this port when the system settles (see
    /// [`PortRegistry::set_served`]).
    served: bool,
}

/// Errors from port operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortError {
    /// The port was never allocated or has been deallocated.
    Dead(PortId),
}

impl fmt::Display for PortError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortError::Dead(p) => write!(f, "{p} is dead or was never allocated"),
        }
    }
}

impl std::error::Error for PortError {}

/// The system-wide port name service and message queues.
///
/// In real Accent each kernel holds its own ports and the NetMsgServers
/// extend the namespace across machines; the simulation centralizes the
/// *name service* while `cor-net` still models the cross-machine data path
/// (forwarding, fragmentation, wire costs) explicitly.
///
/// # Examples
///
/// ```
/// use cor_ipc::{Message, MsgKind, NodeId, PortRegistry};
///
/// let mut ports = PortRegistry::new();
/// let p = ports.allocate(NodeId(0));
/// ports.enqueue(p, Message::new(MsgKind::User(1), p)).unwrap();
/// assert_eq!(ports.queue_len(p), 1);
/// let m = ports.dequeue(p).unwrap().unwrap();
/// assert_eq!(m.kind, MsgKind::User(1));
/// ```
///
/// # Ready set
///
/// Ports drained by a server at quiescence (a NetMsgServer's service
/// port, a user-level backer's port) are marked with
/// [`PortRegistry::set_served`]. The registry keeps the ordered set of
/// served ports whose queue is non-empty, so driving the system to
/// quiescence costs one step per queue that has work, not one probe per
/// port that exists.
///
/// ```
/// use cor_ipc::{Message, MsgKind, NodeId, PortRegistry};
///
/// let mut ports = PortRegistry::new();
/// let served = ports.allocate(NodeId(0));
/// let plain = ports.allocate(NodeId(0));
/// ports.set_served(served, true);
/// ports.enqueue(plain, Message::new(MsgKind::User(1), plain)).unwrap();
/// assert_eq!(ports.ready_ports().count(), 0, "unserved ports are never ready");
/// ports.enqueue(served, Message::new(MsgKind::User(2), served)).unwrap();
/// assert_eq!(ports.ready_ports().collect::<Vec<_>>(), [served]);
/// ports.dequeue(served).unwrap();
/// assert_eq!(ports.ready_ports().count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct PortRegistry {
    /// `ports[id]` is the entry of `PortId(id)`: ids are handed out in
    /// sequence and an entry is never removed (a deallocated port stays,
    /// dead), so the id is the index and is never reused.
    ports: Vec<PortEntry>,
    /// Exactly the ports that are alive, served and have a queued message.
    /// Maintained by every method that changes one of the three.
    ready: BTreeSet<PortId>,
}

impl PortRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        PortRegistry::default()
    }

    /// Allocates a fresh port whose receive right lives on `home`.
    pub fn allocate(&mut self, home: NodeId) -> PortId {
        let id = PortId(self.ports.len() as u64);
        self.ports.push(PortEntry {
            home,
            queue: VecDeque::new(),
            alive: true,
            served: false,
        });
        id
    }

    fn live(&self, port: PortId) -> Result<&PortEntry, PortError> {
        usize::try_from(port.0)
            .ok()
            .and_then(|i| self.ports.get(i))
            .filter(|e| e.alive)
            .ok_or(PortError::Dead(port))
    }

    fn live_mut(&mut self, port: PortId) -> Result<&mut PortEntry, PortError> {
        usize::try_from(port.0)
            .ok()
            .and_then(|i| self.ports.get_mut(i))
            .filter(|e| e.alive)
            .ok_or(PortError::Dead(port))
    }

    /// The node currently holding the receive right.
    ///
    /// # Errors
    ///
    /// [`PortError::Dead`] for unknown or deallocated ports.
    pub fn home(&self, port: PortId) -> Result<NodeId, PortError> {
        self.live(port).map(|e| e.home)
    }

    /// Relocates the receive right (migration does this for every port a
    /// process owns). Queued messages travel with it — the caller accounts
    /// their transfer cost.
    ///
    /// # Errors
    ///
    /// [`PortError::Dead`] for unknown or deallocated ports.
    pub fn relocate(&mut self, port: PortId, new_home: NodeId) -> Result<(), PortError> {
        self.live_mut(port)?.home = new_home;
        Ok(())
    }

    /// Enqueues a message on `port`.
    ///
    /// # Errors
    ///
    /// [`PortError::Dead`] for unknown or deallocated ports.
    pub fn enqueue(&mut self, port: PortId, msg: Message) -> Result<(), PortError> {
        let e = self.live_mut(port)?;
        e.queue.push_back(msg);
        if e.served && e.queue.len() == 1 {
            self.ready.insert(port);
        }
        Ok(())
    }

    /// Dequeues the oldest message, or `Ok(None)` when the queue is empty.
    ///
    /// # Errors
    ///
    /// [`PortError::Dead`] for unknown or deallocated ports.
    pub fn dequeue(&mut self, port: PortId) -> Result<Option<Message>, PortError> {
        let e = self.live_mut(port)?;
        let msg = e.queue.pop_front();
        if e.served && msg.is_some() && e.queue.is_empty() {
            self.ready.remove(&port);
        }
        Ok(msg)
    }

    /// Number of queued messages (zero for dead ports).
    pub fn queue_len(&self, port: PortId) -> usize {
        self.live(port).map_or(0, |e| e.queue.len())
    }

    /// Marks whether a server drains `port` when the system settles. Only
    /// served ports appear in [`PortRegistry::ready_ports`]; a port that
    /// already holds messages becomes ready at once. A dead or unknown
    /// port cannot be served: the call is a no-op and the port is never
    /// ready (senders to it already get [`PortError::Dead`]).
    pub fn set_served(&mut self, port: PortId, served: bool) {
        if let Ok(e) = self.live_mut(port) {
            e.served = served;
            if served && !e.queue.is_empty() {
                self.ready.insert(port);
            } else {
                self.ready.remove(&port);
            }
        }
    }

    /// The served ports that have at least one queued message, in
    /// ascending [`PortId`] order.
    pub fn ready_ports(&self) -> impl Iterator<Item = PortId> + '_ {
        self.ready.iter().copied()
    }

    /// Destroys a port. Queued messages are dropped; subsequent operations
    /// return [`PortError::Dead`].
    pub fn deallocate(&mut self, port: PortId) {
        if let Ok(e) = self.live_mut(port) {
            e.alive = false;
            e.served = false;
            e.queue.clear();
            self.ready.remove(&port);
        }
    }

    /// Drops every message queued on ports homed at `node`, keeping the
    /// ports themselves alive. Models a node crash: in-flight deliveries
    /// die with the machine, but port *names* (and remote send rights)
    /// survive — a rebooted or recovered node can be addressed again.
    /// Returns the number of messages dropped.
    pub fn purge_node(&mut self, node: NodeId) -> usize {
        let mut dropped = 0;
        for (id, e) in (0..).map(PortId).zip(&mut self.ports) {
            if e.alive && e.home == node && !e.queue.is_empty() {
                dropped += e.queue.len();
                e.queue.clear();
                self.ready.remove(&id);
            }
        }
        dropped
    }

    /// Whether the port is alive.
    pub fn is_alive(&self, port: PortId) -> bool {
        self.live(port).is_ok()
    }

    /// Number of live ports.
    pub fn live_ports(&self) -> usize {
        self.ports.iter().filter(|e| e.alive).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MsgKind;

    #[test]
    fn allocate_unique_ids() {
        let mut r = PortRegistry::new();
        let a = r.allocate(NodeId(0));
        let b = r.allocate(NodeId(1));
        assert_ne!(a, b);
        assert_eq!(r.home(a), Ok(NodeId(0)));
        assert_eq!(r.home(b), Ok(NodeId(1)));
        assert_eq!(r.live_ports(), 2);
    }

    #[test]
    fn fifo_queueing() {
        let mut r = PortRegistry::new();
        let p = r.allocate(NodeId(0));
        for k in 0..3 {
            r.enqueue(p, Message::new(MsgKind::User(k), p)).unwrap();
        }
        for k in 0..3 {
            assert_eq!(r.dequeue(p).unwrap().unwrap().kind, MsgKind::User(k));
        }
        assert!(r.dequeue(p).unwrap().is_none());
    }

    #[test]
    fn relocation_preserves_identity_and_queue() {
        let mut r = PortRegistry::new();
        let p = r.allocate(NodeId(0));
        r.enqueue(p, Message::new(MsgKind::User(9), p)).unwrap();
        r.relocate(p, NodeId(1)).unwrap();
        assert_eq!(r.home(p), Ok(NodeId(1)));
        assert_eq!(r.queue_len(p), 1, "queued messages travel with the right");
    }

    #[test]
    fn dead_ports_reject_everything() {
        let mut r = PortRegistry::new();
        let p = r.allocate(NodeId(0));
        r.deallocate(p);
        assert!(!r.is_alive(p));
        assert_eq!(r.home(p), Err(PortError::Dead(p)));
        assert_eq!(r.relocate(p, NodeId(1)), Err(PortError::Dead(p)));
        assert_eq!(
            r.enqueue(p, Message::new(MsgKind::User(0), p)),
            Err(PortError::Dead(p))
        );
        assert!(matches!(r.dequeue(p), Err(PortError::Dead(_))));
        assert_eq!(r.queue_len(p), 0);
        assert_eq!(r.live_ports(), 0);
    }

    #[test]
    fn unknown_port_is_dead() {
        let r = PortRegistry::new();
        assert_eq!(r.home(PortId(42)), Err(PortError::Dead(PortId(42))));
    }

    #[test]
    fn purge_node_drops_queues_but_keeps_ports() {
        let mut r = PortRegistry::new();
        let p0 = r.allocate(NodeId(0));
        let p1 = r.allocate(NodeId(0));
        let q = r.allocate(NodeId(1));
        r.enqueue(p0, Message::new(MsgKind::User(0), p0)).unwrap();
        r.enqueue(p1, Message::new(MsgKind::User(1), p1)).unwrap();
        r.enqueue(p1, Message::new(MsgKind::User(2), p1)).unwrap();
        r.enqueue(q, Message::new(MsgKind::User(3), q)).unwrap();
        assert_eq!(r.purge_node(NodeId(0)), 3);
        assert_eq!(r.queue_len(p0), 0);
        assert_eq!(r.queue_len(p1), 0);
        assert_eq!(r.queue_len(q), 1, "other nodes' queues untouched");
        assert!(r.is_alive(p0) && r.is_alive(p1), "names survive the crash");
        assert!(r.enqueue(p0, Message::new(MsgKind::User(4), p0)).is_ok());
    }

    fn ready(r: &PortRegistry) -> Vec<PortId> {
        r.ready_ports().collect()
    }

    #[test]
    fn serving_a_non_empty_port_makes_it_ready_at_once() {
        let mut r = PortRegistry::new();
        let p = r.allocate(NodeId(0));
        r.enqueue(p, Message::new(MsgKind::User(0), p)).unwrap();
        assert!(ready(&r).is_empty(), "not served yet");
        r.set_served(p, true);
        assert_eq!(ready(&r), [p]);
        r.set_served(p, false);
        assert!(ready(&r).is_empty());
        assert_eq!(r.queue_len(p), 1, "unserving drops no message");
    }

    #[test]
    fn ready_set_tracks_queue_edges_in_port_order() {
        let mut r = PortRegistry::new();
        let ps: Vec<PortId> = (0..3).map(|_| r.allocate(NodeId(0))).collect();
        for &p in &ps {
            r.set_served(p, true);
        }
        for &p in ps.iter().rev() {
            r.enqueue(p, Message::new(MsgKind::User(0), p)).unwrap();
            r.enqueue(p, Message::new(MsgKind::User(1), p)).unwrap();
        }
        assert_eq!(ready(&r), ps);
        r.dequeue(ps[1]).unwrap();
        assert_eq!(ready(&r), ps, "one message left: still ready");
        r.dequeue(ps[1]).unwrap();
        assert_eq!(ready(&r), [ps[0], ps[2]]);
        assert!(r.dequeue(ps[1]).unwrap().is_none());
        r.relocate(ps[0], NodeId(1)).unwrap();
        assert_eq!(ready(&r), [ps[0], ps[2]], "the queue moves with its port");
    }

    #[test]
    fn purge_and_deallocate_clear_readiness() {
        let mut r = PortRegistry::new();
        let p = r.allocate(NodeId(0));
        let q = r.allocate(NodeId(1));
        let d = r.allocate(NodeId(1));
        for port in [p, q, d] {
            r.set_served(port, true);
            r.enqueue(port, Message::new(MsgKind::User(0), port))
                .unwrap();
        }
        r.purge_node(NodeId(0));
        assert_eq!(ready(&r), [q, d]);
        r.deallocate(d);
        assert_eq!(ready(&r), [q]);
        r.set_served(d, true);
        assert_eq!(ready(&r), [q], "a dead port is never served");
        r.enqueue(p, Message::new(MsgKind::User(1), p)).unwrap();
        assert_eq!(ready(&r), [p, q], "a purged port is still served");
    }
}
