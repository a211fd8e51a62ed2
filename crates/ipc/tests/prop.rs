//! Property tests for the IPC substrate.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::{NodeId, PortError, PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::{SegmentError, SegmentRegistry};
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;

/// The port registry as it was before it became a slab — a map keyed by
/// id and a counter that only goes up — kept as the reference
/// `port_registry_matches_the_keyed_reference` compares against.
#[derive(Default)]
struct RefPorts {
    ports: HashMap<PortId, RefPort>,
    next: u64,
}

struct RefPort {
    home: NodeId,
    /// The `MsgKind::User` payloads queued, oldest first.
    queue: VecDeque<u32>,
    alive: bool,
    served: bool,
}

impl RefPorts {
    fn allocate(&mut self, home: NodeId) -> PortId {
        let id = PortId(self.next);
        self.next += 1;
        let port = RefPort {
            home,
            queue: VecDeque::new(),
            alive: true,
            served: false,
        };
        self.ports.insert(id, port);
        id
    }

    fn live(&mut self, port: PortId) -> Result<&mut RefPort, PortError> {
        let entry = self.ports.get_mut(&port).filter(|e| e.alive);
        entry.ok_or(PortError::Dead(port))
    }

    fn set_served(&mut self, port: PortId, served: bool) {
        if let Ok(e) = self.live(port) {
            e.served = served;
        }
    }
}

proptest! {
    /// Protocol encode/parse is the identity for arbitrary field values.
    #[test]
    fn protocol_request_roundtrips(seg in any::<u64>(), offset in any::<u64>(), count in 1u64..1000) {
        let m = protocol::imag_read_request(PortId(1), PortId(2), SegmentId(seg), offset, count);
        match protocol::parse(&m) {
            Some(ProtocolMsg::ImagReadRequest { seg: s, offset: o, count: c, reply, seq }) => {
                prop_assert_eq!((s, o, c, reply, seq), (SegmentId(seg), offset, count, PortId(2), 0));
            }
            other => prop_assert!(false, "bad parse: {:?}", other),
        }
    }

    /// Replies roundtrip with their page payloads intact.
    #[test]
    fn protocol_reply_roundtrips(seg in any::<u64>(), offset in any::<u64>(), n in 1usize..32, fill in any::<u8>()) {
        let frames: Vec<Frame> = (0..n)
            .map(|i| Frame::new(cor_mem::page::page_from_bytes(&[fill ^ i as u8])))
            .collect();
        let m = protocol::imag_read_reply(PortId(3), SegmentId(seg), offset, frames);
        match protocol::parse(&m) {
            Some(ProtocolMsg::ImagReadReply { seg: s, offset: o, frames, .. }) => {
                prop_assert_eq!((s, o), (SegmentId(seg), offset));
                prop_assert_eq!(frames.len(), n);
                for (i, f) in frames.iter().enumerate() {
                    f.with(|d| assert_eq!(d[0], fill ^ i as u8));
                }
            }
            other => prop_assert!(false, "bad parse: {:?}", other),
        }
    }

    /// FIFO delivery holds for any interleaving of enqueues and dequeues.
    #[test]
    fn ports_are_fifo(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut reg = PortRegistry::new();
        let port = reg.allocate(NodeId(0));
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for &enq in &ops {
            if enq {
                reg.enqueue(port, Message::new(MsgKind::User(next_in), port)).unwrap();
                next_in += 1;
            } else if let Some(m) = reg.dequeue(port).unwrap() {
                prop_assert_eq!(m.kind, MsgKind::User(next_out));
                next_out += 1;
            }
        }
        prop_assert_eq!(reg.queue_len(port) as u32, next_in - next_out);
    }

    /// The slab registry against the keyed one it replaced: the same ids
    /// (sequential, never reused), the same result from every operation on
    /// any id — allocated, deallocated or never handed out — and after each
    /// the same ready set in ascending port order.
    #[test]
    fn port_registry_matches_the_keyed_reference(
        ops in prop::collection::vec((0u8..9, 0u64..8, 0u32..3), 1..300)
    ) {
        let mut reg = PortRegistry::new();
        let mut model = RefPorts::default();
        let mut sent = 0u32;
        for &(op, pick, node) in &ops {
            let (port, node) = (PortId(pick), NodeId(node));
            match op {
                0 => prop_assert_eq!(reg.allocate(node), model.allocate(node)),
                1 => {
                    reg.set_served(port, true);
                    model.set_served(port, true);
                }
                2 => {
                    reg.set_served(port, false);
                    model.set_served(port, false);
                }
                3 | 4 => {
                    sent += 1;
                    let got = reg.enqueue(port, Message::new(MsgKind::User(sent), port));
                    prop_assert_eq!(got, model.live(port).map(|e| e.queue.push_back(sent)));
                }
                5 => {
                    let got = reg.dequeue(port).map(|m| m.map(|m| m.kind));
                    let want = model.live(port).map(|e| e.queue.pop_front().map(MsgKind::User));
                    prop_assert_eq!(got, want);
                }
                6 => {
                    let want = model.live(port).map(|e| e.home = node);
                    prop_assert_eq!(reg.relocate(port, node), want);
                }
                7 => {
                    reg.deallocate(port);
                    if let Some(e) = model.ports.get_mut(&port) {
                        (e.alive, e.served) = (false, false);
                        e.queue.clear();
                    }
                }
                _ => {
                    let mut want = 0;
                    for e in model.ports.values_mut().filter(|e| e.alive && e.home == node) {
                        want += std::mem::take(&mut e.queue).len();
                    }
                    prop_assert_eq!(reg.purge_node(node), want);
                }
            }
            // Ids 0..8 cover every allocated port and, until the eighth
            // allocation, some that were never handed out.
            for id in (0..8).map(PortId) {
                let want = model.live(id).map(|e| (e.home, e.queue.len()));
                prop_assert_eq!(reg.home(id), want.map(|w| w.0));
                prop_assert_eq!(reg.queue_len(id), want.map_or(0, |w| w.1));
                prop_assert_eq!(reg.is_alive(id), want.is_ok());
            }
            let mut ready: Vec<PortId> = model
                .ports
                .iter()
                .filter(|(_, e)| e.alive && e.served && !e.queue.is_empty())
                .map(|(&id, _)| id)
                .collect();
            ready.sort_unstable();
            prop_assert_eq!(reg.ready_ports().collect::<Vec<_>>(), ready);
            let live = model.ports.values().filter(|e| e.alive).count();
            prop_assert_eq!(reg.live_ports(), live);
        }
    }

    /// The slab segment table against the keyed one it replaced: ids are
    /// sequential and a dead segment's id stays `Unknown` for good — it is
    /// never handed out again, however many segments die before the next
    /// `create`.
    #[test]
    fn segment_registry_matches_the_keyed_reference(
        ops in prop::collection::vec((0u8..6, 0u64..8, 0u64..5), 1..300)
    ) {
        let mut reg = SegmentRegistry::new();
        let mut model: HashMap<SegmentId, (PortId, u64, u64)> = HashMap::new();
        let (mut next, mut deaths) = (0u64, 0u64);
        for &(op, pick, n) in &ops {
            let seg = SegmentId(pick);
            let unknown = SegmentError::Unknown(seg);
            match op {
                0 => {
                    prop_assert_eq!(reg.create(PortId(pick), n), SegmentId(next));
                    model.insert(SegmentId(next), (PortId(pick), n, 0));
                    next += 1;
                }
                1 | 2 => {
                    let want = model.get_mut(&seg).map(|s| s.2 += n).ok_or(unknown);
                    prop_assert_eq!(reg.add_refs(seg, n), want);
                }
                3 | 4 => {
                    let want = match model.get_mut(&seg) {
                        None => Err(unknown),
                        Some(s) if n > s.2 => Err(SegmentError::OverRelease(seg)),
                        Some(s) => {
                            s.2 -= n;
                            Ok(s.2 == 0)
                        }
                    };
                    if want == Ok(true) {
                        model.remove(&seg);
                        deaths += 1;
                    }
                    prop_assert_eq!(reg.release_refs(seg, n), want);
                }
                _ => {
                    let want = match model.get(&seg) {
                        None => Err(unknown),
                        Some(s) if pick + n > s.1 => Err(SegmentError::OutOfBounds(seg)),
                        Some(_) => Ok(()),
                    };
                    prop_assert_eq!(reg.check_range(seg, pick, n), want);
                }
            }
            for id in (0..8).map(SegmentId) {
                let got = reg.get(id).map(|s| (s.backing_port, s.len_pages, s.outstanding));
                prop_assert_eq!(got, model.get(&id).copied());
            }
            prop_assert_eq!((reg.live(), reg.deaths()), (model.len(), deaths));
        }
    }

    /// Segment refcounting: interleaved add/release sequences die exactly
    /// when the running balance hits zero, never before.
    #[test]
    fn segment_death_exactly_at_zero(deltas in prop::collection::vec(1u64..20, 1..40)) {
        let mut segs = SegmentRegistry::new();
        let seg = segs.create(PortId(1), 10_000);
        let mut balance = 0u64;
        let mut dead = false;
        for (i, &d) in deltas.iter().enumerate() {
            if i % 2 == 0 {
                if dead {
                    prop_assert!(segs.add_refs(seg, d).is_err());
                } else {
                    segs.add_refs(seg, d).unwrap();
                    balance += d;
                }
            } else if !dead {
                let release = d.min(balance);
                if release > 0 {
                    let died = segs.release_refs(seg, release).unwrap();
                    balance -= release;
                    prop_assert_eq!(died, balance == 0);
                    dead = died;
                }
            }
        }
        prop_assert_eq!(segs.get(seg).is_none(), dead);
    }

    /// Wire size is additive over items and monotone in payload.
    #[test]
    fn wire_size_additive(sizes in prop::collection::vec(0usize..4096, 0..10)) {
        let dest = PortId(0);
        let mut msg = Message::new(MsgKind::User(0), dest);
        let mut expected = cor_ipc::message::HEADER_SIZE;
        for &s in &sizes {
            let item = MsgItem::Inline(vec![0; s]);
            expected += item.wire_size();
            msg.items.push(item);
        }
        prop_assert_eq!(msg.wire_size(), expected);
    }
}
