//! Property tests for the IPC substrate.

use proptest::prelude::*;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::{NodeId, PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::SegmentRegistry;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;

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

    /// The ready set is exactly `{p : served ∧ alive ∧ queue_len(p) > 0}`
    /// in ascending port order after any sequence of registry operations.
    #[test]
    fn ready_set_is_served_alive_and_non_empty(
        ops in prop::collection::vec((0u8..8, 0usize..6, 0u32..3), 1..300)
    ) {
        let mut reg = PortRegistry::new();
        // The model: (port, home, queued, alive, served).
        let mut model: Vec<(PortId, NodeId, usize, bool, bool)> = Vec::new();
        for &(op, pick, node) in &ops {
            let node = NodeId(node);
            if op == 0 || model.is_empty() {
                model.push((reg.allocate(node), node, 0, true, false));
                continue;
            }
            let slot = pick % model.len();
            let (port, _, _, alive, _) = model[slot];
            match op {
                1 => {
                    reg.set_served(port, true);
                    model[slot].4 = alive;
                }
                2 => {
                    reg.set_served(port, false);
                    model[slot].4 = false;
                }
                3 | 4 => {
                    let sent = reg.enqueue(port, Message::new(MsgKind::User(0), port));
                    prop_assert_eq!(sent.is_ok(), alive);
                    model[slot].2 += usize::from(alive);
                }
                5 => {
                    let got = reg.dequeue(port);
                    prop_assert_eq!(got.is_ok(), alive);
                    prop_assert_eq!(got.ok().flatten().is_some(), model[slot].2 > 0);
                    model[slot].2 = model[slot].2.saturating_sub(1);
                }
                6 => {
                    prop_assert_eq!(reg.relocate(port, node).is_ok(), alive);
                    if alive {
                        model[slot].1 = node;
                    }
                }
                _ if pick < 2 => {
                    reg.deallocate(port);
                    model[slot] = (port, model[slot].1, 0, false, false);
                }
                _ => {
                    let purged = reg.purge_node(node);
                    let mut expect = 0;
                    for m in model.iter_mut().filter(|m| m.3 && m.1 == node) {
                        expect += std::mem::take(&mut m.2);
                    }
                    prop_assert_eq!(purged, expect);
                }
            }
            let expect: Vec<PortId> = model
                .iter()
                .filter(|&&(_, _, queued, alive, served)| served && alive && queued > 0)
                .map(|m| m.0)
                .collect();
            prop_assert_eq!(reg.ready_ports().collect::<Vec<_>>(), expect);
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
