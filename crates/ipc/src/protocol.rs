//! Wire protocol for the copy-on-reference machinery.
//!
//! The three messages of paper §2.2, each a typed header item (segment,
//! offset, count) billed at the size of its binary encoding, so that wire
//! sizes are honest:
//!
//! * `ImaginaryReadRequest` — sent by a faulting site's Pager/Scheduler to
//!   a segment's backing port: "deliver pages `[offset, offset+count)` of
//!   segment `seg` to `reply`". `count > 1` expresses prefetch.
//! * `ImaginaryReadReply` — the backer's response carrying the pages.
//! * `ImaginarySegmentDeath` — delivered to a backer when the last
//!   reference to its segment dies.
//!
//! Requests carry a header sequence number ([`Message::with_seq`]) that
//! replies echo; handlers use it to pair responses with requests and to
//! discard stale duplicates on an unreliable wire. Death notices are
//! naturally idempotent and go unsequenced.

use cor_mem::page::Frame;
use cor_mem::space::SegmentId;

use crate::message::{Message, MsgItem, MsgKind};
use crate::port::PortId;

/// A parsed well-known protocol message.
#[derive(Debug, Clone)]
pub enum ProtocolMsg {
    /// Request for `count` pages starting `offset` pages into `seg`,
    /// answered to `reply`.
    ImagReadRequest {
        /// The segment being read.
        seg: SegmentId,
        /// First requested page within the segment.
        offset: u64,
        /// Number of pages requested (1 + prefetch).
        count: u64,
        /// Where to send the reply.
        reply: PortId,
        /// Header sequence number stamped by the requester; the reply
        /// echoes it so retransmitted or duplicated responses can be
        /// paired and deduplicated.
        seq: u64,
    },
    /// Reply carrying `frames.len()` pages starting `offset` pages into
    /// `seg`.
    ImagReadReply {
        /// The segment read.
        seg: SegmentId,
        /// First delivered page within the segment.
        offset: u64,
        /// The delivered pages (copy-on-write mappable).
        frames: Vec<Frame>,
        /// Echo of the request's sequence number (zero for unsolicited or
        /// legacy replies).
        seq: u64,
    },
    /// The last reference to `seg` died; the backer may release its data.
    ImagSegmentDeath {
        /// The dead segment.
        seg: SegmentId,
    },
}

/// Builds an `ImaginaryReadRequest`.
pub fn imag_read_request(
    backing_port: PortId,
    reply: PortId,
    seg: SegmentId,
    offset: u64,
    count: u64,
) -> Message {
    Message::new(MsgKind::ImagReadRequest, backing_port)
        .with_reply(reply)
        .push(MsgItem::Header { seg, offset, count })
}

/// Builds an `ImaginaryReadReply` carrying `frames`.
pub fn imag_read_reply(reply: PortId, seg: SegmentId, offset: u64, frames: Vec<Frame>) -> Message {
    Message::new(MsgKind::ImagReadReply, reply)
        .push(MsgItem::Header {
            seg,
            offset,
            count: frames.len() as u64,
        })
        .push(MsgItem::Pages {
            base_page: offset,
            frames,
        })
}

/// The wire size of an `ImaginaryReadReply` carrying `count` pages,
/// computed without building one (and so without cloning its pages).
pub fn imag_read_reply_size(count: u64) -> u64 {
    let empty = imag_read_reply(PortId(0), SegmentId(0), 0, Vec::new());
    empty.wire_size() + count * cor_mem::PAGE_SIZE
}

/// Builds an `ImaginarySegmentDeath` notice.
pub fn imag_segment_death(backing_port: PortId, seg: SegmentId) -> Message {
    Message::new(MsgKind::ImagSegmentDeath, backing_port).push(MsgItem::Header {
        seg,
        offset: 0,
        count: 0,
    })
}

/// Parses a well-known protocol message; `None` for other messages or
/// malformed bodies.
pub fn parse(msg: &Message) -> Option<ProtocolMsg> {
    let Some(&MsgItem::Header { seg, offset, count }) = msg.items.first() else {
        return None;
    };
    match msg.kind {
        MsgKind::ImagReadRequest => Some(ProtocolMsg::ImagReadRequest {
            seg,
            offset,
            count,
            reply: msg.reply?,
            seq: msg.seq,
        }),
        MsgKind::ImagReadReply => match msg.items.get(1)? {
            MsgItem::Pages { frames, .. } if frames.len() as u64 == count => {
                Some(ProtocolMsg::ImagReadReply {
                    seg,
                    offset,
                    frames: frames.clone(),
                    seq: msg.seq,
                })
            }
            _ => None,
        },
        MsgKind::ImagSegmentDeath => Some(ProtocolMsg::ImagSegmentDeath { seg }),
        _ => None,
    }
}

/// Parses a well-known protocol message by value, moving bulk payload out
/// instead of cloning it: an `ImaginaryReadReply`'s frames are taken from
/// the message (one `Vec` move) rather than cloned (a `Vec` allocation
/// plus a reference-count bump per page). Returns the message unconsumed
/// when it is not a well-formed protocol message, so callers can still
/// forward or queue it.
///
/// # Errors
///
/// The original message, when it fails to parse.
// The message comes back by value: boxing it would allocate on the path
// this function keeps allocation-free.
#[allow(clippy::result_large_err)]
pub fn parse_owned(mut msg: Message) -> Result<ProtocolMsg, Message> {
    if msg.kind != MsgKind::ImagReadReply {
        // Requests and death notices carry only integers; the borrowing
        // parser already extracts them without touching the heap.
        return parse(&msg).ok_or(msg);
    }
    if let [MsgItem::Header { seg, offset, count }, MsgItem::Pages { frames, .. }, ..] =
        &mut msg.items[..]
    {
        if frames.len() as u64 == *count {
            return Ok(ProtocolMsg::ImagReadReply {
                seg: *seg,
                offset: *offset,
                frames: std::mem::take(frames),
                seq: msg.seq,
            });
        }
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_mem::page::page_from_bytes;

    #[test]
    fn the_reply_size_is_that_of_the_reply_it_stands_for() {
        for count in [1, 2, 32] {
            let frames = vec![Frame::zeroed(); count as usize];
            let reply = imag_read_reply(PortId(7), SegmentId(3), 5, frames);
            let size = imag_read_reply_size(count);
            assert_eq!(size, reply.wire_size(), "{count} pages");
        }
    }

    #[test]
    fn request_roundtrip() {
        let m = imag_read_request(PortId(1), PortId(2), SegmentId(7), 100, 4);
        match parse(&m) {
            Some(ProtocolMsg::ImagReadRequest {
                seg,
                offset,
                count,
                reply,
                ..
            }) => {
                assert_eq!(
                    (seg, offset, count, reply),
                    (SegmentId(7), 100, 4, PortId(2))
                );
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn reply_roundtrip_preserves_data() {
        let frames = vec![
            Frame::new(page_from_bytes(b"one")),
            Frame::new(page_from_bytes(b"two")),
        ];
        let m = imag_read_reply(PortId(2), SegmentId(7), 100, frames);
        match parse(&m) {
            Some(ProtocolMsg::ImagReadReply {
                seg,
                offset,
                frames,
                ..
            }) => {
                assert_eq!((seg, offset), (SegmentId(7), 100));
                frames[0].with(|d| assert_eq!(&d[..3], b"one"));
                frames[1].with(|d| assert_eq!(&d[..3], b"two"));
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn parse_owned_moves_frames_without_cloning() {
        let m = imag_read_reply(
            PortId(2),
            SegmentId(7),
            100,
            vec![Frame::new(page_from_bytes(b"one"))],
        )
        .with_seq(5);
        match parse_owned(m) {
            Ok(ProtocolMsg::ImagReadReply {
                seg,
                offset,
                frames,
                seq,
            }) => {
                assert_eq!((seg, offset, seq), (SegmentId(7), 100, 5));
                assert!(
                    !frames[0].is_shared(),
                    "the frame was moved, not cloned: no alias remains"
                );
                frames[0].with(|d| assert_eq!(&d[..3], b"one"));
            }
            other => panic!("bad parse: {other:?}"),
        }
        // Non-protocol and malformed messages come back unconsumed.
        let foreign = Message::new(MsgKind::User(5), PortId(0));
        assert!(matches!(parse_owned(foreign), Err(m) if m.kind == MsgKind::User(5)));
        let mut bad = imag_read_reply(PortId(2), SegmentId(7), 0, vec![Frame::zeroed()]);
        if let MsgItem::Pages { frames, .. } = &mut bad.items[1] {
            frames.push(Frame::zeroed());
        }
        assert!(matches!(parse_owned(bad), Err(m) if m.items.len() == 2));
    }

    #[test]
    fn death_roundtrip() {
        let m = imag_segment_death(PortId(9), SegmentId(3));
        match parse(&m) {
            Some(ProtocolMsg::ImagSegmentDeath { seg }) => assert_eq!(seg, SegmentId(3)),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn request_without_reply_port_fails_to_parse() {
        let mut m = imag_read_request(PortId(1), PortId(2), SegmentId(7), 0, 1);
        m.reply = None;
        assert!(parse(&m).is_none());
    }

    #[test]
    fn reply_with_wrong_page_count_fails_to_parse() {
        let mut m = imag_read_reply(PortId(2), SegmentId(7), 0, vec![Frame::zeroed()]);
        if let MsgItem::Pages { frames, .. } = &mut m.items[1] {
            frames.push(Frame::zeroed());
        }
        assert!(parse(&m).is_none());
    }

    #[test]
    fn sequence_numbers_round_trip_through_parse() {
        let req = imag_read_request(PortId(1), PortId(2), SegmentId(7), 3, 1).with_seq(99);
        match parse(&req) {
            Some(ProtocolMsg::ImagReadRequest { seq, .. }) => assert_eq!(seq, 99),
            other => panic!("bad parse: {other:?}"),
        }
        let reply = imag_read_reply(PortId(2), SegmentId(7), 3, vec![Frame::zeroed()]).with_seq(99);
        match parse(&reply) {
            Some(ProtocolMsg::ImagReadReply { seq, .. }) => assert_eq!(seq, 99),
            other => panic!("bad parse: {other:?}"),
        }
        // An unsequenced message parses with the zero sentinel.
        let legacy = imag_read_request(PortId(1), PortId(2), SegmentId(7), 3, 1);
        match parse(&legacy) {
            Some(ProtocolMsg::ImagReadRequest { seq, .. }) => assert_eq!(seq, 0),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn foreign_messages_do_not_parse() {
        let m = Message::new(MsgKind::User(5), PortId(0));
        assert!(parse(&m).is_none());
    }

    #[test]
    fn wire_size_reflects_payload() {
        let small = imag_read_request(PortId(1), PortId(2), SegmentId(1), 0, 1);
        let big = imag_read_reply(
            PortId(2),
            SegmentId(1),
            0,
            (0..16).map(|_| Frame::zeroed()).collect(),
        );
        assert!(small.wire_size() < 200);
        assert!(big.wire_size() > 16 * 512);
    }
}
