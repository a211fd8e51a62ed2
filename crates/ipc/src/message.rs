//! Typed IPC messages.
//!
//! A single Accent message "can hold all of the memory addressible by a
//! process" (paper §2.1). Message bodies are sequences of typed items:
//! small data travels inline (a physical copy), large data travels as
//! out-of-line page runs that are *mapped* copy-on-write into the receiver,
//! and lazily-delivered data travels as IOU items naming an imaginary
//! segment. Port rights and AMaps are first-class items because process
//! contexts carry both.

use cor_mem::amap::AMap;
use cor_mem::page::{Frame, PAGE_SIZE};
use cor_mem::space::SegmentId;
use cor_sim::SmallVec;

use crate::port::{PortId, PortRight};

/// Message discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Request for pages of an imaginary segment (paper §2.2).
    ImagReadRequest,
    /// Reply carrying the requested (and possibly prefetched) pages.
    ImagReadReply,
    /// Notice that the last reference to an imaginary segment died.
    ImagSegmentDeath,
    /// First half of an excised context: microstate, kernel stack, PCB,
    /// port rights, and the address-space AMap (paper §3.1).
    Core,
    /// Second half: the collapsed Real-and-Imaginary-Memory Address Space.
    Rimas,
    /// Command to a MigrationManager.
    MigrateRequest,
    /// Acknowledgement from a MigrationManager.
    MigrateAck,
    /// One dirty-page retransmission round of a pre-copy migration. Kept
    /// distinct from [`MsgKind::Rimas`] so the destination can classify
    /// context messages by kind even when the wire reorders them.
    PreCopyRound,
    /// Application-defined kind (the copy-on-reference facility is generic;
    /// any program may use it, paper §6).
    User(u32),
}

/// The data threshold below which Accent physically copies message data
/// rather than remapping it (the simulation uses one page).
pub const INLINE_THRESHOLD: u64 = PAGE_SIZE;

/// One typed item in a message body.
#[derive(Debug, Clone)]
pub enum MsgItem {
    /// The fixed header of a copy-on-reference protocol message (see
    /// [`crate::protocol`]): a segment, a page offset within it and a page
    /// count. Three words, billed as the 24 inline bytes they encode.
    Header {
        /// The segment the message is about.
        seg: SegmentId,
        /// First page within the segment.
        offset: u64,
        /// Number of pages.
        count: u64,
    },
    /// Physically copied bytes.
    Inline(Vec<u8>),
    /// An out-of-line run of whole pages, transferred by copy-on-write
    /// mapping: the receiver maps the same frames, and the deferred
    /// 512-byte copy happens only on write (paper §2.1).
    Pages {
        /// Receiver-relative placement tag (page index within the carried
        /// object, e.g. the collapsed RIMAS area).
        base_page: u64,
        /// The shared frames.
        frames: Vec<Frame>,
    },
    /// An IOU: the named pages are owed by an imaginary segment and will be
    /// fetched on reference.
    Iou {
        /// Placement tag, as in [`MsgItem::Pages`].
        base_page: u64,
        /// The owing segment.
        seg: SegmentId,
        /// Page offset within the segment of the first owed page.
        seg_offset: u64,
        /// Number of owed pages.
        pages: u64,
    },
    /// Port rights passed through the message.
    Rights(Vec<PortRight>),
    /// An accessibility map describing an address space.
    AMap(AMap),
}

impl MsgItem {
    /// Bytes this item occupies on the wire (payload plus a small per-item
    /// descriptor). Pages and inline bytes pay for their full contents;
    /// IOUs pay only for a fixed descriptor — that asymmetry *is* the
    /// copy-on-reference savings.
    pub fn wire_size(&self) -> u64 {
        match self {
            MsgItem::Header { .. } => 8 + 3 * 8,
            MsgItem::Inline(b) => 8 + b.len() as u64,
            MsgItem::Pages { frames, .. } => 16 + frames.len() as u64 * PAGE_SIZE,
            MsgItem::Iou { .. } => 32,
            MsgItem::Rights(r) => 8 + 16 * r.len() as u64,
            MsgItem::AMap(m) => m.wire_size(),
        }
    }

    /// Number of data pages physically carried by this item.
    pub fn carried_pages(&self) -> u64 {
        match self {
            MsgItem::Pages { frames, .. } => frames.len() as u64,
            _ => 0,
        }
    }
}

/// An IPC message: a kind, routing information, and a body of typed items.
#[derive(Debug, Clone)]
pub struct Message {
    /// Discriminator.
    pub kind: MsgKind,
    /// Destination port.
    pub dest: PortId,
    /// Optional reply port.
    pub reply: Option<PortId>,
    /// Protocol sequence number, carried inside the fixed
    /// [`HEADER_SIZE`]-byte header (so it adds no wire bytes). Requests
    /// stamp a fresh value and replies echo it, letting handlers pair
    /// responses with requests and discard stale duplicates when the wire
    /// retransmits, duplicates, or reorders. Zero means "unsequenced".
    pub seq: u64,
    /// When set, intermediaries (NetMsgServers) must physically copy
    /// non-imaginary data to the remote site instead of caching it and
    /// substituting IOUs (paper §2.4). This is how the pure-copy migration
    /// strategy is selected.
    pub no_ious: bool,
    /// The body. Up to two items live inline (a protocol header and a
    /// page run), so a copy-on-reference request or reply allocates no
    /// item vector; only migration contexts spill to the heap.
    pub items: SmallVec<MsgItem>,
}

/// The fixed wire cost of a message header.
pub const HEADER_SIZE: u64 = 64;

impl Message {
    /// Creates an empty message.
    pub fn new(kind: MsgKind, dest: PortId) -> Self {
        Message {
            kind,
            dest,
            reply: None,
            seq: 0,
            no_ious: false,
            items: SmallVec::new(),
        }
    }

    /// Builder-style: sets the reply port.
    pub fn with_reply(mut self, reply: PortId) -> Self {
        self.reply = Some(reply);
        self
    }

    /// Builder-style: sets the header sequence number.
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Builder-style: sets the `NoIOUs` header bit.
    pub fn with_no_ious(mut self, no_ious: bool) -> Self {
        self.no_ious = no_ious;
        self
    }

    /// Builder-style: appends an item.
    pub fn push(mut self, item: MsgItem) -> Self {
        self.items.push(item);
        self
    }

    /// Total bytes this message occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        HEADER_SIZE + self.items.iter().map(MsgItem::wire_size).sum::<u64>()
    }

    /// Number of data pages physically carried.
    pub fn carried_pages(&self) -> u64 {
        self.items.iter().map(MsgItem::carried_pages).sum()
    }

    /// Number of pages owed via IOU items.
    pub fn owed_pages(&self) -> u64 {
        self.items
            .iter()
            .map(|i| match i {
                MsgItem::Iou { pages, .. } => *pages,
                _ => 0,
            })
            .sum()
    }

    /// All port rights carried in the body.
    pub fn rights(&self) -> Vec<PortRight> {
        self.rights_iter().copied().collect()
    }

    /// Iterates the port rights carried in the body without allocating
    /// (the send path walks rights on every remote delivery).
    pub fn rights_iter(&self) -> impl Iterator<Item = &PortRight> {
        self.items.iter().flat_map(|i| match i {
            MsgItem::Rights(r) => r.as_slice(),
            _ => &[],
        })
    }

    /// The first AMap item, if any.
    pub fn amap(&self) -> Option<&AMap> {
        self.items.iter().find_map(|i| match i {
            MsgItem::AMap(m) => Some(m),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_mem::page::page_from_bytes;
    use cor_mem::{PageNum, PageRange};

    use crate::port::Right;

    #[test]
    fn wire_sizes_reward_ious() {
        let frames: Vec<Frame> = (0..10)
            .map(|i| Frame::new(page_from_bytes(&[i as u8])))
            .collect();
        let physical = MsgItem::Pages {
            base_page: 0,
            frames,
        };
        let iou = MsgItem::Iou {
            base_page: 0,
            seg: SegmentId(1),
            seg_offset: 0,
            pages: 10,
        };
        assert_eq!(physical.wire_size(), 16 + 10 * PAGE_SIZE);
        assert_eq!(iou.wire_size(), 32);
        assert!(iou.wire_size() < physical.wire_size() / 100);
    }

    #[test]
    fn message_accounting() {
        let dest = PortId(1);
        let msg = Message::new(MsgKind::Rimas, dest)
            .push(MsgItem::Pages {
                base_page: 0,
                frames: vec![Frame::zeroed(), Frame::zeroed()],
            })
            .push(MsgItem::Iou {
                base_page: 2,
                seg: SegmentId(4),
                seg_offset: 0,
                pages: 7,
            })
            .push(MsgItem::Inline(vec![0u8; 100]));
        assert_eq!(msg.carried_pages(), 2);
        assert_eq!(msg.owed_pages(), 7);
        assert_eq!(
            msg.wire_size(),
            HEADER_SIZE + (16 + 2 * PAGE_SIZE) + 32 + 108
        );
    }

    #[test]
    fn rights_and_amap_extraction() {
        let dest = PortId(0);
        let mut b = AMap::builder();
        b.push(
            PageRange::new(PageNum(0), PageNum(4)),
            cor_mem::amap::Access::Real,
            None,
            0,
        );
        let amap = b.finish();
        let rights = vec![
            PortRight {
                port: PortId(7),
                right: Right::Send,
            },
            PortRight {
                port: PortId(8),
                right: Right::Receive,
            },
        ];
        let msg = Message::new(MsgKind::Core, dest)
            .push(MsgItem::Rights(rights.clone()))
            .push(MsgItem::AMap(amap.clone()));
        assert_eq!(msg.rights(), rights);
        assert_eq!(msg.amap(), Some(&amap));
    }

    #[test]
    fn cow_pages_share_until_written() {
        let frame = Frame::new(page_from_bytes(b"msg"));
        let item = MsgItem::Pages {
            base_page: 0,
            frames: vec![frame.clone()],
        };
        // Mapping the item's frame into a "receiver" is a clone, not a copy.
        if let MsgItem::Pages { frames, .. } = &item {
            let receiver_view = frames[0].clone();
            assert!(receiver_view.is_shared());
            receiver_view.with(|d| assert_eq!(&d[..3], b"msg"));
        }
        assert!(frame.is_shared());
    }

    #[test]
    fn builder_flags() {
        let m = Message::new(MsgKind::MigrateRequest, PortId(1))
            .with_reply(PortId(2))
            .with_no_ious(true);
        assert_eq!(m.reply, Some(PortId(2)));
        assert!(m.no_ious);
        assert_eq!(m.seq, 0, "unsequenced by default");
    }

    #[test]
    fn a_message_fits_136_bytes() {
        // Port queues hold whole messages, so under the open-loop backlog
        // a wider message is paid once per queued message: 64 more bytes
        // here raised peak heap by 15–20 % on the fault-service workloads
        // with no extra allocation. The two inline items are most of it.
        assert!(std::mem::size_of::<Message>() <= 136);
    }

    #[test]
    fn seq_rides_in_the_header_for_free() {
        let plain = Message::new(MsgKind::ImagReadRequest, PortId(1));
        let sequenced = Message::new(MsgKind::ImagReadRequest, PortId(1)).with_seq(42);
        assert_eq!(sequenced.seq, 42);
        assert_eq!(
            plain.wire_size(),
            sequenced.wire_size(),
            "sequence numbers live inside the fixed header"
        );
    }
}
