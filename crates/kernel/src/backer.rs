//! User-level imaginary segment backers.
//!
//! "Any process may create an imaginary segment based on one of its ports
//! ... In effect, it transmits an IOU for the region's data, promising to
//! deliver it as needed" (paper §2.2). The NetMsgServer's automatic IOU
//! cache (in `cor-net`) is one backer; this trait lets *user-level*
//! processes — the MigrationManager actively managing an excised address
//! space, or any application lazily shipping data — serve their own
//! segments. The world routes `ImaginaryReadRequest`s arriving on a
//! registered backing port to the store and sends the replies.

use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_mem::SegmentStore;

/// A supplier of imaginary segment pages.
pub trait PageStore {
    /// Returns `count` frames starting `offset` pages into `seg`, or
    /// `None` if the store does not hold them (a protocol error surfaced
    /// by the world).
    fn fetch(&mut self, seg: SegmentId, offset: u64, count: u64) -> Option<Vec<Frame>>;

    /// The last reference to `seg` died; the store may release its data.
    fn death(&mut self, seg: SegmentId);

    /// Pages currently held across all live segments (for leak checks).
    fn pages_held(&self) -> u64;
}

/// The in-memory backer: the store a NetMsgServer caches its segments in.
impl PageStore for SegmentStore {
    fn fetch(&mut self, seg: SegmentId, offset: u64, count: u64) -> Option<Vec<Frame>> {
        self.range(seg, offset, count).map(<[Frame]>::to_vec)
    }

    fn death(&mut self, seg: SegmentId) {
        self.remove(seg);
    }

    fn pages_held(&self) -> u64 {
        self.pages()
    }
}
