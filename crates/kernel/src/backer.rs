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
use cor_sim::IdMap;

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

/// A simple in-memory [`PageStore`]: one frame vector per segment.
#[derive(Debug, Default)]
pub struct VecStore {
    segments: IdMap<SegmentId, Vec<Frame>>,
}

impl VecStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        VecStore::default()
    }

    /// Installs the data for a segment.
    pub fn insert(&mut self, seg: SegmentId, frames: Vec<Frame>) {
        self.segments.insert(seg, frames);
    }

    /// Whether the store still holds `seg`.
    pub fn holds(&self, seg: SegmentId) -> bool {
        self.segments.contains_key(&seg)
    }
}

impl PageStore for VecStore {
    fn fetch(&mut self, seg: SegmentId, offset: u64, count: u64) -> Option<Vec<Frame>> {
        let frames = self.segments.get(&seg)?;
        let end = offset.checked_add(count)? as usize;
        if end > frames.len() {
            return None;
        }
        Some(frames[offset as usize..end].to_vec())
    }

    fn death(&mut self, seg: SegmentId) {
        self.segments.remove(&seg);
    }

    fn pages_held(&self) -> u64 {
        self.segments.values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_mem::page::page_from_bytes;

    #[test]
    fn vec_store_serves_ranges() {
        let mut s = VecStore::new();
        let seg = SegmentId(1);
        s.insert(
            seg,
            (0..5)
                .map(|i| Frame::new(page_from_bytes(&[i as u8])))
                .collect(),
        );
        let got = s.fetch(seg, 2, 2).unwrap();
        assert_eq!(got.len(), 2);
        got[0].with(|d| assert_eq!(d[0], 2));
        got[1].with(|d| assert_eq!(d[0], 3));
        assert!(s.fetch(seg, 4, 2).is_none(), "out of range");
        assert!(s.fetch(SegmentId(9), 0, 1).is_none(), "unknown segment");
        assert_eq!(s.pages_held(), 5);
    }

    #[test]
    fn death_releases_data() {
        let mut s = VecStore::new();
        let seg = SegmentId(1);
        s.insert(seg, vec![Frame::zeroed()]);
        assert!(s.holds(seg));
        s.death(seg);
        assert!(!s.holds(seg));
        assert_eq!(s.pages_held(), 0);
    }
}
