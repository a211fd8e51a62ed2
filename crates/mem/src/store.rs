//! Pages held by name: each backed segment's frames, offset-indexed.
//!
//! One shape serves every backer that answers `(segment, offset, count)`
//! read requests from memory — the NetMsgServer's segment cache in
//! `cor-net` and every user-level backer the `cor-kernel` world holds — so
//! the range check lives here once.

use cor_sim::IdMap;

use crate::page::Frame;
use crate::space::SegmentId;

/// Each held segment's frames, indexed by page offset.
#[derive(Debug, Clone, Default)]
pub struct SegmentStore {
    segments: IdMap<SegmentId, Vec<Frame>>,
}

impl SegmentStore {
    /// Installs (or replaces) the data for `seg`.
    pub fn insert(&mut self, seg: SegmentId, frames: Vec<Frame>) {
        self.segments.insert(seg, frames);
    }

    /// The `count` frames of `seg` from page `offset`, or `None` when the
    /// store does not hold `seg` or the segment is shorter than the range.
    pub fn range(&self, seg: SegmentId, offset: u64, count: u64) -> Option<&[Frame]> {
        let end = offset.checked_add(count)?;
        self.segments.get(&seg)?.get(offset as usize..end as usize)
    }

    /// Drops `seg`'s data; `false` when the store did not hold it.
    pub fn remove(&mut self, seg: SegmentId) -> bool {
        self.segments.remove(&seg).is_some()
    }

    /// Whether the store holds `seg`.
    pub fn holds(&self, seg: SegmentId) -> bool {
        self.segments.contains_key(&seg)
    }

    /// Pages held across every segment.
    pub fn pages(&self) -> u64 {
        self.segments.values().map(|v| v.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_from_bytes;

    #[test]
    fn segment_store_serves_ranges() {
        let mut s = SegmentStore::default();
        let seg = SegmentId(1);
        s.insert(
            seg,
            (0..5)
                .map(|i| Frame::new(page_from_bytes(&[i as u8])))
                .collect(),
        );
        let got = s.range(seg, 2, 2).unwrap();
        assert_eq!(got.len(), 2);
        got[0].with(|d| assert_eq!(d[0], 2));
        got[1].with(|d| assert_eq!(d[0], 3));
        assert!(s.range(seg, 4, 2).is_none(), "out of range");
        assert!(s.range(seg, u64::MAX, 2).is_none(), "overflowing range");
        assert!(s.range(SegmentId(9), 0, 1).is_none(), "unknown segment");
        assert_eq!(s.pages(), 5);
    }

    #[test]
    fn remove_releases_data() {
        let mut s = SegmentStore::default();
        let seg = SegmentId(1);
        s.insert(seg, vec![Frame::zeroed()]);
        assert!(s.holds(seg));
        assert!(s.remove(seg));
        assert!(!s.remove(seg), "already gone");
        assert!(!s.holds(seg));
        assert_eq!(s.pages(), 0);
    }
}
