//! Accessibility Maps (AMaps), paper §2.3.
//!
//! The existence of imaginary objects forces the system to answer "how far
//! away is this memory?" for any address range — carelessly touching an
//! imaginary region from the wrong context deadlocks the Accent kernel. An
//! AMap is a sorted, coalesced interval map classifying every page of an
//! address space into one of four memory distances.
//!
//! AMaps also travel in messages: `ExciseProcess` ships one in the *Core*
//! context message, and the NetMsgServers on both sides use it to decide
//! which subranges of the RIMAS message are physical data and which are
//! IOUs (§2.4, §3.1).

use std::fmt;

use crate::page::{PageNum, PageRange};
use crate::space::SegmentId;

/// The four memory "distances" of paper §2.3, ordered from nearest to
/// farthest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Access {
    /// Validated but never touched; conceptually zero-filled. Immediately
    /// accessible (a cheap FillZero fault materializes it).
    RealZero,
    /// Present in physical memory or on the local disk. "Moderately"
    /// accessible.
    Real,
    /// Mapped to an imaginary segment; data lives behind a backing port,
    /// possibly across the network. "Distantly" accessible.
    Imag,
    /// Never validated. Touching it is an addressing error; "infinitely
    /// distant".
    Bad,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Access::RealZero => "RealZeroMem",
            Access::Real => "RealMem",
            Access::Imag => "ImagMem",
            Access::Bad => "BadMem",
        };
        f.write_str(s)
    }
}

/// One coalesced run of pages sharing an accessibility class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AMapEntry {
    /// The pages covered.
    pub range: PageRange,
    /// Their accessibility class.
    pub access: Access,
    /// For [`Access::Imag`] runs, the backing segment; the run's first page
    /// maps to `seg_offset` pages into that segment and subsequent pages
    /// follow contiguously.
    pub seg: Option<SegmentId>,
    /// Segment page offset of the first page in the run (imaginary runs
    /// only; zero otherwise).
    pub seg_offset: u64,
}

impl AMapEntry {
    fn mergeable_with(&self, next: &AMapEntry) -> bool {
        self.range.end == next.range.start
            && self.access == next.access
            && self.seg == next.seg
            && (self.access != Access::Imag
                || self.seg_offset + self.range.len() == next.seg_offset)
    }
}

/// A sorted, coalesced accessibility map.
///
/// Invariants (checked by [`AMap::verify`], exercised by property tests):
/// entries are sorted by start page, non-overlapping, non-empty, never of
/// class [`Access::Bad`] (gaps *are* BadMem), and no two adjacent entries
/// are mergeable.
///
/// # Examples
///
/// ```
/// use cor_mem::amap::{Access, AMap};
/// use cor_mem::{PageNum, PageRange};
///
/// let mut b = AMap::builder();
/// b.push(PageRange::new(PageNum(0), PageNum(4)), Access::Real, None, 0);
/// b.push(PageRange::new(PageNum(4), PageNum(10)), Access::RealZero, None, 0);
/// let amap = b.finish();
/// assert_eq!(amap.lookup(PageNum(2)).0, Access::Real);
/// assert_eq!(amap.lookup(PageNum(7)).0, Access::RealZero);
/// assert_eq!(amap.lookup(PageNum(10)).0, Access::Bad); // gap
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AMap {
    entries: Vec<AMapEntry>,
}

/// Incremental [`AMap`] constructor that coalesces as it goes.
///
/// Pushes must arrive in ascending, non-overlapping page order (the natural
/// order of a page-table walk).
#[derive(Debug, Default)]
pub struct AMapBuilder {
    entries: Vec<AMapEntry>,
}

impl AMapBuilder {
    /// Appends a run.
    ///
    /// # Panics
    ///
    /// Panics if the run is [`Access::Bad`] (gaps represent BadMem), or if
    /// it is not strictly after the previously pushed run.
    pub fn push(
        &mut self,
        range: PageRange,
        access: Access,
        seg: Option<SegmentId>,
        seg_offset: u64,
    ) {
        if range.is_empty() {
            return;
        }
        assert!(
            access != Access::Bad,
            "BadMem is represented by gaps, not entries"
        );
        assert!(
            (access == Access::Imag) == seg.is_some(),
            "segment id must accompany exactly the Imag class"
        );
        let entry = AMapEntry {
            range,
            access,
            seg,
            seg_offset,
        };
        if let Some(last) = self.entries.last_mut() {
            assert!(
                last.range.end <= range.start,
                "AMap runs must be pushed in ascending order"
            );
            if last.mergeable_with(&entry) {
                last.range = PageRange::new(last.range.start, range.end);
                return;
            }
        }
        self.entries.push(entry);
    }

    /// Finishes construction.
    pub fn finish(self) -> AMap {
        let amap = AMap {
            entries: self.entries,
        };
        debug_assert!(amap.verify().is_ok());
        amap
    }
}

impl AMap {
    /// Starts building an AMap.
    pub fn builder() -> AMapBuilder {
        AMapBuilder::default()
    }

    /// An AMap covering nothing (everything BadMem).
    pub fn empty() -> AMap {
        AMap::default()
    }

    /// Classifies a page, returning its class and backing segment
    /// (with the page's offset *within* that segment) when imaginary.
    pub fn lookup(&self, page: PageNum) -> (Access, Option<(SegmentId, u64)>) {
        match self.entry_for(page) {
            Some(e) => {
                let seg = e
                    .seg
                    .map(|s| (s, e.seg_offset + (page.0 - e.range.start.0)));
                (e.access, seg)
            }
            None => (Access::Bad, None),
        }
    }

    /// The entry containing `page`, if any.
    pub fn entry_for(&self, page: PageNum) -> Option<&AMapEntry> {
        let idx = self.entries.partition_point(|e| e.range.end.0 <= page.0);
        self.entries.get(idx).filter(|e| e.range.contains(page))
    }

    /// All entries in page order.
    pub fn entries(&self) -> &[AMapEntry] {
        &self.entries
    }

    /// Number of coalesced runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the map covers nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total bytes covered by entries of class `access`.
    pub fn bytes_of(&self, access: Access) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.access == access)
            .map(|e| e.range.bytes())
            .sum()
    }

    /// The most distant accessibility class in `range` — the §2.3 question
    /// ("can this range be touched safely from the current context?").
    /// Gaps count as [`Access::Bad`].
    pub fn max_access_in(&self, range: PageRange) -> Access {
        if range.is_empty() {
            return Access::RealZero;
        }
        let mut worst = Access::RealZero;
        let mut covered = 0u64;
        for e in self.runs_in(range) {
            covered += e.range.len();
            worst = worst.max(e.access);
        }
        if covered < range.len() {
            Access::Bad
        } else {
            worst
        }
    }

    /// The entries of `self` clipped to `range`, preserving class and
    /// segment offsets. Used by the NetMsgServer to fragment a message's
    /// out-of-line memory.
    pub fn runs_in(&self, range: PageRange) -> Vec<AMapEntry> {
        let mut out = Vec::new();
        for e in &self.entries {
            if e.range.end.0 <= range.start.0 || e.range.start.0 >= range.end.0 {
                continue;
            }
            let start = e.range.start.0.max(range.start.0);
            let end = e.range.end.0.min(range.end.0);
            out.push(AMapEntry {
                range: PageRange::new(PageNum(start), PageNum(end)),
                access: e.access,
                seg: e.seg,
                seg_offset: e.seg_offset + (start - e.range.start.0),
            });
        }
        out
    }

    /// The size of this AMap's wire encoding in bytes. Modeled after a
    /// compact 1987-style encoding: a 16-byte header plus 12 bytes per run
    /// (start, length, class+segment).
    pub fn wire_size(&self) -> u64 {
        16 + 12 * self.entries.len() as u64
    }

    /// Checks the structural invariants, returning a description of the
    /// first violation.
    pub fn verify(&self) -> Result<(), String> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.range.is_empty() {
                return Err(format!("entry {i} is empty"));
            }
            if e.access == Access::Bad {
                return Err(format!("entry {i} is BadMem"));
            }
            if (e.access == Access::Imag) != e.seg.is_some() {
                return Err(format!("entry {i} has inconsistent segment info"));
            }
            if let Some(prev) = i.checked_sub(1).map(|j| &self.entries[j]) {
                if prev.range.end.0 > e.range.start.0 {
                    return Err(format!("entry {i} overlaps its predecessor"));
                }
                if prev.mergeable_with(e) {
                    return Err(format!("entry {i} should be coalesced with predecessor"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: u64, b: u64) -> PageRange {
        PageRange::new(PageNum(a), PageNum(b))
    }

    #[test]
    fn builder_coalesces_adjacent_same_class() {
        let mut b = AMap::builder();
        b.push(r(0, 2), Access::Real, None, 0);
        b.push(r(2, 5), Access::Real, None, 0);
        b.push(r(5, 6), Access::RealZero, None, 0);
        let m = b.finish();
        assert_eq!(m.len(), 2);
        assert_eq!(m.entries()[0].range, r(0, 5));
    }

    #[test]
    fn builder_does_not_coalesce_across_gaps_or_classes() {
        let mut b = AMap::builder();
        b.push(r(0, 2), Access::Real, None, 0);
        b.push(r(3, 4), Access::Real, None, 0); // gap at page 2
        let m = b.finish();
        assert_eq!(m.len(), 2);
        assert_eq!(m.lookup(PageNum(2)).0, Access::Bad);
    }

    #[test]
    fn imaginary_runs_coalesce_only_when_offsets_flow() {
        let s = SegmentId(1);
        let mut b = AMap::builder();
        b.push(r(0, 2), Access::Imag, Some(s), 0);
        b.push(r(2, 4), Access::Imag, Some(s), 2); // contiguous in segment
        b.push(r(4, 6), Access::Imag, Some(s), 10); // jump: new run
        let m = b.finish();
        assert_eq!(m.len(), 2);
        let (acc, seg) = m.lookup(PageNum(3));
        assert_eq!(acc, Access::Imag);
        assert_eq!(seg, Some((s, 3)));
        let (_, seg) = m.lookup(PageNum(5));
        assert_eq!(seg, Some((s, 11)));
    }

    #[test]
    fn lookup_finds_correct_entry() {
        let mut b = AMap::builder();
        b.push(r(10, 20), Access::RealZero, None, 0);
        b.push(r(30, 40), Access::Real, None, 0);
        let m = b.finish();
        assert_eq!(m.lookup(PageNum(9)).0, Access::Bad);
        assert_eq!(m.lookup(PageNum(10)).0, Access::RealZero);
        assert_eq!(m.lookup(PageNum(19)).0, Access::RealZero);
        assert_eq!(m.lookup(PageNum(20)).0, Access::Bad);
        assert_eq!(m.lookup(PageNum(35)).0, Access::Real);
        assert_eq!(m.lookup(PageNum(40)).0, Access::Bad);
    }

    #[test]
    fn byte_accounting() {
        let mut b = AMap::builder();
        b.push(r(0, 4), Access::Real, None, 0);
        b.push(r(4, 10), Access::RealZero, None, 0);
        let m = b.finish();
        assert_eq!(m.bytes_of(Access::Real), 4 * 512);
        assert_eq!(m.bytes_of(Access::RealZero), 6 * 512);
        assert_eq!(m.bytes_of(Access::Imag), 0);
    }

    #[test]
    fn runs_in_clips_and_adjusts_offsets() {
        let s = SegmentId(2);
        let mut b = AMap::builder();
        b.push(r(0, 10), Access::Imag, Some(s), 100);
        let m = b.finish();
        let clipped = m.runs_in(r(3, 7));
        assert_eq!(clipped.len(), 1);
        assert_eq!(clipped[0].range, r(3, 7));
        assert_eq!(clipped[0].seg_offset, 103);
        assert!(m.runs_in(r(50, 60)).is_empty());
    }

    #[test]
    fn max_access_answers_the_distance_question() {
        let mut b = AMap::builder();
        b.push(r(0, 4), Access::Real, None, 0);
        b.push(r(4, 8), Access::RealZero, None, 0);
        b.push(r(8, 10), Access::Imag, Some(SegmentId(1)), 0);
        let m = b.finish();
        assert_eq!(m.max_access_in(r(0, 4)), Access::Real);
        assert_eq!(m.max_access_in(r(4, 8)), Access::RealZero);
        assert_eq!(m.max_access_in(r(0, 8)), Access::Real);
        assert_eq!(m.max_access_in(r(0, 10)), Access::Imag, "any Imag taints");
        assert_eq!(m.max_access_in(r(0, 11)), Access::Bad, "gap taints harder");
        assert_eq!(m.max_access_in(r(20, 25)), Access::Bad);
        assert_eq!(m.max_access_in(r(3, 3)), Access::RealZero, "empty range");
    }

    #[test]
    fn wire_size_grows_with_runs() {
        let mut b = AMap::builder();
        b.push(r(0, 1), Access::Real, None, 0);
        b.push(r(2, 3), Access::Real, None, 0);
        let m = b.finish();
        assert_eq!(m.wire_size(), 16 + 24);
        assert_eq!(AMap::empty().wire_size(), 16);
    }

    #[test]
    #[should_panic(expected = "ascending order")]
    fn out_of_order_push_panics() {
        let mut b = AMap::builder();
        b.push(r(5, 6), Access::Real, None, 0);
        b.push(r(0, 1), Access::Real, None, 0);
    }

    #[test]
    #[should_panic(expected = "BadMem")]
    fn bad_entry_push_panics() {
        let mut b = AMap::builder();
        b.push(r(0, 1), Access::Bad, None, 0);
    }

    #[test]
    fn verify_catches_violations() {
        let good = AMap {
            entries: vec![AMapEntry {
                range: r(0, 2),
                access: Access::Real,
                seg: None,
                seg_offset: 0,
            }],
        };
        assert!(good.verify().is_ok());
        let overlapping = AMap {
            entries: vec![
                AMapEntry {
                    range: r(0, 3),
                    access: Access::Real,
                    seg: None,
                    seg_offset: 0,
                },
                AMapEntry {
                    range: r(2, 4),
                    access: Access::RealZero,
                    seg: None,
                    seg_offset: 0,
                },
            ],
        };
        assert!(overlapping.verify().is_err());
        let uncoalesced = AMap {
            entries: vec![
                AMapEntry {
                    range: r(0, 2),
                    access: Access::Real,
                    seg: None,
                    seg_offset: 0,
                },
                AMapEntry {
                    range: r(2, 4),
                    access: Access::Real,
                    seg: None,
                    seg_offset: 0,
                },
            ],
        };
        assert!(uncoalesced.verify().is_err());
    }

    /// Only this module can build an AMap with an empty entry (the builder
    /// drops them), so the bulk constructor's "an empty range validates
    /// nothing" is pinned here.
    #[test]
    fn an_empty_entry_contributes_nothing_to_a_rebuilt_space() {
        let entry = |range, access| AMapEntry {
            range,
            access,
            seg: None,
            seg_offset: 0,
        };
        let amap = AMap {
            entries: vec![
                entry(r(0, 2), Access::RealZero),
                entry(r(5, 5), Access::Real),
                entry(r(8, 9), Access::RealZero),
            ],
        };
        let mut disk = crate::disk::Disk::new();
        let space = crate::space::AddressSpace::from_amap(&amap, |_| None, None, &mut disk)
            .expect("no mapped page, so nothing to fill");
        assert_eq!(space.regions(), vec![r(0, 2), r(8, 9)]);
    }
}
