//! The imaginary segment registry (paper §2.2).
//!
//! An imaginary segment is a memory object whose data is accessed "not by
//! direct reference to physical memory or a hard disk, but rather through
//! the IPC system": every segment has a *backing port*, and the process
//! holding that port's receive right services `ImaginaryReadRequest`s for
//! it. The registry tracks how many page references to each segment are
//! outstanding; when the count reaches zero the backer is owed an
//! `ImaginarySegmentDeath` notice so it can release its copy of the data.

use std::fmt;

use cor_mem::space::SegmentId;

use crate::port::PortId;

/// One imaginary segment.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The port whose receiver serves this segment's pages.
    pub backing_port: PortId,
    /// Segment length in pages.
    pub len_pages: u64,
    /// Outstanding page references (IOUs issued minus pages delivered or
    /// discarded).
    pub outstanding: u64,
}

/// Errors from segment operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// The segment does not exist (or already died).
    Unknown(SegmentId),
    /// More references were released than were outstanding.
    OverRelease(SegmentId),
    /// A reference range fell outside the segment.
    OutOfBounds(SegmentId),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::Unknown(s) => write!(f, "segment {} is unknown", s.0),
            SegmentError::OverRelease(s) => {
                write!(f, "segment {} released more refs than outstanding", s.0)
            }
            SegmentError::OutOfBounds(s) => {
                write!(f, "reference outside segment {}", s.0)
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// The system-wide imaginary segment table.
///
/// # Examples
///
/// ```
/// use cor_ipc::{PortId, SegmentRegistry};
///
/// let mut segs = SegmentRegistry::new();
/// let s = segs.create(PortId(3), 100);
/// segs.add_refs(s, 100).unwrap();
/// assert!(!segs.release_refs(s, 99).unwrap()); // still alive
/// assert!(segs.release_refs(s, 1).unwrap()); // death: notify the backer
/// assert!(segs.get(s).is_none());
/// ```
#[derive(Debug, Default)]
pub struct SegmentRegistry {
    /// `segments[id]` is `SegmentId(id)`: ids are handed out in sequence,
    /// a dead segment leaves `None` behind, and its id is never reused.
    segments: Vec<Option<Segment>>,
    /// Segment deaths so far, i.e. the `None`s in `segments`.
    deaths: u64,
}

impl SegmentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        SegmentRegistry::default()
    }

    /// Creates a segment of `len_pages` pages backed by `backing_port`,
    /// with no outstanding references yet.
    pub fn create(&mut self, backing_port: PortId, len_pages: u64) -> SegmentId {
        let id = SegmentId(self.segments.len() as u64);
        self.segments.push(Some(Segment {
            backing_port,
            len_pages,
            outstanding: 0,
        }));
        id
    }

    fn get_mut(&mut self, seg: SegmentId) -> Result<&mut Segment, SegmentError> {
        usize::try_from(seg.0)
            .ok()
            .and_then(|i| self.segments.get_mut(i))
            .and_then(Option::as_mut)
            .ok_or(SegmentError::Unknown(seg))
    }

    /// Records `pages` new outstanding references (IOUs issued against the
    /// segment).
    ///
    /// # Errors
    ///
    /// [`SegmentError::Unknown`] if the segment died or never existed.
    pub fn add_refs(&mut self, seg: SegmentId, pages: u64) -> Result<(), SegmentError> {
        self.get_mut(seg)?.outstanding += pages;
        Ok(())
    }

    /// Releases `pages` references (pages delivered to their faulter, or
    /// discarded with their mapping). Returns `true` when this released the
    /// last reference — the segment is removed and the caller must deliver
    /// an `ImaginarySegmentDeath` to the backing port.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Unknown`] or [`SegmentError::OverRelease`].
    pub fn release_refs(&mut self, seg: SegmentId, pages: u64) -> Result<bool, SegmentError> {
        let s = self.get_mut(seg)?;
        if pages > s.outstanding {
            return Err(SegmentError::OverRelease(seg));
        }
        s.outstanding -= pages;
        if s.outstanding > 0 {
            return Ok(false);
        }
        // `get_mut` found the slot, so the index is in range.
        self.segments[seg.0 as usize] = None;
        self.deaths += 1;
        Ok(true)
    }

    /// Looks up a live segment.
    pub fn get(&self, seg: SegmentId) -> Option<&Segment> {
        self.segments.get(usize::try_from(seg.0).ok()?)?.as_ref()
    }

    /// The backing port of a live segment.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Unknown`] if the segment died or never existed.
    pub fn backing_port(&self, seg: SegmentId) -> Result<PortId, SegmentError> {
        self.get(seg)
            .map(|s| s.backing_port)
            .ok_or(SegmentError::Unknown(seg))
    }

    /// Validates that `[offset, offset + pages)` lies within the segment.
    ///
    /// # Errors
    ///
    /// [`SegmentError::Unknown`] or [`SegmentError::OutOfBounds`].
    pub fn check_range(&self, seg: SegmentId, offset: u64, pages: u64) -> Result<(), SegmentError> {
        let s = self.get(seg).ok_or(SegmentError::Unknown(seg))?;
        if offset + pages <= s.len_pages {
            Ok(())
        } else {
            Err(SegmentError::OutOfBounds(seg))
        }
    }

    /// Number of live segments.
    pub fn live(&self) -> usize {
        // One `None` per death, and `deaths <= segments.len()` fits a usize.
        self.segments.len() - self.deaths as usize
    }

    /// Number of segment deaths so far.
    pub fn deaths(&self) -> u64 {
        self.deaths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut r = SegmentRegistry::new();
        let a = r.create(PortId(1), 10);
        let b = r.create(PortId(2), 20);
        assert_ne!(a, b);
        assert_eq!(r.backing_port(a), Ok(PortId(1)));
        assert_eq!(r.get(b).unwrap().len_pages, 20);
        assert_eq!(r.live(), 2);
    }

    #[test]
    fn refcounting_to_death() {
        let mut r = SegmentRegistry::new();
        let s = r.create(PortId(1), 4);
        r.add_refs(s, 4).unwrap();
        assert!(!r.release_refs(s, 2).unwrap());
        r.add_refs(s, 1).unwrap(); // re-IOU one page
        assert!(!r.release_refs(s, 2).unwrap());
        assert!(r.release_refs(s, 1).unwrap());
        assert_eq!(r.deaths(), 1);
        assert_eq!(r.live(), 0);
        assert_eq!(r.backing_port(s), Err(SegmentError::Unknown(s)));
    }

    #[test]
    fn over_release_rejected() {
        let mut r = SegmentRegistry::new();
        let s = r.create(PortId(1), 4);
        r.add_refs(s, 1).unwrap();
        assert_eq!(r.release_refs(s, 2), Err(SegmentError::OverRelease(s)));
        // The failed release changed nothing.
        assert_eq!(r.get(s).unwrap().outstanding, 1);
    }

    #[test]
    fn range_checks() {
        let mut r = SegmentRegistry::new();
        let s = r.create(PortId(1), 10);
        assert!(r.check_range(s, 0, 10).is_ok());
        assert!(r.check_range(s, 9, 1).is_ok());
        assert_eq!(r.check_range(s, 9, 2), Err(SegmentError::OutOfBounds(s)));
        assert_eq!(
            r.check_range(SegmentId(99), 0, 1),
            Err(SegmentError::Unknown(SegmentId(99)))
        );
    }
}
