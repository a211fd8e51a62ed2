//! Resident-set tracking with LRU replacement.
//!
//! Accent's physical memory "tends to act as a disk cache" (paper §4.2.3):
//! a process's resident set at migration time is whatever survived LRU
//! replacement, including stale file pages that will never be touched again.
//! The tracker models a per-space frame budget; when it is exceeded the
//! least recently used page is nominated for page-out.

use std::collections::{BTreeMap, HashMap};

use crate::page::PageNum;

/// LRU tracker over the resident pages of one address space.
///
/// # Examples
///
/// ```
/// use cor_mem::resident::ResidentTracker;
/// use cor_mem::PageNum;
///
/// let mut rs = ResidentTracker::with_capacity(2);
/// assert_eq!(rs.touch(PageNum(1)), None);
/// assert_eq!(rs.touch(PageNum(2)), None);
/// assert_eq!(rs.touch(PageNum(1)), None); // refresh 1
/// // Inserting a third page evicts the LRU page, which is now 2.
/// assert_eq!(rs.touch(PageNum(3)), Some(PageNum(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResidentTracker {
    /// page -> recency stamp
    stamps: HashMap<PageNum, u64>,
    /// recency stamp -> page (inverse index, for O(log n) LRU lookup)
    order: BTreeMap<u64, PageNum>,
    next_stamp: u64,
    capacity: Option<usize>,
}

impl ResidentTracker {
    /// A tracker with unbounded capacity (no page-outs).
    pub fn unbounded() -> Self {
        ResidentTracker::default()
    }

    /// A tracker that nominates pages for page-out beyond `frames` resident
    /// pages.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero; a process needs at least one frame.
    pub fn with_capacity(frames: usize) -> Self {
        assert!(frames > 0, "resident capacity must be at least one frame");
        ResidentTracker {
            capacity: Some(frames),
            ..ResidentTracker::default()
        }
    }

    /// A tracker holding `lru` (least recently used first) under
    /// `capacity`, as if each page had been touched in that order.
    pub fn from_lru_order(capacity: Option<usize>, lru: &[PageNum]) -> Self {
        ResidentTracker {
            stamps: lru.iter().zip(0..).map(|(&p, stamp)| (p, stamp)).collect(),
            order: (0..).zip(lru.iter().copied()).collect(),
            next_stamp: lru.len() as u64,
            capacity,
        }
    }

    /// Changes the capacity. Does not immediately evict; the next `touch`
    /// enforces the new bound one page at a time.
    pub fn set_capacity(&mut self, frames: Option<usize>) {
        assert!(
            frames != Some(0),
            "resident capacity must be at least one frame"
        );
        self.capacity = frames;
    }

    /// Marks `page` as most recently used (inserting it if absent). If the
    /// insertion pushed the tracker over capacity, returns the LRU page;
    /// that page has already been dropped from the tracker and the caller
    /// must page it out.
    #[must_use = "a returned page must be paged out by the caller"]
    pub fn touch(&mut self, page: PageNum) -> Option<PageNum> {
        if let Some(old) = self.stamps.insert(page, self.next_stamp) {
            self.order.remove(&old);
        }
        self.order.insert(self.next_stamp, page);
        self.next_stamp += 1;
        if let Some(cap) = self.capacity {
            if self.stamps.len() > cap {
                let (&stamp, &victim) = self
                    .order
                    .iter()
                    .next()
                    .expect("tracker over capacity implies at least one entry");
                // The page just touched is never the LRU victim when cap >= 1.
                self.order.remove(&stamp);
                self.stamps.remove(&victim);
                return Some(victim);
            }
        }
        None
    }

    /// Marks `page` as most recently used *without* enforcing capacity.
    /// Used on plain access to an already-resident page: budgets are
    /// enforced when pages are installed, so an over-budget tracker (after
    /// a budget shrink or a bulk insertion) drains one page per subsequent
    /// install rather than on reads.
    pub fn refresh(&mut self, page: PageNum) {
        if let Some(old) = self.stamps.insert(page, self.next_stamp) {
            self.order.remove(&old);
        }
        self.order.insert(self.next_stamp, page);
        self.next_stamp += 1;
    }

    /// Removes `page` (it was paged out, unmapped, or migrated away).
    pub fn remove(&mut self, page: PageNum) -> bool {
        if let Some(stamp) = self.stamps.remove(&page) {
            self.order.remove(&stamp);
            true
        } else {
            false
        }
    }

    /// Forgets everything (e.g. after process excision).
    pub fn clear(&mut self) {
        self.stamps.clear();
        self.order.clear();
    }

    /// Whether `page` is tracked as resident.
    pub fn contains(&self, page: PageNum) -> bool {
        self.stamps.contains_key(&page)
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.stamps.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.stamps.is_empty()
    }

    /// The resident pages in ascending page order.
    pub fn pages(&self) -> Vec<PageNum> {
        let mut v: Vec<PageNum> = self.stamps.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The resident pages from least to most recently used.
    pub fn pages_lru_order(&self) -> Vec<PageNum> {
        self.order.values().copied().collect()
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageNum {
        PageNum(n)
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut rs = ResidentTracker::unbounded();
        for i in 0..1000 {
            assert_eq!(rs.touch(p(i)), None);
        }
        assert_eq!(rs.len(), 1000);
    }

    #[test]
    fn lru_eviction_order() {
        let mut rs = ResidentTracker::with_capacity(3);
        assert_eq!(rs.touch(p(1)), None);
        assert_eq!(rs.touch(p(2)), None);
        assert_eq!(rs.touch(p(3)), None);
        assert_eq!(rs.touch(p(4)), Some(p(1)));
        assert_eq!(rs.touch(p(2)), None); // refresh
        assert_eq!(rs.touch(p(5)), Some(p(3)));
        assert!(rs.contains(p(2)) && rs.contains(p(4)) && rs.contains(p(5)));
        assert!(!rs.contains(p(1)) && !rs.contains(p(3)));
    }

    #[test]
    fn retouching_does_not_grow() {
        let mut rs = ResidentTracker::with_capacity(2);
        for _ in 0..10 {
            assert_eq!(rs.touch(p(7)), None);
        }
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let mut rs = ResidentTracker::with_capacity(2);
        let _ = rs.touch(p(1));
        let _ = rs.touch(p(2));
        assert!(rs.remove(p(1)));
        assert!(!rs.remove(p(1)));
        assert_eq!(rs.len(), 1);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn lru_order_listing() {
        let mut rs = ResidentTracker::unbounded();
        let _ = rs.touch(p(5));
        let _ = rs.touch(p(3));
        let _ = rs.touch(p(5)); // refresh: 3 is now LRU
        assert_eq!(rs.pages_lru_order(), vec![p(3), p(5)]);
        assert_eq!(rs.pages(), vec![p(3), p(5)]);
    }

    #[test]
    fn capacity_shrink_enforced_lazily() {
        let mut rs = ResidentTracker::with_capacity(4);
        for i in 0..4 {
            let _ = rs.touch(p(i));
        }
        rs.set_capacity(Some(2));
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.touch(p(10)), Some(p(0)));
        assert_eq!(rs.len(), 4); // shrinks one per touch
        assert_eq!(rs.touch(p(11)), Some(p(1)));
    }
}
