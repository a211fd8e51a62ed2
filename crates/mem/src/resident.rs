//! Resident-set tracking with LRU replacement.
//!
//! Accent's physical memory "tends to act as a disk cache" (paper §4.2.3):
//! a process's resident set at migration time is whatever survived LRU
//! replacement, including stale file pages that will never be touched again.
//! The tracker models a per-space frame budget; when it is exceeded the
//! least recently used page is nominated for page-out.

use std::collections::hash_map::Entry;

use cor_sim::lru::Slot;
use cor_sim::{IdMap, LruList};

use crate::page::PageNum;

/// LRU tracker over the resident pages of one address space: an
/// [`LruList`] of pages plus a page → slot index, so `touch`, `refresh`
/// and `remove` are O(1).
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
    lru: LruList<PageNum>,
    /// Never iterated for output: `pages` sorts, the list carries the order.
    slots: IdMap<PageNum, Slot>,
    capacity: Option<usize>,
}

impl ResidentTracker {
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
        let mut tracker = ResidentTracker {
            lru: LruList::with_capacity(lru.len()),
            capacity,
            ..ResidentTracker::default()
        };
        tracker.slots.reserve(lru.len());
        lru.iter().for_each(|&page| tracker.refresh(page));
        tracker
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
        self.refresh(page);
        // Over capacity, so the list is not empty and its oldest page is
        // the victim — never the page just touched when the capacity is
        // >= 1.
        if self.capacity.is_some_and(|cap| self.slots.len() > cap) {
            let (_, victim) = self.lru.pop_oldest()?;
            self.slots.remove(&victim);
            return Some(victim);
        }
        None
    }

    /// Marks `page` as most recently used *without* enforcing capacity.
    /// Used on plain access to an already-resident page: budgets are
    /// enforced when pages are installed, so an over-budget tracker (after
    /// a budget shrink or a bulk insertion) drains one page per subsequent
    /// install rather than on reads.
    pub fn refresh(&mut self, page: PageNum) {
        match self.slots.entry(page) {
            Entry::Occupied(slot) => self.lru.touch(*slot.get()),
            Entry::Vacant(slot) => {
                slot.insert(self.lru.push(page));
            }
        }
    }

    /// Removes `page` (it was paged out, unmapped, or migrated away).
    pub fn remove(&mut self, page: PageNum) -> bool {
        let Some(slot) = self.slots.remove(&page) else {
            return false;
        };
        self.lru.remove(slot);
        true
    }

    /// Forgets everything (e.g. after process excision).
    pub fn clear(&mut self) {
        self.lru.clear();
        self.slots.clear();
    }

    /// Whether `page` is tracked as resident.
    pub fn contains(&self, page: PageNum) -> bool {
        self.slots.contains_key(&page)
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The resident pages in ascending page order.
    pub fn pages(&self) -> Vec<PageNum> {
        let mut v: Vec<PageNum> = self.slots.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The resident pages from least to most recently used.
    pub fn pages_lru_order(&self) -> Vec<PageNum> {
        let mut order = Vec::with_capacity(self.lru.len());
        order.extend(self.lru.iter().map(|(_, page)| page));
        order
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
        let mut rs = ResidentTracker::default();
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
        let mut rs = ResidentTracker::default();
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
