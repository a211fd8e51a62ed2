//! Resident-set tracking with LRU replacement.
//!
//! Accent's physical memory "tends to act as a disk cache" (paper §4.2.3):
//! a process's resident set at migration time is whatever survived LRU
//! replacement, including stale file pages that will never be touched again.
//! The tracker models a per-space frame budget; when it is exceeded the
//! least recently used page is nominated for page-out.

use cor_sim::lru::Slot;
use cor_sim::LruList;

use crate::page::PageNum;

/// LRU order over the resident pages of one address space, and its frame
/// budget.
///
/// The tracker keeps no page index of its own: [`ResidentTracker::push`]
/// returns the page's [`Slot`], which its owner keeps in the page's
/// `PageState::Resident`, so a hit refreshes the page, and a page-out
/// removes it, with no lookup at all.
///
/// # Examples
///
/// ```
/// use cor_mem::resident::ResidentTracker;
/// use cor_mem::PageNum;
///
/// let mut rs = ResidentTracker::sized(Some(2), 3);
/// let one = rs.push(PageNum(1));
/// rs.push(PageNum(2));
/// rs.refresh(one);
/// // A third page puts the tracker over budget; the LRU page is now 2.
/// rs.push(PageNum(3));
/// assert_eq!(rs.victim(), Some(PageNum(2)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResidentTracker {
    lru: LruList<PageNum>,
    capacity: Option<usize>,
}

impl ResidentTracker {
    /// An empty tracker that nominates pages for page-out beyond
    /// `capacity` resident pages, with room for `pages` pushes before it
    /// reallocates.
    ///
    /// # Panics
    ///
    /// Panics on `Some(0)`; a process needs at least one frame.
    pub fn sized(capacity: Option<usize>, pages: usize) -> Self {
        let mut tracker = ResidentTracker {
            lru: LruList::with_capacity(pages),
            capacity: None,
        };
        tracker.set_capacity(capacity);
        tracker
    }

    /// Makes room for `pages` more pushes, but never for more than one
    /// page past the frame budget: the owner pushes a page before it
    /// pages out the victim, and from then on each push reuses the slot
    /// the last page-out freed.
    pub fn reserve(&mut self, pages: usize) {
        let room = self.capacity.map_or(pages, |cap| {
            pages.min((cap + 1).saturating_sub(self.lru.len()))
        });
        self.lru.reserve(room);
    }

    /// Changes the capacity. Does not immediately evict: the owner pages
    /// out one [`ResidentTracker::victim`] per install, so an over-budget
    /// tracker (after a budget shrink or a bulk insertion) drains one page
    /// per later install rather than on reads.
    pub fn set_capacity(&mut self, frames: Option<usize>) {
        assert!(
            frames != Some(0),
            "resident capacity must be at least one frame"
        );
        self.capacity = frames;
    }

    /// Adds `page`, which must not be tracked already, as the most
    /// recently used; returns the slot that names it from now on.
    pub fn push(&mut self, page: PageNum) -> Slot {
        self.lru.push(page)
    }

    /// Marks the page at `slot` as the most recently used.
    pub fn refresh(&mut self, slot: Slot) {
        self.lru.touch(slot);
    }

    /// Removes the page at `slot` (it was paged out, unmapped, or migrated
    /// away) and returns it.
    pub fn remove(&mut self, slot: Slot) -> PageNum {
        self.lru.remove(slot)
    }

    /// The least recently used page if the tracker holds more pages than
    /// its capacity: the page its owner must page out next.
    pub fn victim(&self) -> Option<PageNum> {
        let over = self.capacity.is_some_and(|cap| self.lru.len() > cap);
        let (_, oldest) = self.lru.iter().next()?;
        over.then_some(oldest)
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// The resident pages in ascending page order.
    pub fn pages(&self) -> Vec<PageNum> {
        let mut v = self.pages_lru_order();
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
            rs.push(p(i));
            assert_eq!(rs.victim(), None);
        }
        assert_eq!(rs.len(), 1000);
    }

    #[test]
    fn the_victim_is_the_least_recently_used_page() {
        let mut rs = ResidentTracker::sized(Some(3), 0);
        let slots: Vec<Slot> = (1..=3).map(|n| rs.push(p(n))).collect();
        assert_eq!(rs.victim(), None, "at capacity, not over it");
        rs.push(p(4));
        assert_eq!(rs.victim(), Some(p(1)));
        rs.refresh(slots[0]);
        assert_eq!(rs.victim(), Some(p(2)), "a refresh saves page 1");
        assert_eq!(rs.remove(slots[1]), p(2));
        assert_eq!(rs.victim(), None);
        assert_eq!(rs.pages_lru_order(), vec![p(3), p(4), p(1)]);
        assert_eq!(rs.pages(), vec![p(1), p(3), p(4)]);
    }

    #[test]
    fn capacity_shrink_is_enforced_by_the_owner() {
        let mut rs = ResidentTracker::sized(Some(4), 4);
        let slots: Vec<Slot> = (0..4).map(|n| rs.push(p(n))).collect();
        rs.set_capacity(Some(2));
        assert_eq!(rs.len(), 4, "nothing leaves until the owner pages out");
        assert_eq!(rs.victim(), Some(p(0)));
        rs.remove(slots[0]);
        assert_eq!(rs.victim(), Some(p(1)));
        rs.remove(slots[1]);
        assert_eq!(rs.victim(), None);
        assert!(!rs.is_empty());
    }
}
