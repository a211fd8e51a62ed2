//! Least-recently-used order in one slab.
//!
//! [`LruList`] is an intrusive circular doubly-linked list whose links are
//! slab indices, so pushing a value, moving one to the most-recently-used
//! end and removing one are O(1) and allocate nothing once the slab has
//! grown to its working size. Its owner keeps the [`Slot`] each push
//! returns next to whatever the value names: an address space's resident
//! tracker keys slots by page.

/// Where a value sits in an [`LruList`]: valid from the push that returned
/// it until its removal, after which a later push may reuse it.
///
/// `Slot::default()` names no value: a placeholder for an owner to hold
/// until its value is pushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Slot(u32);

/// One slab entry: a link of the list or, once released, of the free list
/// (through `next`).
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    prev: u32,
    next: u32,
    value: T,
}

/// Values from least to most recently used.
///
/// # Examples
///
/// ```
/// use cor_sim::LruList;
///
/// let mut lru = LruList::default();
/// let a = lru.push('a');
/// lru.push('b');
/// lru.touch(a); // 'b' is now the least recently used
/// assert_eq!(lru.iter().map(|(_, v)| v).collect::<String>(), "ba");
/// assert_eq!(lru.remove(a), 'a');
/// assert_eq!(lru.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LruList<T> {
    /// `nodes[0]`, pushed with the first value, is the sentinel: its
    /// `next` is the least recently used node, its `prev` the most.
    nodes: Vec<Node<T>>,
    /// The first released node, 0 when there is none.
    free: u32,
    len: usize,
}

impl<T> Default for LruList<T> {
    fn default() -> Self {
        LruList {
            nodes: Vec::new(),
            free: 0,
            len: 0,
        }
    }
}

impl<T: Copy> LruList<T> {
    /// An empty list with room for `n` values before it reallocates; for
    /// `n = 0`, an empty list that allocates nothing.
    pub fn with_capacity(n: usize) -> Self {
        if n == 0 {
            return LruList::default();
        }
        LruList {
            nodes: Vec::with_capacity(n + 1),
            ..LruList::default()
        }
    }

    /// Makes room for `additional` more pushes (the sentinel too, on an
    /// empty list) in at most one growth.
    pub fn reserve(&mut self, additional: usize) {
        if additional > 0 {
            let sentinel = usize::from(self.nodes.is_empty());
            self.nodes.reserve(additional + sentinel);
        }
    }

    /// Appends `value` as the most recently used; returns its slot. Takes
    /// a released node when there is one.
    pub fn push(&mut self, value: T) -> Slot {
        let alone = |slot| Node {
            prev: slot,
            next: slot,
            value,
        };
        if self.nodes.is_empty() {
            self.nodes.push(alone(0)); // the sentinel
        }
        let slot = match self.free {
            0 => {
                self.nodes.push(alone(self.nodes.len() as u32));
                self.nodes.len() as u32 - 1
            }
            released => {
                let node = &mut self.nodes[released as usize];
                self.free = std::mem::replace(node, alone(released)).next;
                released
            }
        };
        self.len += 1;
        self.link_newest(slot);
        Slot(slot)
    }

    /// Makes the value at `slot` the most recently used.
    pub fn touch(&mut self, Slot(slot): Slot) {
        self.unlink(slot);
        self.link_newest(slot);
    }

    /// Removes the value at `slot` and returns it; the slot is released.
    pub fn remove(&mut self, Slot(slot): Slot) -> T {
        self.unlink(slot);
        let node = &mut self.nodes[slot as usize];
        node.next = std::mem::replace(&mut self.free, slot);
        self.len -= 1;
        node.value
    }

    /// Every `(slot, value)`, from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, T)> + '_ {
        let first = self.nodes.first().map_or(0, |sentinel| sentinel.next);
        std::iter::successors((first != 0).then_some(first), |&at| {
            let next = self.nodes[at as usize].next;
            (next != 0).then_some(next)
        })
        .map(|at| (Slot(at), self.nodes[at as usize].value))
    }

    /// Values held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Takes `slot` out of the list, joining its neighbours. A node linked
    /// to itself (fresh from `push`) stays as it is.
    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
    }

    /// Links `slot` in as the most recently used.
    fn link_newest(&mut self, slot: u32) {
        let prev = std::mem::replace(&mut self.nodes[0].prev, slot);
        self.nodes[prev as usize].next = slot;
        let node = &mut self.nodes[slot as usize];
        (node.prev, node.next) = (prev, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(lru: &LruList<u32>) -> Vec<u32> {
        lru.iter().map(|(_, v)| v).collect()
    }

    /// Removes the least recently used value, as an owner evicting does.
    fn pop_oldest(lru: &mut LruList<u32>) -> Option<u32> {
        let (oldest, _) = lru.iter().next()?;
        Some(lru.remove(oldest))
    }

    #[test]
    fn touch_moves_to_the_newest_end_and_pop_takes_the_oldest() {
        let mut lru = LruList::default();
        let slots: Vec<Slot> = (1..=4).map(|v| lru.push(v)).collect();
        lru.touch(slots[0]);
        lru.touch(slots[2]);
        assert_eq!(values(&lru), vec![2, 4, 1, 3]);
        assert_eq!(pop_oldest(&mut lru), Some(2));
        assert_eq!(lru.remove(slots[0]), 1);
        assert_eq!(values(&lru), vec![4, 3]);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn released_slots_are_reused_and_popping_empties() {
        let mut lru = LruList::with_capacity(2);
        let a = lru.push(10);
        lru.push(20);
        lru.remove(a);
        assert_eq!(lru.push(30), a, "the released slot is taken first");
        assert_eq!(values(&lru), vec![20, 30]);
        pop_oldest(&mut lru);
        pop_oldest(&mut lru);
        assert!(lru.is_empty());
        assert_eq!(pop_oldest(&mut lru), None);
        assert_eq!(values(&lru), Vec::<u32>::new());
    }
}
