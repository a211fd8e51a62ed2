//! The page table: one ascending vector of `(key, value)` pairs searched by
//! binary search.
//!
//! A lookup is one binary search over contiguous pairs, and a state change
//! is that search plus an in-place write. A key above the highest one is a
//! push; a key below it shifts the tail up one slot (a `memmove`), which is
//! why every builder that knows all its pages up front sorts them and hands
//! the table over whole ([`PageTable::from_sorted`]).
//!
//! The file names no `crate::` item: `tests/prop.rs` compiles it in by
//! `#[path]` and checks it against a `BTreeMap`.

/// Ascending `(key, value)` pairs with unique keys.
pub(crate) struct PageTable<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for PageTable<K, V> {
    fn default() -> Self {
        PageTable {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V> PageTable<K, V> {
    /// A table over `entries`, whose keys must ascend strictly.
    pub(crate) fn from_sorted(entries: Vec<(K, V)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "page table keys must ascend strictly"
        );
        PageTable { entries }
    }

    fn find(&self, key: K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(&key))
    }

    /// Makes room for `additional` more entries in one growth.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether `key` has an entry.
    pub(crate) fn contains(&self, key: K) -> bool {
        self.find(key).is_ok()
    }

    /// `key`'s value.
    pub(crate) fn get(&self, key: K) -> Option<&V> {
        let i = self.find(key).ok()?;
        Some(&self.entries[i].1)
    }

    /// `key`'s value, to change in place.
    pub(crate) fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let i = self.find(key).ok()?;
        Some(&mut self.entries[i].1)
    }

    /// Sets `key`'s value, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|&(last, _)| last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.find(key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Every entry, in ascending key order.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.entries.iter()
    }

    /// The entries with keys in `[lo, hi)`.
    pub(crate) fn range(&self, lo: K, hi: K) -> &[(K, V)] {
        let from = self.range_from(lo);
        &from[..from.partition_point(|(k, _)| *k < hi)]
    }

    /// The entries with keys `lo` and above.
    pub(crate) fn range_from(&self, lo: K) -> &[(K, V)] {
        &self.entries[self.entries.partition_point(|(k, _)| *k < lo)..]
    }
}
