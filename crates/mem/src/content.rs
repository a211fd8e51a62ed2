//! A content-addressed page store for replicated page homes.
//!
//! The replication layer (see `docs/REPLICATION.md`) write-through
//! installs a migrated process's owed pages on `f` replica nodes. Each
//! replica keeps the pages in a [`ContentStore`]: frames indexed by
//! their [`Frame::content_hash`], deduplicated by
//! [`Frame::same_contents`] within a hash bucket. A COR read that is
//! routed to a replica resolves the page's content hash against this
//! store instead of walking the origin segment — which is what makes
//! "fetch from anywhere" possible: any node holding bytes with the
//! right hash can answer, regardless of which segment originally owed
//! them.
//!
//! The store is *volatile* NMS state: a node crash wipes it (unlike the
//! crash-survivable disk backer), so a process survives only while at
//! least one of its `f + 1` homes is up.

use cor_sim::IdMap;

use crate::page::Frame;

/// Content-hash-indexed frame store held by each replica NMS.
///
/// Buckets are keyed by [`Frame::content_hash`]; within a bucket,
/// insertion deduplicates byte-identical frames (an `Rc` clone costs
/// nothing) and lookups return the earliest-inserted frame, so every
/// operation is deterministic under identical insertion order.
#[derive(Debug, Clone, Default)]
pub struct ContentStore {
    by_hash: IdMap<u64, Vec<Frame>>,
    pages: u64,
}

impl ContentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ContentStore::default()
    }

    /// Installs a frame under its content hash. Returns `true` when the
    /// frame's bytes were new to the store, `false` when an identical
    /// page was already present (the insert is then a no-op).
    pub fn insert(&mut self, frame: &Frame) -> bool {
        let bucket = self.by_hash.entry(frame.content_hash()).or_default();
        if bucket.iter().any(|f| f.same_contents(frame)) {
            return false;
        }
        bucket.push(frame.clone());
        self.pages += 1;
        true
    }

    /// Resolves a content hash to a stored frame, if any. Under a hash
    /// collision (practically never) the earliest-inserted frame wins.
    pub fn get(&self, hash: u64) -> Option<&Frame> {
        self.by_hash.get(&hash).and_then(|b| b.first())
    }

    /// `true` when a frame with this content hash is stored.
    pub fn contains(&self, hash: u64) -> bool {
        self.by_hash.contains_key(&hash)
    }

    /// Number of distinct pages stored.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// `true` when the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Drops every stored page (the volatile-loss path of a node crash).
    pub fn clear(&mut self) {
        self.by_hash.clear();
        self.pages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::page_from_bytes;

    #[test]
    fn insert_dedups_by_contents() {
        let mut store = ContentStore::new();
        let a = Frame::new(page_from_bytes(b"alpha"));
        let b = Frame::new(page_from_bytes(b"alpha"));
        let c = Frame::new(page_from_bytes(b"gamma"));
        assert!(store.insert(&a));
        assert!(!store.insert(&b), "byte-identical page is a no-op");
        assert!(!store.insert(&a.clone()), "aliases too");
        assert!(store.insert(&c));
        assert_eq!(store.pages(), 2);
    }

    #[test]
    fn lookup_by_hash_round_trips() {
        let mut store = ContentStore::new();
        let a = Frame::new(page_from_bytes(b"alpha"));
        store.insert(&a);
        let h = a.content_hash();
        assert!(store.contains(h));
        assert!(store.get(h).unwrap().same_contents(&a));
        assert!(store.get(h ^ 1).is_none());
        assert!(!store.contains(h ^ 1));
    }

    #[test]
    fn clear_models_volatile_loss() {
        let mut store = ContentStore::new();
        let a = Frame::new(page_from_bytes(b"alpha"));
        store.insert(&a);
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.pages(), 0);
        assert!(store.get(a.content_hash()).is_none());
    }
}
