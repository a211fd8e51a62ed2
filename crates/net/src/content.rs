//! A NetMsgServer's content store: every page it holds by the hash of its
//! bytes, in one of two roles.
//!
//! * **Pinned** — replica pages the replication layer wrote through at
//!   page-out (`Fabric::replicate_backing`). They leave only when this NMS
//!   crashes and its whole store is dropped, and they are the only pages
//!   the replica read path resolves content hashes against.
//! * **Interned** — pages of incoming COR replies, so a later reply
//!   carrying the same bytes (a retransmission, a hot page fetched twice,
//!   repeated zero or constant pages) installs the held frame instead of a
//!   fresh copy. At most [`DEDUP_CAP_PAGES`], least-recently-used evicted
//!   first, each tagged with the node whose reply carried it and forgotten
//!   when that node crashes.
//!
//! One hash → bucket map and one byte-for-byte search serve both roles: a
//! reply page whose bytes the store holds either way installs the held
//! frame, and a bucket holds each content at most once.

use std::collections::BTreeMap;

use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_sim::IdMap;

/// Upper bound on interned pages (2 MiB of page data at 512-byte pages).
/// At the cap, interning a new page first evicts the least-recently-used
/// interned page, deterministically. Pinned pages do not count.
pub(crate) const DEDUP_CAP_PAGES: u64 = 4096;

#[derive(Debug, Clone, Copy)]
enum Role {
    Pinned,
    /// `stamp` orders the LRU (refreshed on every hit); `src` sent the
    /// reply that first carried the bytes.
    Interned {
        stamp: u64,
        src: NodeId,
    },
}

#[derive(Debug)]
struct Entry {
    frame: Frame,
    role: Role,
}

/// Pages held by content hash, pinned or interned.
#[derive(Debug, Default)]
pub(crate) struct ContentStore {
    /// Content hash → the entries held with that hash (a short list, since
    /// unequal pages practically never collide).
    by_hash: IdMap<u64, Vec<Entry>>,
    /// LRU order over the interned entries: recency stamp → content hash.
    /// Its length is the interned count.
    lru: BTreeMap<u64, u64>,
    /// Source of recency stamps, bumped on every intern and interned hit.
    stamp: u64,
    /// Pinned entries held.
    pinned: u64,
}

/// Where `bucket` holds `frame`'s bytes: the store's one search. Byte
/// equality is confirmed on every hash match, so a collision can never
/// substitute wrong contents.
fn position(bucket: &[Entry], frame: &Frame) -> Option<usize> {
    bucket.iter().position(|e| e.frame.same_contents(frame))
}

/// The held entry with `frame`'s bytes, whose content hash is `hash`.
fn find<'a>(
    by_hash: &'a mut IdMap<u64, Vec<Entry>>,
    hash: u64,
    frame: &Frame,
) -> Option<&'a mut Entry> {
    let bucket = by_hash.get_mut(&hash)?;
    let i = position(bucket, frame)?;
    Some(&mut bucket[i])
}

impl ContentStore {
    /// Pins `frame` as a replica page. Bytes already pinned are a no-op;
    /// bytes already interned are pinned in place, keeping the held frame.
    pub(crate) fn pin(&mut self, frame: &Frame) {
        let hash = frame.content_hash();
        match find(&mut self.by_hash, hash, frame) {
            Some(entry) => match entry.role {
                Role::Pinned => return,
                Role::Interned { stamp, .. } => {
                    self.lru.remove(&stamp);
                    entry.role = Role::Pinned;
                }
            },
            None => self.by_hash.entry(hash).or_default().push(Entry {
                frame: frame.clone(),
                role: Role::Pinned,
            }),
        }
        self.pinned += 1;
    }

    /// Offers a page of a reply `src` sent. Bytes the store holds in
    /// either role replace `frame` with the held frame (an interned hit
    /// becomes the most recently used); unseen bytes are interned, first
    /// evicting the least-recently-used interned page at
    /// [`DEDUP_CAP_PAGES`]. Returns `(hit, evicted)`.
    pub(crate) fn intern(&mut self, src: NodeId, frame: &mut Frame) -> (bool, bool) {
        let hash = frame.content_hash();
        if let Some(entry) = find(&mut self.by_hash, hash, frame) {
            *frame = entry.frame.clone();
            if let Role::Interned { stamp, .. } = &mut entry.role {
                self.lru.remove(stamp);
                self.stamp += 1;
                *stamp = self.stamp;
                self.lru.insert(self.stamp, hash);
            }
            return (true, false);
        }
        let evicted = self.lru.len() as u64 >= DEDUP_CAP_PAGES;
        if evicted {
            if let Some((lru_stamp, lru_hash)) = self.lru.pop_first() {
                self.drop_interned(lru_hash, |stamp, _| stamp == lru_stamp);
            }
        }
        self.stamp += 1;
        self.lru.insert(self.stamp, hash);
        self.by_hash.entry(hash).or_default().push(Entry {
            frame: frame.clone(),
            role: Role::Interned {
                stamp: self.stamp,
                src,
            },
        });
        (false, evicted)
    }

    /// Forgets every page interned from `src`'s replies: `src` crashed,
    /// and a dead (possibly amnesiac-rebooted) node cannot keep vouching
    /// for bytes. Pinned pages stay.
    pub(crate) fn forget(&mut self, src: NodeId) {
        let hashes: Vec<u64> = self.lru.values().copied().collect();
        for hash in hashes {
            self.drop_interned(hash, |_, s| s == src);
        }
    }

    /// Drops the interned entries of `hash`'s bucket whose `(stamp, src)`
    /// match, with their LRU slots.
    fn drop_interned(&mut self, hash: u64, matches: impl Fn(u64, NodeId) -> bool) {
        let Some(bucket) = self.by_hash.get_mut(&hash) else {
            return;
        };
        bucket.retain(|e| match e.role {
            Role::Interned { stamp, src } if matches(stamp, src) => {
                self.lru.remove(&stamp);
                false
            }
            _ => true,
        });
        if bucket.is_empty() {
            self.by_hash.remove(&hash);
        }
    }

    /// The pinned page with content hash `hash` (the bucket's first pinned
    /// entry under a collision).
    pub(crate) fn pinned(&self, hash: u64) -> Option<&Frame> {
        let bucket = self.by_hash.get(&hash)?;
        let pinned = bucket.iter().find(|e| matches!(e.role, Role::Pinned));
        pinned.map(|e| &e.frame)
    }

    /// Pinned pages held.
    pub(crate) fn pinned_pages(&self) -> u64 {
        self.pinned
    }

    /// Interned pages held.
    #[cfg(test)]
    pub(crate) fn interned_pages(&self) -> u64 {
        self.lru.len() as u64
    }

    /// Whether the store holds `frame`'s bytes, in either role.
    #[cfg(test)]
    pub(crate) fn holds(&self, frame: &Frame) -> bool {
        let bucket = self.by_hash.get(&frame.content_hash());
        bucket.is_some_and(|b| position(b, frame).is_some())
    }
}
