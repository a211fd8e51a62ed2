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

use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_sim::lru::Slot;
use cor_sim::{IdMap, LruList, SmallVec};

/// Upper bound on interned pages (2 MiB of page data at 512-byte pages).
/// At the cap, interning a new page first evicts the least-recently-used
/// interned page, deterministically. Pinned pages do not count.
pub(crate) const DEDUP_CAP_PAGES: u64 = 4096;

#[derive(Debug, Clone, Copy)]
enum Role {
    Pinned,
    /// `slot` is the entry's place in the LRU order (moved to the newest
    /// end on every hit); `src` sent the reply that first carried the
    /// bytes.
    Interned {
        slot: Slot,
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
    /// Content hash → the entries held with that hash: one, inline, since
    /// unequal pages practically never collide.
    by_hash: IdMap<u64, SmallVec<Entry>>,
    /// LRU order over the interned entries, each by its content hash. Its
    /// length is the interned count.
    lru: LruList<u64>,
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
    by_hash: &'a mut IdMap<u64, SmallVec<Entry>>,
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
                Role::Interned { slot, .. } => {
                    self.lru.remove(slot);
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
            if let Role::Interned { slot, .. } = entry.role {
                self.lru.touch(slot);
            }
            return (true, false);
        }
        let evicted = self.lru.len() as u64 >= DEDUP_CAP_PAGES;
        if evicted {
            if let Some((slot, lru_hash)) = self.lru.pop_oldest() {
                self.evict(lru_hash, slot);
            }
        }
        let slot = self.lru.push(hash);
        self.by_hash.entry(hash).or_default().push(Entry {
            frame: frame.clone(),
            role: Role::Interned { slot, src },
        });
        (false, evicted)
    }

    /// Forgets every page interned from `src`'s replies: `src` crashed,
    /// and a dead (possibly amnesiac-rebooted) node cannot keep vouching
    /// for bytes. Pinned pages stay.
    pub(crate) fn forget(&mut self, src: NodeId) {
        let lru = &mut self.lru;
        self.by_hash.retain(|_, bucket| {
            bucket.retain(|e| match e.role {
                Role::Interned { slot, src: s } if s == src => {
                    lru.remove(slot);
                    false
                }
                _ => true,
            });
            !bucket.is_empty()
        });
    }

    /// Drops the interned entry of `hash`'s bucket that held `slot`, just
    /// released by the LRU list.
    fn evict(&mut self, hash: u64, slot: Slot) {
        let Some(bucket) = self.by_hash.get_mut(&hash) else {
            return;
        };
        bucket.retain(|e| !matches!(e.role, Role::Interned { slot: s, .. } if s == slot));
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
