//! Property tests for the network fabric: random message storms keep
//! every conservation invariant, and each NetMsgServer's content store
//! matches a plain reference model.

use proptest::prelude::*;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortRegistry;
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::page::{page_from_bytes, Frame};
use cor_net::{Fabric, WireParams};
use cor_sim::{Clock, LedgerCategory};

#[derive(Debug, Clone)]
enum Action {
    /// Send a message of `pages` out-of-line pages and `inline` bytes from
    /// node `from` to a port on node `to`, optionally with NoIOUs.
    Send {
        from: u8,
        to: u8,
        pages: u8,
        inline: u16,
        no_ious: bool,
    },
    /// Pump the NMS pipelines.
    Pump,
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    let action = prop_oneof![
        (0u8..3, 0u8..3, 0u8..12, 0u16..2048, any::<bool>()).prop_map(
            |(from, to, pages, inline, no_ious)| Action::Send {
                from,
                to,
                pages,
                inline,
                no_ious
            }
        ),
        Just(Action::Pump),
    ];
    prop::collection::vec(action, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn message_storms_conserve_everything(actions in actions()) {
        let mut clock = Clock::new();
        let mut ports = PortRegistry::new();
        let mut segs = SegmentRegistry::new();
        let mut fabric = Fabric::new(WireParams::default());
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let inboxes: Vec<_> = nodes
            .iter()
            .map(|&n| {
                fabric.add_node(n, &mut ports);
                ports.allocate(n)
            })
            .collect();
        let mut sent_remote = 0u64;
        let mut delivered_pages = 0u64;
        let mut owed_created = 0u64;
        for action in actions {
            match action {
                Action::Send { from, to, pages, inline, no_ious } => {
                    let from = nodes[from as usize % 3];
                    let to_idx = to as usize % 3;
                    let dest = inboxes[to_idx];
                    let mut msg = Message::new(MsgKind::User(1), dest).with_no_ious(no_ious);
                    if pages > 0 {
                        msg = msg.push(MsgItem::Pages {
                            base_page: 0,
                            frames: (0..pages).map(|_| Frame::zeroed()).collect(),
                        });
                    }
                    if inline > 0 {
                        msg = msg.push(MsgItem::Inline(vec![0; inline as usize]));
                    }
                    let before = clock.now();
                    let rep = fabric
                        .send(&mut clock, &mut ports, &mut segs, from, msg)
                        .unwrap();
                    prop_assert!(clock.now() >= before, "clock is monotone");
                    if rep.remote {
                        sent_remote += 1;
                        // The receiver got either the pages or an IOU.
                        let got = ports.dequeue(dest).unwrap().unwrap();
                        delivered_pages += got.carried_pages();
                        owed_created += got.owed_pages();
                        if no_ious {
                            prop_assert_eq!(got.owed_pages(), 0);
                            prop_assert_eq!(got.carried_pages(), pages as u64);
                        } else if pages > 0 {
                            prop_assert_eq!(got.carried_pages(), 0);
                            prop_assert_eq!(got.owed_pages(), pages as u64);
                        }
                    } else {
                        let _ = ports.dequeue(dest).unwrap().unwrap();
                    }
                }
                Action::Pump => {
                    fabric.pump(&mut clock, &mut ports, &mut segs).unwrap();
                }
            }
        }
        // Conservation: every remote message hit the ledger; outstanding
        // cached pages equal the owed pages we created (none consumed).
        prop_assert_eq!(fabric.stats().msgs_remote, sent_remote);
        prop_assert!(fabric.ledger.total() >= sent_remote * 64);
        let cached: u64 = nodes.iter().map(|&n| fabric.cached_pages_live(n)).sum();
        prop_assert_eq!(cached, owed_created);
        let _ = delivered_pages;
        // Ledger category totals always sum to the total.
        let by_cat: u64 = LedgerCategory::ALL
            .iter()
            .map(|&c| fabric.ledger.total_for(c))
            .sum();
        prop_assert_eq!(by_cat, fabric.ledger.total());
    }
}

// The content store is private to cor-net; its source is compiled in here
// so the model below can drive it directly.
#[path = "../src/content.rs"]
mod content;

use content::{ContentStore, DEDUP_CAP_PAGES};

/// Page contents the store ops draw from (ids `0..ALPHABET`), so equal
/// bytes recur. Fills use ids from `ALPHABET` up, never repeated.
const ALPHABET: u64 = 6;

#[derive(Debug, Clone)]
enum StoreOp {
    /// A reply from `src` carries page `id`.
    Intern { src: u8, id: u64 },
    /// Replication writes page `id` through.
    Pin { id: u64 },
    /// `src` crashed.
    Forget { src: u8 },
    /// This NMS crashed.
    Wipe,
    /// A reply from `src` carries `n` never-seen pages: a short run, or
    /// one that drives the interned count to the cap.
    Fill { src: u8, n: u64 },
}

fn store_ops() -> impl Strategy<Value = Vec<StoreOp>> {
    let fill = prop_oneof![1u64..8, DEDUP_CAP_PAGES - 24..DEDUP_CAP_PAGES + 8];
    let op = prop_oneof![
        (0u8..3, 0..ALPHABET).prop_map(|(src, id)| StoreOp::Intern { src, id }),
        (0u8..3, 0..ALPHABET).prop_map(|(src, id)| StoreOp::Intern { src, id }),
        (0..ALPHABET).prop_map(|id| StoreOp::Pin { id }),
        (0u8..3).prop_map(|src| StoreOp::Forget { src }),
        Just(StoreOp::Wipe),
        (0u8..3, fill).prop_map(|(src, n)| StoreOp::Fill { src, n }),
    ];
    prop::collection::vec(op, 1..48)
}

fn page(id: u64) -> Frame {
    Frame::new(page_from_bytes(&id.to_le_bytes()))
}

/// The reference model: one entry per held page id, `None` when pinned,
/// `Some(src)` when interned from `src`; interned entries run from least
/// to most recently used.
#[derive(Default)]
struct Model {
    held: Vec<(u64, Option<u8>)>,
    interned: u64,
}

impl Model {
    /// `(hit, evicted id)` for a reply page `id` from `src`.
    fn intern(&mut self, src: u8, id: u64) -> (bool, Option<u64>) {
        // Fill ids never recur, so only alphabet ids need the search.
        let found = (id < ALPHABET).then(|| self.held.iter().position(|e| e.0 == id));
        if let Some(i) = found.flatten() {
            if self.held[i].1.is_some() {
                // A hit becomes the most recently used, still tagged with
                // the source that first interned it.
                let entry = self.held.remove(i);
                self.held.push(entry);
            }
            return (true, None);
        }
        let victim = (self.interned == DEDUP_CAP_PAGES).then(|| {
            let lru = self.held.iter().position(|e| e.1.is_some());
            self.interned -= 1;
            self.held.remove(lru.expect("the cap is all interned")).0
        });
        self.held.push((id, Some(src)));
        self.interned += 1;
        (false, victim)
    }

    fn pin(&mut self, id: u64) {
        match self.held.iter_mut().find(|e| e.0 == id) {
            Some(entry) => {
                self.interned -= u64::from(entry.1.is_some());
                entry.1 = None;
            }
            None => self.held.push((id, None)),
        }
    }

    fn forget(&mut self, src: u8) {
        self.held.retain(|e| e.1 != Some(src));
        self.interned = self.held.iter().filter(|e| e.1.is_some()).count() as u64;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn content_store_matches_its_reference_model(ops in store_ops()) {
        let mut store = ContentStore::default();
        let mut model = Model::default();
        let mut next_fill = ALPHABET;
        for op in ops {
            let offered: Vec<(u8, u64)> = match op {
                StoreOp::Intern { src, id } => vec![(src, id)],
                StoreOp::Fill { src, n } => {
                    next_fill += n;
                    (next_fill - n..next_fill).map(|id| (src, id)).collect()
                }
                StoreOp::Pin { id } => {
                    store.pin(&page(id));
                    model.pin(id);
                    vec![]
                }
                StoreOp::Forget { src } => {
                    store.forget(NodeId(src.into()));
                    model.forget(src);
                    vec![]
                }
                StoreOp::Wipe => {
                    (store, model) = (ContentStore::default(), Model::default());
                    vec![]
                }
            };
            for (src, id) in offered {
                let mut frame = page(id);
                let (hit, evicted) = store.intern(NodeId(src.into()), &mut frame);
                prop_assert!(frame.same_contents(&page(id)), "a substitution changed the bytes");
                let (want_hit, victim) = model.intern(src, id);
                prop_assert_eq!((hit, evicted), (want_hit, victim.is_some()));
                // The store evicted the model's least-recently-used page.
                prop_assert!(victim.is_none_or(|v| !store.holds(&page(v))), "{victim:?} kept");
            }
            prop_assert!(store.interned_pages() <= DEDUP_CAP_PAGES);
            prop_assert_eq!(store.interned_pages(), model.interned);
            let pinned = model.held.iter().filter(|e| e.1.is_none()).count() as u64;
            prop_assert_eq!(store.pinned_pages(), pinned);
            for id in 0..ALPHABET {
                let held = model.held.iter().find(|e| e.0 == id);
                prop_assert_eq!(store.holds(&page(id)), held.is_some(), "page {}", id);
                // Pinned pages survive forget and eviction, and only they
                // serve the replica read path.
                let served = store.pinned(page(id).content_hash());
                prop_assert_eq!(served.is_some(), held.is_some_and(|e| e.1.is_none()));
                prop_assert!(served.is_none_or(|f| f.same_contents(&page(id))));
            }
        }
    }
}

/// Two pages with unequal bytes and one content hash. The page hash folds
/// word 0 and then word 4 into lane 0, so a word 4 that differs by
/// exactly what word 0 did to the lane state cancels the difference.
fn colliding_pages() -> (Frame, Frame) {
    const K0: u64 = 0x9e37_79b9_7f4a_7c15;
    let lane = |w: u64| {
        let product = u128::from(K0 ^ w) * u128::from(K0);
        product as u64 ^ (product >> 64) as u64
    };
    let page = |w0: u64, w4: u64| {
        let mut bytes = [0u8; 40];
        bytes[..8].copy_from_slice(&w0.to_le_bytes());
        bytes[32..].copy_from_slice(&w4.to_le_bytes());
        Frame::new(page_from_bytes(&bytes))
    };
    (page(1, 0), page(2, lane(1) ^ lane(2)))
}

#[test]
fn a_hash_collision_is_never_a_hit() {
    let (a, b) = colliding_pages();
    assert_eq!(a.content_hash(), b.content_hash());
    let mut store = ContentStore::default();
    assert_eq!(store.intern(NodeId(0), &mut a.clone()), (false, false));
    let mut frame = b.clone();
    assert_eq!(store.intern(NodeId(0), &mut frame), (false, false));
    assert!(frame.same_contents(&b) && !frame.same_contents(&a));
    assert!(store.holds(&a) && store.holds(&b));
}
