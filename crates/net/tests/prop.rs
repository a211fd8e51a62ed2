//! Property tests for the network fabric: random message storms keep
//! every conservation invariant.

use proptest::prelude::*;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortRegistry;
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::page::Frame;
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
