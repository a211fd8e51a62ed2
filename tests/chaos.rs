//! Chaos suite: migrations complete correctly on unreliable wires.
//!
//! The fault-injection layer (drop / duplicate / reorder / jitter, driven
//! by a seeded RNG) is turned on underneath full migrations, and three
//! properties are checked:
//!
//! 1. **Correctness under loss.** For any drop rate below the retry
//!    budget's breaking point, a migration completes and the remotely
//!    touched memory image equals the memory the trace predicts.
//! 2. **Determinism.** Identical seeds produce identical runs, down to
//!    the journaled fault sequence, serially or on pool workers;
//!    different seeds diverge.
//! 3. **Exactly-once service.** With in-flight coalescing on a wire that
//!    drops, duplicates and reorders, every fault completes once with the
//!    canonical bytes. An injected duplicate is billed and counted at the
//!    link layer and dropped there: nothing above it ever sees one.
//!
//! That a clean fault plan changes nothing is one row of
//! `tests/determinism.rs`'s inert-option table.

use proptest::prelude::*;

use cor::ipc::message::{Message, MsgItem, MsgKind};
use cor::ipc::port::PortId;
use cor::ipc::protocol::{self, ProtocolMsg};
use cor::ipc::NodeId;
use cor::kernel::program::Trace;
use cor::kernel::{CostModel, World};
use cor::mem::page::{page_from_bytes, Frame};
use cor::mem::{AddressSpace, PageNum, SegmentId, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::{FaultPlan, LinkFaults, WireParams};
use cor::sim::LedgerCategory;
use cor_pool::Pool;

/// Builds a deterministic workload on node `a`: `pages` pages written in
/// the source phase, half of them read back in the remote phase.
fn build_workload(world: &mut World, pages: u64) -> cor::kernel::process::ProcessId {
    let a = world.node_ids()[0];
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 4 * pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages / 2 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    let trace = tb.terminate();
    let pid = world.create_process(a, "chaos", space, trace).unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    pid
}

#[derive(Debug, PartialEq)]
struct RunOutcome {
    checksum: u64,
    /// The memory the trace predicts for the remote phase.
    expected: u64,
    ledger: Vec<(LedgerCategory, u64)>,
    journal: Vec<String>,
    retransmissions: u64,
    duplicate_drops: u64,
    retransmit_wire_bytes: u64,
}

/// Runs one full migration (build → migrate → run remotely) under the
/// given fault plan and returns the observable outcome.
fn run_migration(
    pages: u64,
    strategy: Strategy,
    faults: Option<FaultPlan>,
) -> Result<RunOutcome, cor::kernel::KernelError> {
    let (mut world, a, b) = World::testbed();
    world.fabric.params.faults = faults;
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = build_workload(&mut world, pages);
    world.reset_touch_tracking(a, pid)?;
    let trace = &world.process(a, pid)?.trace;
    let expected = trace.expected_checksum_from(pages as usize, |_, _| ());
    src.migrate_to(&mut world, &dst, pid, strategy)?;
    world.run(b, pid)?;
    let journal = world
        .fabric
        .journal
        .as_ref()
        .map(|j| {
            j.events()
                .iter()
                .map(|e| format!("{} {} {}", e.at, e.kind(), e.detail()))
                .collect()
        })
        .unwrap_or_default();
    Ok(RunOutcome {
        checksum: world.touched_checksum(b, pid)?,
        expected,
        ledger: LedgerCategory::ALL
            .iter()
            .map(|&c| (c, world.fabric.ledger.total_for(c)))
            .collect(),
        journal,
        retransmissions: world.fabric.reliability.retransmissions.get(),
        duplicate_drops: world.fabric.reliability.duplicate_drops.get(),
        retransmit_wire_bytes: world.fabric.reliability.retransmit_wire_bytes.get(),
    })
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 1 },
    Strategy::ResidentSet { prefetch: 0 },
    Strategy::PreCopy {
        max_rounds: 3,
        stop_pages: 4,
    },
];

#[test]
fn migrations_survive_twenty_percent_drop_with_identical_memory() {
    // Seeded drop rates up to 20% must leave every migration complete
    // with the memory image its trace predicts.
    for strategy in STRATEGIES {
        for rate in [0.05, 0.10, 0.20] {
            let lossy = run_migration(24, strategy, Some(FaultPlan::dropping(0xC0FFEE, rate)))
                .unwrap_or_else(|e| {
                    panic!("{strategy} failed at drop rate {rate}: {e}");
                });
            assert_eq!(
                lossy.checksum, lossy.expected,
                "{strategy} memory image diverged at drop rate {rate}"
            );
        }
    }
}

#[test]
fn same_seed_same_journal_different_seed_diverges() {
    let faults = LinkFaults {
        drop: 0.15,
        duplicate: 0.10,
        jitter: cor::sim::SimDuration::from_millis(5),
        ..LinkFaults::default()
    };
    let strategy = Strategy::PureIou { prefetch: 0 };
    let run = |seed| run_migration(24, strategy, Some(FaultPlan::uniform(seed, faults))).unwrap();
    let first = run(1234);
    assert_eq!(first, run(1234), "identical seeds, identical runs and journals");
    assert!(
        first.retransmissions > 0 || first.duplicate_drops > 0,
        "the plan actually injected faults"
    );
    let third = run(99);
    assert_ne!(
        first.journal, third.journal,
        "a different seed must draw a different fault sequence"
    );
}

#[test]
fn seeded_chaos_trials_match_under_the_pool() {
    // The same seeded lossy migration run concurrently on pool workers
    // must reproduce the serial run exactly, fault journal included: each
    // job owns its whole simulation, so nothing leaks between workers.
    let run = || {
        let plan = FaultPlan::dropping(0xC0FFEE, 0.10);
        run_migration(64, Strategy::PureIou { prefetch: 1 }, Some(plan)).unwrap()
    };
    let serial = run();
    for (i, pooled) in Pool::new(4).run_indexed(4, |_| run()).iter().enumerate() {
        assert_eq!(&serial, pooled, "worker {i} diverged from the serial run");
    }
}

#[test]
fn retransmit_ledger_and_reliability_counters_agree_under_chaos() {
    // The ledger's Retransmit category and the reliability layer's
    // retransmit-bytes counter are two independent accountings of the same
    // waste; a lossy run must keep them equal (the fabric also
    // debug-asserts this on every send).
    for (seed, rate) in [(0xC0FFEE, 0.10), (42, 0.20), (7, 0.15)] {
        let outcome = run_migration(
            24,
            Strategy::PureIou { prefetch: 1 },
            Some(FaultPlan::dropping(seed, rate)),
        )
        .unwrap();
        let ledger_retransmit = outcome
            .ledger
            .iter()
            .find(|(c, _)| *c == LedgerCategory::Retransmit)
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(
            ledger_retransmit, outcome.retransmit_wire_bytes,
            "seed {seed} rate {rate}: ledger and reliability retransmit \
             bytes diverged"
        );
        assert!(
            outcome.retransmissions == 0 || ledger_retransmit > 0,
            "seed {seed} rate {rate}: retransmissions occurred but no \
             bytes were accounted"
        );
    }
}

#[test]
fn duplicate_reply_after_termination_is_dropped_cleanly() {
    let (mut world, a, b) = World::testbed();
    // A (zero-rate) fault plan arms the wire's idempotent stale handling.
    world.fabric.params.faults = Some(FaultPlan::uniform(11, LinkFaults::default()));
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = build_workload(&mut world, 12);
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.run(b, pid).unwrap();
    assert_eq!(world.segs.live(), 0, "termination released every segment");
    // A second copy of an already-satisfied COR reply reaches the source
    // NMS after the process died. The link layer drops every wire
    // duplicate itself, so the copy is enqueued by hand. There is no
    // pending relay left to pair it with; the handler must drop it, not
    // panic or resurrect anything.
    let nms_a = world.fabric.nms_port(a).unwrap();
    let ghost = protocol::imag_read_reply(nms_a, SegmentId(1), 0, vec![Frame::zeroed()])
        .with_seq(7)
        .with_no_ious(true);
    world.ports.enqueue(nms_a, ghost).unwrap();
    let before = world.fabric.reliability.stale_replies.get();
    world.settle().unwrap();
    assert_eq!(
        world.fabric.reliability.stale_replies.get(),
        before + 1,
        "the ghost reply was counted and suppressed"
    );
    assert_eq!(world.segs.live(), 0, "nothing was resurrected");
    for n in [a, b] {
        assert_eq!(world.fabric.cached_pages_live(n), 0);
        assert_eq!(world.fabric.standins_live(n), 0);
    }
}

/// The saturation harness's relay setup, built with public APIs: the
/// server (node 2) caches a 16-page segment, the relay (node 1) holds a
/// stand-in for it, and the client (node 0) faults through the relay.
/// Returns the world, the client, the relay's NMS port, the stand-in and
/// the client's reply port.
fn relay_world(wire: WireParams) -> (World, NodeId, PortId, SegmentId, PortId) {
    const PAGES: u64 = 16;
    let (mut world, nodes) = World::fleet(3, CostModel::default(), wire);
    let (client, relay, server) = (nodes[0], nodes[1], nodes[2]);
    let server_nms = world.fabric.nms_port(server).unwrap();
    let frames = (0..PAGES).map(|i| Frame::new(page_from_bytes(&i.to_le_bytes())));
    let seg = world.segs.create(server_nms, PAGES);
    world.segs.add_refs(seg, PAGES).unwrap();
    world.fabric.install_cache(server, seg, frames.collect()).unwrap();
    let scratch = world.ports.allocate(relay);
    let iou = MsgItem::Iou {
        base_page: 0,
        seg,
        seg_offset: 0,
        pages: PAGES,
    };
    let offer = Message::new(MsgKind::User(0x3D), scratch).push(iou);
    world.send_from(server, offer.with_no_ious(true)).unwrap();
    let delivered = world.ports.dequeue(scratch).unwrap().unwrap();
    let Some(&MsgItem::Iou { seg: stand_in, .. }) = delivered.items.first() else {
        panic!("expected a rewritten IOU, got {:?}", delivered.items.first());
    };
    let relay_nms = world.fabric.nms_port(relay).unwrap();
    let reply_port = world.ports.allocate(client);
    (world, client, relay_nms, stand_in, reply_port)
}

#[test]
fn coalescing_with_retransmission_never_double_installs() {
    // Duplicate in-flight faults for the same page, on a wire that also
    // duplicates and reorders deliveries, with coalescing on: every
    // outstanding fault must complete exactly once, every delivered page
    // must carry the canonical bytes, and no reply may complete a fault
    // twice (double installation).
    let faults = LinkFaults {
        duplicate: 0.25,
        reorder: 0.15,
        drop: 0.05,
        ..LinkFaults::default()
    };
    let wire = WireParams {
        faults: Some(FaultPlan::uniform(0xD0B1E, faults)),
        ..WireParams::default()
    }
    .hot_path();
    let (mut world, client, relay_nms, stand_in, reply_port) = relay_world(wire);
    // Three waves of duplicate faults on a two-page hot set.
    let mut outstanding = 0u64;
    let mut seq = 50_000u64;
    let mut completed = [0u32; 16];
    for _wave in 0..3 {
        for &offset in &[3u64, 3, 7, 3, 7, 7] {
            let req = protocol::imag_read_request(relay_nms, reply_port, stand_in, offset, 1);
            world.send_from(client, req.with_seq(seq).with_no_ious(true)).unwrap();
            seq += 1;
            outstanding += 1;
        }
        world.settle().unwrap();
        while let Some(msg) = world.ports.dequeue(reply_port).unwrap() {
            let Ok(ProtocolMsg::ImagReadReply {
                seg: rseg,
                offset: ro,
                frames,
                ..
            }) = protocol::parse_owned(msg)
            else {
                panic!("unexpected message on the reply port");
            };
            assert_eq!(rseg, stand_in, "reply renamed to the stand-in");
            for (page, frame) in (ro..).zip(&frames) {
                let expect = page_from_bytes(&page.to_le_bytes());
                frame.with(|data| assert_eq!(data[..], expect[..], "page {page}'s bytes"));
                completed[page as usize] += 1;
            }
            outstanding = outstanding.saturating_sub(1);
        }
    }
    assert_eq!(outstanding, 0, "every fault completed");
    // Coalescing answers each parked waiter once, and the link layer
    // drops every injected duplicate delivery before any port sees it,
    // so the number of completions per page equals the number of
    // requests for it — never more.
    assert_eq!(completed[3], 9, "page 3: one completion per request");
    assert_eq!(completed[7], 9, "page 7: one completion per request");
    assert_eq!(
        completed.iter().map(|&c| c as u64).sum::<u64>(),
        18,
        "no page was installed beyond its requests"
    );
    let stats = world.fabric.stats();
    assert!(stats.coalesced_requests > 0, "coalescing engaged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized chaos: any mix of drop/duplicate/reorder/jitter below
    /// the retry budget's breaking point leaves the remote memory image
    /// equal to the memory the trace predicts.
    #[test]
    fn migration_correct_under_arbitrary_faults(
        seed in any::<u64>(),
        drop_pct in 0u64..20,
        dup_pct in 0u64..20,
        jitter_ms in 0u64..10,
        pages in 12u64..32,
        strat_idx in 0usize..4,
    ) {
        let strategy = STRATEGIES[strat_idx];
        let faults = LinkFaults {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            reorder: 0.0,
            jitter: cor::sim::SimDuration::from_millis(jitter_ms),
        };
        let lossy = run_migration(pages, strategy, Some(FaultPlan::uniform(seed, faults)))
            .unwrap_or_else(|e| panic!("{strategy} under {faults:?} failed: {e}"));
        prop_assert_eq!(lossy.checksum, lossy.expected);
    }
}
