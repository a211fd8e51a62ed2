//! Cross-crate system invariants: conservation, lifecycle, transparency.

mod common;

use common::assert_quiescent;
use cor::ipc::{NodeId, Right};
use cor::kernel::program::Trace;
use cor::kernel::World;
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::sim::LedgerCategory;

fn simple_process(
    world: &mut World,
    node: cor::ipc::NodeId,
    pages: u64,
    budget: usize,
) -> cor::kernel::ProcessId {
    let mut space = AddressSpace::with_frame_budget(budget);
    space.validate(VAddr(0), 2 * pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 128);
    }
    for i in (0..pages).rev() {
        tb.read(PageNum(i).base(), 128);
    }
    let pid = world
        .create_process(node, "inv", space, tb.terminate())
        .unwrap();
    world.run_for(node, pid, pages as usize).unwrap();
    world.reset_touch_tracking(node, pid).unwrap();
    pid
}

/// Every page fetched on reference was actually owed: fault-support bytes
/// account for at least the touched owed pages and never exceed what was
/// owed plus protocol overhead.
#[test]
fn fault_traffic_is_bounded_by_owed_pages() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 40, 10);
    let report = src
        .migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.run(b, pid).unwrap();
    let fetched = world.process(b, pid).unwrap().stats.imag_faults;
    assert_eq!(fetched, 40, "all 40 pages are re-read remotely");
    let fs = world.fabric.ledger.total_for(LedgerCategory::FaultSupport);
    assert!(fs >= fetched * PAGE_SIZE, "fault bytes cover the pages");
    assert!(
        fs <= report.owed_pages * (PAGE_SIZE + 512),
        "fault bytes bounded by owed pages + protocol overhead: {fs}"
    );
}

/// The kernel's send/receive queues and the NMS pipeline drain completely:
/// after a trial, no port holds an undelivered message.
#[test]
fn no_stranded_messages_after_a_trial() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 24, 8);
    src.migrate_to(&mut world, &dst, pid, Strategy::ResidentSet { prefetch: 3 })
        .unwrap();
    world.run(b, pid).unwrap();
    world.settle().unwrap();
    for node in [a, b] {
        let nms = world.fabric.nms_port(node).unwrap();
        assert_eq!(world.ports.queue_len(nms), 0, "NMS queue drained");
        let pager = world.node(node).unwrap().pager_port;
        assert_eq!(world.ports.queue_len(pager), 0, "pager queue drained");
    }
}

/// Location transparency: send rights held by third parties keep working
/// after the receive right migrates with the process.
#[test]
fn port_rights_survive_migration() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 8, 4);
    // The process owns a service port; a "client" holds a send right.
    let service = world.ports.allocate(a);
    world.process_mut(a, pid).unwrap().rights = vec![
        cor::ipc::PortRight {
            port: service,
            right: Right::Receive,
        },
        cor::ipc::PortRight {
            port: service,
            right: Right::Ownership,
        },
    ];
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    // The receive right moved with the process...
    assert_eq!(world.ports.home(service).unwrap(), b);
    // ...and a message sent by the old name still arrives, at the new home.
    use cor::ipc::message::{Message, MsgKind};
    let rep = world
        .send_from(
            a,
            Message::new(MsgKind::User(3), service).with_no_ious(true),
        )
        .unwrap();
    assert!(rep.remote, "the send crossed the network transparently");
    assert_eq!(world.ports.queue_len(service), 1);
}

/// Migrating a terminated process is refused cleanly.
#[test]
fn terminated_processes_cannot_be_excised() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 4, 4);
    world.run(a, pid).unwrap();
    let err = src
        .migrate_to(&mut world, &dst, pid, Strategy::PureCopy)
        .unwrap_err();
    assert!(
        matches!(err, cor::kernel::KernelError::ProcessNotActive(p) if p == pid),
        "got {err:?}"
    );
}

/// The copy-on-write discipline: excising and inserting locally shares
/// frames; writing after insertion performs the deferred copies without
/// corrupting the (conceptual) original.
#[test]
fn deferred_copies_happen_exactly_on_write() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 12, 12);
    // Pure copy: pages arrive as frames (shared with the source NMS? no —
    // physical copy means the frames moved; they are sole owners).
    src.migrate_to(&mut world, &dst, pid, Strategy::PureCopy)
        .unwrap();
    let before = world.process(b, pid).unwrap().space.cow_copies();
    world.run(b, pid).unwrap();
    let after = world.process(b, pid).unwrap().space.cow_copies();
    assert_eq!(before, after, "no sharing left, so no deferred copies");
}

/// Prefetched pages count against the right segment: deep prefetch can
/// never fetch a page twice or fetch beyond what was owed.
#[test]
fn prefetch_never_double_fetches() {
    for pf in [0u64, 1, 3, 7, 15] {
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let pid = simple_process(&mut world, a, 30, 10);
        let report = src
            .migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: pf })
            .unwrap();
        world.run(b, pid).unwrap();
        let stats = world.process(b, pid).unwrap().stats.clone();
        let fetched = stats.imag_faults + stats.prefetched_pages;
        assert!(
            fetched <= report.owed_pages,
            "pf={pf}: fetched {fetched} > owed {}",
            report.owed_pages
        );
        assert_eq!(world.segs.live(), 0, "pf={pf}: segment leak");
    }
}

/// The event journal records the whole story of a migration trial in
/// order: sends, migration phases, faults, execution.
#[test]
fn journal_tells_the_story() {
    let (mut world, a, b) = World::testbed();
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 10, 5);
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.run(b, pid).unwrap();
    let journal = world.journal.as_ref().expect("journal installed");
    assert!(journal.of_kind("migrate").count() >= 2, "excise + insert");
    // Stats carry across migration, so the journal (which saw the
    // pre-migration zero-fills too) matches the carried totals exactly.
    let stats = &world.process(b, pid).unwrap().stats;
    assert_eq!(
        journal.of_kind("fault").count() as u64,
        stats.imag_faults + stats.disk_faults + stats.zero_faults,
        "every fault leaves a record"
    );
    assert!(journal.of_kind("send").count() >= 2, "core + rimas crossed");
    // Events are time-ordered (the clock is monotone).
    let times: Vec<u64> = journal.events().iter().map(|e| e.at.as_micros()).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    // And the rendered tail is non-empty prose.
    assert!(journal.render_tail(5).lines().count() == 5);
}

/// Ledger totals equal the sum of per-category totals, and binning over
/// the full interval loses no bytes.
#[test]
fn ledger_conservation() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = simple_process(&mut world, a, 20, 6);
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
        .unwrap();
    world.run(b, pid).unwrap();
    let ledger = &world.fabric.ledger;
    let by_cat: u64 = LedgerCategory::ALL
        .iter()
        .map(|&c| ledger.total_for(c))
        .sum();
    assert_eq!(ledger.total(), by_cat);
    let end = world.clock.now();
    let binned: u64 = LedgerCategory::ALL
        .iter()
        .flat_map(|&c| ledger.binned(cor::sim::SimDuration::from_secs(1), end, c))
        .sum();
    assert_eq!(ledger.total(), binned, "binning conserves bytes");
}

/// Migrates `pid` and runs it to the end, settling and checking
/// quiescence after each step. A run may fail (a crash can orphan the
/// process): the queues must be drained all the same.
fn migrate_run_and_check(
    world: &mut World,
    src: &MigrationManager,
    dst: &MigrationManager,
    pid: cor::kernel::ProcessId,
    what: &str,
) {
    src.migrate_to(world, dst, pid, Strategy::PureIou { prefetch: 1 })
        .unwrap();
    world.settle().unwrap();
    assert_quiescent(world, what);
    let _ = world.run(dst.node(), pid);
    world.settle().unwrap();
    assert_quiescent(world, what);
}

#[test]
fn settle_leaves_no_live_served_queue_non_empty() {
    use cor::kernel::CostModel;
    use cor::net::{CrashPlan, CrashTrigger, FaultPlan, Topology, WireParams};

    // The paper testbed: healthy, lossy, and with the source crashing
    // mid-run (staying down, then rebooting amnesiac).
    let plan = CrashPlan::new();
    let trigger = CrashTrigger::AfterMessages(12);
    let legs = [
        ("testbed", WireParams::default(), 0),
        (
            "lossy wire",
            WireParams {
                faults: Some(FaultPlan::dropping(7, 0.15)),
                ..WireParams::default()
            },
            0,
        ),
        (
            "crash",
            WireParams {
                crashes: plan.clone().killing(NodeId(0), trigger),
                ..WireParams::default()
            },
            1,
        ),
        (
            "reboot",
            WireParams {
                crashes: plan.rebooting(NodeId(0), trigger),
                ..WireParams::default()
            },
            1,
        ),
    ];
    for (what, wire, crashes) in legs {
        let (mut world, nodes) = World::fleet(2, CostModel::default(), wire);
        let src = MigrationManager::new(&mut world, nodes[0]);
        let dst = MigrationManager::new(&mut world, nodes[1]);
        let pid = simple_process(&mut world, nodes[0], 24, 8);
        migrate_run_and_check(&mut world, &src, &dst, pid, what);
        assert_eq!(
            world.fabric.reliability.node_crashes.get(),
            crashes,
            "{what}"
        );
    }

    // A 16-node ring storm: every even node evicts two processes five
    // hops round the ring, and each faults its pages back.
    let wire = WireParams {
        topology: Some(Topology::ring(16)),
        ..WireParams::default()
    };
    let (mut world, nodes) = World::fleet(16, CostModel::default(), wire);
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();
    for i in (0..16).step_by(2) {
        for _ in 0..2 {
            let pid = simple_process(&mut world, nodes[i], 8, 8);
            let (src, dst) = (&managers[i], &managers[(i + 5) % 16]);
            migrate_run_and_check(&mut world, src, dst, pid, "ring storm");
        }
    }
}

/// `Fabric::pump` never serves a crashed node, so a message enqueued
/// directly on a dead node's NetMsgServer port stays queued (and the port
/// stays ready) for ever. Quiescence must skip it, not spin on it.
#[test]
fn a_message_on_a_crashed_nodes_nms_port_does_not_hang_settle() {
    use cor::ipc::protocol::imag_segment_death;
    use cor::mem::space::SegmentId;

    let (mut world, a, b) = World::testbed();
    let now = world.clock.now();
    world.fabric.crash_node(now, &mut world.ports, a, false);
    let dead_nms = world.fabric.nms_port(a).unwrap();
    let notice = |port| imag_segment_death(port, SegmentId(999));
    world.ports.enqueue(dead_nms, notice(dead_nms)).unwrap();
    assert_eq!(world.settle().unwrap(), 0, "nothing a live server can do");
    assert_eq!(
        world.ports.queue_len(dead_nms),
        1,
        "the dead NMS answered nothing"
    );
    assert_quiescent(&world, "dead NMS");

    // An amnesiac reboot is up again: its NMS port is still served.
    world.fabric.crash_node(now, &mut world.ports, b, true);
    let rebooted_nms = world.fabric.nms_port(b).unwrap();
    world
        .ports
        .enqueue(rebooted_nms, notice(rebooted_nms))
        .unwrap();
    assert_eq!(world.settle().unwrap(), 1);
    assert_eq!(world.ports.queue_len(rebooted_nms), 0);
}

/// The one place quiescence is allowed to differ from the all-ports poll
/// it replaced: a backer whose port was deallocated while still
/// registered used to fail every later `settle` with `PortError::Dead`;
/// now it is simply never ready. Nothing can reach its queue — senders
/// get the typed error — and the rest of the system keeps settling.
#[test]
fn a_backer_on_a_dead_port_is_never_served_and_breaks_nothing() {
    use cor::ipc::port::PortError;
    use cor::ipc::protocol::imag_segment_death;
    use cor::mem::space::SegmentId;

    let (mut world, a, _) = World::testbed();
    let live = world.ports.allocate(a);
    world.register_backer(live, a);
    world
        .ports
        .enqueue(live, imag_segment_death(live, SegmentId(1)))
        .unwrap();
    world.ports.deallocate(live);
    assert_eq!(world.settle().unwrap(), 0, "deallocation dropped the queue");

    let dead = world.ports.allocate(a);
    world.ports.deallocate(dead);
    world.register_backer(dead, a);
    assert_eq!(
        world
            .ports
            .enqueue(dead, imag_segment_death(dead, SegmentId(1))),
        Err(PortError::Dead(dead))
    );
    assert_eq!(world.settle().unwrap(), 0);
    assert!(world.backer_mut(dead).is_some(), "still registered");
}
