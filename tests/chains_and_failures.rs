//! Multi-hop migration chains and failure injection.
//!
//! Chains: a process that migrates a → b → c leaves its unfetched pages
//! behind a chain of NMS stand-ins; faults at c must be forwarded two hops
//! to the original cache and replies relayed back, renamed at every hop,
//! and the process must end with the memory its trace predicts.
//!
//! Failures: broken backing chains, dead ports, and vanished cache data
//! must surface as clean errors, never panics or hangs.

use std::collections::HashMap;

use cor::kernel::program::Trace;
use cor::kernel::{KernelError, World};
use cor::mem::{AddressSpace, PageNum, PageRange, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};

fn three_node_world() -> (
    World,
    Vec<cor::ipc::NodeId>,
    HashMap<cor::ipc::NodeId, MigrationManager>,
) {
    let mut world = World::new(Default::default(), Default::default());
    let nodes: Vec<_> = (0..3).map(|_| world.add_node()).collect();
    let managers: HashMap<_, _> = nodes
        .iter()
        .map(|&n| (n, MigrationManager::new(&mut world, n)))
        .collect();
    (world, nodes, managers)
}

fn staged_process(world: &mut World, node: cor::ipc::NodeId, pages: u64) -> cor::kernel::ProcessId {
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 2 * pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 96);
    }
    // Three remote stages of reads, so the process can hop twice and
    // still have work left.
    for _ in 0..3 {
        for i in 0..pages {
            tb.read(PageNum(i).base(), 96);
        }
    }
    let pid = world
        .create_process(node, "hopper", space, tb.terminate())
        .unwrap();
    world.run_for(node, pid, pages as usize).unwrap();
    world.reset_touch_tracking(node, pid).unwrap();
    pid
}

#[test]
fn two_hop_chain_faults_resolve_through_both_nms() {
    let (mut world, nodes, managers) = three_node_world();
    let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
    let pid = staged_process(&mut world, a, 12);
    // Hop 1: a -> b, touch a couple of pages (so some fetched, some owed).
    managers[&a]
        .migrate_to(
            &mut world,
            &managers[&b],
            pid,
            Strategy::PureIou { prefetch: 0 },
        )
        .unwrap();
    world.run_for(b, pid, 3).unwrap();
    // Hop 2: b -> c with the rest still owed by a's cache through b.
    managers[&b]
        .migrate_to(
            &mut world,
            &managers[&c],
            pid,
            Strategy::PureIou { prefetch: 0 },
        )
        .unwrap();
    // Dispersion at c must see through the chain: the 9 never-fetched
    // pages still live at a; the 3 fetched at b were re-cached by b's NMS
    // when the second RIMAS passed through it.
    let d = world.residual_dependencies(c, pid).unwrap();
    assert_eq!(
        d.get(&a).copied(),
        Some(9),
        "unfetched pages owed by a: {d:?}"
    );
    assert_eq!(
        d.get(&b).copied(),
        Some(3),
        "pages fetched at b now cached there: {d:?}"
    );
    // Finish at c: every fault resolves through one or two hops.
    let r = world.run(c, pid).unwrap();
    assert!(r.finished);
    let stats = &world.process(c, pid).unwrap().stats;
    // Fault counts accumulate across hops: 3 taken at b + 12 at c.
    assert_eq!(stats.imag_faults, 15, "every owed page was re-fetched");
    // The whole distributed object graph dies with the process.
    assert_eq!(world.segs.live(), 0);
    for &n in &nodes {
        assert_eq!(world.fabric.cached_pages_live(n), 0, "cache leak on {n}");
        assert_eq!(world.fabric.standins_live(n), 0, "stand-in leak on {n}");
    }
}

#[test]
fn chain_memory_is_correct_end_to_end() {
    let (mut world, nodes, managers) = three_node_world();
    let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
    let pid = staged_process(&mut world, a, 10);
    // Touch tracking starts after the 10 staged writes.
    let trace = &world.process(a, pid).unwrap().trace;
    let expected = trace.expected_checksum_from(10, |_, _| ());
    managers[&a]
        .migrate_to(
            &mut world,
            &managers[&b],
            pid,
            Strategy::PureIou { prefetch: 1 },
        )
        .unwrap();
    world.run_for(b, pid, 3).unwrap();
    managers[&b]
        .migrate_to(
            &mut world,
            &managers[&c],
            pid,
            Strategy::ResidentSet { prefetch: 0 },
        )
        .unwrap();
    world.run(c, pid).unwrap();
    assert_eq!(world.touched_checksum(c, pid).unwrap(), expected);
}

#[test]
fn crash_mid_chain_orphans_with_typed_error() {
    // a → b → c: killing the *middle* of the forwarding chain strands both
    // the pages b cached and the path to the pages a still holds. The
    // process at c must die with the typed orphan error, never a panic or
    // a hang.
    let (mut world, nodes, managers) = three_node_world();
    let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
    let pid = staged_process(&mut world, a, 12);
    managers[&a]
        .migrate_to(
            &mut world,
            &managers[&b],
            pid,
            Strategy::PureIou { prefetch: 0 },
        )
        .unwrap();
    world.run_for(b, pid, 3).unwrap();
    managers[&b]
        .migrate_to(
            &mut world,
            &managers[&c],
            pid,
            Strategy::PureIou { prefetch: 0 },
        )
        .unwrap();
    // Before the crash, the residual-dependency set sees through the
    // chain: 9 never-fetched pages still owed by a, 3 re-cached at b.
    let deps = world.residual_dependencies(c, pid).unwrap();
    assert_eq!(deps.get(&a).copied(), Some(9), "deps: {deps:?}");
    assert_eq!(deps.get(&b).copied(), Some(3), "deps: {deps:?}");
    let now = world.clock.now();
    world.fabric.crash_node(now, &mut world.ports, b, false);
    match world.run(c, pid) {
        Err(KernelError::OrphanedProcess {
            pid: p,
            node,
            lost_pages,
        }) => {
            assert_eq!(p, pid);
            assert_eq!(node, b, "the chain's broken link is the culprit");
            // b's crash wiped its cache AND its forward entry toward a, so
            // every owed page is gone: the 3 cached at b and the 9 whose
            // only route went through b.
            assert_eq!(lost_pages, 12);
        }
        other => panic!("expected OrphanedProcess, got {other:?}"),
    }
    assert_eq!(
        world.fabric.reliability.pages_lost.get(),
        12,
        "the loss is tallied for the survivability accounting"
    );
}

#[test]
fn missing_cache_data_is_a_clean_error() {
    // A fault against a segment whose backer holds nothing must surface
    // as MissingData, not hang or panic.
    let (mut world, a, b) = World::testbed();
    let nms_a = world.fabric.nms_port(a).unwrap();
    let seg = world.segs.create(nms_a, 4);
    world.segs.add_refs(seg, 4).unwrap();
    // Deliberately do NOT install any cache data for `seg`.
    let mut space = AddressSpace::new();
    space.map_imaginary(PageRange::new(PageNum(0), PageNum(4)), seg, 0);
    let mut tb = Trace::builder();
    tb.read(VAddr(0), 8);
    let pid = world
        .create_process(b, "victim", space, tb.terminate())
        .unwrap();
    match world.run(b, pid) {
        Err(KernelError::Net(cor::net::NetError::MissingData { seg: s, .. })) => {
            assert_eq!(s, seg)
        }
        other => panic!("expected MissingData, got {other:?}"),
    }
}

#[test]
fn dead_destination_port_fails_migration_cleanly() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = staged_process(&mut world, a, 4);
    // Sabotage: the destination manager's control port dies.
    world.ports.deallocate(dst.control_port());
    let err = src
        .migrate_to(&mut world, &dst, pid, Strategy::PureCopy)
        .unwrap_err();
    assert!(
        matches!(err, KernelError::Net(cor::net::NetError::Port(_))),
        "got {err:?}"
    );
}

#[test]
fn unknown_workload_and_process_errors() {
    let (world, a, _) = World::testbed();
    assert!(world.process(a, cor::kernel::ProcessId(999)).is_err());
    assert!(world.node(cor::ipc::NodeId(42)).is_err());
    assert!(cor::workloads::by_name("NoSuch").is_none());
}

#[test]
fn backer_that_loses_data_mid_run_surfaces_missing_data() {
    use cor::mem::page::Frame;

    let (mut world, a, b) = World::testbed();
    let backing = world.ports.allocate(a);
    let seg = world.segs.create(backing, 3);
    world.segs.add_refs(seg, 3).unwrap();
    world.register_backer(backing, a);
    let frames = (0..3).map(|_| Frame::zeroed()).collect();
    world.backer_mut(backing).unwrap().insert(seg, frames);
    let mut space = AddressSpace::new();
    space.map_imaginary(PageRange::new(PageNum(0), PageNum(3)), seg, 0);
    let mut tb = Trace::builder();
    for i in 0..3 {
        tb.read(PageNum(i).base(), PAGE_SIZE);
    }
    let pid = world
        .create_process(b, "flaked", space, tb.terminate())
        .unwrap();
    // The first page's fetch succeeds; then the backer loses its data.
    world.run_for(b, pid, 1).unwrap();
    world.backer_mut(backing).unwrap().remove(seg);
    match world.run(b, pid) {
        Err(KernelError::Net(cor::net::NetError::MissingData { .. })) => {}
        other => panic!("expected MissingData after the backer lost its data, got {other:?}"),
    }
    assert_eq!(
        world.process(b, pid).unwrap().stats.imag_faults,
        1,
        "exactly one fetch succeeded before the failure"
    );
}

#[test]
fn a_mid_chain_crash_re_exposes_pages_that_flush_draining_made_safe() {
    // a → b → c, then flush-drain everything at c: the 9 pages a still
    // holds land on a's disk, the 3 re-cached at b on b's, and no
    // residual dependency is left. Killing b then wipes its forward
    // table, so the 9 pages behind it resolve to b itself — owed again,
    // to a dead node. The drain scan must see them although an earlier
    // round had found every one of them safe.
    use cor::kernel::DrainPolicy;
    let (mut world, nodes, managers) = three_node_world();
    let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
    let pid = staged_process(&mut world, a, 12);
    let iou = Strategy::PureIou { prefetch: 0 };
    managers[&a]
        .migrate_to(&mut world, &managers[&b], pid, iou)
        .unwrap();
    world.run_for(b, pid, 3).unwrap();
    managers[&b]
        .migrate_to(&mut world, &managers[&c], pid, iou)
        .unwrap();
    while world.drain_round(c, pid, DrainPolicy::flush(5)).unwrap() > 0 {}
    assert!(world.residual_dependencies(c, pid).unwrap().is_empty());
    assert_eq!(
        (world.fabric.disk_pages(a), world.fabric.disk_pages(b)),
        (9, 3)
    );
    let now = world.clock.now();
    world.fabric.crash_node(now, &mut world.ports, b, false);
    let deps = world.residual_dependencies(c, pid).unwrap();
    assert_eq!(deps.get(&b).copied(), Some(9), "deps: {deps:?}");
    assert_eq!(deps.len(), 1, "deps: {deps:?}");
    assert_eq!(world.drain_round(c, pid, DrainPolicy::flush(5)).unwrap(), 0);
    match world.run(c, pid) {
        Err(KernelError::OrphanedProcess {
            node, lost_pages, ..
        }) => {
            assert_eq!((node, lost_pages), (b, 9));
        }
        other => panic!("expected OrphanedProcess, got {other:?}"),
    }
}
