//! Build once, fork many: a process thawed from a frozen image is
//! indistinguishable from one assembled page by page.
//!
//! `Blueprint::instantiate` is image + fork and nothing else, so the
//! incremental installer it replaced lives on here as the reference: for
//! every paper workload and a synthetic one, a fork must match it in every
//! observable — regions, page states down to the disk address, LRU order,
//! counters, disk accounting, bytes — and forks must be independent of one
//! another and of the image in the *simulated* machine (fresh unshared
//! frames, no copy-on-write counted) although they share host bytes.

use cor::ipc::{NodeId, PortRight, Right};
use cor::kernel::{ProcessId, World};
use cor::mem::page::{page_from_bytes, Frame};
use cor::mem::{AddressSpace, PageState};
use cor::migrate::{MigrationManager, Strategy};
use cor::workloads::spec::page_content;
use cor::workloads::synth::SynthSpec;
use cor::workloads::Workload;

/// The page-by-page installer every process was built by before images.
fn build_incrementally(w: &Workload, world: &mut World, node: NodeId) -> ProcessId {
    let bp = &w.blueprint;
    let mut space = AddressSpace::with_frame_budget(bp.frame_budget);
    for r in &bp.regions {
        space.validate_pages(*r);
    }
    let disk = &mut world.node_mut(node).unwrap().disk;
    for &page in &bp.on_disk {
        space.install_on_disk(page, Box::new(page_content(bp.seed, page)), disk);
    }
    for &page in &bp.install_order {
        let frame = Frame::new(Box::new(page_content(bp.seed, page)));
        space.install_page(page, frame, disk);
    }
    let mut rights = Vec::new();
    for _ in 0..bp.send_rights {
        let port = world.ports.allocate(node);
        rights.push(PortRight {
            port,
            right: Right::Send,
        });
    }
    for _ in 0..bp.recv_ports {
        let port = world.ports.allocate(node);
        for right in [Right::Receive, Right::Ownership] {
            rights.push(PortRight { port, right });
        }
    }
    let pid = world
        .create_process(node, bp.name, space, bp.trace.clone())
        .unwrap();
    world.process_mut(node, pid).unwrap().rights = rights;
    pid
}

fn synthetic() -> Workload {
    SynthSpec {
        name: "fork-synth",
        seed: 23,
        real_pages: 300,
        realzero_pages: 500,
        runs: 12,
        resident_pages: 70,
        touched_fraction: 0.5,
        locality: 0.6,
        compute_ms: 1_000,
        write_fraction: 0.4,
    }
    .build()
}

fn every_workload() -> Vec<Workload> {
    let mut all = cor::workloads::all();
    all.push(synthetic());
    all
}

/// A testbed whose node-`a` disk already holds `used` blocks.
fn testbed(used: u64) -> (World, NodeId, NodeId) {
    let (mut world, a, b) = World::testbed();
    for i in 0..used {
        let disk = &mut world.node_mut(a).unwrap().disk;
        disk.write_new(page_from_bytes(&i.to_le_bytes()));
    }
    (world, a, b)
}

#[test]
fn a_fork_equals_the_incrementally_built_process() {
    for w in every_workload() {
        for used in [0, 37] {
            let name = w.name();
            let (mut built, a, _) = testbed(used);
            let (mut forked, a2, _) = testbed(used);
            assert_eq!(a, a2);
            let pid = build_incrementally(&w, &mut built, a);
            assert_eq!(w.build(&mut forked, a).unwrap(), pid, "{name}");

            let (bd, fd) = (&built.node(a).unwrap().disk, &forked.node(a).unwrap().disk);
            assert_eq!(
                (fd.blocks_in_use(), fd.reads(), fd.writes()),
                (bd.blocks_in_use(), bd.reads(), bd.writes()),
                "{name}: disk accounting"
            );
            let (bp, fp) = (
                built.process(a, pid).unwrap(),
                forked.process(a, pid).unwrap(),
            );
            assert_eq!(fp.rights, bp.rights, "{name}: rights");
            let (bs, fs) = (&bp.space, &fp.space);
            assert_eq!(fs.regions(), bs.regions(), "{name}: regions");
            assert_eq!(fs.frame_budget(), bs.frame_budget(), "{name}");
            assert_eq!(fs.stats(), bs.stats(), "{name}: Table 4-1 composition");
            assert_eq!(fs.resident_pages(), bs.resident_pages(), "{name}");
            assert_eq!(
                fs.resident_pages_lru(),
                bs.resident_pages_lru(),
                "{name}: LRU order"
            );
            assert_eq!(
                (fs.pageouts(), fs.zero_fills(), fs.cow_copies()),
                (bs.pageouts(), bs.zero_fills(), bs.cow_copies()),
                "{name}: counters"
            );
            assert_eq!(fs.map_complexity(), bs.map_complexity(), "{name}");
            for ((fpage, fstate), (bpage, bstate)) in
                fs.materialized_pages().zip(bs.materialized_pages())
            {
                assert_eq!(fpage, bpage, "{name}: page table keys");
                let (fframe, bframe) = match (fstate, bstate) {
                    (PageState::Resident(f), PageState::Resident(b)) => (f, b),
                    (PageState::OnDisk(f), PageState::OnDisk(b)) => {
                        assert_eq!(f, b, "{name}: disk address of {fpage:?}");
                        (fd.peek_frame(*f).unwrap(), bd.peek_frame(*b).unwrap())
                    }
                    other => panic!("{name}: {fpage:?} differs: {other:?}"),
                };
                assert!(fframe.same_contents(bframe), "{name}: bytes of {fpage:?}");
                assert!(!fframe.is_shared(), "{name}: a thawed frame is unshared");
            }
        }
    }
}

/// Makes `page` writable the way the pager would, then writes `bytes`.
fn write(world: &mut World, node: NodeId, pid: ProcessId, page: cor::mem::PageNum, bytes: &[u8]) {
    let n = world.node_mut(node).unwrap();
    let space = &mut n.processes.get_mut(&pid).unwrap().space;
    if let Err(cor::mem::Fault::DiskIn { .. }) = space.check_write(page) {
        space.page_in(page, &mut n.disk).unwrap();
        space.check_write(page).unwrap();
    }
    space.write(page.base(), bytes).unwrap();
}

#[test]
fn forks_are_independent_of_each_other_and_of_the_image() {
    let w = cor::workloads::minprog::workload();
    let image = w.image().unwrap();
    let (mut world, a, b) = World::testbed();
    let first = image.fork(&mut world, a).unwrap();
    let second = image.fork(&mut world, b).unwrap();
    let page = *w.blueprint.install_order.last().unwrap();
    let original = page_content(w.blueprint.seed, page);
    write(&mut world, a, first, page, b"diverged");

    let read = |world: &mut World, node, pid| {
        let n = world.node_mut(node).unwrap();
        n.processes[&pid]
            .space
            .peek_page(page, &mut n.disk)
            .unwrap()
    };
    assert_eq!(&read(&mut world, a, first)[..8], b"diverged");
    assert_eq!(*read(&mut world, b, second), original, "the other fork");
    let third = image.fork(&mut world, b).unwrap();
    assert_eq!(*read(&mut world, b, third), original, "the image itself");
    assert_eq!(
        world.process(a, first).unwrap().space.cow_copies(),
        0,
        "diverging host bytes is not a simulated copy-on-write"
    );
}

#[test]
fn writes_count_copy_on_write_exactly_as_on_a_built_process() {
    let w = synthetic();
    let (mut built, a, _) = World::testbed();
    let (mut forked, _, _) = World::testbed();
    let pid = build_incrementally(&w, &mut built, a);
    assert_eq!(w.build(&mut forked, a).unwrap(), pid);
    let resident = built.process(a, pid).unwrap().space.resident_pages();
    let on_disk = w.blueprint.install_order[0];
    for world in [&mut built, &mut forked] {
        // Unshared pages, resident or paged back in: no copy is counted.
        for &page in resident[..8].iter().chain([&on_disk]) {
            write(world, a, pid, page, b"scripted write");
        }
        assert_eq!(world.process(a, pid).unwrap().space.cow_copies(), 0);
        // A message in flight (or a backer) aliasing the frame: one copy.
        let n = world.node_mut(a).unwrap();
        let in_flight = n.processes[&pid]
            .space
            .peek_frame(resident[9], &mut n.disk)
            .unwrap();
        write(world, a, pid, resident[9], b"while shared");
        assert_eq!(world.process(a, pid).unwrap().space.cow_copies(), 1);
        in_flight.with(|d| assert_ne!(&d[..12], b"while shared"));
    }
    let sum = |world: &mut World| {
        let n = world.node_mut(a).unwrap();
        let space = &n.processes[&pid].space;
        let pages: Vec<_> = space.materialized_pages().map(|(p, _)| p).collect();
        pages
            .into_iter()
            .map(|p| space.peek_frame(p, &mut n.disk).unwrap().content_hash())
            .fold(0u64, |acc, h| acc.rotate_left(5) ^ h)
    };
    assert_eq!(sum(&mut forked), sum(&mut built), "same bytes afterwards");
}

#[test]
fn a_forked_trial_sees_the_memory_a_built_one_sees() {
    let strategies = [
        Strategy::PureCopy,
        Strategy::PureIou { prefetch: 1 },
        Strategy::ResidentSet { prefetch: 1 },
    ];
    for w in [cor::workloads::minprog::workload(), synthetic()] {
        let image = w.image().unwrap();
        for strategy in strategies {
            let run = |fork: bool| {
                let (mut world, a, b) = World::testbed();
                let src = MigrationManager::new(&mut world, a);
                let dst = MigrationManager::new(&mut world, b);
                let pid = if fork {
                    image.fork(&mut world, a).unwrap()
                } else {
                    build_incrementally(&w, &mut world, a)
                };
                src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
                assert!(world.run(b, pid).unwrap().finished);
                (
                    world.touched_checksum(b, pid).unwrap(),
                    world.clock.now(),
                    world.fabric.ledger.total(),
                    world.process(b, pid).unwrap().space.cow_copies(),
                )
            };
            assert_eq!(run(true), run(false), "{} under {strategy:?}", w.name());
        }
    }
}
