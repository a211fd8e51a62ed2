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
//!
//! The same rule covers migration: `insert_process` builds the destination
//! space in one ordered pass and `excise_process` collapses the source in
//! one walk, so the page-by-page loops they replaced live on here too, as
//! the oracles two properties compare them against on random spaces.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::strategy::Strategy as _;

use cor::ipc::message::MsgItem;
use cor::ipc::{NodeId, PortRight, Right};
use cor::kernel::program::{Op, Trace};
use cor::kernel::{ProcessId, World};
use cor::mem::amap::Access;
use cor::mem::page::{page_from_bytes, zero_page, Frame, PageData};
use cor::mem::{AddressSpace, Disk, PageNum, PageRange, PageState, SegmentId};
use cor::migrate::context::CoreBlob;
use cor::migrate::{excise_process, insert_process, ExcisedProcess};
use cor::migrate::{MigrationManager, Strategy};
use cor::workloads::spec::fill_page_content;
use cor::workloads::synth::SynthSpec;
use cor::workloads::Workload;

/// A workload page's contents in a fresh buffer.
fn page_content(seed: u64, page: PageNum) -> PageData {
    let mut data = zero_page();
    fill_page_content(seed, page, &mut data);
    data
}

/// The page-by-page installer every process was built by before images.
fn build_incrementally(w: &Workload, world: &mut World, node: NodeId) -> ProcessId {
    let bp = &w.blueprint;
    let mut space = AddressSpace::with_frame_budget(bp.frame_budget);
    for r in &bp.regions {
        space.validate_pages(*r);
    }
    let disk = &mut world.node_mut(node).unwrap().disk;
    for &page in &bp.on_disk {
        space.install_on_disk(page, page_content(bp.seed, page), disk);
    }
    for &page in &bp.install_order {
        let frame = Frame::new(page_content(bp.seed, page));
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
                    (PageState::Resident(f, _), PageState::Resident(b, _)) => (f, b),
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
    assert_eq!(read(&mut world, b, second), original, "the other fork");
    let third = image.fork(&mut world, b).unwrap();
    assert_eq!(read(&mut world, b, third), original, "the image itself");
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
        let n = world.node(a).unwrap();
        let in_flight = n.processes[&pid]
            .space
            .peek_frame(resident[9], &n.disk)
            .cloned()
            .unwrap();
        write(world, a, pid, resident[9], b"while shared");
        assert_eq!(world.process(a, pid).unwrap().space.cow_copies(), 1);
        in_flight.with(|d| assert_ne!(&d[..12], b"while shared"));
    }
    let sum = |world: &World| {
        let n = world.node(a).unwrap();
        let space = &n.processes[&pid].space;
        let pages: Vec<_> = space.materialized_pages().map(|(p, _)| p).collect();
        pages
            .into_iter()
            .map(|p| space.peek_frame(p, &n.disk).unwrap().content_hash())
            .fold(0u64, |acc, h| acc.rotate_left(5) ^ h)
    };
    assert_eq!(sum(&forked), sum(&built), "same bytes afterwards");
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

/// One step of building a random source space.
#[derive(Debug, Clone)]
enum SpaceOp {
    Validate(u64, u64),
    Install(u64),
    InstallOnDisk(u64),
    MapImaginary(u64, u64),
    Budget(usize),
}

/// Scattered runs, RealZero gaps, adjacent and overlapping regions,
/// already-imaginary runs, pages installed on disk and pages a shrinking
/// budget pushed there.
fn space_ops() -> impl proptest::strategy::Strategy<Value = Vec<SpaceOp>> {
    let op = prop_oneof![
        (0u64..160, 1u64..24).prop_map(|(p, n)| SpaceOp::Validate(p, n)),
        (0u64..160).prop_map(SpaceOp::Install),
        (0u64..160).prop_map(SpaceOp::Install),
        (0u64..160, 1u64..6).prop_map(|(p, n)| SpaceOp::Install(p + n)),
        (0u64..160).prop_map(SpaceOp::InstallOnDisk),
        (0u64..160, 1u64..8).prop_map(|(p, n)| SpaceOp::MapImaginary(p, n)),
        (1usize..12).prop_map(SpaceOp::Budget),
    ];
    prop::collection::vec(op, 1..120)
}

/// The budget the process carries to its destination: unbounded, one
/// frame, a few, or more than it has real pages.
fn carried_budget() -> impl proptest::strategy::Strategy<Value = Option<usize>> {
    prop_oneof![
        Just(None),
        Just(Some(1)),
        (2usize..24).prop_map(Some),
        Just(Some(1_000)),
    ]
}

/// A world with the process `ops` describe on node `a`, and the frames the
/// caller keeps aliased (every third install), so that sharing survives
/// the source space. Deterministic: equal arguments, equal worlds.
fn random_process(
    ops: &[SpaceOp],
    budget: Option<usize>,
) -> (World, NodeId, NodeId, ProcessId, Vec<Frame>) {
    let (mut world, a, b) = World::testbed();
    let disk = &mut world.node_mut(a).unwrap().disk;
    let mut space = AddressSpace::new();
    let (mut aliases, mut segs) = (Vec::new(), 0);
    for op in ops {
        match *op {
            SpaceOp::Validate(p, n) => {
                space.validate_pages(PageRange::new(PageNum(p), PageNum(p + n)));
            }
            SpaceOp::Install(p) => {
                let frame = Frame::new(page_from_bytes(&p.to_le_bytes()));
                if p % 3 == 0 {
                    aliases.push(frame.clone());
                }
                space.install_page(PageNum(p), frame, disk);
            }
            SpaceOp::InstallOnDisk(p) => {
                space.install_on_disk(PageNum(p), page_from_bytes(&[0xD1, p as u8]), disk);
            }
            SpaceOp::MapImaginary(p, n) => {
                segs += 1;
                let range = PageRange::new(PageNum(p), PageNum(p + n));
                space.map_imaginary(range, SegmentId(segs), 3 * p);
            }
            SpaceOp::Budget(frames) => space.set_frame_budget(Some(frames)),
        }
    }
    space.set_frame_budget(budget);
    let pid = world
        .create_process(a, "random", space, Trace::new(vec![Op::Terminate]))
        .unwrap();
    (world, a, b, pid, aliases)
}

/// Everything a process, or the next excision, can observe of a space and
/// its disk.
fn observe_space(space: &AddressSpace, disk: &Disk) -> String {
    let pages: Vec<String> = space
        .materialized_pages()
        .map(|(p, state)| match state {
            PageState::Resident(f, _) => {
                format!("{}:r:{:x}:{}", p.0, f.content_hash(), f.is_shared())
            }
            PageState::OnDisk(a) => {
                let frame = disk.peek_frame(*a).unwrap();
                format!("{}:d{}:{:x}", p.0, a.0, frame.content_hash())
            }
            PageState::Imaginary { seg, offset } => format!("{}:i{}+{offset}", p.0, seg.0),
        })
        .collect();
    format!(
        "{:?} {pages:?} {:?} {:?} {:?} {:?} {:?}",
        space.regions(),
        space.resident_pages_lru(),
        space.frame_budget(),
        space.stats(),
        (space.pageouts(), space.zero_fills(), space.cow_copies()),
        (disk.blocks_in_use(), disk.writes(), disk.reads()),
    )
}

/// The collapsed area of a RIMAS message, slot by slot.
fn observe_items(items: &[MsgItem]) -> Vec<String> {
    items
        .iter()
        .map(|item| match item {
            MsgItem::Pages { base_page, frames } => {
                let frames: Vec<_> = frames
                    .iter()
                    .map(|f| (f.content_hash(), f.is_shared()))
                    .collect();
                format!("pages@{base_page} {frames:x?}")
            }
            other => format!("{other:?}"),
        })
        .collect()
}

/// `InsertProcess` as it rebuilt a space before the bulk constructor: one
/// `install_page` or `map_imaginary` per page of the replayed walk, the
/// frame budget enforced install by install. Returns the space and
/// `[runs, carried, owed]`.
fn insert_page_by_page(excised: &ExcisedProcess, disk: &mut Disk) -> (AddressSpace, [u64; 3]) {
    enum Slot<'a> {
        Carried(&'a Frame),
        Owed(SegmentId, u64),
    }
    let mut slots = BTreeMap::new();
    for item in &excised.rimas.items {
        match item {
            MsgItem::Pages { base_page, frames } => {
                for (slot, frame) in (*base_page..).zip(frames) {
                    slots.insert(slot, Slot::Carried(frame));
                }
            }
            MsgItem::Iou {
                base_page,
                seg,
                seg_offset,
                pages,
            } => {
                for i in 0..*pages {
                    slots.insert(base_page + i, Slot::Owed(*seg, seg_offset + i));
                }
            }
            _ => {}
        }
    }
    let MsgItem::Inline(blob) = &excised.core.items[0] else {
        panic!("the Core message starts with its blob");
    };
    let mut space = AddressSpace::new();
    space.set_frame_budget(CoreBlob::decode(blob).unwrap().budget());
    let (mut cursor, mut runs, mut carried, mut owed) = (0u64, 0, 0, 0);
    for entry in excised.core.amap().unwrap().entries() {
        match entry.access {
            Access::RealZero => space.validate_pages(entry.range),
            Access::Real | Access::Imag => {
                runs += 1;
                for page in entry.range.iter() {
                    match slots[&cursor] {
                        Slot::Carried(frame) => {
                            space.install_page(page, frame.clone(), disk);
                            carried += 1;
                        }
                        Slot::Owed(seg, offset) => {
                            space.map_imaginary(
                                PageRange::new(page, PageNum(page.0 + 1)),
                                seg,
                                offset,
                            );
                            owed += 1;
                        }
                    }
                    cursor += 1;
                }
            }
            Access::Bad => unreachable!("AMaps never contain BadMem entries"),
        }
    }
    (space, [runs, carried, owed])
}

/// `ExciseProcess`'s collapse as it ran before the one-walk version: a
/// page-table search per Real page of the AMap, and another to take a
/// paged-out page's frame off the disk. Returns the RIMAS items, the
/// resident slots and `[real, resident, imaginary]` page counts.
fn collapse_page_by_page(
    space: &AddressSpace,
    disk: &mut Disk,
) -> (Vec<MsgItem>, Vec<u64>, [u64; 3]) {
    let (mut items, mut batch, mut batch_base) = (Vec::new(), Vec::new(), 0);
    let (mut cursor, mut resident_slots) = (0u64, Vec::new());
    let (mut real, mut resident, mut imag) = (0, 0, 0);
    for entry in space.amap().entries() {
        match entry.access {
            Access::RealZero => {}
            Access::Real => {
                for page in entry.range.iter() {
                    if batch.is_empty() {
                        batch_base = cursor;
                    }
                    match space.page_state(page) {
                        Some(PageState::Resident(frame, _)) => {
                            batch.push(frame.clone());
                            resident_slots.push(cursor);
                            resident += 1;
                        }
                        Some(PageState::OnDisk(addr)) => {
                            batch.push(disk.take_frame(*addr).unwrap());
                        }
                        other => panic!("AMap says Real but {page:?} is {other:?}"),
                    }
                    real += 1;
                    cursor += 1;
                }
            }
            Access::Imag => {
                if !batch.is_empty() {
                    items.push(MsgItem::Pages {
                        base_page: batch_base,
                        frames: std::mem::take(&mut batch),
                    });
                }
                let pages = entry.range.len();
                items.push(MsgItem::Iou {
                    base_page: cursor,
                    seg: entry.seg.unwrap(),
                    seg_offset: entry.seg_offset,
                    pages,
                });
                imag += pages;
                cursor += pages;
            }
            Access::Bad => unreachable!("AMaps never contain BadMem entries"),
        }
    }
    if !batch.is_empty() {
        items.push(MsgItem::Pages {
            base_page: batch_base,
            frames: batch,
        });
    }
    (items, resident_slots, [real, resident, imag])
}

proptest! {
    /// Two equal worlds, one excised by `excise_process` and one collapsed
    /// by the page-by-page oracle: the same RIMAS items (contents and
    /// sharing of every frame), resident slots, report and source disk.
    #[test]
    fn the_one_walk_collapse_equals_the_page_by_page_collapse(
        ops in space_ops(),
        budget in carried_budget(),
    ) {
        let (mut world, a, b, pid, _aliases) = random_process(&ops, budget);
        let (mut oracle, _, _, _, _oracle_aliases) = random_process(&ops, budget);
        let complexity = world.process(a, pid).unwrap().space.map_complexity();
        let dest = world.ports.allocate(b);
        let (excised, report) = excise_process(&mut world, a, pid, dest).unwrap();

        let n = oracle.node_mut(a).unwrap();
        let (items, resident_slots, [real, resident, imag]) =
            collapse_page_by_page(&n.processes[&pid].space, &mut n.disk);
        // Excision dismantles the source space; so must the oracle, or
        // every frame it collapsed stays shared with it.
        drop(oracle.remove_process(a, pid).unwrap());

        prop_assert_eq!(observe_items(&excised.rimas.items), observe_items(&items));
        let excised_slots: Vec<u64> =
            excised.resident_slots.iter().flat_map(|&(s, e)| s..e).collect();
        prop_assert_eq!(&excised_slots, &resident_slots);
        prop_assert!(
            excised.resident_slots.windows(2).all(|w| w[0].1 < w[1].0),
            "resident runs must ascend, apart: {:?}",
            excised.resident_slots
        );
        prop_assert_eq!(
            (report.real_pages, report.resident_pages, report.imag_pages),
            (real, resident, imag)
        );
        prop_assert_eq!(report.amap_entries, excised.core.amap().unwrap().len() as u64);
        prop_assert_eq!(report.amap_time, world.costs.amap_cost(complexity));
        prop_assert_eq!(report.rimas_time, world.costs.rimas_cost(resident, real));
        prop_assert_eq!(
            report.total,
            report.amap_time + report.rimas_time + world.costs.excise_fixed
        );
        let disks = [&world, &oracle].map(|w| {
            let disk = &w.node(a).unwrap().disk;
            (disk.blocks_in_use(), disk.writes(), disk.reads())
        });
        prop_assert_eq!(disks[0], disks[1]);
    }

    /// Two equal excised contexts, one rebuilt by `insert_process` and one
    /// by the page-by-page oracle, each on its own destination disk (empty
    /// or used): every observable of the space and the disk is equal, and
    /// the report counts what the oracle counted.
    #[test]
    fn the_bulk_insert_equals_the_page_by_page_insert(
        ops in space_ops(),
        budget in carried_budget(),
        used in 0u64..4,
    ) {
        let (mut world, a, b, pid, _aliases) = random_process(&ops, budget);
        let (mut oracle, _, _, _, _oracle_aliases) = random_process(&ops, budget);
        let mut excised = Vec::new();
        for w in [&mut world, &mut oracle] {
            for i in 0..used {
                w.node_mut(b).unwrap().disk.write_new(page_from_bytes(&[i as u8]));
            }
            let dest = w.ports.allocate(b);
            excised.push(excise_process(w, a, pid, dest).unwrap().0);
        }
        let expected = {
            let context = excised.pop().unwrap();
            let disk = &mut oracle.node_mut(b).unwrap().disk;
            let (space, counts) = insert_page_by_page(&context, disk);
            // Insertion consumes the context messages and with them their
            // hold on every carried frame.
            drop(context);
            (observe_space(&space, disk), counts)
        };
        let before = world.clock.now();
        let (inserted, report) = insert_process(&mut world, b, excised.pop().unwrap()).unwrap();
        prop_assert_eq!(inserted, pid);
        let n = world.node(b).unwrap();
        let got = observe_space(&n.processes[&pid].space, &n.disk);
        prop_assert_eq!((got, [report.runs, report.carried_pages, report.owed_pages]), expected);
        prop_assert_eq!(report.total, world.costs.insert_cost(report.runs, report.carried_pages));
        prop_assert_eq!(world.clock.now().since(before), report.total);
    }
}
