//! The transparency oracle itself. Every crash and migration study judges a
//! survivor by `World::touched_checksum` against a crash-free twin, so the
//! digest must see every byte of every touched page, at that page's number,
//! on every call — and judging a run must not change it.

use cor::ipc::NodeId;
use cor::kernel::{ProcessId, World};
use cor::mem::page::PageBytes;
use cor::mem::{PageNum, PageState, PAGE_SIZE};
use cor::workloads::synth::SynthSpec;

/// A finished local run shaped like a degraded-wire crash cell: 128 real
/// pages, all touched, under a 32-frame budget, so most touched pages end
/// the run on disk.
fn finished_run() -> (World, NodeId, ProcessId) {
    let w = SynthSpec {
        name: "oracle-synth",
        seed: 41,
        real_pages: 128,
        realzero_pages: 64,
        runs: 8,
        resident_pages: 32,
        touched_fraction: 1.0,
        locality: 0.7,
        compute_ms: 100,
        write_fraction: 0.25,
    }
    .build();
    let (mut world, a, _) = World::testbed();
    let pid = w.build(&mut world, a).unwrap();
    assert!(world.run(a, pid).unwrap().finished);
    (world, a, pid)
}

fn touched(world: &World, node: NodeId, pid: ProcessId) -> Vec<PageNum> {
    let mut pages: Vec<_> = world
        .process(node, pid)
        .unwrap()
        .stats
        .touched
        .iter()
        .copied()
        .collect();
    pages.sort_unstable();
    pages
}

fn on_disk(world: &World, node: NodeId, pid: ProcessId, page: PageNum) -> bool {
    let space = &world.process(node, pid).unwrap().space;
    matches!(space.page_state(page), Some(PageState::OnDisk(_)))
}

fn bytes(world: &World, node: NodeId, pid: ProcessId, page: PageNum) -> PageBytes {
    let n = world.node(node).unwrap();
    n.processes[&pid]
        .space
        .peek_frame(page, &n.disk)
        .unwrap()
        .with(|d| *d)
}

/// Overwrites `page` through the process's own write path (paged back in
/// and unshared first, as a program store would be).
fn store(world: &mut World, node: NodeId, pid: ProcessId, page: PageNum, data: &PageBytes) {
    let n = world.node_mut(node).unwrap();
    let space = &mut n.processes.get_mut(&pid).unwrap().space;
    if let Err(cor::mem::Fault::DiskIn { .. }) = space.check_write(page) {
        space.page_in(page, &mut n.disk).unwrap();
        space.check_write(page).unwrap();
    }
    space.write(page.base(), data).unwrap();
}

#[test]
fn judging_a_run_counts_no_simulated_disk_read() {
    let (world, a, pid) = finished_run();
    let pages = touched(&world, a, pid);
    assert!(
        pages
            .iter()
            .filter(|&&p| on_disk(&world, a, pid, p))
            .count()
            >= 64
    );
    let reads = world.node(a).unwrap().disk.reads();
    let sum = world.touched_checksum(a, pid).unwrap();
    assert_eq!(world.touched_checksum(a, pid).unwrap(), sum, "repeatable");
    assert_eq!(
        world.node(a).unwrap().disk.reads(),
        reads,
        "a host-side peek"
    );
}

#[test]
fn one_flipped_byte_anywhere_in_a_touched_page_changes_the_checksum() {
    let (mut world, a, pid) = finished_run();
    let base = world.touched_checksum(a, pid).unwrap();
    let pages = touched(&world, a, pid);
    let resident = pages
        .iter()
        .copied()
        .find(|&p| !on_disk(&world, a, pid, p))
        .unwrap();
    let paged_out = pages
        .iter()
        .copied()
        .find(|&p| on_disk(&world, a, pid, p))
        .unwrap();
    let last = PAGE_SIZE as usize - 1;
    for page in [
        pages[0],
        pages[pages.len() / 2],
        pages[pages.len() - 1],
        resident,
        paged_out,
    ] {
        for at in [0, last / 2, last / 2 + 1, last] {
            let original = bytes(&world, a, pid, page);
            let mut flipped = original;
            flipped[at] ^= 0xff;
            store(&mut world, a, pid, page, &flipped);
            assert_ne!(
                world.touched_checksum(a, pid).unwrap(),
                base,
                "{page:?} byte {at}"
            );
            store(&mut world, a, pid, page, &original);
            assert_eq!(
                world.touched_checksum(a, pid).unwrap(),
                base,
                "{page:?} restored"
            );
        }
    }
}

#[test]
fn two_touched_pages_swapping_contents_change_the_checksum() {
    let (mut world, a, pid) = finished_run();
    let base = world.touched_checksum(a, pid).unwrap();
    let pages = touched(&world, a, pid);
    let (p, q) = (pages[3], pages[pages.len() - 4]);
    let (bp, bq) = (bytes(&world, a, pid, p), bytes(&world, a, pid, q));
    assert_ne!(bp, bq, "the swap must move bytes");
    store(&mut world, a, pid, p, &bq);
    store(&mut world, a, pid, q, &bp);
    assert_ne!(world.touched_checksum(a, pid).unwrap(), base);
    store(&mut world, a, pid, p, &bp);
    store(&mut world, a, pid, q, &bq);
    assert_eq!(world.touched_checksum(a, pid).unwrap(), base);
}

#[test]
fn the_same_bytes_at_another_page_number_change_the_checksum() {
    let (mut world, a, pid) = finished_run();
    let pages = touched(&world, a, pid);
    let (p, q) = (pages[5], pages[6]);
    let data = bytes(&world, a, pid, p);
    store(&mut world, a, pid, q, &data);
    // Judge a run that touched only `p`, then one that touched only `q`:
    // byte-identical pages, different page numbers.
    let judge_only = |world: &mut World, page| {
        world.reset_touch_tracking(a, pid).unwrap();
        world
            .process_mut(a, pid)
            .unwrap()
            .stats
            .touched
            .insert(page);
        world.touched_checksum(a, pid).unwrap()
    };
    assert_ne!(judge_only(&mut world, p), judge_only(&mut world, q));
}
