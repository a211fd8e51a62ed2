//! The transparency oracle itself. Every memory check judges a run by
//! `World::touched_checksum` against the memory its trace predicts
//! (`Trace::expected_checksum_from`, computed with no world), so the
//! digest must see every byte of every touched page, at that page's
//! number, on every call — judging a run must not change it — and the
//! prediction must equal what a finished remote run holds, whether the
//! process moved before its first op or after op k. That is checked here
//! on every paper workload. Because the prediction runs no simulator
//! code, a bug that corrupts every run alike (a write stored one byte
//! late) fails here even though any two runs still agree.

use cor::ipc::NodeId;
use cor::kernel::program::{Op, Trace};
use cor::kernel::{ProcessId, World};
use cor::mem::page::PageBytes;
use cor::mem::{PageNum, PageRange, PageState, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::workloads::synth::SynthSpec;
use cor::workloads::Blueprint;
use cor_experiments::Matrix;

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

/// Forks `blueprint` once per strategy from one image, runs each fork at
/// home to op `k`, starts its touch tracking there, migrates it and runs it
/// to the end at the destination, and asserts its touched-memory checksum
/// is the blueprint's prediction from op `k`.
fn assert_the_oracle_predicts(blueprint: &Blueprint, k: usize, strategies: &[Strategy]) {
    let expected = blueprint.expected_checksum_from(k);
    let image = blueprint.image().unwrap();
    for &strategy in strategies {
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let pid = image.fork(&mut world, a).unwrap();
        world.run_for(a, pid, k).unwrap();
        world.reset_touch_tracking(a, pid).unwrap();
        src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
        assert!(world.run(b, pid).unwrap().finished);
        assert_eq!(
            world.touched_checksum(b, pid).unwrap(),
            expected,
            "{} from op {k} under {strategy:?}",
            blueprint.name
        );
    }
}

/// The oracle's verdict on the whole paper matrix: 7 workloads × 11
/// strategies, 77 remote runs (about 1.6 s in a debug build on a 2-core
/// Xeon).
#[test]
fn the_oracle_predicts_every_paper_workload_under_every_strategy() {
    for workload in cor::workloads::all() {
        assert_the_oracle_predicts(&workload.blueprint, 0, &Matrix::paper_strategies());
    }
}

/// The two process shapes of the degraded-wire benchmark — 128 real
/// pages, all touched, a scan-like walk over 4 runs and a Lisp-like
/// scatter over 48 — under every paper strategy (about 0.1 s in a debug
/// build on a 2-core Xeon).
#[test]
fn the_oracle_predicts_the_degraded_wire_processes() {
    for (name, runs, locality) in [("scan-like", 4, 0.9), ("lisp-like", 48, 0.1)] {
        let workload = SynthSpec {
            name,
            seed: 9,
            real_pages: 128,
            realzero_pages: 256,
            runs,
            resident_pages: 32,
            touched_fraction: 1.0,
            locality,
            compute_ms: 4_000,
            write_fraction: 0.25,
        }
        .build();
        assert_the_oracle_predicts(&workload.blueprint, 0, &Matrix::paper_strategies());
    }
}

/// Writes no paper workload makes: sub-page, straddling a page boundary,
/// overwriting an earlier write, on a page the blueprint left on disk and
/// on a zero-fill page it never made real.
#[test]
fn the_oracle_predicts_partial_and_overlapping_writes() {
    let at = |page: u64, offset: u64| VAddr(page * PAGE_SIZE + offset);
    let mut trace = Trace::builder();
    trace
        .write(at(1, 500), 40) // straddles pages 1 and 2
        .read(at(3, 0), 8) // on disk, read only
        .write(at(4, 7), 1) // on disk, one byte
        .write(at(1, 510), 4) // overwrites two bytes of the first write
        .write(at(9, 100), 300) // never real: zero-filled
        .read(at(2, 0), PAGE_SIZE);
    let blueprint = Blueprint {
        name: "partial-writes",
        seed: 77,
        frame_budget: 2,
        regions: vec![PageRange::new(PageNum(0), PageNum(12))],
        on_disk: vec![PageNum(3), PageNum(4)],
        install_order: (0..3).map(PageNum).collect(),
        trace: trace.terminate(),
        send_rights: 0,
        recv_ports: 0,
    };
    assert_the_oracle_predicts(&blueprint, 0, &Matrix::paper_strategies());
}

/// The strategies the reproduction gate leans on.
const GATE_STRATEGIES: [Strategy; 4] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 0 },
    Strategy::PureIou { prefetch: 1 },
    Strategy::ResidentSet { prefetch: 0 },
];

/// Op k of a mid-trace migration: the first touch, from a third of the way
/// through `trace`'s touches on, of a page no later op touches, so an
/// oracle that judged from one op late would miss that page.
fn op_k(trace: &Trace) -> usize {
    let ops = trace.ops();
    let pages = |op: &Op| match *op {
        Op::Touch { addr, len, .. } => PageRange::covering(addr, len),
        _ => PageRange::new(PageNum(0), PageNum(0)),
    };
    let touches: Vec<usize> = (0..ops.len())
        .filter(|&i| !pages(&ops[i]).is_empty())
        .collect();
    let touched_after = |i: usize, page| ops[i + 1..].iter().any(|op| pages(op).contains(page));
    touches[touches.len() / 3..]
        .iter()
        .copied()
        .find(|&i| pages(&ops[i]).iter().any(|page| !touched_after(i, page)))
        .expect("a touch after the first third is some page's last")
}

/// Every paper workload, forked from its image, runs at home to op k and
/// then migrates under every gate strategy: its pages start with the
/// blueprint's real bytes, and only the pages touched from op k on are
/// judged (about 0.8 s in a debug build on a 2-core Xeon).
#[test]
fn the_oracle_predicts_a_migration_after_op_k_on_real_memory() {
    for workload in cor::workloads::all() {
        let k = op_k(&workload.blueprint.trace);
        assert_the_oracle_predicts(&workload.blueprint, k, &GATE_STRATEGIES);
    }
}
