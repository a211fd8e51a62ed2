//! Bit-level reproducibility: the whole system is deterministic.
//!
//! Two runs of the same trial must agree on every measured quantity —
//! virtual end time, wire bytes, fault counts, message counts, memory
//! digests. This is what makes the experiment harness trustworthy.

use cor::kernel::World;
use cor::migrate::{MigrationManager, Strategy};

#[derive(Debug, PartialEq)]
struct Fingerprint {
    end_micros: u64,
    wire_bytes: u64,
    msgs: u64,
    imag_faults: u64,
    disk_faults: u64,
    zero_faults: u64,
    checksum: u64,
}

fn fingerprint(workload: &cor::workloads::Workload, strategy: Strategy) -> Fingerprint {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = workload.build(&mut world, a).unwrap();
    src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
    world.run(b, pid).unwrap();
    let stats = world.process(b, pid).unwrap().stats.clone();
    Fingerprint {
        end_micros: world.clock.now().as_micros(),
        wire_bytes: world.fabric.ledger.total(),
        msgs: world.fabric.stats().msgs_total,
        imag_faults: stats.imag_faults,
        disk_faults: stats.disk_faults,
        zero_faults: stats.zero_faults,
        checksum: world.touched_checksum(b, pid).unwrap(),
    }
}

#[test]
fn trials_are_bit_reproducible() {
    // One representative from each behavioural class, two strategies each.
    let cases = [
        (
            cor::workloads::minprog::workload(),
            Strategy::PureIou { prefetch: 1 },
        ),
        (cor::workloads::minprog::workload(), Strategy::PureCopy),
        (
            cor::workloads::lisp::lisp_t(),
            Strategy::PureIou { prefetch: 3 },
        ),
        (
            cor::workloads::lisp::lisp_t(),
            Strategy::ResidentSet { prefetch: 0 },
        ),
        (
            cor::workloads::pasmac::pm_start(),
            Strategy::PureIou { prefetch: 15 },
        ),
        (
            cor::workloads::chess::workload(),
            Strategy::ResidentSet { prefetch: 7 },
        ),
    ];
    for (w, s) in cases {
        let first = fingerprint(&w, s);
        let second = fingerprint(&w, s);
        assert_eq!(first, second, "{} under {s} not reproducible", w.name());
    }
}

#[test]
fn different_strategies_genuinely_differ() {
    // A meta-check on the fingerprint itself: it distinguishes strategies.
    let w = cor::workloads::minprog::workload();
    let copy = fingerprint(&w, Strategy::PureCopy);
    let iou = fingerprint(&w, Strategy::PureIou { prefetch: 0 });
    assert_ne!(copy.wire_bytes, iou.wire_bytes);
    assert_ne!(copy.imag_faults, iou.imag_faults);
    // But the computation result is identical.
    assert_eq!(copy.checksum, iou.checksum);
}

#[test]
fn world_clock_only_moves_forward() {
    let (mut world, a, b) = World::testbed();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let w = cor::workloads::chess::workload();
    let pid = w.build(&mut world, a).unwrap();
    let t0 = world.clock.now();
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
        .unwrap();
    let t1 = world.clock.now();
    assert!(t1 > t0);
    world.run(b, pid).unwrap();
    assert!(world.clock.now() > t1);
}

/// The committed sweep outputs are the serve-order regression test: the
/// 64-node torus storm cells, the paper matrix and the replication sweep
/// depend on the order NMS queues and backers are served, and the
/// survivability sweep on every drain round and recovery rung, so any
/// change to quiescence or draining that is not byte-identical shows up
/// here. The saturation sweep is the only one that runs batched replies
/// and the pending-interest table, and the fleet blame table the only
/// pin on the per-link `wire-send` / `link-queue` / `link-transit` spans.
/// Regenerate with `experiments fleet-csv`, `csv`, `replication-csv`,
/// `survivability-csv`, `saturation-csv`, `blame-csv fleet`.
#[test]
fn committed_results_are_current() {
    use cor_experiments::runner::{matrix_csv, Matrix};
    use cor_experiments::{fleet, replication, saturation, survivability};
    let pool = cor_pool::Pool::from_env();
    let workloads = cor_workloads::all();
    assert_current(
        "results/fleet.csv",
        &fleet::fleet_csv(&pool),
        include_str!("../results/fleet.csv"),
    );
    // `experiments csv` prints through `println!`: one trailing newline.
    assert_current(
        "results/matrix.csv",
        &(matrix_csv(&mut Matrix::with_pool(pool), &workloads) + "\n"),
        include_str!("../results/matrix.csv"),
    );
    assert_current(
        "results/replication.csv",
        &replication::replication_csv(&workloads, &pool),
        include_str!("../results/replication.csv"),
    );
    assert_current(
        "results/survivability.csv",
        &survivability::survivability_csv(&workloads, &pool),
        include_str!("../results/survivability.csv"),
    );
    assert_current(
        "results/saturation.csv",
        &saturation::saturation_csv(&pool),
        include_str!("../results/saturation.csv"),
    );
    let (_, profile, links) = fleet::run_cell_profiled(fleet::blame_cell_spec());
    assert_current(
        "results/blame_fleet.csv",
        &profile.blame_csv(&links),
        include_str!("../results/blame_fleet.csv"),
    );
}

/// Fails naming the first line at which `fresh` output leaves the
/// `committed` file, with both versions of it: a stale pin should say
/// which cell moved, not only that one did.
fn assert_current(file: &str, fresh: &str, committed: &str) {
    if fresh == committed {
        return;
    }
    let (mut fresh, mut committed) = (fresh.lines(), committed.lines());
    let mut line = 1;
    loop {
        match (fresh.next(), committed.next()) {
            (f, c) if f != c => panic!(
                "{file} is stale; first difference at line {line}:\n  fresh:     {}\n  committed: {}",
                f.unwrap_or("<end of output>"),
                c.unwrap_or("<end of file>"),
            ),
            (None, None) => panic!("{file} is stale: line endings differ"),
            _ => line += 1,
        }
    }
}
