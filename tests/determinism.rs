//! Bit-level reproducibility: the whole system is deterministic.
//!
//! Two runs of the same trial must agree on every measured quantity —
//! virtual end time, wire bytes, fault counts, message counts, memory
//! digests. This is what makes the experiment harness trustworthy.

use cor::kernel::World;
use cor::migrate::{MigrationManager, Strategy};
use cor_experiments::commands::{self, Ctx, Gate, COMMANDS};

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

/// The committed outputs are the serve-order regression test: the
/// 64-node torus storm cells, the paper matrix and the replication sweep
/// depend on the order NMS queues and backers are served, and the
/// survivability sweep on every drain round and recovery rung, so any
/// change to quiescence or draining that is not byte-identical shows up
/// here. The saturation sweep is the only one that runs batched replies
/// and the pending-interest table, the fleet blame table the only pin on
/// the per-link `wire-send` / `link-queue` / `link-transit` spans, and
/// `results/all.txt` the only pin on how the paper's tables and figures
/// (and `ablation`, `cow-study`, `sensitivity`, `modern`, `loss-sweep`)
/// are *rendered*. The loop is the [`Gate::File`] rows of the command
/// table; regenerate a stale file with the command it names, e.g.
/// `experiments all > results/all.txt`.
#[test]
fn committed_results_are_current() {
    let mut ctx = Ctx::new(cor_pool::Pool::default());
    for command in COMMANDS {
        if let Gate::File(path, args) = command.gate {
            let fresh = commands::run(&mut ctx, command.name, args)
                .unwrap_or_else(|e| panic!("`{}` failed: {e:?}", command.name));
            assert_current(path, &fresh, &read_committed(path));
        }
    }
}

/// A row of the command table that nothing pins is a surface nobody
/// would notice breaking: every [`Gate`] must exist. `File` rows are
/// compared by the loop above, so the file only has to be there; a
/// `Test` row's file must drive the command through the table, by name.
#[test]
fn every_command_has_a_gate() {
    for command in COMMANDS {
        let name = command.name;
        match command.gate {
            Gate::All => {}
            Gate::File(path, _) => assert!(
                !read_committed(path).is_empty(),
                "`{name}` is gated by an empty {path}"
            ),
            Gate::Test(path) => assert!(
                path.starts_with("tests/") && read_committed(path).contains(&format!("\"{name}\"")),
                "`{name}` is gated by {path}, which never runs \"{name}\""
            ),
        }
    }
}

fn read_committed(path: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
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
