//! What must not move an output, stated once as two tables.
//!
//! 1. **Thread count.** Every committed output — each [`Gate::File`] row
//!    of the command table — is reproduced byte for byte on one worker
//!    and on four. Cells fan out across the pool but render serially in
//!    cell order, so the pool decides only when a cell runs.
//! 2. **Inert wire options.** On the gate cells, a wire option that
//!    injects nothing leaves the whole [`Trial`] record — timings, every
//!    counter, the reliability stats and the full ledger — exactly as the
//!    base wire leaves it, on the default wire and on a lossy one. The
//!    "again" row is plain reproducibility.
//!
//! Memory is judged more strictly elsewhere: `tests/checksum_oracle.rs`
//! compares every workload × strategy with the memory its trace predicts.

use cor::kernel::{CostModel, World};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::{FaultPlan, LinkFaults, WireParams};
use cor::sim::ReliabilityStats;
use cor::workloads::{ProcessImage, Workload};
use cor_experiments::commands::{self, Ctx, Gate, COMMANDS};
use cor_experiments::runner::{self, Trial};
use cor_experiments::Matrix;
use cor_pool::Pool;

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

/// Table 1 on one worker. The committed outputs are also the serve-order
/// regression test: the 64-node torus storm cells, the paper matrix and
/// the replication sweep depend on the order NMS queues and backers are
/// served, and the survivability sweep on every drain round and recovery
/// rung. The saturation sweep is the only one that runs batched replies
/// and the pending-interest table, the fleet blame table the only pin on
/// the per-link `wire-send` / `link-queue` / `link-transit` spans, and
/// `results/all.txt` the only pin on how the paper's tables and figures
/// (and every study) are *rendered*. Regenerate a stale file with the
/// command its row names, e.g. `experiments all > results/all.txt`.
#[test]
fn committed_results_are_current() {
    assert_committed_outputs(Pool::serial());
}

/// Table 1 on four workers: the twin of the test above, a separate test
/// so that the two run concurrently.
#[test]
fn committed_results_are_current_at_four_threads() {
    assert_committed_outputs(Pool::new(4));
}

/// Runs every [`Gate::File`] row of the command table on `pool` and
/// compares its output with the committed file.
fn assert_committed_outputs(pool: Pool) {
    let mut ctx = Ctx::new(pool);
    for command in COMMANDS {
        if let Gate::File(path, args) = command.gate {
            let fresh = commands::run(&mut ctx, command.name, args)
                .unwrap_or_else(|e| panic!("`{}` failed: {e:?}", command.name));
            assert_current(path, &fresh, &read_committed(path));
        }
    }
}

/// Table 2 on the default wire, which must also leave the reliability
/// layer untouched: nothing retransmitted, nothing injected.
#[test]
fn inert_options_leave_every_trial_identical_on_the_default_wire() {
    let base = WireParams::default();
    let mut clean = base.clone();
    clean.faults = Some(FaultPlan::uniform(7, LinkFaults::default()));
    let mut rows = rows_on(&base);
    rows.push(("clean fault plan", clean));
    for trial in assert_inert(&base, &rows) {
        let cell = format!("{} {}", trial.workload, trial.strategy);
        assert_eq!(trial.retransmit_bytes, 0, "{cell}: a lossless wire retransmits");
        assert_eq!(trial.reliability, ReliabilityStats::default(), "{cell}: injected");
    }
}

/// Table 2 on a lossy wire: the link layer absorbs every drop, duplicate
/// and reorder below the hot path, so it still has nothing to merge.
#[test]
fn inert_options_leave_every_trial_identical_on_a_lossy_wire() {
    let faults = LinkFaults {
        drop: 0.08,
        duplicate: 0.08,
        reorder: 0.05,
        ..LinkFaults::default()
    };
    let base = WireParams {
        faults: Some(FaultPlan::uniform(0xBADC0DE, faults)),
        ..WireParams::default()
    };
    let trials = assert_inert(&base, &rows_on(&base));
    let drops: u64 = trials.iter().map(|t| t.reliability.drops_injected.get()).sum();
    assert!(drops > 0, "the lossy base injected no drop");
}

/// The rows every base takes: itself again and the hot path.
fn rows_on(base: &WireParams) -> Vec<(&'static str, WireParams)> {
    vec![
        ("again", base.clone()),
        ("hot path", base.clone().hot_path()),
    ]
}

/// The gate cells: every workload under pure-copy, IOU prefetch 0 and 1
/// and resident-set prefetch 0, and Minprog under every paper strategy
/// and pre-copy.
fn gate_cells() -> Vec<(Workload, Vec<Strategy>)> {
    let gate = [
        Strategy::PureCopy,
        Strategy::PureIou { prefetch: 0 },
        Strategy::PureIou { prefetch: 1 },
        Strategy::ResidentSet { prefetch: 0 },
    ];
    let mut minprog = Matrix::paper_strategies();
    minprog.push(Strategy::PreCopy { max_rounds: 3, stop_pages: 4 });
    let cell = |w: Workload| {
        let strategies = if w.name() == "Minprog" { minprog.clone() } else { gate.to_vec() };
        (w, strategies)
    };
    cor_workloads::all().into_iter().map(cell).collect()
}

/// Runs every gate cell on `base` and on each row's wire, forked from one
/// image per workload, and fails on the first cell whose whole [`Trial`]
/// record differs, quoting both records from the field that moved.
/// Returns the base trials.
fn assert_inert(base: &WireParams, rows: &[(&str, WireParams)]) -> Vec<Trial> {
    let run = |image: &ProcessImage, s, wire: &WireParams| {
        runner::run_trial_on(image, s, CostModel::default(), wire.clone())
    };
    let mut trials = Vec::new();
    for (w, strategies) in gate_cells() {
        let image = w.image().expect("workload image");
        for s in strategies {
            let trial = run(&image, s, base);
            let expected = format!("{trial:?}");
            for (row, wire) in rows {
                let got = format!("{:?}", run(&image, s, wire));
                if got != expected {
                    let same = got.bytes().zip(expected.bytes()).take_while(|(a, b)| a == b);
                    let field = expected[..same.count()].rfind(", ").map_or(0, |i| i + 2);
                    panic!(
                        "{} {s}: `{row}` moved the trial\n  row:  …{:.160}\n  base: …{:.160}",
                        w.name(),
                        &got[field..],
                        &expected[field..],
                    );
                }
            }
            trials.push(trial);
        }
    }
    trials
}

/// A row of the command table that nothing pins is a surface nobody
/// would notice breaking: every [`Gate`] must exist. `File` rows are
/// compared by Table 1, so the file only has to be there; a `Test` row's
/// file must drive the command through the table, by name.
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
