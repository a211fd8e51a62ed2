//! Parallel-vs-serial equivalence: the experiment engine's pooled fan-out
//! must be invisible in every output.
//!
//! Each matrix cell is an independent deterministic simulation on its own
//! `World`, and all rendering happens serially in cell order, so the CSV
//! matrix, the loss sweep, and seeded chaos trials must come out
//! byte-identical whether cells run on one thread or many.

use cor::kernel::program::Trace;
use cor::kernel::World;
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::FaultPlan;
use cor_experiments::runner::{matrix_csv, Matrix};
use cor_experiments::study::Study;
use cor_experiments::{fleet, loss, replication, saturation};
use cor_pool::Pool;

#[test]
fn matrix_csv_is_byte_identical_across_thread_counts() {
    let workloads = cor_workloads::all();
    let serial = matrix_csv(&mut Matrix::new(), &workloads);
    for threads in [2, 4, 8] {
        let pooled = matrix_csv(&mut Matrix::with_threads(threads), &workloads);
        assert_eq!(serial, pooled, "CSV diverged at {threads} threads");
    }
}

/// One study's text table and CSV over `cells` on Minprog, serially and at
/// each of `threads`.
fn assert_same_across_threads<C: Clone, O>(
    name: &str,
    study: &Study<C, O>,
    cells: Vec<C>,
    threads: &[usize],
) {
    let workloads = [cor_workloads::minprog::workload()];
    let render = |pool: &Pool| {
        let outcomes = study.run(&workloads, pool, cells.clone());
        (study.table(&workloads, &outcomes), study.csv(&outcomes))
    };
    let serial = render(&Pool::serial());
    assert!(serial.1.lines().count() > 1, "{name} rendered no CSV rows");
    for &n in threads {
        assert_eq!(serial, render(&Pool::new(n)), "{name} diverged at {n} threads");
    }
}

#[test]
fn loss_sweep_is_byte_identical_across_thread_counts() {
    let loss = &loss::STUDY;
    assert_same_across_threads("loss-sweep", loss, loss.cells(), &[2, 4]);
}

/// The other "ours" studies render their table and CSV byte-identically at
/// 1 and 4 threads: the replication sweep over Minprog in full, the fleet
/// and saturation sweeps over their gate cells. (The survivability sweep's
/// own check lives in `crash_law.rs`.) This file's four tests
/// together take about 2.6 s in a debug build.
#[test]
fn other_studies_are_byte_identical_at_one_and_four_threads() {
    let repl = &replication::STUDY;
    assert_same_across_threads("replication", repl, repl.cells(), &[4]);
    assert_same_across_threads("fleet", &fleet::STUDY, fleet::gate_cells(), &[4]);
    assert_same_across_threads("saturation", &saturation::STUDY, saturation::gate_cells(), &[4]);
}

/// One seeded chaos migration: build a process, migrate it over a lossy
/// wire, run it remotely, and return everything observable — the touched
/// memory checksum and the full fault journal.
fn chaos_trial(seed: u64) -> (u64, Vec<String>) {
    let (mut world, a, b) = World::testbed();
    world.fabric.params.faults = Some(FaultPlan::dropping(seed, 0.10));
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pages = 64u64;
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 4 * pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages / 2 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    let pid = world
        .create_process(a, "chaos", space, tb.terminate())
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    world.reset_touch_tracking(a, pid).unwrap();
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
        .unwrap();
    world.run(b, pid).unwrap();
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
    (world.touched_checksum(b, pid).unwrap(), journal)
}

#[test]
fn seeded_chaos_trials_match_under_the_pool() {
    // The same seeded lossy migration run concurrently on pool workers
    // must reproduce the serial run exactly, fault journal included: each
    // job owns its whole simulation, so nothing leaks between workers.
    let serial = chaos_trial(0xC0FFEE);
    let pooled = Pool::new(4).run_indexed(4, |_| chaos_trial(0xC0FFEE));
    for (i, outcome) in pooled.iter().enumerate() {
        assert_eq!(&serial, outcome, "worker {i} diverged from serial run");
    }
    // A different seed must diverge — the journal really captures the
    // injected fault sequence, it is not constant.
    let other = chaos_trial(0xBEEF);
    assert_ne!(serial.1, other.1, "different seeds share a fault journal");
}
