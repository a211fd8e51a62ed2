//! The crash cell shared by the crash sweeps.
//!
//! The survivability and replication sweeps both migrate one
//! representative process, kill its source at a swept delay after
//! migration with a [`CrashPlan`], and judge a survivor by Zarrabi's
//! transparency criterion: its touched memory must be byte-identical to
//! the blueprint's expected memory
//! ([`Blueprint::expected_checksum_from`](cor_workloads::Blueprint::expected_checksum_from)),
//! which the blueprint and its trace predict without running the
//! simulator. They differ only in data — the world's size, whether a
//! flush drainer races the crash, and whether page homes are replicated —
//! so one [`CrashCell`] carries that data, and one run and one
//! [`CrashOutcome`] serve both. A cell is one simulation; the expected
//! memory is computed once per sweep.

use cor_ipc::NodeId;
use cor_kernel::{CostModel, DrainPolicy, KernelError, ProcessId, World};
use cor_migrate::{Drainer, MigrationManager, Strategy};
use cor_net::{CrashPlan, ReplicationParams, WireParams};
use cor_pool::Pool;
use cor_sim::{LedgerCategory, SimDuration};
use cor_workloads::{ProcessImage, Workload};

use crate::render::secs;
use crate::study::{fan_out, representative, Column};

/// The strategies both sweeps compare: pure-copy owes nothing (the immune
/// baseline), the two lazy strategies carry the residual dependency.
pub(crate) fn strategies() -> [Strategy; 3] {
    [
        Strategy::PureCopy,
        Strategy::PureIou { prefetch: 0 },
        Strategy::ResidentSet { prefetch: 0 },
    ]
}

/// One cell of a crash sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCell {
    /// Nodes in the world: the source, the destination, then spare nodes
    /// for replica homes.
    pub(crate) nodes: u32,
    /// Pages flushed to disk per idle round, one round per foreground op;
    /// `None` runs the process with no drainer.
    pub(crate) drain: Option<u64>,
    /// Replicated page homes (f = 0: none).
    pub(crate) replication: ReplicationParams,
    /// The strategy under test.
    pub(crate) strategy: Strategy,
    /// When the source dies after migration.
    pub(crate) delay: SimDuration,
}

/// One crash cell's outcome.
#[derive(Debug, Clone)]
pub struct CrashOutcome {
    /// Crash delay after migration.
    pub delay: SimDuration,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Pages flushed per idle round; `None` when no drainer ran.
    pub drain: Option<u64>,
    /// Replicated page homes (f = 0: none).
    pub replication: ReplicationParams,
    /// Whether the process ran to termination despite the crash.
    pub survived: bool,
    /// Whether its touched memory matched the blueprint's expected memory
    /// byte for byte (`false` while orphaned — there is nothing to
    /// compare).
    pub checksum_match: bool,
    /// Owed pages lost for good.
    pub pages_lost: u64,
    /// Owed pages the recovery ladder salvaged from the dead node's disk.
    pub pages_recovered: u64,
    /// Pages made crash-safe by background draining before the crash.
    pub drained_pages: u64,
    /// Wire/disk bytes ledgered to the drain category.
    pub drain_bytes: u64,
    /// Page copies installed on replica homes at page-out.
    pub replicated_pages: u64,
    /// Healthy-path reads served by a replica (quorum nearest-routing).
    pub replica_reads: u64,
    /// Fetches promoted to a replica because the primary was down.
    pub failover_fetches: u64,
    /// Owed pages those failover fetches delivered.
    pub failover_pages: u64,
    /// Total virtual time spent in failover fetches (recovery latency).
    pub failover_time: SimDuration,
    /// Wire bytes ledgered to the replication category (write-through
    /// plus replica fetches).
    pub replicate_bytes: u64,
    /// Post-migration wall time (drain + execution + recovery).
    pub remote_elapsed: SimDuration,
}

/// When the source died.
pub(crate) const DELAY: Column<CrashOutcome> = Column::both(
    "crash+s",
    |o| secs(o.delay.as_secs_f64()),
    "crash_delay_s",
    |o| format!("{:.3}", o.delay.as_secs_f64()),
);

/// The strategy under test.
pub(crate) const STRATEGY: Column<CrashOutcome> =
    Column::same("strategy", "strategy", |o| o.strategy.family().to_string());

/// Whether the process survived.
pub(crate) const SURVIVED: Column<CrashOutcome> = Column::both(
    "survived",
    |o| if o.survived { "yes" } else { "ORPHANED" }.to_string(),
    "survived",
    |o| o.survived.to_string(),
);

/// Whether a survivor's memory matched the blueprint's expected memory.
pub(crate) const BYTES: Column<CrashOutcome> = Column::both(
    "bytes",
    |o| if o.checksum_match { "match" } else { "-" }.to_string(),
    "checksum_match",
    |o| o.checksum_match.to_string(),
);

/// Owed pages lost for good.
pub(crate) const LOST: Column<CrashOutcome> =
    Column::same("lost", "pages_lost", |o| o.pages_lost.to_string());

/// Post-migration wall time.
pub(crate) const REMOTE: Column<CrashOutcome> = Column::both(
    "remote s",
    |o| secs(o.remote_elapsed.as_secs_f64()),
    "remote_s",
    |o| format!("{:.4}", o.remote_elapsed.as_secs_f64()),
);

/// A fresh world for `cell` with a fork of `image` migrated from its
/// source to its destination under the cell's strategy, touch tracking
/// reset there; no crash is armed. `(world, source, destination, pid)`.
fn migrated(image: &ProcessImage<'_>, cell: CrashCell) -> (World, NodeId, NodeId, ProcessId) {
    let params = WireParams {
        replication: cell.replication,
        ..WireParams::default()
    };
    let mut world = World::new(CostModel::default(), params);
    let a = world.add_node();
    let b = world.add_node();
    for _ in 2..cell.nodes {
        world.add_node();
    }
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = image.fork(&mut world, a).expect("workload build");
    src.migrate_to(&mut world, &dst, pid, cell.strategy)
        .expect("migration");
    // Count only remote touches so the checksum covers exactly the pages
    // the process observed at the new site.
    world.reset_touch_tracking(b, pid).expect("tracking reset");
    (world, a, b, pid)
}

/// Runs `pid` at `node` to its end, under a flush drainer if `cell`
/// drains; whether it terminated.
fn run_to_end(
    world: &mut World,
    node: NodeId,
    pid: ProcessId,
    cell: CrashCell,
) -> Result<bool, KernelError> {
    match cell.drain {
        Some(rate) => Drainer::new(DrainPolicy::flush(rate))
            .with_interleave(1)
            .run(world, node, pid)
            .map(|report| report.finished),
        None => world.run(node, pid).map(|report| report.finished),
    }
}

/// Runs one cell on a fork of `image`: migrate, arm the crash, then run
/// the process at its destination, under a flush drainer if the cell
/// drains. A survivor matches when its touched-memory checksum is
/// `expected`.
///
/// # Panics
///
/// Panics on internal simulation errors other than the expected
/// [`KernelError::OrphanedProcess`] outcome.
fn run_cell(image: &ProcessImage<'_>, cell: CrashCell, expected: u64) -> CrashOutcome {
    let (mut world, a, b, pid) = migrated(image, cell);
    let migration_end = world.clock.now();
    world.fabric.params.crashes = CrashPlan::at_time(a, migration_end + cell.delay);
    let finished = run_to_end(&mut world, b, pid, cell);
    let rel = &world.fabric.reliability;
    let ledger = &world.fabric.ledger;
    let mut outcome = CrashOutcome {
        delay: cell.delay,
        strategy: cell.strategy,
        drain: cell.drain,
        replication: cell.replication,
        survived: false,
        checksum_match: false,
        pages_lost: rel.pages_lost.get(),
        pages_recovered: rel.pages_recovered.get(),
        drained_pages: rel.drained_pages.get(),
        drain_bytes: ledger.total_for(LedgerCategory::Drain),
        replicated_pages: rel.replicated_pages.get(),
        replica_reads: rel.replica_reads.get(),
        failover_fetches: rel.failover_fetches.get(),
        failover_pages: rel.failover_pages.get(),
        failover_time: rel.failover_time,
        replicate_bytes: ledger.total_for(LedgerCategory::Replicate),
        remote_elapsed: world.clock.now().since(migration_end),
    };
    match finished {
        Ok(finished) => {
            assert!(finished, "run ended without terminating");
            outcome.survived = true;
            outcome.checksum_match = world.touched_checksum(b, pid).expect("checksum") == expected;
        }
        Err(KernelError::OrphanedProcess { .. }) => {}
        Err(e) => panic!("unexpected crash-cell failure: {e}"),
    }
    outcome
}

/// Every cell's outcome in cell order, fanned across `pool`, each judged
/// against the blueprint's expected memory. The representative process
/// is built once and its expected checksum computed once; every run is a
/// fork of that image.
///
/// # Panics
///
/// Panics if `workloads` is empty or a cell fails internally.
pub(crate) fn sweep(
    workloads: &[Workload],
    pool: &Pool,
    cells: Vec<CrashCell>,
) -> Vec<CrashOutcome> {
    let workload = representative(workloads);
    let image = &workload.image().expect("workload build");
    let expected = workload.blueprint.expected_checksum_from(0);
    fan_out(pool, cells, |cell| run_cell(image, cell, expected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replication, survivability};

    fn minprog() -> [Workload; 1] {
        [cor_workloads::minprog::workload()]
    }

    /// The two-outcome law over both crash sweeps: a cell survives
    /// byte-identical to its twin with nothing lost, or orphans having
    /// lost pages — never a third state — and a cell with nothing
    /// replicated bills no replication bytes.
    #[test]
    fn every_crash_cell_survives_intact_or_orphans_having_lost_pages() {
        for study in [&survivability::STUDY, &replication::STUDY] {
            for o in study.outcomes(&minprog(), &Pool::serial()) {
                if o.survived {
                    assert!(o.checksum_match, "a survivor matches its twin: {o:?}");
                    assert_eq!(o.pages_lost, 0, "a survivor lost nothing: {o:?}");
                } else {
                    assert!(o.pages_lost > 0, "an orphan lost something: {o:?}");
                    assert!(!o.checksum_match, "{o:?}");
                }
                if o.replication.factor == 0 {
                    assert_eq!(o.replicate_bytes, 0, "no plan, no replicate bytes: {o:?}");
                }
            }
        }
    }

    /// Each sweep as it was before the oracle — every cell judged against
    /// its own crash-free run of the same configuration — against the
    /// oracle sweep on four threads.
    #[test]
    fn the_oracle_gives_the_verdicts_of_a_twin_per_cell() {
        let workloads = minprog();
        let image = &workloads[0].image().unwrap();
        for (study, cells) in [(&survivability::STUDY, 27), (&replication::STUDY, 30)] {
            let reference: Vec<CrashOutcome> = study
                .cells()
                .into_iter()
                .map(|cell| {
                    let (mut world, _, b, pid) = migrated(image, cell);
                    assert!(run_to_end(&mut world, b, pid, cell).unwrap());
                    run_cell(image, cell, world.touched_checksum(b, pid).unwrap())
                })
                .collect();
            assert_eq!(reference.len(), cells);
            let oracle = study.outcomes(&workloads, &Pool::new(4));
            assert_eq!(format!("{oracle:?}"), format!("{reference:?}"));
        }
    }
}
