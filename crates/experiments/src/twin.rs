//! The crash cell shared by the crash sweeps.
//!
//! The survivability and replication sweeps both migrate one
//! representative process, kill its source at a swept delay after
//! migration with a [`CrashPlan`], and judge a survivor by Zarrabi's
//! transparency criterion: its touched memory must be byte-identical to
//! that of its *twin*, the same cell with no crash. They differ only in
//! data — the world's size, whether a flush drainer races the crash, and
//! whether page homes are replicated — so one [`CrashCell`] carries that
//! data, and one run and one [`CrashOutcome`] serve both.
//!
//! The twin does not depend on when the crash would have fired, so a
//! sweep runs one twin per distinct crash-free configuration, not one per
//! cell.

use cor_kernel::{CostModel, DrainPolicy, KernelError, World};
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
    /// Replicated page homes, if any.
    pub(crate) replication: Option<ReplicationParams>,
    /// The strategy under test.
    pub(crate) strategy: Strategy,
    /// When the source dies after migration; `None` is the crash-free
    /// twin.
    pub(crate) delay: Option<SimDuration>,
}

impl CrashCell {
    /// The cell's twin: everything but the delay.
    fn twin(&self) -> CrashCell {
        CrashCell {
            delay: None,
            ..*self
        }
    }
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
    /// Replicated page homes, if any.
    pub replication: Option<ReplicationParams>,
    /// Whether the process ran to termination despite the crash.
    pub survived: bool,
    /// Whether its touched memory matched the crash-free twin byte for
    /// byte (`false` while orphaned — there is nothing to compare).
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

impl CrashOutcome {
    /// Replicas beyond the primary home; 0 when nothing is replicated.
    pub fn factor(&self) -> u64 {
        self.replication.map_or(0, |r| r.factor)
    }
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

/// Whether a survivor's memory matched its twin's.
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

/// Runs one cell on a fork of `image`: migrate, arm the crash, then run
/// the process at its destination, under a flush drainer if the cell
/// drains. A survivor also returns its touched-memory checksum.
///
/// # Panics
///
/// Panics on internal simulation errors other than the expected
/// [`KernelError::OrphanedProcess`] outcome.
fn run_cell(image: &ProcessImage<'_>, cell: CrashCell) -> (Option<u64>, CrashOutcome) {
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
    let migration_end = world.clock.now();
    if let Some(delay) = cell.delay {
        world.fabric.params.crashes = Some(CrashPlan::at_time(a, migration_end + delay));
    }
    let finished = match cell.drain {
        Some(rate) => Drainer::new(DrainPolicy::flush(rate))
            .with_interleave(1)
            .run(&mut world, b, pid)
            .map(|report| report.finished),
        None => world.run(b, pid).map(|report| report.finished),
    };
    let rel = &world.fabric.reliability;
    let ledger = &world.fabric.ledger;
    let mut outcome = CrashOutcome {
        delay: cell.delay.unwrap_or_default(),
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
            let sum = world.touched_checksum(b, pid).expect("checksum");
            (Some(sum), outcome)
        }
        Err(KernelError::OrphanedProcess { .. }) => (None, outcome),
        Err(e) => panic!("unexpected crash-cell failure: {e}"),
    }
}

/// Every cell's outcome in cell order, fanned across `pool`: first the
/// twin of each distinct crash-free configuration, then every cell,
/// judged against its twin. The representative process is built once;
/// every run is a fork of that image.
///
/// # Panics
///
/// Panics if `workloads` is empty or a cell fails internally.
pub(crate) fn sweep(
    workloads: &[Workload],
    pool: &Pool,
    cells: Vec<CrashCell>,
) -> Vec<CrashOutcome> {
    let image = &representative(workloads).image().expect("workload build");
    crash_sweep(
        pool,
        &cells,
        CrashCell::twin,
        |twin| run_cell(image, twin).0,
        |cell, clean| {
            let (crashed, mut outcome) = run_cell(image, cell);
            outcome.checksum_match = same_bytes(crashed, clean);
            outcome
        },
    )
}

/// Runs `twin` once per distinct `key_of(cell)` (first batch on `pool`,
/// in first-seen order), then `crashed` for every cell with its twin's
/// checksum (second batch, in cell order); nothing outlives the call.
fn crash_sweep<C, K, O>(
    pool: &Pool,
    cells: &[C],
    key_of: impl Fn(&C) -> K,
    twin: impl Fn(K) -> Option<u64> + Sync,
    crashed: impl Fn(C, Option<u64>) -> O + Sync,
) -> Vec<O>
where
    C: Copy + Send,
    K: Copy + PartialEq + Send,
    O: Send,
{
    let mut keys: Vec<K> = Vec::new();
    let twin_of: Vec<usize> = cells
        .iter()
        .map(|cell| {
            let key = key_of(cell);
            keys.iter().position(|&k| k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            })
        })
        .collect();
    let sums = fan_out(pool, keys, twin);
    let jobs = cells.iter().zip(twin_of).map(|(&cell, i)| (cell, sums[i]));
    fan_out(pool, jobs.collect(), |(cell, clean)| crashed(cell, clean))
}

/// Whether a crashed run saw the memory its twin saw; `false` while
/// either orphaned — there is nothing to compare.
fn same_bytes(crashed: Option<u64>, clean: Option<u64>) -> bool {
    crashed.is_some() && crashed == clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replication, survivability};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn one_twin_per_distinct_key_and_every_cell_gets_its_own() {
        let cells: Vec<(u64, u64)> = (0..4).flat_map(|d| (0..3).map(move |k| (d, k))).collect();
        for pool in [Pool::serial(), Pool::new(4)] {
            let twins = AtomicUsize::new(0);
            let out = crash_sweep(
                &pool,
                &cells,
                |&(_, k)| k,
                |k| {
                    twins.fetch_add(1, Ordering::Relaxed);
                    (k != 1).then_some(k * 10)
                },
                |cell, clean| (cell, clean),
            );
            assert_eq!(twins.load(Ordering::Relaxed), 3);
            let want: Vec<_> = cells
                .iter()
                .map(|&(d, k)| ((d, k), (k != 1).then_some(k * 10)))
                .collect();
            assert_eq!(out, want, "cell order, each with its key's twin");
        }
    }

    #[test]
    fn an_orphan_on_either_side_never_matches() {
        assert!(same_bytes(Some(7), Some(7)));
        assert!(!same_bytes(Some(7), Some(8)));
        assert!(!same_bytes(None, Some(7)));
        assert!(!same_bytes(Some(7), None));
        assert!(!same_bytes(None, None));
    }

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
                if o.factor() == 0 {
                    assert_eq!(o.replicate_bytes, 0, "no plan, no replicate bytes: {o:?}");
                }
            }
        }
    }

    /// Each sweep as it was before twins were shared — every cell runs a
    /// twin of its own — against the shared sweep on four threads.
    #[test]
    fn shared_twins_give_the_outcomes_of_a_twin_per_cell() {
        let workloads = minprog();
        let image = &workloads[0].image().unwrap();
        for (study, shape) in [(&survivability::STUDY, (27, 9)), (&replication::STUDY, (30, 15))] {
            let cells = study.cells();
            let mut twins: Vec<CrashCell> = Vec::new();
            for twin in cells.iter().map(CrashCell::twin) {
                if !twins.contains(&twin) {
                    twins.push(twin);
                }
            }
            assert_eq!((cells.len(), twins.len()), shape);
            let reference: Vec<CrashOutcome> = cells
                .iter()
                .map(|&cell| {
                    let (clean, _) = run_cell(image, cell.twin());
                    let (crashed, mut outcome) = run_cell(image, cell);
                    outcome.checksum_match =
                        matches!((crashed, clean), (Some(c), Some(k)) if c == k);
                    outcome
                })
                .collect();
            let shared = study.outcomes(&workloads, &Pool::new(4));
            assert_eq!(format!("{shared:?}"), format!("{reference:?}"));
        }
    }
}
