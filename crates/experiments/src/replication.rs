//! Replication sweep (ours): replication factor × crash delay × strategy.
//!
//! The survivability sweep shows the §4.4 residual-dependency hazard and
//! how *draining* races it. This study attacks the same hazard from the
//! other side: replicated page homes (`docs/REPLICATION.md`). Migration
//! page-out write-throughs every owed page to `f` deterministic replica
//! nodes; a copy-on-reference fault whose primary home is dead fails
//! over to a surviving replica content-addressed, so the process never
//! drains, never orphans, and never even notices the crash beyond the
//! failover fetch latency. Each cell migrates a workload, kills the
//! source at a swept delay, and reports survival, byte-identity against
//! a crash-free twin, the failover fetch count/pages/latency, and the
//! wire-byte overhead the replication write-through cost (ledgered under
//! its own category, so the paper tables are untouched).

use cor_kernel::{CostModel, KernelError, World};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::{CrashPlan, ReplicationParams, WireParams};
use cor_pool::Pool;
use cor_sim::{LedgerCategory, SimDuration};
use cor_workloads::{ProcessImage, Workload};

use crate::render::{commas, secs, TextTable};
use crate::twin::{crash_sweep, same_bytes};

/// Crash delays after migration completes, in milliseconds.
pub const CRASH_DELAYS_MS: [u64; 2] = [1_000, 10_000];

/// Seed for the sweep's crash and replica-placement RNG streams; fixed
/// for reproducibility.
const SWEEP_SEED: u64 = 0x9EB1;

/// The swept `(factor, mode)` combinations. `f = 0` is the unreplicated
/// baseline (mode is meaningless there and labeled "none").
pub const FACTOR_MODES: [(u64, &str); 5] = [
    (0, "none"),
    (1, "primary-backup"),
    (1, "quorum"),
    (2, "primary-backup"),
    (2, "quorum"),
];

/// The strategies compared; pure-copy owes nothing (immune baseline),
/// the two lazy strategies carry the residual-dependency hazard the
/// replicas must absorb.
fn strategies() -> [Strategy; 3] {
    [
        Strategy::PureCopy,
        Strategy::PureIou { prefetch: 0 },
        Strategy::ResidentSet { prefetch: 0 },
    ]
}

fn replication_for(factor: u64, mode: &str) -> Option<ReplicationParams> {
    match (factor, mode) {
        (0, _) => None,
        (f, "quorum") => Some(ReplicationParams::quorum(f, SWEEP_SEED)),
        (f, _) => Some(ReplicationParams::primary_backup(f, SWEEP_SEED)),
    }
}

/// One cell of the sweep: factor, mode, crash delay, strategy.
type Cell = (u64, &'static str, SimDuration, Strategy);

/// The sweep's cells in table order.
fn cells() -> Vec<Cell> {
    FACTOR_MODES
        .iter()
        .flat_map(|&(f, m)| {
            CRASH_DELAYS_MS
                .iter()
                .flat_map(move |&ms| strategies().map(|s| (f, m, SimDuration::from_millis(ms), s)))
        })
        .collect()
}

/// What a cell's crash-free twin depends on: everything but the delay.
fn twin_key(&(factor, mode, _, strategy): &Cell) -> (u64, &'static str, Strategy) {
    (factor, mode, strategy)
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct ReplicationOutcome {
    /// Replication factor (extra page homes beyond the primary).
    pub factor: u64,
    /// Mode label: "none", "primary-backup" or "quorum".
    pub mode: &'static str,
    /// Crash delay after migration (zero for a crash-free twin).
    pub delay: SimDuration,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Whether the process ran to termination despite the crash.
    pub survived: bool,
    /// Whether its touched memory matched the crash-free twin byte for
    /// byte (`false` while orphaned — there is nothing to compare).
    pub checksum_match: bool,
    /// Owed pages lost for good.
    pub pages_lost: u64,
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
    /// Post-migration wall time.
    pub remote_elapsed: SimDuration,
}

/// Runs one replication cell: four nodes (source, destination, and a
/// two-node replica pool), one migration, then a [`CrashPlan`]
/// kills the source `crash` after migration while the process executes
/// at the destination; `None` is the crash-free twin, which has no delay
/// to vary. No draining runs: survival must come from the replicas alone.
///
/// # Panics
///
/// Panics on internal simulation errors other than the expected
/// [`KernelError::OrphanedProcess`] outcome.
fn run_cell(
    image: &ProcessImage<'_>,
    strategy: Strategy,
    factor: u64,
    mode: &'static str,
    crash: Option<SimDuration>,
) -> (Option<u64>, ReplicationOutcome) {
    let params = WireParams {
        replication: replication_for(factor, mode),
        ..WireParams::default()
    };
    let mut world = World::new(CostModel::default(), params);
    let a = world.add_node();
    let b = world.add_node();
    // Two spare nodes so even f = 2 has live homes after the crash.
    let _pool0 = world.add_node();
    let _pool1 = world.add_node();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = image.fork(&mut world, a).expect("workload build");
    src.migrate_to(&mut world, &dst, pid, strategy)
        .expect("migration");
    world.reset_touch_tracking(b, pid).expect("tracking reset");
    let migration_end = world.clock.now();
    if let Some(delay) = crash {
        world.fabric.params.crashes = Some(CrashPlan::at_time(a, migration_end + delay));
    }
    let run = world.run(b, pid);
    let rel = &world.fabric.reliability;
    let mut outcome = ReplicationOutcome {
        factor,
        mode,
        delay: crash.unwrap_or_default(),
        strategy,
        survived: false,
        checksum_match: false,
        pages_lost: rel.pages_lost.get(),
        replicated_pages: rel.replicated_pages.get(),
        replica_reads: rel.replica_reads.get(),
        failover_fetches: rel.failover_fetches.get(),
        failover_pages: rel.failover_pages.get(),
        failover_time: rel.failover_time,
        replicate_bytes: world.fabric.ledger.total_for(LedgerCategory::Replicate),
        remote_elapsed: world.clock.now().since(migration_end),
    };
    match run {
        Ok(report) => {
            assert!(report.finished, "run ended without terminating");
            outcome.survived = true;
            let sum = world.touched_checksum(b, pid).expect("checksum");
            (Some(sum), outcome)
        }
        Err(KernelError::OrphanedProcess { .. }) => (None, outcome),
        Err(e) => panic!("unexpected replication-cell failure: {e}"),
    }
}

/// Computes every cell in deterministic order, fanning the independent
/// simulations across `pool`: first the crash-free twin of each distinct
/// `(factor, mode, strategy)`, then every `(factor, mode, delay,
/// strategy)` cell, compared against its twin for the byte-identity
/// check. The process is built once; every run is a fork of that image.
///
/// # Panics
///
/// Panics if `workloads` is empty or a cell fails internally.
pub fn replication_outcomes(workloads: &[Workload], pool: &Pool) -> Vec<ReplicationOutcome> {
    let w = workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0]);
    let image = &w.image().expect("workload build");
    crash_sweep(
        pool,
        &cells(),
        twin_key,
        |(factor, mode, strategy)| run_cell(image, strategy, factor, mode, None).0,
        |(factor, mode, delay, strategy), clean| {
            let (crashed, mut outcome) = run_cell(image, strategy, factor, mode, Some(delay));
            outcome.checksum_match = same_bytes(crashed, clean);
            outcome
        },
    )
}

/// Runs the sweep and renders the table (serial, cell-order rendering:
/// byte-identical at any thread count).
///
/// # Panics
///
/// As for [`replication_outcomes`].
pub fn replication(workloads: &[Workload], pool: &Pool) -> String {
    let outcomes = replication_outcomes(workloads, pool);
    let w = workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0]);
    let mut t = TextTable::new(&[
        "f",
        "mode",
        "crash+s",
        "strategy",
        "survived",
        "bytes",
        "lost",
        "repl pages",
        "near reads",
        "failovers",
        "fo pages",
        "fo time s",
        "repl bytes",
        "remote s",
    ]);
    for o in &outcomes {
        t.row(vec![
            o.factor.to_string(),
            o.mode.to_string(),
            secs(o.delay.as_secs_f64()),
            o.strategy.family().to_string(),
            if o.survived { "yes" } else { "ORPHANED" }.to_string(),
            if o.checksum_match { "match" } else { "-" }.to_string(),
            o.pages_lost.to_string(),
            o.replicated_pages.to_string(),
            o.replica_reads.to_string(),
            o.failover_fetches.to_string(),
            o.failover_pages.to_string(),
            secs(o.failover_time.as_secs_f64()),
            commas(o.replicate_bytes),
            secs(o.remote_elapsed.as_secs_f64()),
        ]);
    }
    format!(
        "Replication (ours): {} under a source crash at +delay after migration\n\
         (replicated page homes with content-addressed fetch-from-anywhere; no\n\
         draining — survival comes from failover to a live replica alone)\n\n{}",
        w.name(),
        t.render()
    )
}

/// The sweep as CSV for downstream analysis.
///
/// # Panics
///
/// As for [`replication_outcomes`].
pub fn replication_csv(workloads: &[Workload], pool: &Pool) -> String {
    let outcomes = replication_outcomes(workloads, pool);
    let mut out = String::from(
        "factor,mode,crash_delay_s,strategy,survived,checksum_match,pages_lost,\
         replicated_pages,replica_reads,failover_fetches,failover_pages,\
         failover_time_s,replicate_bytes,remote_s\n",
    );
    for o in &outcomes {
        out.push_str(&format!(
            "{},{},{:.3},{},{},{},{},{},{},{},{},{:.6},{},{:.4}\n",
            o.factor,
            o.mode,
            o.delay.as_secs_f64(),
            o.strategy.family(),
            o.survived,
            o.checksum_match,
            o.pages_lost,
            o.replicated_pages,
            o.replica_reads,
            o.failover_fetches,
            o.failover_pages,
            o.failover_time.as_secs_f64(),
            o.replicate_bytes,
            o.remote_elapsed.as_secs_f64(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes() -> Vec<ReplicationOutcome> {
        replication_outcomes(&[cor_workloads::minprog::workload()], &Pool::serial())
    }

    #[test]
    fn sweep_renders_and_is_deterministic_across_thread_counts() {
        let workloads = vec![cor_workloads::minprog::workload()];
        let serial = replication(&workloads, &Pool::serial());
        assert!(serial.contains("survived"));
        let rows = serial.lines().filter(|l| l.contains("pure-")).count();
        assert_eq!(rows, FACTOR_MODES.len() * CRASH_DELAYS_MS.len() * 2);
        assert_eq!(
            serial,
            replication(&workloads, &Pool::new(4)),
            "pooled sweep is byte-identical to serial"
        );
        let csv = replication_csv(&workloads, &Pool::new(2));
        assert_eq!(csv, replication_csv(&workloads, &Pool::serial()));
        assert_eq!(
            csv.lines().count(),
            1 + FACTOR_MODES.len() * CRASH_DELAYS_MS.len() * strategies().len()
        );
    }

    /// The sweep as it was before twins were shared: every cell runs a
    /// crash-free twin of its own.
    fn per_cell_twin_reference() -> Vec<ReplicationOutcome> {
        let w = cor_workloads::minprog::workload();
        let image = &w.image().unwrap();
        cells()
            .into_iter()
            .map(|(factor, mode, delay, strategy)| {
                let (clean, _) = run_cell(image, strategy, factor, mode, None);
                let (crashed, mut outcome) = run_cell(image, strategy, factor, mode, Some(delay));
                outcome.checksum_match = matches!((crashed, clean), (Some(c), Some(k)) if c == k);
                outcome
            })
            .collect()
    }

    #[test]
    fn shared_twins_give_the_outcomes_of_a_twin_per_cell() {
        let workloads = [cor_workloads::minprog::workload()];
        let reference = format!("{:?}", per_cell_twin_reference());
        for pool in [Pool::serial(), Pool::new(4)] {
            let shared = replication_outcomes(&workloads, &pool);
            assert_eq!(format!("{shared:?}"), reference);
        }
    }

    #[test]
    fn thirty_cells_share_fifteen_twins() {
        // `crash_sweep` runs one twin per distinct key (tested there), so
        // the distinct keys are the twins a sweep call simulates.
        let keys: std::collections::HashSet<_> = cells().iter().map(twin_key).collect();
        assert_eq!((cells().len(), keys.len()), (30, 15));
    }

    #[test]
    fn any_replication_factor_survives_every_single_node_crash() {
        for o in outcomes().iter().filter(|o| o.factor >= 1) {
            assert!(o.survived, "f>=1 must never orphan: {o:?}");
            assert!(o.checksum_match, "survivor must be byte-identical: {o:?}");
            assert_eq!(o.pages_lost, 0, "{o:?}");
        }
    }

    #[test]
    fn unreplicated_baseline_still_shows_the_hazard() {
        let all = outcomes();
        let orphans = all.iter().filter(|o| o.factor == 0 && !o.survived).count();
        assert!(orphans >= 1, "the f=0 hazard must be visible");
        for o in all.iter().filter(|o| o.factor == 0 && !o.survived) {
            assert!(o.pages_lost > 0, "an orphan lost something: {o:?}");
        }
    }

    #[test]
    fn replication_overhead_grows_with_factor() {
        let all = outcomes();
        let bytes_at = |f: u64| -> u64 {
            all.iter()
                .filter(|o| o.factor == f)
                .map(|o| o.replicate_bytes)
                .sum()
        };
        assert_eq!(bytes_at(0), 0, "no plan, no replicate bytes");
        let f1 = bytes_at(1);
        let f2 = bytes_at(2);
        assert!(f1 > 0, "f=1 write-through costs bytes");
        assert!(f2 > f1, "f=2 must cost more than f=1: {f2} vs {f1}");
    }

    #[test]
    fn failover_fetches_carry_the_lazy_strategies_through_the_crash() {
        let all = outcomes();
        let fo: u64 = all
            .iter()
            .filter(|o| o.factor >= 1)
            .map(|o| o.failover_pages)
            .sum();
        assert!(fo >= 1, "at least one cell must actually fail over");
        for o in all.iter().filter(|o| o.failover_fetches > 0) {
            assert!(
                o.failover_time > SimDuration::ZERO,
                "failover latency is measured on the clock: {o:?}"
            );
        }
    }
}
