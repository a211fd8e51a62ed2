//! Survivability sweep (ours): crash time × strategy × drain rate.
//!
//! The paper's §4.4 concedes the residual-dependency problem — a migrated
//! process dies with the source node that still backs its untouched
//! pages — but never measures it. This study does: a representative
//! workload is migrated under each strategy, the source is killed by a
//! [`CrashPlan`] at a swept delay after migration, and background
//! flush-draining at a swept rate races the crash. Each cell reports
//! whether the process survived, whether its memory is byte-identical to
//! its crash-free twin (`twin.rs`), how many pages the recovery ladder
//! salvaged from the crashed node's disk backer, and what the draining
//! cost — which is ledgered under its own category so the paper tables
//! are untouched.

use cor_kernel::{CostModel, DrainPolicy, KernelError, World};
use cor_migrate::{Drainer, MigrationManager, Strategy};
use cor_net::{CrashPlan, WireParams};
use cor_pool::Pool;
use cor_sim::{LedgerCategory, SimDuration};
use cor_workloads::{ProcessImage, Workload};

use crate::render::{commas, secs, TextTable};
use crate::twin::{crash_sweep, same_bytes};

/// Crash delays after migration completes, in milliseconds.
pub const CRASH_DELAYS_MS: [u64; 3] = [1_000, 3_000, 10_000];

/// Studied background flush rates (pages per idle round; 0 = no drain).
pub const DRAIN_RATES: [u64; 3] = [0, 8, 64];

/// The strategies compared: pure-copy carries everything up front (no
/// residual dependency at all), the two lazy strategies are exposed.
fn strategies() -> [Strategy; 3] {
    [
        Strategy::PureCopy,
        Strategy::PureIou { prefetch: 0 },
        Strategy::ResidentSet { prefetch: 0 },
    ]
}

/// One cell of the sweep: crash delay, strategy, flush rate.
type Cell = (SimDuration, Strategy, u64);

/// The sweep's cells in table order.
fn cells() -> Vec<Cell> {
    CRASH_DELAYS_MS
        .iter()
        .flat_map(|&ms| {
            strategies()
                .into_iter()
                .flat_map(move |s| DRAIN_RATES.map(|r| (SimDuration::from_millis(ms), s, r)))
        })
        .collect()
}

/// What a cell's crash-free twin depends on: everything but the delay.
fn twin_key(&(_, strategy, rate): &Cell) -> (Strategy, u64) {
    (strategy, rate)
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct SurvivalOutcome {
    /// Crash delay after migration (zero for a crash-free twin).
    pub delay: SimDuration,
    /// Strategy under test.
    pub strategy: Strategy,
    /// Flush rate (pages per idle round).
    pub drain_rate: u64,
    /// Whether the process ran to termination despite the crash.
    pub survived: bool,
    /// Whether its touched memory matched the crash-free run byte for
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
    /// Post-migration wall time (drain + execution + recovery).
    pub remote_elapsed: SimDuration,
}

/// Runs one survivability cell: migrate, optionally flush-drain in the
/// background (one page budget per foreground op), and kill the source
/// `crash` after migration via a [`CrashPlan`]. `None` is the
/// crash-free twin — the checksum baseline, which has no delay to vary.
///
/// # Panics
///
/// Panics on internal simulation errors other than the expected
/// [`KernelError::OrphanedProcess`] outcome.
fn run_cell(
    image: &ProcessImage<'_>,
    strategy: Strategy,
    drain_rate: u64,
    crash: Option<SimDuration>,
) -> (Option<u64>, SurvivalOutcome) {
    let mut world = World::new(CostModel::default(), WireParams::default());
    let a = world.add_node();
    let b = world.add_node();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = image.fork(&mut world, a).expect("workload build");
    src.migrate_to(&mut world, &dst, pid, strategy)
        .expect("migration");
    // Count only remote touches so the checksum covers exactly the pages
    // the process observed at the new site.
    world.reset_touch_tracking(b, pid).expect("tracking reset");
    let migration_end = world.clock.now();
    if let Some(delay) = crash {
        world.fabric.params.crashes = Some(CrashPlan::at_time(a, migration_end + delay));
    }
    let drainer = Drainer::new(DrainPolicy::flush(drain_rate)).with_interleave(1);
    let run = drainer.run(&mut world, b, pid);
    let rel = &world.fabric.reliability;
    let mut outcome = SurvivalOutcome {
        delay: crash.unwrap_or_default(),
        strategy,
        drain_rate,
        survived: false,
        checksum_match: false,
        pages_lost: rel.pages_lost.get(),
        pages_recovered: rel.pages_recovered.get(),
        drained_pages: rel.drained_pages.get(),
        drain_bytes: world.fabric.ledger.total_for(LedgerCategory::Drain),
        remote_elapsed: world.clock.now().since(migration_end),
    };
    match run {
        Ok(report) => {
            assert!(report.finished, "drained run ended without terminating");
            outcome.survived = true;
            let sum = world.touched_checksum(b, pid).expect("checksum");
            (Some(sum), outcome)
        }
        Err(KernelError::OrphanedProcess { .. }) => (None, outcome),
        Err(e) => panic!("unexpected survivability failure: {e}"),
    }
}

/// Computes every cell of the sweep in deterministic order, fanning the
/// independent simulations across `pool`: first the crash-free twin of
/// each distinct `(strategy, rate)`, then every `(delay, strategy, rate)`
/// cell, compared against its twin for the byte-identity check. The
/// process is built once; every run is a fork of that image.
///
/// # Panics
///
/// Panics if `workloads` is empty or a cell fails internally.
pub fn survival_outcomes(workloads: &[Workload], pool: &Pool) -> Vec<SurvivalOutcome> {
    let w = workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0]);
    let image = &w.image().expect("workload build");
    crash_sweep(
        pool,
        &cells(),
        twin_key,
        |(strategy, rate)| run_cell(image, strategy, rate, None).0,
        |(delay, strategy, rate), clean| {
            let (crashed, mut outcome) = run_cell(image, strategy, rate, Some(delay));
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
/// As for [`survival_outcomes`].
pub fn survivability(workloads: &[Workload], pool: &Pool) -> String {
    let outcomes = survival_outcomes(workloads, pool);
    let w = workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0]);
    let mut t = TextTable::new(&[
        "crash+s",
        "strategy",
        "drain/rnd",
        "survived",
        "bytes",
        "lost",
        "recovered",
        "drained",
        "drain bytes",
        "remote s",
    ]);
    for o in &outcomes {
        t.row(vec![
            secs(o.delay.as_secs_f64()),
            o.strategy.family().to_string(),
            o.drain_rate.to_string(),
            if o.survived { "yes" } else { "ORPHANED" }.to_string(),
            if o.checksum_match { "match" } else { "-" }.to_string(),
            o.pages_lost.to_string(),
            o.pages_recovered.to_string(),
            o.drained_pages.to_string(),
            commas(o.drain_bytes),
            secs(o.remote_elapsed.as_secs_f64()),
        ]);
    }
    format!(
        "Survivability (ours): {} under a source crash at +delay after migration\n\
         (seeded CrashPlan; background flush-to-disk draining at the given\n\
         page budget per idle round; recovery from the crashed node's disk backer)\n\n{}",
        w.name(),
        t.render()
    )
}

/// The sweep as CSV for downstream analysis.
///
/// # Panics
///
/// As for [`survival_outcomes`].
pub fn survivability_csv(workloads: &[Workload], pool: &Pool) -> String {
    let outcomes = survival_outcomes(workloads, pool);
    let mut out = String::from(
        "crash_delay_s,strategy,drain_rate,survived,checksum_match,\
         pages_lost,pages_recovered,drained_pages,drain_bytes,remote_s\n",
    );
    for o in &outcomes {
        out.push_str(&format!(
            "{:.3},{},{},{},{},{},{},{},{},{:.4}\n",
            o.delay.as_secs_f64(),
            o.strategy.family(),
            o.drain_rate,
            o.survived,
            o.checksum_match,
            o.pages_lost,
            o.pages_recovered,
            o.drained_pages,
            o.drain_bytes,
            o.remote_elapsed.as_secs_f64(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes() -> Vec<SurvivalOutcome> {
        survival_outcomes(&[cor_workloads::minprog::workload()], &Pool::serial())
    }

    #[test]
    fn sweep_renders_and_is_deterministic_across_thread_counts() {
        let workloads = vec![cor_workloads::minprog::workload()];
        let serial = survivability(&workloads, &Pool::serial());
        assert!(serial.contains("survived"));
        let rows = serial.lines().filter(|l| l.contains("pure-")).count();
        assert_eq!(rows, CRASH_DELAYS_MS.len() * 2 * DRAIN_RATES.len());
        assert_eq!(
            serial,
            survivability(&workloads, &Pool::serial()),
            "sweep is reproducible"
        );
        assert_eq!(
            serial,
            survivability(&workloads, &Pool::new(4)),
            "pooled sweep is byte-identical to serial"
        );
        let csv = survivability_csv(&workloads, &Pool::new(2));
        assert_eq!(csv, survivability_csv(&workloads, &Pool::serial()));
        assert_eq!(csv.lines().count(), 1 + 27);
    }

    /// The sweep as it was before twins were shared: every cell runs a
    /// crash-free twin of its own.
    fn per_cell_twin_reference() -> Vec<SurvivalOutcome> {
        let w = cor_workloads::minprog::workload();
        let image = &w.image().unwrap();
        cells()
            .into_iter()
            .map(|(delay, strategy, rate)| {
                let (clean, _) = run_cell(image, strategy, rate, None);
                let (crashed, mut outcome) = run_cell(image, strategy, rate, Some(delay));
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
            let shared = survival_outcomes(&workloads, &pool);
            assert_eq!(format!("{shared:?}"), reference);
        }
    }

    #[test]
    fn twenty_seven_cells_share_nine_twins() {
        // `crash_sweep` runs one twin per distinct key (tested there), so
        // the distinct keys are the twins a sweep call simulates.
        let keys: std::collections::HashSet<_> = cells().iter().map(twin_key).collect();
        assert_eq!((cells().len(), keys.len()), (27, 9));
    }

    #[test]
    fn pure_copy_always_survives_with_matching_bytes() {
        for o in outcomes()
            .iter()
            .filter(|o| matches!(o.strategy, Strategy::PureCopy))
        {
            assert!(o.survived, "{o:?}");
            assert!(o.checksum_match, "{o:?}");
            assert_eq!(o.pages_lost, 0, "{o:?}");
        }
    }

    #[test]
    fn every_cell_is_survival_or_typed_orphan_never_a_third_state() {
        for o in outcomes() {
            if o.survived {
                assert!(
                    o.checksum_match,
                    "a survivor must be byte-identical to the crash-free run: {o:?}"
                );
            } else {
                assert!(o.pages_lost > 0, "an orphan lost something: {o:?}");
                assert!(!o.checksum_match);
            }
        }
    }
}
