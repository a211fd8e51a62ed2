//! Replication sweep (ours): replication factor × crash delay × strategy.
//!
//! The survivability sweep shows the §4.4 residual-dependency hazard and
//! how *draining* races it. This study attacks the same hazard from the
//! other side: replicated page homes (`docs/REPLICATION.md`). Migration
//! page-out write-throughs every owed page to `f` deterministic replica
//! nodes; a copy-on-reference fault whose primary home is dead fails
//! over to a surviving replica home, so the process never
//! drains, never orphans, and never even notices the crash beyond the
//! failover fetch latency. Each cell migrates a workload, kills the
//! source at a swept delay, and reports survival, byte-identity against
//! the blueprint's expected memory, the failover fetch
//! count/pages/latency, and the wire-byte overhead the replication
//! write-through cost (ledgered under its own category, so the paper
//! tables are untouched).

use cor_net::{ReplicationMode, ReplicationParams};
use cor_pool::Pool;
use cor_sim::SimDuration;
use cor_workloads::Workload;

use crate::crash::{self, CrashCell, CrashOutcome, BYTES, DELAY, LOST, REMOTE, STRATEGY, SURVIVED};
use crate::render::{commas, secs};
use crate::study::{representative, Column, Study};

/// Crash delays after migration completes, in milliseconds.
pub const CRASH_DELAYS_MS: [u64; 2] = [1_000, 10_000];

/// Seed for the sweep's replica-placement RNG stream; fixed for
/// reproducibility.
const SWEEP_SEED: u64 = 0x9EB1;

/// The swept replication plans, by factor and mode; f = 0 is the
/// unreplicated baseline.
pub const FACTOR_MODES: [ReplicationParams; 5] = [
    ReplicationParams::primary_backup(0, SWEEP_SEED),
    ReplicationParams::primary_backup(1, SWEEP_SEED),
    ReplicationParams::quorum(1, SWEEP_SEED),
    ReplicationParams::primary_backup(2, SWEEP_SEED),
    ReplicationParams::quorum(2, SWEEP_SEED),
];

/// One cell's outcome.
pub type ReplicationOutcome = CrashOutcome;

/// The sweep's cells in table order: four nodes (source, destination and
/// two spares, so even f = 2 has live homes after the crash) and no
/// drainer — survival must come from the replicas alone.
fn cells() -> Vec<CrashCell> {
    FACTOR_MODES
        .iter()
        .flat_map(|&replication| {
            CRASH_DELAYS_MS.iter().flat_map(move |&ms| {
                crash::strategies().map(|strategy| CrashCell {
                    nodes: 4,
                    drain: None,
                    replication,
                    strategy,
                    delay: SimDuration::from_millis(ms),
                })
            })
        })
        .collect()
}

/// How reads route among the homes: "none", "primary-backup" or "quorum".
fn mode(o: &CrashOutcome) -> String {
    match (o.replication.factor, o.replication.mode) {
        (0, _) => "none",
        (_, ReplicationMode::PrimaryBackup) => "primary-backup",
        (_, ReplicationMode::Quorum) => "quorum",
    }
    .to_string()
}

/// The sweep: its table is a section of `all`, its CSV
/// `results/replication.csv`.
pub static STUDY: Study<CrashCell, CrashOutcome> = Study {
    title: |w| {
        format!(
            "Replication (ours): {} under a source crash at +delay after migration\n\
             (replicated page homes with content-addressed fetch-from-anywhere; no\n\
             draining — survival comes from failover to a live replica alone)",
            representative(w).name()
        )
    },
    cells,
    run: crash::sweep,
    columns: &[
        Column::same("f", "factor", |o| o.replication.factor.to_string()),
        Column::same("mode", "mode", mode),
        DELAY,
        STRATEGY,
        SURVIVED,
        BYTES,
        LOST,
        Column::same("repl pages", "replicated_pages", |o| {
            o.replicated_pages.to_string()
        }),
        Column::same("near reads", "replica_reads", |o| o.replica_reads.to_string()),
        Column::same("failovers", "failover_fetches", |o| {
            o.failover_fetches.to_string()
        }),
        Column::same("fo pages", "failover_pages", |o| o.failover_pages.to_string()),
        Column::both(
            "fo time s",
            |o| secs(o.failover_time.as_secs_f64()),
            "failover_time_s",
            |o| format!("{:.6}", o.failover_time.as_secs_f64()),
        ),
        Column::both(
            "repl bytes",
            |o| commas(o.replicate_bytes),
            "replicate_bytes",
            |o| o.replicate_bytes.to_string(),
        ),
        REMOTE,
    ],
};

/// Every cell's outcome in table order, byte-identical at any thread
/// count of `pool`.
///
/// # Panics
///
/// Panics if `workloads` is empty or a cell fails internally.
pub fn replication_outcomes(workloads: &[Workload], pool: &Pool) -> Vec<ReplicationOutcome> {
    STUDY.outcomes(workloads, pool)
}
