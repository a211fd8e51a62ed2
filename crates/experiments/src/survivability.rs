//! Survivability sweep (ours): crash time × strategy × drain rate.
//!
//! The paper's §4.4 concedes the residual-dependency problem — a migrated
//! process dies with the source node that still backs its untouched
//! pages — but never measures it. This study does: a representative
//! workload is migrated under each strategy, the source is killed by a
//! `CrashPlan` at a swept delay after migration, and background
//! flush-draining at a swept rate races the crash. Each cell reports
//! whether the process survived, whether its memory is byte-identical to
//! the blueprint's expected memory (`crash.rs`), how many pages the
//! recovery ladder salvaged from the crashed node's disk backer, and what
//! the draining cost — which is ledgered under its own category so the
//! paper tables are untouched.

use cor_pool::Pool;
use cor_sim::SimDuration;
use cor_workloads::Workload;

use crate::crash::{self, CrashCell, CrashOutcome, BYTES, DELAY, LOST, REMOTE, STRATEGY, SURVIVED};
use crate::render::commas;
use crate::study::{representative, Column, Study};

/// Crash delays after migration completes, in milliseconds.
pub const CRASH_DELAYS_MS: [u64; 3] = [1_000, 3_000, 10_000];

/// Studied background flush rates (pages per idle round; 0 = no drain).
pub const DRAIN_RATES: [u64; 3] = [0, 8, 64];

/// One cell's outcome.
pub type SurvivalOutcome = CrashOutcome;

/// The sweep's cells in table order: a two-node world whose source dies
/// while a flush drainer races the crash.
fn cells() -> Vec<CrashCell> {
    CRASH_DELAYS_MS
        .iter()
        .flat_map(|&ms| {
            crash::strategies().into_iter().flat_map(move |strategy| {
                DRAIN_RATES.map(|rate| CrashCell {
                    nodes: 2,
                    drain: Some(rate),
                    replication: Default::default(),
                    strategy,
                    delay: SimDuration::from_millis(ms),
                })
            })
        })
        .collect()
}

/// The sweep: its table is a section of `all`, its CSV
/// `results/survivability.csv`.
pub static STUDY: Study<CrashCell, CrashOutcome> = Study {
    title: |w| {
        format!(
            "Survivability (ours): {} under a source crash at +delay after migration\n\
             (seeded CrashPlan; background flush-to-disk draining at the given\n\
             page budget per idle round; recovery from the crashed node's disk backer)",
            representative(w).name()
        )
    },
    cells,
    run: crash::sweep,
    columns: &[
        DELAY,
        STRATEGY,
        Column::same("drain/rnd", "drain_rate", |o| {
            o.drain.unwrap_or(0).to_string()
        }),
        SURVIVED,
        BYTES,
        LOST,
        Column::same("recovered", "pages_recovered", |o| {
            o.pages_recovered.to_string()
        }),
        Column::same("drained", "drained_pages", |o| o.drained_pages.to_string()),
        Column::both(
            "drain bytes",
            |o| commas(o.drain_bytes),
            "drain_bytes",
            |o| o.drain_bytes.to_string(),
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
pub fn survival_outcomes(workloads: &[Workload], pool: &Pool) -> Vec<SurvivalOutcome> {
    STUDY.outcomes(workloads, pool)
}
