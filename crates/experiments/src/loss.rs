//! Loss sweep (ours): migration completion time vs wire drop rate.
//!
//! The paper's testbed wire was effectively perfect; this study asks what
//! copy-on-reference costs when it is not. A representative workload is
//! migrated under pure-copy and pure-IOU across seeded per-attempt drop
//! rates, and the end-to-end time, retransmission volume and stall time
//! are tabulated. The shape of the result is the interesting part:
//! pure-copy fronts all its exposure in one huge transfer, while
//! copy-on-reference spreads its exposure across many small fault round
//! trips, each individually cheap to retry but each stalling the process
//! on its critical path.

use cor_kernel::CostModel;
use cor_migrate::Strategy;
use cor_net::{FaultPlan, WireParams};
use cor_pool::Pool;
use cor_workloads::Workload;

use crate::render::{commas, secs};
use crate::runner::{run_trial_on, Trial};
use crate::study::{fan_out, representative, Column, Study};

/// The studied per-attempt drop rates, in percent.
pub const DROP_RATES_PCT: [u32; 6] = [0, 2, 5, 10, 15, 20];

/// Seed for the sweep's fault-injection RNG; fixed so the table is
/// reproducible run to run.
const SWEEP_SEED: u64 = 0x10E5;

/// One cell: drop rate in percent, strategy.
type Cell = (u32, Strategy);

/// The sweep's cells in table order.
fn cells() -> Vec<Cell> {
    DROP_RATES_PCT
        .iter()
        .flat_map(|&pct| [Strategy::PureCopy, Strategy::PureIou { prefetch: 1 }].map(|s| (pct, s)))
        .collect()
}

/// The default wire, dropping `pct` percent of attempts.
fn wire_for(pct: u32) -> WireParams {
    let mut wire = WireParams::default();
    if pct > 0 {
        wire.faults = Some(FaultPlan::dropping(
            SWEEP_SEED + pct as u64,
            pct as f64 / 100.0,
        ));
    }
    wire
}

/// Each cell is an independent seeded trial on a fork of one image of
/// the representative workload.
fn run(workloads: &[Workload], pool: &Pool, cells: Vec<Cell>) -> Vec<(Cell, Trial)> {
    let image = &representative(workloads).image().expect("workload build");
    fan_out(pool, cells, |(pct, strategy)| {
        let trial = run_trial_on(image, strategy, CostModel::default(), wire_for(pct));
        ((pct, strategy), trial)
    })
}

/// The sweep: its table is a section of `all`; it has no CSV.
pub static STUDY: Study<Cell, (Cell, Trial)> = Study {
    title: |w| {
        format!(
            "Loss sweep (ours): {} completion vs per-attempt drop rate\n\
             (seeded deterministic injection; retry budget {}, base timeout {:?})",
            representative(w).name(),
            WireParams::default().retry_budget,
            WireParams::default().retry_timeout,
        )
    },
    cells,
    run,
    columns: &[
        Column::text("drop%", |((pct, _), _)| pct.to_string()),
        Column::text("strategy", |((_, s), _)| s.family().to_string()),
        Column::text("end-to-end s", |(_, t)| secs(t.end_to_end().as_secs_f64())),
        Column::text("retransmits", |(_, t)| {
            t.reliability.retransmissions.get().to_string()
        }),
        Column::text("retx bytes", |(_, t)| commas(t.retransmit_bytes)),
        Column::text("stall s", |(_, t)| {
            secs(t.reliability.stall_time.as_secs_f64())
        }),
        Column::text("dup drops", |(_, t)| {
            t.reliability.duplicate_drops.get().to_string()
        }),
    ],
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_trial_inner, run_trial_with};

    /// Every cell's process ends with the memory its trace predicts from
    /// op 0, where its touch tracking starts (the fork): loss changes what
    /// a run costs, never the bytes it ends with.
    #[test]
    fn every_cell_ends_with_the_memory_its_trace_predicts() {
        let workload = cor_workloads::minprog::workload();
        let image = workload.image().expect("workload build");
        let expected = workload.blueprint.expected_checksum_from(0);
        for (pct, strategy) in cells() {
            let (_, world) = run_trial_inner(&image, strategy, CostModel::default(), wire_for(pct));
            let mut got = Vec::new();
            for node in world.node_ids() {
                for &pid in world.node(node).unwrap().processes.keys() {
                    got.push(world.touched_checksum(node, pid).unwrap());
                }
            }
            assert_eq!(got, [expected], "drop {pct}%, {strategy}");
        }
    }

    #[test]
    fn loss_sweep_renders_and_is_deterministic() {
        let workloads = [cor_workloads::minprog::workload()];
        let table = || STUDY.table(&workloads, &STUDY.outcomes(&workloads, &Pool::serial()));
        let once = table();
        assert!(once.contains("drop%"));
        // One row per (rate x strategy) plus header and rule.
        let rows = once.lines().filter(|l| l.contains("pure-")).count();
        assert_eq!(rows, DROP_RATES_PCT.len() * 2);
        assert_eq!(once, table(), "sweep is reproducible");
    }

    #[test]
    fn lossy_trials_cost_more_than_lossless() {
        let w = cor_workloads::minprog::workload();
        let clean = run_trial_with(
            &w,
            Strategy::PureIou { prefetch: 1 },
            cor_kernel::CostModel::default(),
            WireParams::default(),
        );
        let wire = WireParams {
            faults: Some(FaultPlan::dropping(9, 0.20)),
            ..WireParams::default()
        };
        let lossy = run_trial_with(
            &w,
            Strategy::PureIou { prefetch: 1 },
            cor_kernel::CostModel::default(),
            wire,
        );
        assert_eq!(clean.retransmit_bytes, 0);
        assert!(lossy.retransmit_bytes > 0);
        assert!(lossy.reliability.retransmissions.get() > 0);
        assert!(lossy.end_to_end() > clean.end_to_end());
        assert_eq!(
            lossy.imag_faults, clean.imag_faults,
            "loss changes cost, not behaviour"
        );
    }
}
