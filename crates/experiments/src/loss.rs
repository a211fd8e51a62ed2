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

use cor_migrate::Strategy;
use cor_net::{FaultPlan, WireParams};
use cor_pool::Pool;
use cor_workloads::Workload;

use crate::render::{commas, secs, TextTable};
use crate::runner::run_trial_on;

/// The studied per-attempt drop rates, in percent.
pub const DROP_RATES_PCT: [u32; 6] = [0, 2, 5, 10, 15, 20];

/// Seed for the sweep's fault-injection RNG; fixed so the table is
/// reproducible run to run.
const SWEEP_SEED: u64 = 0x10E5;

/// Runs the sweep over `workloads` (the first entry named `Minprog`, or
/// the first workload) and renders the table. Every `(rate, strategy)`
/// cell is an independent seeded simulation, so the cells fan out across
/// `pool`; rows are emitted serially in sweep order, making the table
/// byte-identical at any thread count.
///
/// # Panics
///
/// Panics if `workloads` is empty or a trial fails internally.
pub fn loss_sweep(workloads: &[Workload], pool: &Pool) -> String {
    let w = workloads
        .iter()
        .find(|w| w.name() == "Minprog")
        .unwrap_or(&workloads[0]);
    let image = &w.image().expect("workload build");
    let mut t = TextTable::new(&[
        "drop%",
        "strategy",
        "end-to-end s",
        "retransmits",
        "retx bytes",
        "stall s",
        "dup drops",
    ]);
    let cells: Vec<(u32, Strategy)> = DROP_RATES_PCT
        .iter()
        .flat_map(|&pct| {
            [Strategy::PureCopy, Strategy::PureIou { prefetch: 1 }].map(|s| (pct, s))
        })
        .collect();
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(pct, strategy)| {
            move || {
                let mut wire = WireParams::default();
                if pct > 0 {
                    wire.faults = Some(FaultPlan::dropping(
                        SWEEP_SEED + pct as u64,
                        pct as f64 / 100.0,
                    ));
                }
                run_trial_on(image, strategy, cor_kernel::CostModel::default(), wire)
            }
        })
        .collect();
    let trials = pool.run(jobs);
    for ((pct, strategy), trial) in cells.iter().zip(&trials) {
        t.row(vec![
            format!("{pct}"),
            strategy.family().to_string(),
            secs(trial.end_to_end().as_secs_f64()),
            trial.reliability.retransmissions.get().to_string(),
            commas(trial.retransmit_bytes),
            secs(trial.reliability.stall_time.as_secs_f64()),
            trial.reliability.duplicate_drops.get().to_string(),
        ]);
    }
    format!(
        "Loss sweep (ours): {} completion vs per-attempt drop rate\n\
         (seeded deterministic injection; retry budget {}, base timeout {:?})\n\n{}",
        w.name(),
        WireParams::default().retry_budget,
        WireParams::default().retry_timeout,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_trial_with;

    #[test]
    fn loss_sweep_renders_and_is_deterministic() {
        let workloads = vec![cor_workloads::minprog::workload()];
        let serial = Pool::serial();
        let once = loss_sweep(&workloads, &serial);
        assert!(once.contains("drop%"));
        // One row per (rate x strategy) plus header and rule.
        let rows = once.lines().filter(|l| l.contains("pure-")).count();
        assert_eq!(rows, DROP_RATES_PCT.len() * 2);
        assert_eq!(
            once,
            loss_sweep(&workloads, &serial),
            "sweep is reproducible"
        );
        assert_eq!(
            once,
            loss_sweep(&workloads, &Pool::new(4)),
            "pooled sweep is byte-identical to serial"
        );
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
