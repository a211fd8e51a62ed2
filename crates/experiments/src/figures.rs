//! Regeneration of Figures 4-1 through 4-5.

use cor_migrate::Strategy;
use cor_sim::{LedgerCategory, SimDuration, SimTime};
use cor_workloads::Workload;

use crate::render::{bar, secs, signed_bar, TextTable};
use crate::runner::Matrix;
use crate::PREFETCHES;

fn header_row() -> Vec<&'static str> {
    vec![
        "process", "Copy", "IOU/0", "IOU/1", "IOU/3", "IOU/7", "IOU/15", "RS/0", "RS/1", "RS/3",
        "RS/7", "RS/15",
    ]
}

fn per_cell<F: FnMut(&mut Matrix, &Workload, Strategy) -> String>(
    matrix: &mut Matrix,
    workloads: &[Workload],
    mut cell: F,
) -> TextTable {
    // Every figure consumes the full strategy row, so compute missing
    // cells concurrently before the serial render walk.
    matrix.prefill(workloads, &Matrix::paper_strategies());
    let mut t = TextTable::new(&header_row());
    for w in workloads {
        let mut row = vec![w.name().to_string()];
        row.push(cell(matrix, w, Strategy::PureCopy));
        for &p in &PREFETCHES {
            row.push(cell(matrix, w, Strategy::PureIou { prefetch: p }));
        }
        for &p in &PREFETCHES {
            row.push(cell(matrix, w, Strategy::ResidentSet { prefetch: p }));
        }
        t.row(row);
    }
    t
}

/// Figure 4-1: remote execution times in seconds, per strategy and
/// prefetch value.
pub fn fig4_1(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    let t = per_cell(matrix, workloads, |m, w, s| {
        secs(m.trial(w, s).exec_elapsed.as_secs_f64())
    });
    let mut extra = String::new();
    for w in workloads {
        if let Some(h) = matrix
            .trial(w, Strategy::PureIou { prefetch: 1 })
            .prefetch_hit_ratio
        {
            extra.push_str(&format!(
                "  {} prefetch hit ratio: {:.0}% at pf=1",
                w.name(),
                h * 100.0
            ));
            if let Some(h15) = matrix
                .trial(w, Strategy::PureIou { prefetch: 15 })
                .prefetch_hit_ratio
            {
                extra.push_str(&format!(", {:.0}% at pf=15", h15 * 100.0));
            }
            extra.push('\n');
        }
    }
    format!(
        "Figure 4-1: Remote Execution Times in Seconds\n\n{}\n{}",
        t.render(),
        extra
    )
}

/// Figure 4-2: percent end-to-end speedup over pure-copy (address-space
/// transfer + remote execution), per strategy and prefetch.
pub fn fig4_2(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    matrix.prefill(workloads, &Matrix::paper_strategies());
    let mut out = String::from(
        "Figure 4-2: Percent Speedup of IOU and RS Strategies over Pure-Copy\n\
         (transfer + remote execution; negative = slowdown)\n\n",
    );
    let mut t = TextTable::new(&header_row());
    for w in workloads {
        let copy = matrix
            .trial(w, Strategy::PureCopy)
            .end_to_end()
            .as_secs_f64();
        let speedup = |m: &mut Matrix, s: Strategy| -> f64 {
            let t = m.trial(w, s).end_to_end().as_secs_f64();
            100.0 * (copy - t) / copy
        };
        let mut row = vec![w.name().to_string(), "0".into()];
        for &p in &PREFETCHES {
            row.push(format!(
                "{:+.0}",
                speedup(matrix, Strategy::PureIou { prefetch: p })
            ));
        }
        for &p in &PREFETCHES {
            row.push(format!(
                "{:+.0}",
                speedup(matrix, Strategy::ResidentSet { prefetch: p })
            ));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    // Bar rendering for the IOU family, which is the paper's headline.
    out.push_str("\nIOU speedup bars (pf=0,1,3,7,15):\n");
    for w in workloads {
        let copy = matrix
            .trial(w, Strategy::PureCopy)
            .end_to_end()
            .as_secs_f64();
        out.push_str(&format!("  {:<9}", w.name()));
        for &p in &PREFETCHES {
            let t = matrix
                .trial(w, Strategy::PureIou { prefetch: p })
                .end_to_end()
                .as_secs_f64();
            let sp = 100.0 * (copy - t) / copy;
            out.push_str(&format!(" [{:<11}]", signed_bar(sp, 100.0, 10)));
        }
        out.push('\n');
    }
    out
}

/// Figure 4-3: bytes transferred per trial.
pub fn fig4_3(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    let t = per_cell(matrix, workloads, |m, w, s| {
        let kb = m.trial(w, s).total_bytes as f64 / 1024.0;
        format!("{kb:.0}K")
    });
    format!(
        "Figure 4-3: Bytes Transferred During Migration and Remote Execution\n\n{}",
        t.render()
    )
}

/// Figure 4-4: message-handling time per trial.
pub fn fig4_4(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    let t = per_cell(matrix, workloads, |m, w, s| {
        secs(m.trial(w, s).msg_cpu.as_secs_f64())
    });
    format!(
        "Figure 4-4: Message Handling Costs in Seconds (both nodes)\n\n{}",
        t.render()
    )
}

/// Figure 4-5: byte-transfer-rate panels for Lisp-Del under the three
/// strategies (no prefetch). `#` = bulk/control bytes, `o` = imaginary
/// fault support.
pub fn fig4_5(matrix: &mut Matrix) -> String {
    let w = cor_workloads::lisp::lisp_del();
    matrix.prefill(
        std::slice::from_ref(&w),
        &[
            Strategy::PureIou { prefetch: 0 },
            Strategy::ResidentSet { prefetch: 0 },
            Strategy::PureCopy,
        ],
    );
    let mut out = String::from(
        "Figure 4-5: Byte Transfer Rates for Lisp-Del (bin = 5 s)\n\
         '#' bulk + control traffic, 'o' imaginary fault support\n\n",
    );
    for strategy in [
        Strategy::PureIou { prefetch: 0 },
        Strategy::ResidentSet { prefetch: 0 },
        Strategy::PureCopy,
    ] {
        let trial = matrix.trial(&w, strategy).clone();
        let bin = SimDuration::from_secs(5);
        let end = trial.end_time;
        let bulk: Vec<u64> = {
            let b = trial.ledger.binned(bin, end, LedgerCategory::Bulk);
            let c = trial.ledger.binned(bin, end, LedgerCategory::Control);
            b.iter().zip(&c).map(|(x, y)| x + y).collect()
        };
        let fault = trial.ledger.binned(bin, end, LedgerCategory::FaultSupport);
        let peak = bulk
            .iter()
            .zip(&fault)
            .map(|(a, b)| a + b)
            .max()
            .unwrap_or(1)
            .max(1) as f64;
        out.push_str(&format!(
            "{} — total {:.0} s, {} KB on the wire\n",
            strategy,
            end.as_secs_f64(),
            trial.total_bytes / 1024
        ));
        for (i, (b, f)) in bulk.iter().zip(&fault).enumerate() {
            if *b == 0 && *f == 0 {
                continue;
            }
            let t = SimTime::from_secs(5 * i as u64);
            out.push_str(&format!(
                "  {:>5.0}s |{}{}\n",
                t.as_secs_f64(),
                bar(*b as f64, peak, 40),
                bar(*f as f64, peak, 40).replace('#', "o"),
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_tables_render_for_a_single_workload() {
        // Rendering smoke tests on the cheapest representative: every
        // figure function produces a complete 12-column table.
        let workloads = vec![cor_workloads::minprog::workload()];
        let mut m = Matrix::new();
        for out in [
            fig4_1(&mut m, &workloads),
            fig4_3(&mut m, &workloads),
            fig4_4(&mut m, &workloads),
        ] {
            let header = out.lines().nth(2).unwrap_or("");
            assert!(header.contains("Copy") && header.contains("RS/15"), "{out}");
            assert!(out.contains("Minprog"), "{out}");
        }
        let speedups = fig4_2(&mut m, &workloads);
        assert!(speedups.contains("Minprog"));
        assert!(speedups.contains('+'), "Minprog speeds up under IOU");
    }

    #[test]
    fn fig4_5_panels_have_the_right_signature() {
        let mut m = Matrix::new();
        let out = fig4_5(&mut m);
        assert!(out.contains("pure-copy"));
        assert!(out.contains("pure-iou"));
        // Copy has a bulk burst; IOU shows fault-support traffic.
        assert!(out.contains('#'));
        assert!(out.contains('o'));
    }
}
