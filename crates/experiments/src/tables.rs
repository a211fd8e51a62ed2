//! Regeneration of Tables 4-1 through 4-5.

use cor_kernel::World;
use cor_migrate::Strategy;
use cor_workloads::Workload;

use crate::render::{commas, secs, TextTable};
use crate::runner::Matrix;

fn pct(n: f64, d: f64) -> String {
    if d == 0.0 {
        "-".into()
    } else {
        format!("{:.1}", 100.0 * n / d)
    }
}

fn opt_pct(v: Option<f64>) -> String {
    v.map(|x| {
        if x < 0.01 {
            format!("{x:.3}")
        } else {
            format!("{x:.1}")
        }
    })
    .unwrap_or_else(|| "n/a".into())
}

/// Table 4-1: representative address-space sizes in bytes.
pub fn table4_1(workloads: &[Workload]) -> String {
    let mut t = TextTable::new(&["process", "Real", "RealZ", "Total", "%RealZ", "paper%RealZ"]);
    for w in workloads {
        let (mut world, a, _) = World::testbed();
        let pid = w.build(&mut world, a).expect("build");
        let st = world.process(a, pid).expect("process").space.stats();
        t.row(vec![
            w.name().into(),
            commas(st.real_bytes),
            commas(st.realzero_bytes),
            commas(st.total_bytes()),
            format!("{:.1}", st.realzero_pct()),
            format!("{:.1}", 100.0 * w.paper.realz as f64 / w.paper.total as f64),
        ]);
    }
    format!(
        "Table 4-1: Representative Address Space Sizes in Bytes\n\n{}",
        t.render()
    )
}

/// Table 4-2: resident sets at migration time.
pub fn table4_2(workloads: &[Workload]) -> String {
    let mut t = TextTable::new(&["process", "RS bytes", "%of Real", "%of Total", "paper RS"]);
    for w in workloads {
        let (mut world, a, _) = World::testbed();
        let pid = w.build(&mut world, a).expect("build");
        let st = world.process(a, pid).expect("process").space.stats();
        t.row(vec![
            w.name().into(),
            commas(st.resident_bytes),
            pct(st.resident_bytes as f64, st.real_bytes as f64),
            pct(st.resident_bytes as f64, st.total_bytes() as f64),
            commas(w.paper.rs),
        ]);
    }
    format!("Table 4-2: Representative Resident Sets\n\n{}", t.render())
}

/// Table 4-3: percent of address space accessed at the new site, for
/// pure-IOU and resident-set (no prefetch).
pub fn table4_3(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    matrix.prefill(
        workloads,
        &[
            Strategy::PureIou { prefetch: 0 },
            Strategy::ResidentSet { prefetch: 0 },
        ],
    );
    let mut t = TextTable::new(&[
        "process",
        "IOU %Real",
        "[%Total]",
        "paper",
        "RS %Real",
        "[%Total]",
        "paper",
    ]);
    for w in workloads {
        let iou = matrix.trial(w, Strategy::PureIou { prefetch: 0 }).clone();
        let rs = matrix
            .trial(w, Strategy::ResidentSet { prefetch: 0 })
            .clone();
        t.row(vec![
            w.name().into(),
            pct(iou.touched_real_pages as f64, iou.real_pages as f64),
            format!(
                "[{}]",
                opt_pct(Some(
                    100.0 * iou.touched_real_pages as f64 / iou.total_pages as f64
                ))
            ),
            opt_pct(w.paper.iou_pct_real),
            pct(rs.rs_union_pages as f64, rs.real_pages as f64),
            format!(
                "[{}]",
                opt_pct(Some(
                    100.0 * rs.rs_union_pages as f64 / rs.total_pages as f64
                ))
            ),
            opt_pct(w.paper.rs_pct_real),
        ]);
    }
    format!(
        "Table 4-3: Percent of Address Space Accessed\n\
         (pure-copy ships 100% of RealMem by definition)\n\n{}",
        t.render()
    )
}

/// Table 4-4: process excision times (AMap construction, RIMAS creation,
/// overall), plus the insertion-time range of §4.3.1.
pub fn table4_4(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    matrix.prefill(workloads, &[Strategy::PureIou { prefetch: 0 }]);
    let mut t = TextTable::new(&[
        "process",
        "AMap",
        "RIMAS",
        "Overall",
        "paper(A/R/O)",
        "Insert",
    ]);
    let mut inserts: Vec<(String, f64)> = Vec::new();
    for w in workloads {
        let trial = matrix.trial(w, Strategy::PureIou { prefetch: 0 }).clone();
        let tm = trial.migration.timings;
        inserts.push((w.name().into(), tm.insert_total.as_secs_f64()));
        t.row(vec![
            w.name().into(),
            secs(tm.excise_amap.as_secs_f64()),
            secs(tm.excise_rimas.as_secs_f64()),
            secs(tm.excise_total.as_secs_f64()),
            format!(
                "{}/{}/{}",
                secs(w.paper.excise_amap_s),
                secs(w.paper.excise_rimas_s),
                secs(w.paper.excise_total_s)
            ),
            format!("{:.0}ms", tm.insert_total.as_secs_f64() * 1e3),
        ]);
    }
    let min = inserts
        .iter()
        .cloned()
        .reduce(|a, b| if b.1 < a.1 { b } else { a })
        .unwrap();
    let max = inserts
        .iter()
        .cloned()
        .reduce(|a, b| if b.1 > a.1 { b } else { a })
        .unwrap();
    format!(
        "Table 4-4: Process Excision Times in Seconds\n\n{}\n\
         Insertion range: {:.0} ms ({}) to {:.0} ms ({}); paper: 263 ms (Minprog) to 853 ms (Lisp-Del)\n",
        t.render(),
        min.1 * 1e3,
        min.0,
        max.1 * 1e3,
        max.0
    )
}

/// Table 4-5: RIMAS (address space) transfer times under the three
/// strategies.
pub fn table4_5(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    matrix.prefill(
        workloads,
        &[
            Strategy::PureIou { prefetch: 0 },
            Strategy::ResidentSet { prefetch: 0 },
            Strategy::PureCopy,
        ],
    );
    let mut t = TextTable::new(&["process", "Pure-IOU", "RS", "Copy", "paper(IOU/RS/Copy)"]);
    for w in workloads {
        let iou = matrix
            .trial(w, Strategy::PureIou { prefetch: 0 })
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        let rs = matrix
            .trial(w, Strategy::ResidentSet { prefetch: 0 })
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        let copy = matrix
            .trial(w, Strategy::PureCopy)
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        t.row(vec![
            w.name().into(),
            secs(iou),
            secs(rs),
            secs(copy),
            format!(
                "{}/{}/{}",
                secs(w.paper.xfer_iou_s),
                secs(w.paper.xfer_rs_s),
                secs(w.paper.xfer_copy_s)
            ),
        ]);
    }
    format!(
        "Table 4-5: Address Space Transfer Times in Seconds\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_1_matches_paper_exactly() {
        let workloads = cor_workloads::all();
        let out = table4_1(&workloads);
        // Spot checks against the published bytes.
        assert!(out.contains("4,228,129,280"), "{out}");
        assert!(out.contains("142,336"), "{out}");
        assert!(out.contains("99.9"), "{out}");
    }

    #[test]
    fn table4_2_matches_paper_exactly() {
        let workloads = cor_workloads::all();
        let out = table4_2(&workloads);
        assert!(out.contains("190,464"), "{out}");
        assert!(out.contains("71,680"), "{out}");
    }
}
