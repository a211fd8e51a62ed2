//! The reproduction gate: programmatic paper-vs-measured checks.
//!
//! `experiments check` runs the full matrix and asserts every reproduced
//! quantity against the paper with explicit tolerances, printing a
//! PASS/FAIL line per check and failing the process if anything drifted.
//! This is the regression suite for the *reproduction itself* — the unit
//! tests guard the code; this guards the science.

use cor_migrate::Strategy;
use cor_workloads::Workload;

use crate::runner::Matrix;

/// One verified claim.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub label: String,
    /// The measured value.
    pub measured: f64,
    /// The paper's value (or bound).
    pub expected: f64,
    /// Allowed relative deviation (fraction), or absolute when
    /// `expected == 0`.
    pub tolerance: f64,
    /// Whether it passed.
    pub pass: bool,
}

fn rel(label: impl Into<String>, measured: f64, expected: f64, tolerance: f64) -> Check {
    let pass = if expected == 0.0 {
        measured.abs() <= tolerance
    } else {
        ((measured - expected) / expected).abs() <= tolerance
    };
    Check {
        label: label.into(),
        measured,
        expected,
        tolerance,
        pass,
    }
}

fn bound(label: impl Into<String>, measured: f64, lo: f64, hi: f64) -> Check {
    Check {
        label: label.into(),
        measured,
        expected: (lo + hi) / 2.0,
        tolerance: (hi - lo) / (lo + hi),
        pass: (lo..=hi).contains(&measured),
    }
}

/// Runs every reproduction check. Table 4-1/4-2 quantities are exact by
/// construction (asserted in unit tests), so the gate focuses on the
/// *measured* dynamics: utilizations, timings, savings, and the claims of
/// §4.3–§4.5.
pub fn run_checks(matrix: &mut Matrix, workloads: &[Workload]) -> Vec<Check> {
    // Every strategy the gate consults, computed up front so missing
    // cells fan out across the matrix's pool.
    matrix.prefill(
        workloads,
        &[
            Strategy::PureCopy,
            Strategy::PureIou { prefetch: 0 },
            Strategy::PureIou { prefetch: 1 },
            Strategy::ResidentSet { prefetch: 0 },
        ],
    );
    let mut checks = Vec::new();

    // Table 4-3: remote utilization, per representative (±2% of Real).
    for w in workloads {
        if let Some(paper) = w.paper.iou_pct_real {
            let t = matrix.trial(w, Strategy::PureIou { prefetch: 0 });
            let measured = 100.0 * t.touched_real_pages as f64 / t.real_pages as f64;
            checks.push(rel(
                format!("table4-3 {} IOU %Real", w.name()),
                measured,
                paper,
                0.02,
            ));
        }
    }

    // Table 4-4: excision totals within 35%; the spread within a factor.
    let mut excises = Vec::new();
    for w in workloads {
        let t = matrix.trial(w, Strategy::PureIou { prefetch: 0 });
        let measured = t.migration.timings.excise_total.as_secs_f64();
        excises.push(measured);
        checks.push(rel(
            format!("table4-4 {} excise overall (s)", w.name()),
            measured,
            w.paper.excise_total_s,
            0.35,
        ));
    }
    let spread = excises.iter().cloned().fold(0.0f64, f64::max)
        / excises.iter().cloned().fold(f64::MAX, f64::min);
    checks.push(bound(
        "table4-4 excise spread (paper: ~4x)",
        spread,
        2.0,
        6.0,
    ));

    // Table 4-5: RS and Copy transfers within 25%; IOU stays sub-second.
    for w in workloads {
        let copy = matrix
            .trial(w, Strategy::PureCopy)
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        checks.push(rel(
            format!("table4-5 {} copy transfer (s)", w.name()),
            copy,
            w.paper.xfer_copy_s,
            0.25,
        ));
        let rs = matrix
            .trial(w, Strategy::ResidentSet { prefetch: 0 })
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        checks.push(rel(
            format!("table4-5 {} RS transfer (s)", w.name()),
            rs,
            w.paper.xfer_rs_s,
            0.25,
        ));
        let iou = matrix
            .trial(w, Strategy::PureIou { prefetch: 0 })
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        checks.push(bound(
            format!("table4-5 {} IOU transfer sub-second", w.name()),
            iou,
            0.0,
            0.5,
        ));
    }

    // §4.3.2 headline: the extreme copy/IOU ratio is ~1000x.
    if let Some(w) = workloads.iter().find(|w| w.name() == "Lisp-Del") {
        let copy = matrix
            .trial(w, Strategy::PureCopy)
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        let iou = matrix
            .trial(w, Strategy::PureIou { prefetch: 0 })
            .migration
            .timings
            .rimas_transfer
            .as_secs_f64();
        checks.push(bound(
            "§4.3.2 Lisp-Del copy/IOU ratio (~1000x)",
            copy / iou,
            500.0,
            1500.0,
        ));
    }

    // §4.3.3: Chess penalty ~3%; Minprog slowdown ~44x (same order).
    if let Some(chess) = workloads.iter().find(|w| w.name() == "Chess") {
        let copy = matrix
            .trial(chess, Strategy::PureCopy)
            .exec_elapsed
            .as_secs_f64();
        let iou = matrix
            .trial(chess, Strategy::PureIou { prefetch: 0 })
            .exec_elapsed
            .as_secs_f64();
        checks.push(bound(
            "§4.3.3 Chess IOU exec penalty %",
            100.0 * (iou - copy) / copy,
            0.0,
            8.0,
        ));
    }
    if let Some(minprog) = workloads.iter().find(|w| w.name() == "Minprog") {
        let copy = matrix
            .trial(minprog, Strategy::PureCopy)
            .exec_elapsed
            .as_secs_f64();
        let iou = matrix
            .trial(minprog, Strategy::PureIou { prefetch: 0 })
            .exec_elapsed
            .as_secs_f64();
        checks.push(bound(
            "§4.3.3 Minprog IOU slowdown factor (~44x)",
            iou / copy,
            20.0,
            100.0,
        ));
    }

    // §4.3.4: one page of prefetch never hurts end-to-end.
    for w in workloads {
        let pf0 = matrix
            .trial(w, Strategy::PureIou { prefetch: 0 })
            .end_to_end()
            .as_secs_f64();
        let pf1 = matrix
            .trial(w, Strategy::PureIou { prefetch: 1 })
            .end_to_end()
            .as_secs_f64();
        checks.push(bound(
            format!("§4.3.4 {} prefetch-1 never hurts (ratio)", w.name()),
            pf1 / pf0,
            0.0,
            1.005,
        ));
    }

    // §4.4 aggregates.
    let mut byte_savings = Vec::new();
    let mut msg_savings = Vec::new();
    for w in workloads {
        let copy = matrix.trial(w, Strategy::PureCopy).clone();
        let iou = matrix.trial(w, Strategy::PureIou { prefetch: 0 }).clone();
        byte_savings.push(100.0 * (1.0 - iou.total_bytes as f64 / copy.total_bytes as f64));
        msg_savings.push(100.0 * (1.0 - iou.msg_cpu.as_secs_f64() / copy.msg_cpu.as_secs_f64()));
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    checks.push(bound(
        "§4.4.1 average byte savings % (paper 58.2)",
        avg(&byte_savings),
        45.0,
        70.0,
    ));
    checks.push(bound(
        "§4.4.2 average message savings % (paper 47.8)",
        avg(&msg_savings),
        40.0,
        65.0,
    ));
    checks.push(bound(
        "§4.4 IOU saves bytes in every case (min %)",
        byte_savings.iter().cloned().fold(f64::MAX, f64::min),
        0.0,
        100.0,
    ));

    // Survivability (ours): the crash sweep's headline claims. §4.4
    // concedes residual dependencies kill migrated processes with their
    // source; the sweep must show (a) pure-copy is immune, (b) fast
    // draining makes the lazy strategies immune too, (c) no draining
    // actually loses something (the hazard is real), and (d) every
    // survivor is byte-identical to its crash-free twin.
    let outcomes = crate::survivability::survival_outcomes(workloads, &matrix.pool());
    let pct = |num: usize, den: usize| 100.0 * num as f64 / den.max(1) as f64;
    let copy: Vec<_> = outcomes
        .iter()
        .filter(|o| matches!(o.strategy, Strategy::PureCopy))
        .collect();
    checks.push(rel(
        "survivability pure-copy survival %",
        pct(copy.iter().filter(|o| o.survived).count(), copy.len()),
        100.0,
        0.0,
    ));
    let fast: Vec<_> = outcomes.iter().filter(|o| o.drain_rate == 64).collect();
    checks.push(rel(
        "survivability drain-64 survival %",
        pct(fast.iter().filter(|o| o.survived).count(), fast.len()),
        100.0,
        0.0,
    ));
    let undrained_orphans = outcomes
        .iter()
        .filter(|o| o.drain_rate == 0 && !o.survived)
        .count();
    checks.push(bound(
        "survivability no-drain orphan count (>=1)",
        undrained_orphans as f64,
        1.0,
        outcomes.len() as f64,
    ));
    let survivors: Vec<_> = outcomes.iter().filter(|o| o.survived).collect();
    checks.push(rel(
        "survivability survivor byte-identity %",
        pct(
            survivors.iter().filter(|o| o.checksum_match).count(),
            survivors.len(),
        ),
        100.0,
        0.0,
    ));

    // Replication (ours): replicated page homes with content-addressed
    // failover. The gate asserts (a) any factor >= 1 survives every
    // single-node crash with no orphans, (b) the unreplicated baseline
    // still orphans (the hazard is real), (c) every survivor is
    // byte-identical to its crash-free twin, (d) the write-through wire
    // overhead grows with the factor, and (e) failover fetches actually
    // fired and their latency registered on the clock.
    let repl = crate::replication::replication_outcomes(workloads, &matrix.pool());
    let replicated: Vec<_> = repl.iter().filter(|o| o.factor >= 1).collect();
    checks.push(rel(
        "replication f>=1 survival %",
        pct(
            replicated.iter().filter(|o| o.survived).count(),
            replicated.len(),
        ),
        100.0,
        0.0,
    ));
    let baseline_orphans = repl.iter().filter(|o| o.factor == 0 && !o.survived).count();
    checks.push(bound(
        "replication f=0 orphan count (>=1)",
        baseline_orphans as f64,
        1.0,
        repl.len() as f64,
    ));
    let repl_survivors: Vec<_> = repl.iter().filter(|o| o.survived).collect();
    checks.push(rel(
        "replication survivor byte-identity %",
        pct(
            repl_survivors.iter().filter(|o| o.checksum_match).count(),
            repl_survivors.len(),
        ),
        100.0,
        0.0,
    ));
    let repl_bytes = |f: u64| -> f64 {
        repl.iter()
            .filter(|o| o.factor == f)
            .map(|o| o.replicate_bytes)
            .sum::<u64>() as f64
    };
    checks.push(bound(
        "replication overhead grows with factor (f2/f1)",
        repl_bytes(2) / repl_bytes(1).max(1.0),
        1.0 + f64::EPSILON,
        4.0,
    ));
    let failover_ok = repl
        .iter()
        .any(|o| o.failover_pages > 0 && o.failover_time > cor_sim::SimDuration::ZERO);
    checks.push(rel(
        "replication failover fires with measured latency",
        if failover_ok { 1.0 } else { 0.0 },
        1.0,
        0.0,
    ));

    // Fleet (ours): migration storms on routed N-node fabrics. The gate
    // runs the 16-node slice and asserts (a) storms drain cleanly with no
    // orphans, (b) multi-hop routing bills every traversed link, (c) the
    // topology-aware policy never routes longer than the topology-blind
    // one, (d) the fault-latency tail is sane, and (e) a rerun of a cell
    // is byte-identical.
    let fleet = crate::fleet::fleet_outcomes_for(crate::fleet::gate_cells(), &matrix.pool());
    checks.push(rel(
        "fleet storm survival % (no orphans)",
        pct(
            fleet
                .iter()
                .filter(|o| o.survived == o.migrations && o.drain_residents_after == 0)
                .count(),
            fleet.len(),
        ),
        100.0,
        0.0,
    ));
    let torus: Vec<_> = fleet
        .iter()
        .filter(|o| o.spec.topology == "torus")
        .collect();
    // Locality placement legitimately routes everything one hop, so the
    // conservation claim is made against the topology-blind baseline.
    let link_ratio = torus
        .iter()
        .find(|o| o.spec.placement == "round-robin")
        .map(|o| o.link_bytes as f64 / o.wire_bytes as f64)
        .expect("torus round-robin cell present");
    checks.push(bound(
        "fleet torus link-byte conservation (rr ratio >1)",
        link_ratio,
        1.0 + f64::EPSILON,
        4.0,
    ));
    let hops_of = |placement: &str| {
        torus
            .iter()
            .find(|o| o.spec.placement == placement)
            .expect("torus cell present")
            .mean_hops
    };
    checks.push(bound(
        "fleet locality vs round-robin hops (torus, ratio)",
        hops_of("locality") / hops_of("round-robin"),
        0.0,
        1.0,
    ));
    let tail_ok = fleet
        .iter()
        .filter(|o| o.faults > 0 && o.fault_p50_us > 0 && o.fault_p99_us >= o.fault_p50_us)
        .count();
    checks.push(rel(
        "fleet fault-latency tail sanity % (p99 ≥ p50 > 0)",
        pct(tail_ok, fleet.len()),
        100.0,
        0.0,
    ));
    let rerun_cell = *crate::fleet::gate_cells()
        .iter()
        .find(|c| c.topology == "torus")
        .expect("torus cell present");
    let identical = crate::fleet::csv_for(&[crate::fleet::run_cell(rerun_cell)])
        == crate::fleet::csv_for(&[crate::fleet::run_cell(rerun_cell)]);
    checks.push(rel(
        "fleet rerun byte-identity (torus cell)",
        if identical { 1.0 } else { 0.0 },
        1.0,
        0.0,
    ));

    // Saturation (ours): remote COR fault service under offered load.
    // The gate runs the quick slice and pins (a) the closed-loop service
    // time against the paper's §4.3.3 fault cost, (b) an unsaturated
    // server keeping up with offered load, (c) the p99 fattening
    // monotonically past the knee, (d) batching+coalescing lifting
    // saturated throughput by the advertised margin, and (e) coalescing
    // actually firing (and shedding bytes) on the relayed hot set.
    let sat = crate::saturation::saturation_outcomes_for(
        crate::saturation::gate_cells(),
        &matrix.pool(),
    );
    let sat_cell = |label: &str, optimized: bool| {
        sat.iter()
            .find(|o| o.spec.optimized == optimized && o.spec.label() == label)
            .expect("gate cell present")
    };
    checks.push(bound(
        "saturation closed-loop p50 ms (paper ~115)",
        sat_cell("closed-scan", false).p50_us as f64 / 1_000.0,
        90.0,
        130.0,
    ));
    let low = sat_cell("open-scan@4", false);
    checks.push(bound(
        "saturation low-load tracking (achieved/offered)",
        low.achieved_fps / low.offered_fps,
        0.95,
        1.05,
    ));
    checks.push(bound(
        "saturation p99 fattens past the knee (ratio)",
        sat_cell("open-scan@26", false).p99_us as f64 / low.p99_us.max(1) as f64,
        1.0,
        1e6,
    ));
    checks.push(bound(
        "saturation batched peak throughput lift (≥1.15)",
        sat_cell("open-scan@26", true).achieved_fps / sat_cell("open-scan@26", false).achieved_fps,
        1.15,
        5.0,
    ));
    let hot_base = sat_cell("open-hot-relay@12", false);
    let hot_opt = sat_cell("open-hot-relay@12", true);
    let coalesce_ok = hot_opt.coalesced > 0
        && hot_base.coalesced == 0
        && hot_opt.wire_bytes < hot_base.wire_bytes
        && hot_opt.served == hot_base.served;
    checks.push(rel(
        "saturation relay coalescing fires and sheds bytes",
        if coalesce_ok { 1.0 } else { 0.0 },
        1.0,
        0.0,
    ));

    // Profiler (ours): exact latency blame attribution. On the fixed
    // blame cell the gate asserts (a) every span's blame buckets sum to
    // its duration exactly (integer virtual time, no residue), (b) no
    // critical path exceeds its root's duration, (c) wire transit is
    // actually billed (a profiler that attributes everything to
    // local-service is lying), and (d) the flamegraph's folded stacks
    // conserve the profiled total.
    let (_, prof, _) = crate::fleet::run_cell_profiled(crate::fleet::blame_cell_spec());
    checks.push(rel(
        "profiler blame sums exactly to span durations",
        if prof.sums_exactly() { 1.0 } else { 0.0 },
        1.0,
        0.0,
    ));
    let cp_ok = prof
        .roots()
        .all(|r| prof.critical_path(r).total_us <= prof.spans()[r].dur_us());
    checks.push(rel(
        "profiler critical paths bounded by root durations",
        if cp_ok { 1.0 } else { 0.0 },
        1.0,
        0.0,
    ));
    let wire_us = prof.total_blame()[cor_trace::BlameBucket::WireTransit.index()];
    checks.push(bound(
        "profiler wire-transit blame billed (fraction of total)",
        wire_us as f64 / prof.total_us().max(1) as f64,
        0.01,
        0.99,
    ));
    let folded_total: u64 = prof
        .folded()
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse::<u64>().unwrap_or(0))
        .sum();
    checks.push(rel(
        "profiler flamegraph conserves the profiled total",
        folded_total as f64,
        prof.total_us() as f64,
        0.0,
    ));

    checks
}

/// Renders checks and returns `true` when everything passed.
pub fn render(checks: &[Check]) -> (String, bool) {
    let mut out = String::from("Reproduction gate: paper-vs-measured checks\n\n");
    let mut all_pass = true;
    for c in checks {
        all_pass &= c.pass;
        out.push_str(&format!(
            "  [{}] {:<48} measured {:>9.3} vs expected {:>9.3} (tol {:.0}%)\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.label,
            c.measured,
            c.expected,
            c.tolerance * 100.0
        ));
    }
    out.push_str(&format!(
        "\n{} of {} checks passed\n",
        checks.iter().filter(|c| c.pass).count(),
        checks.len()
    ));
    (out, all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_and_bound_logic() {
        assert!(rel("x", 10.0, 10.0, 0.0).pass);
        assert!(rel("x", 11.0, 10.0, 0.15).pass);
        assert!(!rel("x", 12.0, 10.0, 0.15).pass);
        assert!(rel("zero", 0.0, 0.0, 0.1).pass);
        assert!(bound("b", 5.0, 1.0, 10.0).pass);
        assert!(!bound("b", 11.0, 1.0, 10.0).pass);
    }

    #[test]
    fn minprog_slice_of_the_gate_passes() {
        // The full gate runs in `experiments check`; here just the cheap
        // Minprog-only subset proves the plumbing.
        let workloads = vec![cor_workloads::minprog::workload()];
        let mut m = Matrix::new();
        let checks = run_checks(&mut m, &workloads);
        let (rendered, _all) = render(&checks);
        assert!(rendered.contains("Minprog"));
        // Aggregate checks (spread, fleet averages) are meaningless on a
        // one-workload slice; every per-workload check must pass.
        let failed: Vec<&Check> = checks.iter().filter(|c| !c.pass).collect();
        assert!(
            failed
                .iter()
                .all(|c| c.label.contains("spread") || c.label.contains("average")),
            "per-workload checks must pass on a slice: {failed:?}"
        );
    }
}
