//! The reproduction gate: every quantitative claim, stated once.
//!
//! `experiments check` runs the full matrix and holds each reproduced
//! quantity to an accepted interval, printing one row per [`Claim`] — the
//! paper's value (when the paper prints one) beside the measured value —
//! and failing the process if anything drifted. This is the regression
//! suite for the *reproduction itself* — the unit tests guard the code;
//! this guards the science. No test restates a claim checked here; the
//! calibration tests of `cor-net` and `cor-kernel` pin the constants the
//! claims rest on, so a drift fails at the layer that broke.

use std::ops::RangeInclusive;

use cor_migrate::Strategy;
use cor_workloads::Workload;

use crate::runner::Matrix;

const COPY: Strategy = Strategy::PureCopy;
const IOU: Strategy = Strategy::PureIou { prefetch: 0 };
const RS: Strategy = Strategy::ResidentSet { prefetch: 0 };

/// One claim: a measured quantity and the interval it must land in.
///
/// The interval is inclusive; an infinite bound leaves that side open,
/// and a strict bound is the adjacent float (`1.0f64.next_up()` for
/// "more than 1"). A pass/fail claim measures 1 or 0 against `= 1`.
#[derive(Debug)]
pub struct Claim {
    /// What is claimed.
    pub label: String,
    /// The paper's value, or `None` for a claim of ours.
    pub paper: Option<f64>,
    /// The measured value.
    pub measured: f64,
    /// The lowest accepted value.
    pub lo: f64,
    /// The highest accepted value.
    pub hi: f64,
    /// Whether `lo <= measured <= hi`.
    pub pass: bool,
}

impl Claim {
    fn new(
        label: impl Into<String>,
        paper: Option<f64>,
        measured: f64,
        accepted: RangeInclusive<f64>,
    ) -> Self {
        Claim {
            label: label.into(),
            paper,
            measured,
            pass: accepted.contains(&measured),
            lo: *accepted.start(),
            hi: *accepted.end(),
        }
    }

    /// The accepted interval as printed: `= v`, `≥ lo`, `≤ hi` or
    /// `[lo, hi]`; a strict one-sided bound prints as `> v` or `< v`.
    fn interval(&self) -> String {
        let (lo, hi) = (self.lo, self.hi);
        // A bound one float past a value of at most three decimals
        // excludes that value.
        let at3 = |x: f64| (x * 1e3).round() / 1e3;
        if lo == hi {
            format!("= {lo:.3}")
        } else if hi == f64::INFINITY && lo == at3(lo).next_up() {
            format!("> {:.3}", at3(lo))
        } else if hi == f64::INFINITY {
            format!("≥ {lo:.3}")
        } else if lo == f64::NEG_INFINITY && hi == at3(hi).next_down() {
            format!("< {:.3}", at3(hi))
        } else if lo == f64::NEG_INFINITY {
            format!("≤ {hi:.3}")
        } else {
            format!("[{lo:.3}, {hi:.3}]")
        }
    }
}

/// 1 when `ok`, 0 otherwise: the measured value of a pass/fail claim.
fn flag(ok: bool) -> f64 {
    f64::from(u8::from(ok))
}

/// Largest over smallest.
fn spread(v: &[f64]) -> f64 {
    v.iter().cloned().fold(0.0f64, f64::max) / v.iter().cloned().fold(f64::MAX, f64::min)
}

/// Runs every reproduction check. Table 4-1/4-2 quantities are exact by
/// construction (asserted in unit tests), so the gate focuses on the
/// *measured* dynamics: utilizations, timings, savings, and the claims of
/// §4.3–§4.5.
pub fn run_checks(matrix: &mut Matrix, workloads: &[Workload]) -> Vec<Claim> {
    // Every strategy the gate consults for every workload, computed up
    // front so missing cells fan out across the matrix's pool.
    matrix.prefill(
        workloads,
        &[COPY, IOU, Strategy::PureIou { prefetch: 1 }, RS],
    );
    let named = |name: &str| workloads.iter().find(|w| w.name() == name);
    let mut checks = Vec::new();

    // Table 4-3: remote utilization, per representative (±2% of Real).
    for w in workloads {
        if let Some(paper) = w.paper.iou_pct_real {
            let t = matrix.trial(w, IOU);
            let measured = 100.0 * t.touched_real_pages as f64 / t.real_pages as f64;
            checks.push(Claim::new(
                format!("table4-3 {} IOU %Real", w.name()),
                Some(paper),
                measured,
                paper * 0.98..=paper * 1.02,
            ));
        }
    }

    // Table 4-4 / §4.3.1: excision totals within 35%; excision and
    // insertion vary by small factors while the spaces vary by four
    // orders of magnitude.
    let mut excises = Vec::new();
    let mut inserts = Vec::new();
    for w in workloads {
        let timings = matrix.trial(w, IOU).migration.timings;
        let measured = timings.excise_total.as_secs_f64();
        excises.push(measured);
        inserts.push(timings.insert_total.as_secs_f64());
        let paper = w.paper.excise_total_s;
        checks.push(Claim::new(
            format!("table4-4 {} excise overall (s)", w.name()),
            Some(paper),
            measured,
            paper * 0.65..=paper * 1.35,
        ));
    }
    checks.push(Claim::new(
        "table4-4 excise spread (max/min)",
        Some(4.0),
        spread(&excises),
        2.0..=6.0,
    ));
    checks.push(Claim::new(
        "§4.3.1 insert spread (max/min)",
        Some(3.3),
        spread(&inserts),
        f64::NEG_INFINITY..=5.0f64.next_down(),
    ));

    // Table 4-5: RS and Copy transfers within 25%; IOU stays sub-second.
    let xfer = |m: &mut Matrix, w: &Workload, s| {
        m.trial(w, s).migration.timings.rimas_transfer.as_secs_f64()
    };
    let (mut copies, mut ious) = (Vec::new(), Vec::new());
    let mut ordered = true;
    for w in workloads {
        let (copy, rs, iou) = (
            xfer(matrix, w, COPY),
            xfer(matrix, w, RS),
            xfer(matrix, w, IOU),
        );
        copies.push(copy);
        ious.push(iou);
        ordered &= iou < rs && rs < copy;
        for (kind, measured, paper) in [
            ("copy", copy, w.paper.xfer_copy_s),
            ("RS", rs, w.paper.xfer_rs_s),
        ] {
            checks.push(Claim::new(
                format!("table4-5 {} {kind} transfer (s)", w.name()),
                Some(paper),
                measured,
                paper * 0.75..=paper * 1.25,
            ));
        }
        checks.push(Claim::new(
            format!("table4-5 {} IOU transfer sub-second", w.name()),
            Some(w.paper.xfer_iou_s),
            iou,
            0.0..=0.5,
        ));
    }
    checks.push(Claim::new(
        "table4-5 transfer time IOU < RS < Copy, every process",
        None,
        flag(ordered),
        1.0..=1.0,
    ));

    // §4.3.2: IOU transfer times cluster while copy times vary by a
    // factor of ~20, and the extreme copy/IOU ratio is ~1000x.
    checks.push(Claim::new(
        "§4.3.2 IOU transfer spread (max/min)",
        None,
        spread(&ious),
        f64::NEG_INFINITY..=5.0f64.next_down(),
    ));
    checks.push(Claim::new(
        "§4.3.2 copy transfer spread (max/min)",
        Some(20.0),
        spread(&copies),
        10.0..=25.0f64.next_down(),
    ));
    if let Some(w) = named("Lisp-Del") {
        checks.push(Claim::new(
            "§4.3.2 Lisp-Del copy/IOU transfer ratio",
            Some(1000.0),
            xfer(matrix, w, COPY) / xfer(matrix, w, IOU),
            500.0..=1500.0,
        ));
    }

    // §4.3.3: longevity hides fault costs (Chess) and brevity exposes
    // them (Minprog); the two fault-service constants behind both.
    let exec = |m: &mut Matrix, w: &Workload, s| m.trial(w, s).exec_elapsed.as_secs_f64();
    if let Some(chess) = named("Chess") {
        let (copy, iou) = (exec(matrix, chess, COPY), exec(matrix, chess, IOU));
        checks.push(Claim::new(
            "§4.3.3 Chess IOU exec penalty %",
            Some(3.0),
            100.0 * (iou - copy) / copy,
            0.0..=8.0,
        ));
    }
    if let Some(minprog) = named("Minprog") {
        checks.push(Claim::new(
            "§4.3.3 Minprog IOU slowdown factor",
            Some(44.0),
            exec(matrix, minprog, IOU) / exec(matrix, minprog, COPY),
            20.0..=80.0,
        ));
    }
    let (disk_fault, imag_fault) = crate::summary::fault_constants();
    checks.push(Claim::new(
        "§4.3.3 local disk fault (ms)",
        Some(40.8),
        disk_fault * 1e3,
        40.75..=40.85,
    ));
    checks.push(Claim::new(
        "§4.3.3 remote imaginary fault (ms)",
        Some(115.0),
        imag_fault * 1e3,
        100.0..=130.0,
    ));
    checks.push(Claim::new(
        "§4.3.3 imaginary/disk fault ratio",
        Some(2.8),
        imag_fault / disk_fault,
        2.4..=3.2,
    ));

    // §4.3.4: one page of prefetch never hurts end-to-end; deeper
    // prefetch keeps helping sequential Pasmac and hurts non-local Lisp.
    for w in workloads {
        let pf0 = matrix.trial(w, IOU).end_to_end().as_secs_f64();
        let pf1 = matrix
            .trial(w, Strategy::PureIou { prefetch: 1 })
            .end_to_end()
            .as_secs_f64();
        checks.push(Claim::new(
            format!("§4.3.4 {} prefetch-1 never hurts (ratio)", w.name()),
            None,
            pf1 / pf0,
            f64::NEG_INFINITY..=1.0,
        ));
    }
    let deep = |m: &mut Matrix, w: &Workload| {
        exec(m, w, Strategy::PureIou { prefetch: 15 }) / exec(m, w, IOU)
    };
    if let Some(w) = named("PM-Start") {
        checks.push(Claim::new(
            "§4.3.4 PM-Start exec pf15/pf0",
            None,
            deep(matrix, w),
            f64::NEG_INFINITY..=0.75f64.next_down(),
        ));
    }
    if let Some(w) = named("Lisp-T") {
        checks.push(Claim::new(
            "§4.3.4 Lisp-T exec pf15/pf0",
            None,
            deep(matrix, w),
            1.0f64.next_up()..=f64::INFINITY,
        ));
    }

    // §4.4 aggregates: pure-IOU cuts bytes and message time in every
    // case; resident sets ship more than IOU, except that Lisp-Del's is
    // ~90% re-referenced (Table 4-3: RS 17.4% vs IOU 16.5%), so shipping
    // it up front genuinely replaces per-fault traffic.
    let mut byte_savings = Vec::new();
    let mut msg_savings = Vec::new();
    let mut rs_ships_more = true;
    for w in workloads {
        let (copy, iou) = (matrix.trial(w, COPY).clone(), matrix.trial(w, IOU).clone());
        byte_savings.push(100.0 * (1.0 - iou.total_bytes as f64 / copy.total_bytes as f64));
        msg_savings.push(100.0 * (1.0 - iou.msg_cpu.as_secs_f64() / copy.msg_cpu.as_secs_f64()));
        let rs = matrix.trial(w, RS).total_bytes;
        rs_ships_more &= if w.name() == "Lisp-Del" {
            rs > iou.total_bytes * 8 / 10
        } else {
            rs > iou.total_bytes
        };
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let min = |v: &[f64]| v.iter().cloned().fold(f64::MAX, f64::min);
    checks.push(Claim::new(
        "§4.4.1 average byte savings %",
        Some(58.2),
        avg(&byte_savings),
        45.0..=70.0,
    ));
    checks.push(Claim::new(
        "§4.4.2 average message savings %",
        Some(47.8),
        avg(&msg_savings),
        40.0..=65.0,
    ));
    checks.push(Claim::new(
        "§4.4 IOU saves bytes in every case (min %)",
        None,
        min(&byte_savings),
        0.0f64.next_up()..=f64::INFINITY,
    ));
    checks.push(Claim::new(
        "§4.4 IOU saves message time in every case (min %)",
        None,
        min(&msg_savings),
        0.0f64.next_up()..=f64::INFINITY,
    ));
    checks.push(Claim::new(
        "§4.4 RS ships more bytes than IOU (Lisp-Del: 0.8x)",
        None,
        flag(rs_ships_more),
        1.0..=1.0,
    ));

    // Survivability (ours): the crash sweep's headline claims. §4.4
    // concedes residual dependencies kill migrated processes with their
    // source; the sweep must show (a) pure-copy is immune, (b) fast
    // draining makes the lazy strategies immune too, (c) no draining
    // actually loses something (the hazard is real), and (d) every
    // survivor is byte-identical to the blueprint's expected memory.
    let outcomes = crate::survivability::survival_outcomes(workloads, &matrix.pool());
    let pct = |num: usize, den: usize| 100.0 * num as f64 / den.max(1) as f64;
    let copy: Vec<_> = outcomes
        .iter()
        .filter(|o| matches!(o.strategy, Strategy::PureCopy))
        .collect();
    checks.push(Claim::new(
        "survivability pure-copy survival %",
        None,
        pct(copy.iter().filter(|o| o.survived).count(), copy.len()),
        100.0..=100.0,
    ));
    let fast: Vec<_> = outcomes.iter().filter(|o| o.drain == Some(64)).collect();
    checks.push(Claim::new(
        "survivability drain-64 survival %",
        None,
        pct(fast.iter().filter(|o| o.survived).count(), fast.len()),
        100.0..=100.0,
    ));
    let undrained_orphans = outcomes
        .iter()
        .filter(|o| o.drain == Some(0) && !o.survived)
        .count();
    checks.push(Claim::new(
        "survivability no-drain orphan count",
        None,
        undrained_orphans as f64,
        1.0..=outcomes.len() as f64,
    ));
    let survivors: Vec<_> = outcomes.iter().filter(|o| o.survived).collect();
    checks.push(Claim::new(
        "survivability survivor byte-identity %",
        None,
        pct(
            survivors.iter().filter(|o| o.checksum_match).count(),
            survivors.len(),
        ),
        100.0..=100.0,
    ));

    // Replication (ours): replicated page homes with replica
    // failover. The gate asserts (a) any factor >= 1 survives every
    // single-node crash with no orphans, (b) the unreplicated baseline
    // still orphans (the hazard is real), (c) every survivor is
    // byte-identical to the blueprint's expected memory, (d) the
    // write-through wire overhead grows with the factor, and (e) failover
    // fetches actually fired and their latency registered on the clock.
    let repl = crate::replication::replication_outcomes(workloads, &matrix.pool());
    let replicated: Vec<_> = repl.iter().filter(|o| o.replication.factor >= 1).collect();
    checks.push(Claim::new(
        "replication f>=1 survival %",
        None,
        pct(
            replicated.iter().filter(|o| o.survived).count(),
            replicated.len(),
        ),
        100.0..=100.0,
    ));
    let baseline_orphans = repl.iter().filter(|o| o.replication.factor == 0 && !o.survived).count();
    checks.push(Claim::new(
        "replication f=0 orphan count",
        None,
        baseline_orphans as f64,
        1.0..=repl.len() as f64,
    ));
    let repl_survivors: Vec<_> = repl.iter().filter(|o| o.survived).collect();
    checks.push(Claim::new(
        "replication survivor byte-identity %",
        None,
        pct(
            repl_survivors.iter().filter(|o| o.checksum_match).count(),
            repl_survivors.len(),
        ),
        100.0..=100.0,
    ));
    let repl_bytes = |f: u64| -> f64 {
        repl.iter()
            .filter(|o| o.replication.factor == f)
            .map(|o| o.replicate_bytes)
            .sum::<u64>() as f64
    };
    checks.push(Claim::new(
        "replication overhead grows with factor (f2/f1)",
        None,
        repl_bytes(2) / repl_bytes(1).max(1.0),
        1.0f64.next_up()..=4.0,
    ));
    let failover_ok = repl
        .iter()
        .any(|o| o.failover_pages > 0 && o.failover_time > cor_sim::SimDuration::ZERO);
    checks.push(Claim::new(
        "replication failover fires with measured latency",
        None,
        flag(failover_ok),
        1.0..=1.0,
    ));

    // Fleet (ours): migration storms on routed N-node fabrics. The gate
    // runs the 16-node slice and asserts (a) storms drain cleanly with no
    // orphans, (b) multi-hop routing bills every traversed link, (c) the
    // topology-aware policy never routes longer than the topology-blind
    // one, (d) the fault-latency tail is sane, and (e) a rerun of a cell
    // is byte-identical.
    let fleet = crate::fleet::STUDY.run(workloads, &matrix.pool(), crate::fleet::gate_cells());
    checks.push(Claim::new(
        "fleet storm survival % (no orphans)",
        None,
        pct(
            fleet
                .iter()
                .filter(|o| o.survived == o.migrations && o.drain_residents_after == 0)
                .count(),
            fleet.len(),
        ),
        100.0..=100.0,
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
    checks.push(Claim::new(
        "fleet torus link-byte conservation (rr link/wire)",
        None,
        link_ratio,
        1.0f64.next_up()..=4.0,
    ));
    let hops_of = |placement: &str| {
        torus
            .iter()
            .find(|o| o.spec.placement == placement)
            .expect("torus cell present")
            .mean_hops
    };
    checks.push(Claim::new(
        "fleet locality vs round-robin hops (torus, ratio)",
        None,
        hops_of("locality") / hops_of("round-robin"),
        0.0..=1.0,
    ));
    let tail_ok = fleet
        .iter()
        .filter(|o| o.faults > 0 && o.fault_p50_us > 0 && o.fault_p99_us >= o.fault_p50_us)
        .count();
    checks.push(Claim::new(
        "fleet fault-latency tail sanity % (p99 ≥ p50 > 0)",
        None,
        pct(tail_ok, fleet.len()),
        100.0..=100.0,
    ));
    let rerun_cell = *crate::fleet::gate_cells()
        .iter()
        .find(|c| c.topology == "torus")
        .expect("torus cell present");
    let identical = crate::fleet::csv_for(&[crate::fleet::run_cell(rerun_cell)])
        == crate::fleet::csv_for(&[crate::fleet::run_cell(rerun_cell)]);
    checks.push(Claim::new(
        "fleet rerun byte-identity (torus cell)",
        None,
        flag(identical),
        1.0..=1.0,
    ));

    // Saturation (ours): remote COR fault service under offered load.
    // The gate runs the quick slice and pins (a) the closed-loop service
    // time against the paper's §4.3.3 fault cost, (b) an unsaturated
    // server keeping up with offered load, (c) the p99 fattening
    // monotonically past the knee, (d) batching+coalescing lifting
    // saturated throughput by the advertised margin, and (e) coalescing
    // actually firing (and shedding bytes) on the relayed hot set.
    let sat = crate::saturation::STUDY.run(
        workloads,
        &matrix.pool(),
        crate::saturation::gate_cells(),
    );
    let sat_cell = |label: &str, optimized: bool| {
        sat.iter()
            .find(|o| o.spec.optimized == optimized && o.spec.label() == label)
            .expect("gate cell present")
    };
    checks.push(Claim::new(
        "saturation closed-loop p50 ms",
        Some(115.0),
        sat_cell("closed-scan", false).p50_us as f64 / 1_000.0,
        90.0..=130.0,
    ));
    let low = sat_cell("open-scan@4", false);
    checks.push(Claim::new(
        "saturation low-load tracking (achieved/offered)",
        None,
        low.achieved_fps / low.offered_fps,
        0.95..=1.05,
    ));
    checks.push(Claim::new(
        "saturation p99 fattens past the knee (ratio)",
        None,
        sat_cell("open-scan@26", false).p99_us as f64 / low.p99_us.max(1) as f64,
        1.0..=1e6,
    ));
    checks.push(Claim::new(
        "saturation batched peak throughput lift",
        None,
        sat_cell("open-scan@26", true).achieved_fps / sat_cell("open-scan@26", false).achieved_fps,
        1.15..=5.0,
    ));
    let hot_base = sat_cell("open-hot-relay@12", false);
    let hot_opt = sat_cell("open-hot-relay@12", true);
    let coalesce_ok = hot_opt.coalesced > 0
        && hot_base.coalesced == 0
        && hot_opt.wire_bytes < hot_base.wire_bytes
        && hot_opt.served == hot_base.served;
    checks.push(Claim::new(
        "saturation relay coalescing fires and sheds bytes",
        None,
        flag(coalesce_ok),
        1.0..=1.0,
    ));

    // Profiler (ours): exact latency blame attribution. On the fixed
    // blame cell the gate asserts (a) every span's blame buckets sum to
    // its duration exactly (integer virtual time, no residue), (b) no
    // critical path exceeds its root's duration, (c) wire transit is
    // actually billed (a profiler that attributes everything to
    // local-service is lying), and (d) the flamegraph's folded stacks
    // conserve the profiled total.
    let (_, prof, _) = crate::fleet::run_cell_profiled(crate::fleet::blame_cell_spec());
    checks.push(Claim::new(
        "profiler blame sums exactly to span durations",
        None,
        flag(prof.sums_exactly()),
        1.0..=1.0,
    ));
    let cp_ok = prof
        .roots()
        .all(|r| prof.critical_path(r).total_us <= prof.spans()[r].dur_us());
    checks.push(Claim::new(
        "profiler critical paths bounded by root durations",
        None,
        flag(cp_ok),
        1.0..=1.0,
    ));
    let wire_us = prof.total_blame()[cor_trace::BlameBucket::WireTransit.index()];
    checks.push(Claim::new(
        "profiler wire-transit blame billed (fraction of total)",
        None,
        wire_us as f64 / prof.total_us().max(1) as f64,
        0.01..=0.99,
    ));
    let folded_total: u64 = prof
        .folded()
        .lines()
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(_, v)| v.parse::<u64>().unwrap_or(0))
        .sum();
    let total = prof.total_us() as f64;
    checks.push(Claim::new(
        "profiler flamegraph conserves the profiled total",
        None,
        folded_total as f64,
        total..=total,
    ));

    checks
}

/// Renders the claims, one row each — verdict, claim, the paper's value,
/// the measured value and the accepted interval — and returns `true` when
/// every claim passed.
pub fn render(checks: &[Claim]) -> (String, bool) {
    let width = checks
        .iter()
        .map(|c| c.label.chars().count())
        .max()
        .unwrap_or(0);
    let mut out = String::from("Reproduction gate: paper-vs-measured checks\n\n");
    for c in checks {
        let paper = c.paper.map_or("ours".to_string(), |p| format!("{p:.3}"));
        out.push_str(&format!(
            "  [{}] {:<width$}  paper {paper:>9}  measured {:>12.3}  {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.label,
            c.measured,
            c.interval(),
        ));
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    out.push_str(&format!("\n{passed} of {} checks passed\n", checks.len()));
    (out, passed == checks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_passes_exactly_on_its_closed_interval() {
        let inf = f64::INFINITY;
        let holds = |measured, lo, hi| Claim::new("x", None, measured, lo..=hi).pass;
        // Exact.
        assert!(holds(1.0, 1.0, 1.0));
        assert!(!holds(0.0, 1.0, 1.0));
        // One-sided, both ways; a strict bound is the adjacent float.
        assert!(holds(5.0, f64::NEG_INFINITY, 5.0) && !holds(5.0f64.next_up(), -inf, 5.0));
        assert!(holds(0.0, 0.0, inf) && !holds(0.0, 0.0f64.next_up(), inf));
        assert!(holds(1e300, 0.0, inf));
        // Two-sided: both edges belong to the interval.
        assert!(holds(20.0, 20.0, 80.0) && holds(80.0, 20.0, 80.0));
        assert!(!holds(19.999, 20.0, 80.0) && !holds(80.001, 20.0, 80.0));
    }

    #[test]
    fn each_interval_kind_renders_and_one_failing_claim_fails_the_render() {
        let inf = f64::INFINITY;
        let claims = [
            Claim::new("exact", None, 1.0, 1.0..=1.0),
            Claim::new("at least", Some(2.8), 3.0, 0.5..=inf),
            Claim::new("at most", None, 0.25, -inf..=0.75),
            Claim::new("between", Some(44.0), 64.267, 20.0..=80.0),
            Claim::new("failing", None, 0.0, 1.0..=1.0),
        ];
        let (out, all) = render(&claims);
        assert!(!all);
        let rows: Vec<&str> = out.lines().filter(|l| l.starts_with("  [")).collect();
        assert_eq!(
            rows,
            [
                "  [PASS] exact     paper      ours  measured        1.000  = 1.000",
                "  [PASS] at least  paper     2.800  measured        3.000  ≥ 0.500",
                "  [PASS] at most   paper      ours  measured        0.250  ≤ 0.750",
                "  [PASS] between   paper    44.000  measured       64.267  [20.000, 80.000]",
                "  [FAIL] failing   paper      ours  measured        0.000  = 1.000",
            ]
        );
        assert!(out.ends_with("\n4 of 5 checks passed\n"), "{out}");
        // A strict one-sided bound prints as the value it excludes; a
        // two-sided interval prints closed.
        let interval = |lo, hi| Claim::new("x", None, 2.0, lo..=hi).interval();
        assert_eq!(interval(0.0f64.next_up(), inf), "> 0.000");
        assert_eq!(interval(-inf, 5.0f64.next_down()), "< 5.000");
        assert_eq!(interval(1.0f64.next_up(), 4.0), "[1.000, 4.000]");
        assert_eq!(interval(28.1 * 0.75, 28.1 * 1.25), "[21.075, 35.125]");
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
        // Aggregate checks (spreads, averages) are meaningless on a
        // one-workload slice: a spread is 1 and an average is Minprog's
        // own value. Every other check must pass.
        let failed: Vec<&Claim> = checks.iter().filter(|c| !c.pass).collect();
        assert!(
            failed
                .iter()
                .all(|c| c.label.contains("spread") || c.label.contains("average")),
            "per-workload checks must pass on a slice: {failed:?}"
        );
    }
}
