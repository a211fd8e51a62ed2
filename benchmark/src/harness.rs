//! Set-up, counted passes, timed rounds and the traced run of one workload.

use std::collections::BTreeMap;
use std::time::Instant;

use cor_experiments::check;
use cor_experiments::runner::Matrix;

use crate::alloc::{self, Counts};
use crate::metrics::{self, Kind, TRACE_OVERHEAD};
use crate::redrive::{self, Extras, CHECK, PHASES};
use crate::spans::{self, PhaseTotal, SpanRec, Tracer};
use crate::stats::{round_min, Estimate};
use crate::workloads::{Spec, Summary, Workload};

/// What the command line fixes for a whole invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Feeds every input the benchmark generates itself.
    pub seed: u64,
    /// Nominal measuring time per workload; scales passes per round.
    pub seconds: u64,
    /// Smoke mode: 2 rounds of 1 pass, 1 set-up, ladder skipped.
    pub quick: bool,
}

/// `--seconds` the per-round pass counts are sized for.
pub const REFERENCE_SECONDS: u64 = 15;

impl Config {
    /// Timed rounds per workload.
    pub fn rounds(&self) -> usize {
        if self.quick {
            2
        } else {
            12
        }
    }

    /// Passes run back to back in one round. Fixed by `--seconds`, never by
    /// how fast the code under test happens to be.
    pub fn passes_per_round(&self, spec: &Spec) -> u64 {
        if self.quick {
            return 1;
        }
        let scaled = spec.passes_per_round * self.seconds + REFERENCE_SECONDS / 2;
        (scaled / REFERENCE_SECONDS).max(1)
    }

    /// Times set-up is repeated; `setup_s` is the median. The first
    /// repetition precedes the rounds, the others are spread evenly between
    /// them, so set-up sees the same stretch of host weather as the passes
    /// instead of only the first seconds of the process.
    pub fn setup_reps(&self, spec: &Spec) -> usize {
        if self.quick {
            1
        } else {
            spec.setup_reps
        }
    }

    /// Untraced/traced pass pairs in the traced run.
    pub fn traced_pairs(&self, spec: &Spec) -> usize {
        if self.quick {
            1
        } else {
            spec.traced_pairs
        }
    }
}

/// A workload that has been set up: inputs generated, caches warm, checked.
pub struct Ready {
    pub spec: &'static Spec,
    pub workload: Workload,
    /// The second warm-up pass; every later pass must reproduce it.
    pub reference: Summary,
    /// Set-up checks evaluated / failed.
    pub checks: u64,
    pub failed: u64,
    /// Human-readable check tallies, e.g. `72/72 paper checks`.
    pub notes: Vec<String>,
}

/// Generates inputs, runs two warm-up passes and the workload's checks.
pub fn set_up(spec: &'static Spec, seed: u64) -> Ready {
    let workload = Workload::generate(spec.name, seed);
    let first = workload.summarise(&workload.run().1);
    let reference = workload.summarise(&workload.run().1);
    let mut checks = 1 + reference.checks;
    let mut failed = u64::from(first != reference) + reference.checks_failed;
    let mut notes = Vec::new();
    if reference.checks > 0 {
        notes.push(format!(
            "{}/{} outcome checks",
            reference.checks - reference.checks_failed,
            reference.checks
        ));
    }
    if let Workload::PaperMatrix(workloads) = &workload {
        let results = check::run_checks(&mut Matrix::new(), workloads);
        let passed = results.iter().filter(|c| c.pass).count();
        checks += results.len() as u64;
        failed += (results.len() - passed) as u64;
        notes.push(format!("{passed}/{} paper checks", results.len()));
    }
    Ready {
        spec,
        workload,
        reference,
        checks,
        failed,
        notes,
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub est: Estimate,
    /// `unstable` (counted passes disagree).
    pub flags: Vec<&'static str>,
}

impl Metric {
    /// A metric that is one exact reading, not a sample.
    pub fn exact(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            est: Estimate::exact(value),
            flags: Vec::new(),
        }
    }
}

/// The untraced measurement of one workload, built up round by round so
/// rounds of several workloads can be interleaved.
pub struct Measurement {
    pub ready: Ready,
    cfg: Config,
    setup_s: Vec<f64>,
    counted: [Counts; 2],
    round_mins: Vec<f64>,
    /// Operations attempted / failed so far (set-up checks included).
    pub attempted: u64,
    pub failed: u64,
}

impl Measurement {
    /// Sets the workload up and runs the two counted passes.
    pub fn prepare(spec: &'static Spec, cfg: &Config) -> Measurement {
        let start = Instant::now();
        let ready = set_up(spec, cfg.seed);
        let setup_s = vec![start.elapsed().as_secs_f64()];
        let counted = [(); 2].map(|()| {
            alloc::arm();
            let (_, raw) = ready.workload.run();
            let counts = alloc::disarm();
            drop(raw);
            counts
        });
        Measurement {
            attempted: ready.checks,
            failed: ready.failed,
            ready,
            cfg: *cfg,
            setup_s,
            counted,
            round_mins: Vec::new(),
        }
    }

    /// Passes per round in this run.
    pub fn passes_per_round(&self) -> u64 {
        self.cfg.passes_per_round(self.ready.spec)
    }

    /// One round: `passes_per_round` passes back to back, fastest kept.
    /// Every pass must reproduce the warm-up's outputs.
    pub fn round(&mut self) {
        let mut passes = Vec::new();
        for _ in 0..self.passes_per_round() {
            let (ms, raw) = self.ready.workload.run();
            passes.push(ms);
            let summary = self.ready.workload.summarise(&raw);
            drop(raw);
            self.tally(&summary);
        }
        self.round_mins.push(round_min(&passes));
        // This round's share of the remaining set-up repetitions.
        let extra = self.cfg.setup_reps(self.ready.spec) - 1;
        let due = 1 + extra * self.round_mins.len() / self.cfg.rounds();
        while self.setup_s.len() < due {
            let start = Instant::now();
            let again = set_up(self.ready.spec, self.cfg.seed);
            self.setup_s.push(start.elapsed().as_secs_f64());
            drop(again);
        }
    }

    /// Counts a pass's operations; a pass that fails any check (or drifts
    /// from the reference outputs) counts all of them failed.
    fn tally(&mut self, summary: &Summary) {
        let ops = summary.operations();
        self.attempted += ops;
        if summary.checks_failed > 0 || *summary != self.ready.reference {
            self.failed += ops;
        }
    }

    /// The end-to-end metrics defined on this workload, in catalogue order.
    pub fn metrics(&self) -> Vec<Metric> {
        let name = self.ready.spec.name;
        let reference = &self.ready.reference;
        let faults = reference.faults as f64;
        let pass = Estimate::of(self.round_mins.clone());
        let heap = |f: &dyn Fn(&Counts) -> f64| {
            let (a, b) = (f(&self.counted[0]), f(&self.counted[1]));
            let flags = if alloc::unstable(a, b) {
                vec!["unstable"]
            } else {
                Vec::new()
            };
            (Estimate::of(vec![a, b]), flags)
        };
        let mut out = Vec::new();
        for def in metrics::END_TO_END.iter().filter(|m| m.defined_on(name)) {
            let (est, flags) = match def.name {
                "setup_s" => (Estimate::of(self.setup_s.clone()), Vec::new()),
                "pass_ms" => (pass.clone(), Vec::new()),
                "host_us_per_fault" => (pass.scaled(1e3 / faults), Vec::new()),
                "allocs_per_fault" => heap(&|c| c.allocs as f64 / faults),
                "peak_heap_mb" => heap(&|c| c.peak_live_bytes as f64 / (1 << 20) as f64),
                "failed_share" => (
                    Estimate::exact(self.failed as f64 / self.attempted as f64),
                    Vec::new(),
                ),
                model => {
                    debug_assert_eq!(def.kind, Kind::Exact);
                    let value = reference
                        .model
                        .iter()
                        .find(|(n, _)| *n == model)
                        .unwrap_or_else(|| panic!("{name} does not produce {model}"))
                        .1;
                    (Estimate::exact(value), Vec::new())
                }
            };
            out.push(Metric {
                name: def.name.to_string(),
                unit: def.unit,
                est,
                flags,
            });
        }
        out
    }
}

/// The traced run of one workload.
pub struct Traced {
    /// The warm-up pass every re-driven pass was checked against.
    pub reference: Summary,
    /// Untraced/traced pass pairs run.
    pub pairs: usize,
    /// Fastest untraced pass of this run, for the overhead figure.
    pub untraced_ms: f64,
    /// Per-name totals of the fastest traced pass.
    pub phases: BTreeMap<&'static str, PhaseTotal>,
    /// Per-name self allocations, from one extra pass with the counters
    /// armed (kept apart so counting does not slow the timed spans).
    pub allocs: BTreeMap<&'static str, PhaseTotal>,
    /// The spans of the fastest traced pass, for `trace.jsonl`.
    pub spans: Vec<SpanRec>,
    pub extras: Extras,
    /// Operations attempted / failed in the traced passes, including the
    /// re-drive ≡ entry-point assertion and the memory-image comparisons.
    pub attempted: u64,
    pub failed: u64,
}

/// Self time of every span that is the program's work: everything but the
/// benchmark's own checking.
fn traced_ns(phases: &BTreeMap<&'static str, PhaseTotal>) -> u64 {
    phases
        .iter()
        .filter(|(name, _)| **name != CHECK)
        .map(|(_, t)| t.self_ns)
        .sum()
}

/// Upper bound on spans in one pass (the saturation cells record three per
/// service round); pre-sized so recording never allocates mid-pass.
const SPAN_CAPACITY: usize = 1 << 16;

/// Re-drives `ready`'s workload with spans, alternating with untraced
/// passes, and checks every re-driven pass against the entry point.
pub fn traced_run(ready: &Ready, cfg: &Config) -> Traced {
    let workload = &ready.workload;
    let pairs = cfg.traced_pairs(ready.spec);
    let mut untraced_ms = f64::INFINITY;
    let mut best: Option<(u64, Vec<SpanRec>)> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut extras = Extras::default();
    let mut one_pass = |armed: bool| {
        let mut tr = Tracer::with_capacity(SPAN_CAPACITY);
        if armed {
            alloc::arm();
        }
        let (raw, ex) = redrive::traced_pass(workload, &mut tr);
        if armed {
            alloc::disarm();
        }
        let summary = workload.summarise(&raw);
        drop(raw);
        // Operations: the pass's own, the equality with the entry point's
        // outputs, and each memory image against its pure-copy twin.
        let ops = summary.operations() + ex.image_checks;
        attempted += ops;
        if summary != ready.reference || summary.checks_failed > 0 || ex.image_mismatches > 0 {
            failed += ops;
        }
        extras = ex;
        tr.finish()
    };
    for _ in 0..pairs {
        untraced_ms = untraced_ms.min(workload.run().0);
        let spans = one_pass(false);
        let ns = traced_ns(&spans::by_name(&spans));
        if best.as_ref().is_none_or(|(b, _)| ns < *b) {
            best = Some((ns, spans));
        }
    }
    let allocs = spans::by_name(&one_pass(true));
    let (_, spans) = best.expect("at least one traced pass");
    Traced {
        reference: ready.reference.clone(),
        pairs,
        untraced_ms,
        phases: spans::by_name(&spans),
        allocs,
        spans,
        extras,
        attempted,
        failed,
    }
}

impl Traced {
    /// Milliseconds of the traced pass spent in the program.
    pub fn traced_ms(&self) -> f64 {
        traced_ns(&self.phases) as f64 / 1e6
    }

    /// Self time of one phase, ms per pass.
    pub fn phase_ms(&self, phase: &str) -> f64 {
        self.phases
            .get(phase)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    }

    /// Sum of the layer phases (the benchmark's own containers excluded).
    pub fn layers_ms(&self) -> f64 {
        PHASES.iter().map(|p| self.phase_ms(p)).sum()
    }

    /// Group A and group C for this workload. A phase the workload never
    /// enters, or a mechanism it never uses, reads 0: that layer is
    /// bypassed here.
    pub fn metrics(&self) -> Vec<Metric> {
        let reference = &self.reference;
        let mut out = Vec::new();
        for phase in PHASES {
            out.push(Metric::exact(
                &format!("{phase}_ms"),
                "ms",
                self.phase_ms(phase),
            ));
            out.push(Metric::exact(
                &format!("{phase}_allocs"),
                "count",
                self.allocs.get(phase).map_or(0.0, |t| t.self_allocs as f64),
            ));
        }
        out.push(Metric::exact(
            TRACE_OVERHEAD,
            "%",
            100.0 * (self.traced_ms() - self.untraced_ms) / self.untraced_ms,
        ));
        for (name, unit, _, _) in metrics::COUNTS {
            // Read from the outcome structs where they expose it; the
            // message count of the fleet and service cells only the
            // re-drive's worlds can supply.
            let value = match reference.counts.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) => v,
                None if name == "cor-net.msgs_per_fault" => {
                    self.extras.msgs as f64 / reference.faults as f64
                }
                None => 0.0,
            };
            out.push(Metric::exact(name, unit, value));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{spec, SPECS};

    /// Each declared end-to-end name is printed exactly once per workload
    /// it is defined on, with its unit — checked on one real pass of every
    /// workload, so a workload that stopped producing a modelled metric
    /// fails here rather than in a measurement.
    #[test]
    fn every_workload_prints_exactly_its_declared_metrics() {
        for spec in &SPECS {
            let name = spec.name;
            let workload = Workload::generate(name, 1);
            let reference = workload.summarise(&workload.run().1);
            assert!(reference.faults > 0, "{name} serves faults");
            assert_eq!(reference.checks_failed, 0, "{name}");
            let counts = Counts {
                allocs: 10,
                bytes: 100,
                peak_live_bytes: 50,
            };
            let m = Measurement {
                ready: Ready {
                    spec,
                    workload,
                    reference,
                    checks: 1,
                    failed: 0,
                    notes: Vec::new(),
                },
                cfg: Config {
                    seed: 1,
                    seconds: REFERENCE_SECONDS,
                    quick: true,
                },
                setup_s: vec![0.5],
                counted: [counts; 2],
                round_mins: vec![1.0, 2.0],
                attempted: 10,
                failed: 0,
            };
            let printed: Vec<(String, &str)> =
                m.metrics().into_iter().map(|x| (x.name, x.unit)).collect();
            let declared: Vec<(String, &str)> = metrics::END_TO_END
                .iter()
                .filter(|d| d.defined_on(name))
                .map(|d| (d.name.to_string(), d.unit))
                .collect();
            assert_eq!(printed, declared, "{name}");
            assert!(m.metrics().iter().all(|x| x.est.value.is_finite()));
        }
    }

    /// The traced run of a cheap workload: re-driven passes reproduce the
    /// entry point, the phases it enters are timed and counted, the ones it
    /// bypasses read 0, and the per-layer names come out once each.
    #[test]
    fn traced_run_reproduces_the_entry_point_and_names_every_layer() {
        let _arming = alloc::ARMING_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = Config {
            seed: 1,
            seconds: 10,
            quick: true,
        };
        let ready = set_up(spec("fault_service_hot").expect("declared"), cfg.seed);
        assert_eq!(ready.failed, 0);
        let traced = traced_run(&ready, &cfg);
        assert_eq!(traced.failed, 0, "re-drive == entry point");
        assert!(traced.attempted > 2 * ready.reference.faults);
        for phase in [redrive::INJECT, redrive::SETTLE, redrive::DRAIN] {
            assert!(traced.phase_ms(phase) > 0.0, "{phase}");
            assert!(traced.allocs.contains_key(phase), "{phase}");
        }
        assert_eq!(traced.phase_ms(redrive::MIGRATE), 0.0, "no migration here");
        assert!(traced.layers_ms() <= traced.traced_ms());
        let printed: Vec<String> = traced.metrics().into_iter().map(|m| m.name).collect();
        let declared: Vec<String> = metrics::phase_layers()
            .into_iter()
            .map(|l| l.name)
            .chain(metrics::COUNTS.iter().map(|c| c.0.to_string()))
            .collect();
        assert_eq!(printed, declared);
        let value = |n: &str| {
            traced
                .metrics()
                .into_iter()
                .find(|m| m.name == n)
                .map(|m| m.est.value)
        };
        assert!(value("cor-net.pages_per_batched_reply").is_some_and(|v| v > 1.0));
        assert_eq!(
            value("cor-net.mean_hops"),
            Some(0.0),
            "no routed topology here"
        );
        assert!(value("cor-net.msgs_per_fault").is_some_and(|v| v > 1.0));
    }

    #[test]
    fn seconds_scale_the_work_and_quick_shrinks_it() {
        let full = Config {
            seed: 1,
            seconds: REFERENCE_SECONDS,
            quick: false,
        };
        let of = |name| spec(name).expect("declared");
        assert_eq!(full.rounds(), 12);
        assert_eq!(full.passes_per_round(of("paper_matrix")), 5);
        assert_eq!(full.setup_reps(of("fault_service")), 151);
        let third = Config { seconds: 5, ..full };
        assert_eq!(third.passes_per_round(of("fault_service")), 140);
        let one = Config { seconds: 1, ..full };
        assert_eq!(
            one.passes_per_round(of("paper_matrix")),
            1,
            "never below one pass"
        );
        let quick = Config {
            quick: true,
            ..full
        };
        assert_eq!(
            (quick.rounds(), quick.passes_per_round(of("fleet_storm"))),
            (2, 1)
        );
        assert_eq!(quick.setup_reps(of("fault_service")), 1);
        assert_eq!(quick.traced_pairs(of("fault_service")), 1);
    }
}
