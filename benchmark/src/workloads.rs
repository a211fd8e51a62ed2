//! The five workloads: their fixed (or seeded) inputs, the entry point one
//! pass calls, and how a pass's outputs turn into metrics and checks.
//!
//! Every workload drives the system only through `pub` functions of the
//! existing crates. Four of them are the repo's own experiment definitions
//! (the paper's seven programs, `FLEET_SEED`, `SAT_SEED` are constants of
//! the program, like the paper's tables) and ignore `--seed`;
//! `degraded_wire` is generated from it.

use std::time::Instant;

use cor_experiments::fleet::{self, FleetOutcome, FleetSpec};
use cor_experiments::replication::{self, ReplicationOutcome};
use cor_experiments::runner::{self, Matrix, Trial};
use cor_experiments::saturation::{self, SatOutcome, SatSpec};
use cor_experiments::survivability::{self, SurvivalOutcome};
use cor_kernel::CostModel;
use cor_migrate::Strategy;
use cor_net::{FaultPlan, WireParams};
use cor_pool::Pool;
use cor_sim::Pcg32;
use cor_workloads::synth::SynthSpec;

/// What is fixed about one workload: its name (later issues refer to
/// these), why it exists, and how much of it a full run executes.
pub struct Spec {
    pub name: &'static str,
    /// One line, also in `BENCHMARK.json`.
    pub why: &'static str,
    /// Timed passes per round at the reference `--seconds 15`, fixed (not
    /// time-adaptive) so two commits do identical work. Sized so a round
    /// takes about 1.2 s — twelve rounds about fifteen seconds — on the
    /// 2-core reference host, whose speed drifts by ±10 % for tens of
    /// seconds at a time: a shorter run sits inside one such stretch.
    pub passes_per_round: u64,
    /// Times set-up is repeated for `setup_s`; the cheap set-ups (a few
    /// ms) need more repetitions to settle.
    pub setup_reps: usize,
    /// Untraced/traced pass pairs in the traced run.
    pub traced_pairs: usize,
}

/// The five workloads, in report order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "paper_matrix",
        why: "7 programs x 11 strategies on the 2-node wire: what `experiments all` users wait for; address-space build, excise/insert and the pager dominate",
        passes_per_round: 5,
        setup_reps: 5,
        traced_pairs: 4,
    },
    Spec {
        name: "fleet_storm",
        why: "two 64-node torus storm cells at Full journal: the routed fabric, settle/pump polling and span harvest do the work, cor-mem almost none",
        passes_per_round: 10,
        setup_reps: 9,
        traced_pairs: 8,
    },
    Spec {
        name: "fault_service",
        why: "12 seed-configuration saturation cells: the remote-fault path as a service (send, serve_nms hit, reply, parse), no address spaces or migration",
        passes_per_round: 420,
        setup_reps: 151,
        traced_pairs: 100,
    },
    Spec {
        name: "fault_service_hot",
        why: "the same 12 cells with batched replies + PIT coalescing + coarse ledger: same NMS layer, other reply discipline",
        passes_per_round: 420,
        setup_reps: 151,
        traced_pairs: 100,
    },
    Spec {
        name: "degraded_wire",
        why: "seeded synthetic processes on lossy wires, under source crashes with draining, and with replicated homes: the failure paths healthy runs never execute",
        passes_per_round: 5,
        setup_reps: 5,
        traced_pairs: 4,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One process of the `degraded_wire` family.
pub struct DegradedProc {
    /// The generated process.
    pub workload: cor_workloads::Workload,
    /// Seed of its lossy wires (`seed + pct` per drop rate).
    pub wire_seed: u64,
    /// Page faults it takes on a healthy wire under the three strategies
    /// the crash sweeps use: the demand side of every sweep cell.
    pub nominal_faults: [(Strategy, u64); 3],
}

/// Lossy-trial grid of `degraded_wire`: drop rate (percent) x strategy.
pub const DROP_PCTS: [u32; 2] = [5, 15];

/// The two strategies the lossy trials contrast.
pub const LOSSY_STRATEGIES: [Strategy; 2] = [Strategy::PureCopy, Strategy::PureIou { prefetch: 1 }];

/// Real pages of each `degraded_wire` process; sized so a pass takes about
/// 0.3 s on the reference host.
pub const DEGRADED_REAL_PAGES: u64 = 128;

/// What one `degraded_wire` process produced in a pass.
pub struct DegradedOut {
    pub lossy: Vec<Trial>,
    pub survival: Vec<SurvivalOutcome>,
    pub replication: Vec<ReplicationOutcome>,
}

/// A workload with its inputs generated.
pub enum Workload {
    PaperMatrix(Vec<cor_workloads::Workload>),
    FleetStorm(Vec<FleetSpec>),
    FaultService { hot: bool, cells: Vec<SatSpec> },
    DegradedWire(Vec<DegradedProc>),
}

/// The outputs of one pass, as the entry points return them.
pub enum Raw {
    Matrix(Vec<Trial>),
    Fleet(Vec<FleetOutcome>),
    Sat(Vec<SatOutcome>),
    Degraded(Vec<DegradedOut>),
}

/// A pass reduced to what the report needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Digest of every deterministic output of the pass.
    pub digest: u64,
    /// Simulated page faults: the demand side, the denominator of the
    /// per-fault metrics.
    pub faults: u64,
    /// Migrations completed.
    pub migrations: u64,
    /// Per-pass correctness checks evaluated / failed.
    pub checks: u64,
    pub checks_failed: u64,
    /// Modelled end-to-end metrics defined on this workload.
    pub model: Vec<(&'static str, f64)>,
    /// Group-C work counts and useful/attempt ratios of this workload.
    pub counts: Vec<(&'static str, f64)>,
}

impl Summary {
    /// Operations a pass attempts: faults served, migrations completed,
    /// checks evaluated, and the determinism check on its digest.
    pub fn operations(&self) -> u64 {
        self.faults + self.migrations + self.checks + 1
    }
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn synth(name: &'static str, seed: u64, runs: u64, locality: f64) -> SynthSpec {
    SynthSpec {
        name,
        seed,
        real_pages: DEGRADED_REAL_PAGES,
        realzero_pages: 2 * DEGRADED_REAL_PAGES,
        runs,
        resident_pages: DEGRADED_REAL_PAGES / 4,
        touched_fraction: 1.0,
        locality,
        compute_ms: 4_000,
        write_fraction: 0.25,
    }
}

impl Workload {
    /// Generates the inputs of workload `name` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`SPECS`].
    pub fn generate(name: &str, seed: u64) -> Workload {
        match name {
            "paper_matrix" => Workload::PaperMatrix(cor_workloads::all()),
            "fleet_storm" => Workload::FleetStorm(
                fleet::cells()
                    .into_iter()
                    .filter(|c| c.nodes == 64)
                    .collect(),
            ),
            "fault_service" | "fault_service_hot" => {
                let hot = name == "fault_service_hot";
                Workload::FaultService {
                    hot,
                    cells: saturation::cells()
                        .into_iter()
                        .filter(|c| c.optimized == hot)
                        .collect(),
                }
            }
            "degraded_wire" => {
                // One scan-like and one Lisp-like process; every seeded
                // choice below draws from the benchmark's own stream, so
                // the program only ever receives generated inputs.
                let mut rng = Pcg32::with_stream(seed, 0xBE7C);
                let procs = [("bench-scan", 4, 0.9), ("bench-lisp", 48, 0.1)]
                    .into_iter()
                    .map(|(pname, runs, locality)| {
                        let workload = synth(pname, rng.next_u64(), runs, locality).build();
                        let wire_seed = rng.next_u64() >> 8;
                        let nominal_faults = [
                            Strategy::PureCopy,
                            Strategy::PureIou { prefetch: 0 },
                            Strategy::ResidentSet { prefetch: 0 },
                        ]
                        .map(|s| {
                            let t = runner::run_trial(&workload, s);
                            (s, t.imag_faults + t.disk_faults + t.zero_faults)
                        });
                        DegradedProc {
                            workload,
                            wire_seed,
                            nominal_faults,
                        }
                    })
                    .collect();
                Workload::DegradedWire(procs)
            }
            other => panic!("unknown workload {other}"),
        }
    }

    /// One pass: a complete execution of the workload's input through the
    /// `cor-experiments` entry point, on one thread. Returns the wall-clock
    /// milliseconds the entry point took and its outputs; turning outputs
    /// into metrics happens outside the timed region.
    pub fn run(&self) -> (f64, Raw) {
        let serial = Pool::serial();
        let start = Instant::now();
        match self {
            Workload::PaperMatrix(workloads) => {
                let mut matrix = Matrix::new();
                let csv = runner::matrix_csv(&mut matrix, workloads);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(csv);
                let trials = workloads
                    .iter()
                    .flat_map(|w| Matrix::paper_strategies().into_iter().map(move |s| (w, s)))
                    .map(|(w, s)| matrix.trial(w, s).clone())
                    .collect();
                (ms, Raw::Matrix(trials))
            }
            Workload::FleetStorm(cells) => {
                let out: Vec<FleetOutcome> = cells.iter().map(|&c| fleet::run_cell(c)).collect();
                (start.elapsed().as_secs_f64() * 1e3, Raw::Fleet(out))
            }
            Workload::FaultService { cells, .. } => {
                let out: Vec<SatOutcome> = cells.iter().map(|&c| saturation::run_cell(c)).collect();
                (start.elapsed().as_secs_f64() * 1e3, Raw::Sat(out))
            }
            Workload::DegradedWire(procs) => {
                let out: Vec<DegradedOut> = procs
                    .iter()
                    .map(|p| DegradedOut {
                        lossy: lossy_trials(p),
                        survival: survivability::survival_outcomes(
                            std::slice::from_ref(&p.workload),
                            &serial,
                        ),
                        replication: replication::replication_outcomes(
                            std::slice::from_ref(&p.workload),
                            &serial,
                        ),
                    })
                    .collect();
                (start.elapsed().as_secs_f64() * 1e3, Raw::Degraded(out))
            }
        }
    }

    /// Reduces a pass's outputs to digest, demand, checks and metrics.
    pub fn summarise(&self, raw: &Raw) -> Summary {
        match (self, raw) {
            (Workload::PaperMatrix(_), Raw::Matrix(trials)) => summarise_matrix(trials),
            (Workload::FleetStorm(_), Raw::Fleet(out)) => summarise_fleet(out),
            (Workload::FaultService { hot, .. }, Raw::Sat(out)) => summarise_sat(out, *hot),
            (Workload::DegradedWire(procs), Raw::Degraded(out)) => summarise_degraded(procs, out),
            _ => panic!("outputs of another workload"),
        }
    }
}

/// The lossy-wire trials of one `degraded_wire` process.
pub fn lossy_trials(p: &DegradedProc) -> Vec<Trial> {
    DROP_PCTS
        .iter()
        .flat_map(|&pct| LOSSY_STRATEGIES.map(|s| (pct, s)))
        .map(|(pct, strategy)| {
            let wire = WireParams {
                faults: Some(FaultPlan::dropping(
                    p.wire_seed + u64::from(pct),
                    f64::from(pct) / 100.0,
                )),
                ..WireParams::default()
            };
            runner::run_trial_with(&p.workload, strategy, CostModel::default(), wire)
        })
        .collect()
}

fn trial_faults(t: &Trial) -> u64 {
    t.imag_faults + t.disk_faults + t.zero_faults
}

fn digest_trials(digest: &mut u64, trials: &[Trial]) {
    for t in trials {
        fnv(digest, t.csv_row().as_bytes());
        // The CSV rounds times to 0.1 ms; pin the exact integers too.
        for v in [
            t.end_time.as_micros(),
            t.end_to_end().as_micros(),
            t.migration.downtime().as_micros(),
            t.msg_cpu.as_micros(),
            t.total_bytes,
            t.msgs,
        ] {
            fnv(digest, &v.to_le_bytes());
        }
    }
}

fn kib(bytes: u64) -> f64 {
    bytes as f64 / 1024.0
}

fn summarise_matrix(trials: &[Trial]) -> Summary {
    let mut digest = FNV_OFFSET;
    digest_trials(&mut digest, trials);
    let sum = |f: &dyn Fn(&Trial) -> u64| trials.iter().map(f).sum::<u64>();
    let faults = sum(&trial_faults);
    let msgs = sum(&|t| t.msgs);
    let ratios: Vec<f64> = trials.iter().filter_map(|t| t.prefetch_hit_ratio).collect();
    Summary {
        digest,
        faults,
        migrations: trials.len() as u64,
        checks: 0,
        checks_failed: 0,
        model: vec![
            (
                "model_makespan_s",
                sum(&|t| t.end_to_end().as_micros()) as f64 / 1e6,
            ),
            (
                "model_freeze_ms",
                sum(&|t| t.migration.downtime().as_micros()) as f64 / trials.len() as f64 / 1e3,
            ),
            ("model_wire_kb", kib(sum(&|t| t.total_bytes))),
            (
                "model_msg_cpu_s",
                sum(&|t| t.msg_cpu.as_micros()) as f64 / 1e6,
            ),
        ],
        counts: vec![
            ("cor-net.msgs_per_fault", msgs as f64 / faults as f64),
            (
                "cor-kernel.prefetch_hit_ratio",
                ratios.iter().sum::<f64>() / ratios.len().max(1) as f64,
            ),
        ],
    }
}

fn summarise_fleet(out: &[FleetOutcome]) -> Summary {
    let mut digest = FNV_OFFSET;
    fnv(&mut digest, fleet::csv_for(out).as_bytes());
    let migrations: u64 = out.iter().map(|o| o.migrations).sum();
    let storm_us: u64 = out.iter().map(|o| o.storm_elapsed.as_micros()).sum();
    let failed = out
        .iter()
        .map(|o| u64::from(o.survived != o.migrations) + u64::from(o.drain_residents_after != 0))
        .sum();
    Summary {
        digest,
        faults: out.iter().map(|o| o.faults).sum(),
        migrations,
        checks: 2 * out.len() as u64,
        checks_failed: failed,
        model: vec![
            ("model_makespan_s", storm_us as f64 / 1e6),
            ("model_freeze_ms", storm_us as f64 / migrations as f64 / 1e3),
            (
                "model_fault_p50_ms",
                out.iter().map(|o| o.fault_p50_us).max().unwrap_or(0) as f64 / 1e3,
            ),
            (
                "model_fault_p99_ms",
                out.iter().map(|o| o.fault_p99_us).max().unwrap_or(0) as f64 / 1e3,
            ),
            ("model_wire_kb", kib(out.iter().map(|o| o.wire_bytes).sum())),
        ],
        counts: vec![(
            "cor-net.mean_hops",
            out.iter().map(|o| o.mean_hops).sum::<f64>() / out.len() as f64,
        )],
    }
}

fn summarise_sat(out: &[SatOutcome], hot: bool) -> Summary {
    let mut digest = FNV_OFFSET;
    fnv(&mut digest, saturation::csv_for(out).as_bytes());
    let served: u64 = out.iter().map(|o| o.served).sum();
    let open_scan = |o: &&SatOutcome| o.spec.mode == "open" && o.spec.pattern == "scan";
    let closed = out
        .iter()
        .find(|o| o.spec.mode == "closed")
        .expect("the ladder has a closed-loop cell");
    let at_20 = out
        .iter()
        .filter(open_scan)
        .find(|o| o.spec.offered_fps == 20)
        .expect("the scan ladder has a 20 faults/s cell");
    let mut counts = Vec::new();
    if hot {
        let replies: u64 = out.iter().map(|o| o.batched_replies).sum();
        let pages: u64 = out.iter().map(|o| o.batched_pages).sum();
        let coalesced: u64 = out.iter().map(|o| o.coalesced).sum();
        counts.push((
            "cor-net.pages_per_batched_reply",
            pages as f64 / replies.max(1) as f64,
        ));
        counts.push(("cor-net.coalesced_share", coalesced as f64 / served as f64));
    }
    Summary {
        digest,
        faults: served,
        migrations: 0,
        checks: out.len() as u64,
        checks_failed: out.iter().filter(|o| o.served != o.spec.requests).count() as u64,
        model: vec![
            (
                "model_makespan_s",
                out.iter().map(|o| o.served as f64 / o.achieved_fps).sum(),
            ),
            ("model_fault_p50_ms", closed.p50_us as f64 / 1e3),
            ("model_fault_p99_ms", at_20.p99_us as f64 / 1e3),
            ("model_wire_kb", kib(out.iter().map(|o| o.wire_bytes).sum())),
            (
                "model_peak_fps",
                out.iter()
                    .filter(open_scan)
                    .map(|o| o.achieved_fps)
                    .fold(0.0, f64::max),
            ),
        ],
        counts,
    }
}

fn summarise_degraded(procs: &[DegradedProc], out: &[DegradedOut]) -> Summary {
    let mut digest = FNV_OFFSET;
    let (mut faults, mut migrations, mut msgs, mut retransmits) = (0u64, 0u64, 0u64, 0u64);
    let mut lossy_faults = 0u64;
    let (mut checks, mut failed) = (0u64, 0u64);
    let (mut makespan_us, mut wire_bytes) = (0u64, 0u64);
    for (p, o) in procs.iter().zip(out) {
        let nominal = |s: Strategy| {
            p.nominal_faults
                .iter()
                .find(|(n, _)| *n == s)
                .map_or(0, |&(_, f)| f)
        };
        digest_trials(&mut digest, &o.lossy);
        fnv(
            &mut digest,
            format!("{:?}{:?}", o.survival, o.replication).as_bytes(),
        );
        for t in &o.lossy {
            lossy_faults += trial_faults(t);
            msgs += t.msgs;
            retransmits += t.reliability.retransmissions.get();
            makespan_us += t.end_to_end().as_micros();
            wire_bytes += t.total_bytes;
        }
        migrations += o.lossy.len() as u64;
        // Every sweep cell runs the process twice: crashed, and its
        // crash-free twin for the byte-identity check.
        let cells = o
            .survival
            .iter()
            .map(|c| (c.strategy, c.survived, c.checksum_match, c.pages_lost))
            .chain(
                o.replication
                    .iter()
                    .map(|c| (c.strategy, c.survived, c.checksum_match, c.pages_lost)),
            );
        for (strategy, survived, checksum_match, pages_lost) in cells {
            faults += 2 * nominal(strategy);
            migrations += 2;
            checks += 1;
            // A survivor is byte-identical to its twin; anything else must
            // be a typed orphan that lost pages.
            let ok = if survived {
                checksum_match
            } else {
                pages_lost > 0
            };
            failed += u64::from(!ok);
        }
        makespan_us += o
            .survival
            .iter()
            .map(|c| c.remote_elapsed.as_micros())
            .sum::<u64>();
        makespan_us += o
            .replication
            .iter()
            .map(|c| c.remote_elapsed.as_micros())
            .sum::<u64>();
        wire_bytes += o.survival.iter().map(|c| c.drain_bytes).sum::<u64>();
        wire_bytes += o.replication.iter().map(|c| c.replicate_bytes).sum::<u64>();
    }
    Summary {
        digest,
        faults: faults + lossy_faults,
        migrations,
        checks,
        checks_failed: failed,
        model: vec![
            ("model_makespan_s", makespan_us as f64 / 1e6),
            ("model_wire_kb", kib(wire_bytes)),
        ],
        // The sweeps expose no message counts, so both ratios are over
        // the lossy trials.
        counts: vec![
            ("cor-net.msgs_per_fault", msgs as f64 / lossy_faults as f64),
            (
                "cor-net.retransmits_per_msg",
                retransmits as f64 / msgs as f64,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_changes_degraded_wire_and_nothing_else() {
        for name in ["fleet_storm", "fault_service", "fault_service_hot"] {
            let (a, b) = (Workload::generate(name, 1), Workload::generate(name, 2));
            match (a, b) {
                (Workload::FleetStorm(x), Workload::FleetStorm(y)) => {
                    assert_eq!(format!("{x:?}"), format!("{y:?}"))
                }
                (
                    Workload::FaultService { cells: x, .. },
                    Workload::FaultService { cells: y, .. },
                ) => assert_eq!(format!("{x:?}"), format!("{y:?}")),
                _ => panic!("wrong variant for {name}"),
            }
        }
        let pages = |seed| match Workload::generate("degraded_wire", seed) {
            Workload::DegradedWire(procs) => procs
                .iter()
                .map(|p| (p.wire_seed, p.workload.blueprint.install_order.clone()))
                .collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(pages(1), pages(1), "same seed, same inputs");
        assert_ne!(pages(1), pages(2), "another seed, other inputs");
    }

    #[test]
    fn service_workloads_split_the_saturation_ladder_by_configuration() {
        for (name, hot) in [("fault_service", false), ("fault_service_hot", true)] {
            match Workload::generate(name, 1) {
                Workload::FaultService { cells, .. } => {
                    assert_eq!(cells.len(), 12);
                    assert!(cells.iter().all(|c| c.optimized == hot));
                }
                _ => unreachable!(),
            }
        }
        match Workload::generate("fleet_storm", 1) {
            Workload::FleetStorm(cells) => {
                assert_eq!(cells.len(), 2);
                assert!(cells.iter().all(|c| c.nodes == 64 && c.topology == "torus"));
            }
            _ => unreachable!(),
        }
    }
}
