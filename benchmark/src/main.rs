//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--quick] [--out FILE]    all five workloads, interleaved,
//!                                                              then the traced run and the ladder
//! benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S]   one workload alone; the last
//!                                                              line is the external driver's JSON
//! benchmark compare A.json B.json                              before/after table, exit 1 on worse
//! benchmark manifest                                           prints BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod harness;
mod json;
mod ladder;
mod metrics;
mod redrive;
mod report;
mod spans;
mod stats;
mod workloads;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{Config, Measurement};
use report::WorkloadReport;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Environment knobs of the program under test. The benchmark always
/// measures the defaults users get (lock-step runtime, `Summary` journal
/// for sweeps, one thread), whatever the caller's shell exports.
const SCRUBBED_ENV: [&str; 5] = [
    "COR_JOURNAL",
    "COR_RUNTIME",
    "COR_THREADS",
    "COR_CHAOS_SEED",
    "COR_REPLICATION_FACTOR",
];

struct Options {
    cfg: Config,
    workload: Option<&'static workloads::Spec>,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds 1..60] [--quick] [--out FILE]\n\
         \x20      benchmark compare A.json B.json\n\
         \x20      benchmark manifest\n\
         workloads: {}",
        workloads::SPECS.map(|s| s.name).join(", ")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        cfg: Config {
            seed: 1,
            seconds: harness::REFERENCE_SECONDS,
            quick: false,
        },
        workload: None,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => opts.cfg.quick = true,
            "--seed" => {
                opts.cfg.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                opts.cfg.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--workload" => {
                let name = value()?;
                opts.workload =
                    Some(workloads::spec(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.trace.is_some() && opts.workload.is_none() {
        return Err("--trace goes with --workload; a run of all workloads always traces".into());
    }
    if opts.cfg.quick && opts.workload.is_some() {
        return Err("--quick is the smoke mode of a run of all workloads".into());
    }
    Ok(opts)
}

/// Where `trace.jsonl` goes: `benchmark/out/` when run from the repo root
/// (as the driver and the README do), `out/` when run from `benchmark/`.
fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn write_trace(reports: &[WorkloadReport]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("trace.jsonl");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for w in reports {
        if let Some(traced) = &w.traced {
            spans::write_jsonl(&mut file, w.name, &traced.spans)?;
        }
    }
    file.flush()?;
    Ok(path)
}

/// Prints every metric for a person, writes the spans of any traced run to
/// `trace.jsonl`, and returns the report document (written to `--out` when
/// one was given).
fn emit(
    mode: &str,
    opts: &Options,
    reports: &[WorkloadReport],
    rungs: Option<&[ladder::Rung]>,
) -> Result<json::Value, String> {
    let cfg = &opts.cfg;
    println!(
        "cor-benchmark mode={mode} seed={} seconds={} rounds={} quick={}",
        cfg.seed,
        cfg.seconds,
        cfg.rounds(),
        cfg.quick
    );
    print!("{}", report::human(reports, rungs));
    if reports.iter().any(|w| w.traced.is_some()) {
        let path = write_trace(reports).map_err(|e| format!("trace.jsonl: {e}"))?;
        println!("spans written to {}", path.display());
    }
    let doc = report::document(cfg, mode, reports, rungs);
    if let Some(path) = &opts.out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    Ok(doc)
}

/// One workload alone, for a driver that invokes workloads one at a time:
/// the last line printed is its result.
fn run_single(spec: &'static workloads::Spec, trace: bool, opts: &Options) -> Result<(), String> {
    let cfg = &opts.cfg;
    let mut report = WorkloadReport {
        name: spec.name,
        measured: None,
        traced: None,
    };
    let mut rungs = None;
    if trace {
        // Set up once (no `setup_s` wanted here), re-drive, then the ladder.
        let ready = harness::set_up(spec, cfg.seed);
        report.traced = Some(harness::traced_run(&ready, cfg));
        rungs = Some(ladder::run());
    } else {
        let mut m = Measurement::prepare(spec, cfg);
        for _ in 0..cfg.rounds() {
            m.round();
        }
        report.measured = Some(m);
    }
    emit(
        "single",
        opts,
        std::slice::from_ref(&report),
        rungs.as_deref(),
    )?;
    println!(
        "{}",
        report::driver_line(&report, rungs.as_deref()).compact()
    );
    Ok(())
}

/// All five workloads: rounds interleaved (round 1 of each, round 2 of
/// each, …) so a multi-second noisy-neighbour burst lands on a few rounds
/// of every workload instead of on one workload's whole run. Returns
/// whether every operation succeeded.
fn run_all(opts: &Options) -> Result<bool, String> {
    let cfg = &opts.cfg;
    let mut measured: Vec<Measurement> = workloads::SPECS
        .iter()
        .map(|spec| {
            eprintln!("set-up: {}", spec.name);
            Measurement::prepare(spec, cfg)
        })
        .collect();
    for round in 0..cfg.rounds() {
        eprintln!("round {}/{}", round + 1, cfg.rounds());
        for m in &mut measured {
            m.round();
        }
    }
    let reports: Vec<WorkloadReport> = measured
        .into_iter()
        .map(|m| {
            let name = m.ready.spec.name;
            eprintln!("traced: {name}");
            let traced = harness::traced_run(&m.ready, cfg);
            WorkloadReport {
                name,
                measured: Some(m),
                traced: Some(traced),
            }
        })
        .collect();
    let rungs = (!cfg.quick).then(|| {
        eprintln!("ladder");
        ladder::run()
    });
    let doc = emit("interleaved", opts, &reports, rungs.as_deref())?;
    if opts.out.is_none() {
        println!("{}", doc.compact());
    }
    Ok(reports.iter().all(|w| {
        w.measured.as_ref().is_some_and(|m| m.failed == 0)
            && w.traced.as_ref().is_some_and(|t| t.failed == 0)
    }))
}

fn main() -> ExitCode {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{}", usage());
                return ExitCode::from(2);
            };
            let (table, code) = compare::run(a, b);
            print!("{table}");
            return ExitCode::from(code);
        }
        Some("manifest") => {
            print!("{}", report::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let outcome = match opts.workload {
        Some(spec) => run_single(spec, opts.trace.unwrap_or(false), &opts).map(|()| true),
        None => run_all(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("a correctness check failed: failed_share > 0");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let o = parse(&args(
            "--workload fleet_storm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.map(|s| s.name), Some("fleet_storm"));
        assert_eq!(o.trace, Some(true));
        assert_eq!((o.cfg.seed, o.cfg.seconds, o.cfg.quick), (7, 10, false));
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds 61",
            "--trace 2 --workload fleet_storm",
            "--trace 1",
            "--quick --workload fleet_storm",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
        assert!(parse(&args("--quick")).unwrap().cfg.quick);
    }
}
