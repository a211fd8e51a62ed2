//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--threads N] [--trace-out FILE] <command>
//!
//! commands:
//!   table4-1 table4-2 table4-3 table4-4 table4-5
//!   fig4-1 fig4-2 fig4-3 fig4-4 fig4-5
//!   constants   fault-service microbenchmarks (§4.3.3)
//!   summary     §4.4 aggregate savings
//!   speedups    §4.3.2 transfer speedups
//!   ablation    pre-copy ablation (ours)
//!   cow-study   physically copied fraction under copy-on-write (§2.1)
//!   sensitivity breakeven surface over touched fraction × locality (ours)
//!   modern      the tradeoff under 2020s cost constants (ours)
//!   policy      §6 automatic-migration balancer demo
//!   loss-sweep  completion time vs wire drop rate (ours)
//!   survivability      crash time × strategy × drain rate sweep (ours)
//!   survivability-csv  the same sweep as CSV for downstream analysis
//!   replication      replication factor × crash delay × strategy sweep (ours)
//!   replication-csv  the same sweep as CSV for downstream analysis
//!   fleet       migration storms on routed N-node fabrics (ours)
//!   fleet-csv   the same sweep as CSV for downstream analysis
//!   saturation      remote-fault service under offered load (ours)
//!   saturation-csv  the same sweep as CSV for downstream analysis
//!   trace [name] [--jsonl] [--summary]   Perfetto/JSONL trace of one trial
//!   journal [name]     human-readable journal narrative of one trial
//!   metrics [name]     per-node metrics report of one trial
//!   profile [name|fleet]    blame totals + critical paths (virtual time)
//!   blame-csv [name|fleet]  per-node/per-link blame decomposition as CSV
//!   flamegraph [name|fleet] folded stacks (flamegraph.pl / inferno input)
//!   csv         the full paper matrix as CSV for downstream analysis
//!   latency     the virtual-time baseline CI diffs against LATENCY_baseline.json
//!   check       paper-vs-measured assertions, exit 1 on drift
//!   all         every table, figure and study above, in order
//! ```
//!
//! Independent trial cells run concurrently on `N` worker threads
//! (`--threads N`, or the `COR_THREADS` environment variable, defaulting
//! to the machine's parallelism). Every output is byte-identical at any
//! thread count: each cell is its own deterministic simulation, and all
//! rendering happens serially in cell order.
//!
//! `--trace-out FILE` writes a Perfetto `trace.json` to FILE: for the
//! `trace` command it redirects that command's own trace there; for any
//! other command (e.g. a sweep) it additionally captures a fixed-seed
//! Minprog trial so every run can ship a trace artifact. `COR_JOURNAL`
//! (`off|summary|full`) sets the journal level of sweep trials.

use cor_experiments::{
    figures, fleet, latency, loss, replication, runner::Matrix, saturation, summary, survivability,
    tables, trace,
};
use cor_pool::Pool;
use cor_sim::JournalLevel;

/// Resolves a workload name from the command line; an unknown name is a
/// usage error (stderr, exit 2), never output.
fn workload_or_exit(name: &str) -> cor_workloads::Workload {
    trace::workload_by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let pool = match args.iter().position(|a| a == "--threads") {
        Some(i) => {
            let Some(n) = args
                .get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
            else {
                eprintln!("--threads requires a positive integer");
                std::process::exit(2);
            };
            args.drain(i..=i + 1);
            Pool::new(n)
        }
        None => Pool::from_env(),
    };
    let trace_out = match args.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            let Some(path) = args.get(i + 1).cloned() else {
                eprintln!("--trace-out requires a file path");
                std::process::exit(2);
            };
            args.drain(i..=i + 1);
            Some(path)
        }
        None => None,
    };
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let workloads = cor_workloads::all();
    let mut matrix = Matrix::with_pool(pool);
    let emit = |s: String| println!("{s}");
    match cmd {
        "table4-1" => emit(tables::table4_1(&workloads)),
        "table4-2" => emit(tables::table4_2(&workloads)),
        "table4-3" => emit(tables::table4_3(&mut matrix, &workloads)),
        "table4-4" => emit(tables::table4_4(&mut matrix, &workloads)),
        "table4-5" => emit(tables::table4_5(&mut matrix, &workloads)),
        "fig4-1" => emit(figures::fig4_1(&mut matrix, &workloads)),
        "fig4-2" => emit(figures::fig4_2(&mut matrix, &workloads)),
        "fig4-3" => emit(figures::fig4_3(&mut matrix, &workloads)),
        "fig4-4" => emit(figures::fig4_4(&mut matrix, &workloads)),
        "fig4-5" => emit(figures::fig4_5(&mut matrix)),
        "constants" => emit(summary::constants()),
        "summary" => emit(summary::aggregates(&mut matrix, &workloads)),
        "speedups" => emit(summary::transfer_speedups(&mut matrix, &workloads)),
        "ablation" => emit(summary::ablation(&workloads, &pool)),
        "loss-sweep" => emit(loss::loss_sweep(&workloads, &pool)),
        "survivability" => emit(survivability::survivability(&workloads, &pool)),
        "survivability-csv" => print!("{}", survivability::survivability_csv(&workloads, &pool)),
        "replication" => emit(replication::replication(&workloads, &pool)),
        "replication-csv" => print!("{}", replication::replication_csv(&workloads, &pool)),
        "fleet" => emit(fleet::fleet(&pool)),
        "fleet-csv" => print!("{}", fleet::fleet_csv(&pool)),
        "saturation" => emit(saturation::saturation(&pool)),
        "saturation-csv" => print!("{}", saturation::saturation_csv(&pool)),
        "cow-study" => emit(summary::cow_study()),
        "sensitivity" => emit(summary::sensitivity(&pool)),
        "modern" => emit(summary::modern_study(&workloads, &pool)),
        "trace" => {
            let name = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("Minprog");
            let jsonl = args.iter().any(|a| a == "--jsonl");
            let level = trace::journal_level_from_env(if args.iter().any(|a| a == "--summary") {
                JournalLevel::Summary
            } else {
                JournalLevel::Full
            });
            let w = workload_or_exit(name);
            let t = trace::traced_trial(&w, level);
            eprintln!("{}", t.describe());
            let doc = if jsonl { t.jsonl() } else { t.perfetto() };
            match &trace_out {
                Some(path) => {
                    std::fs::write(path, &doc).expect("write --trace-out file");
                    eprintln!("wrote {path}");
                }
                None => print!("{doc}"),
            }
            return;
        }
        "profile" | "blame-csv" | "flamegraph" => {
            let target = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .map(String::as_str)
                .unwrap_or("Minprog");
            let (profile, links, root) = if target == "fleet" {
                let (_, p, l) = fleet::run_cell_profiled(fleet::blame_cell_spec());
                (p, l, "migration")
            } else {
                let w = workload_or_exit(target);
                let t = trace::traced_trial(&w, trace::journal_level_from_env(JournalLevel::Full));
                (t.profile(), t.link_waits(), "migration")
            };
            assert!(
                profile.sums_exactly(),
                "blame buckets must sum exactly to each span's duration"
            );
            match cmd {
                "profile" => emit(profile.report(root)),
                "blame-csv" => print!("{}", profile.blame_csv(&links)),
                _ => print!("{}", profile.folded()),
            }
        }
        "journal" => {
            let name = args.get(1).map(String::as_str).unwrap_or("Minprog");
            emit(summary::trace_demo(&workload_or_exit(name)));
        }
        "metrics" => {
            let name = args.get(1).map(String::as_str).unwrap_or("Minprog");
            let w = workload_or_exit(name);
            let t = trace::traced_trial(&w, trace::journal_level_from_env(JournalLevel::Full));
            let at = t.world.clock.now();
            emit(t.metrics().render(at));
        }
        "policy" => emit(summary::policy_demo()),
        "csv" => emit(cor_experiments::runner::matrix_csv(&mut matrix, &workloads)),
        "latency" => print!("{}", latency::latency_baseline(&pool)),
        "check" => {
            let checks = cor_experiments::check::run_checks(&mut matrix, &workloads);
            let (rendered, all_pass) = cor_experiments::check::render(&checks);
            println!("{rendered}");
            if !all_pass {
                std::process::exit(1);
            }
        }
        "all" => {
            emit(tables::table4_1(&workloads));
            emit(tables::table4_2(&workloads));
            emit(tables::table4_3(&mut matrix, &workloads));
            emit(tables::table4_4(&mut matrix, &workloads));
            emit(tables::table4_5(&mut matrix, &workloads));
            emit(figures::fig4_1(&mut matrix, &workloads));
            emit(figures::fig4_2(&mut matrix, &workloads));
            emit(figures::fig4_3(&mut matrix, &workloads));
            emit(figures::fig4_4(&mut matrix, &workloads));
            emit(figures::fig4_5(&mut matrix));
            emit(summary::constants());
            emit(summary::transfer_speedups(&mut matrix, &workloads));
            emit(summary::aggregates(&mut matrix, &workloads));
            emit(summary::ablation(&workloads, &pool));
            emit(summary::cow_study());
            emit(summary::sensitivity(&pool));
            emit(summary::modern_study(&workloads, &pool));
            emit(summary::policy_demo());
            emit(loss::loss_sweep(&workloads, &pool));
            emit(survivability::survivability(&workloads, &pool));
            emit(replication::replication(&workloads, &pool));
            emit(fleet::fleet(&pool));
            emit(saturation::saturation(&pool));
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!(
                "usage: experiments [--threads N] [--trace-out FILE] <command>\n\
                 commands: table4-1..table4-5, fig4-1..fig4-5, constants, summary, \
                 speedups, ablation, loss-sweep, survivability, survivability-csv, \
                 replication, replication-csv, fleet, fleet-csv, saturation, saturation-csv, \
                 cow-study, sensitivity, modern, \
                 trace [name] [--jsonl] [--summary], \
                 journal [name], metrics [name], profile [name|fleet], \
                 blame-csv [name|fleet], flamegraph [name|fleet], \
                 policy, csv, latency, check, all"
            );
            std::process::exit(2);
        }
    }
    // A sweep (or any non-trace command) run with --trace-out still ships
    // a trace artifact: a fixed-seed Minprog trial at Full level.
    if let Some(path) = trace_out {
        let w = cor_workloads::minprog::workload();
        let t = trace::traced_trial(&w, trace::journal_level_from_env(JournalLevel::Full));
        std::fs::write(&path, t.perfetto()).expect("write --trace-out file");
        eprintln!("{}", t.describe());
        eprintln!("wrote {path}");
    }
}
