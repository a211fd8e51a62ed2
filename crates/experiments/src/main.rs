//! The `experiments` binary: regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--threads N] [--trace-out FILE] <command>
//! ```
//!
//! The commands are the rows of [`cor_experiments::commands::COMMANDS`];
//! an unknown one (`experiments help`) prints the table. With no command
//! it runs `all`.
//!
//! Independent trial cells run concurrently on `N` worker threads
//! (`--threads N`, defaulting to the machine's parallelism). Every output
//! is byte-identical at any thread count: each cell is its own
//! deterministic simulation, and all rendering happens serially in cell
//! order.
//!
//! `--trace-out FILE` writes a Perfetto `trace.json` to FILE: for the
//! `trace` command it redirects that command's own trace there; for any
//! other command (e.g. a sweep) it additionally captures a fixed-seed
//! Minprog trial so every run can ship a trace artifact. Traced commands
//! record the `Full` journal (`trace --summary`: milestones only); sweeps
//! and storm cells record none. The binary reads no environment
//! variable. A bad invocation — an unknown command, a `--threads` that is
//! not a positive integer, a `--trace-out` path that cannot be written —
//! prints one line to stderr and exits 2.

use std::io::{ErrorKind, Write};
use std::process::exit;

use cor_experiments::commands::{self, Ctx, Failure};
use cor_experiments::trace;
use cor_pool::Pool;
use cor_sim::JournalLevel;

/// Removes `flag VALUE` from `args` and returns the value; a flag with
/// nothing after it is a usage error naming `what` it wants.
fn take_option(args: &mut Vec<String>, flag: &str, what: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 == args.len() {
        eprintln!("{flag} requires {what}");
        exit(2);
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Some(value)
}

/// Writes a command's output to stdout. A reader that has gone away
/// (`experiments all | head -1`) is not an error: exit 0 quietly.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => exit(0),
        Err(e) => {
            eprintln!("failed printing to stdout: {e}");
            exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    const THREADS: &str = "a positive integer";
    let pool = match take_option(&mut args, "--threads", THREADS) {
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => Pool::new(n),
            _ => {
                eprintln!("--threads requires {THREADS}");
                exit(2);
            }
        },
        None => Pool::default(),
    };
    let mut ctx = Ctx::new(pool);
    ctx.trace_out = take_option(&mut args, "--trace-out", "a file path");
    let mut args = args.iter().map(String::as_str);
    let name = args.next().unwrap_or(commands::ALL.name);
    match commands::run(&mut ctx, name, &args.collect::<Vec<_>>()) {
        Ok(text) => emit(&text),
        Err(Failure::Usage(message)) => {
            eprintln!("{message}");
            exit(2);
        }
        Err(Failure::Failed(report)) => {
            emit(&report);
            exit(1);
        }
    }
    // A sweep (or any command but `trace`, which took the path) run with
    // --trace-out still ships a trace artifact: a fixed-seed Minprog
    // trial at Full level.
    if let Some(path) = ctx.trace_out {
        let w = cor_workloads::minprog::workload();
        let t = trace::traced_trial(&w, JournalLevel::Full);
        if let Err(message) = trace::write_trace_out(&path, &t, &t.perfetto()) {
            eprintln!("{message}");
            exit(2);
        }
    }
}
