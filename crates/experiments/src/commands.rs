//! The `experiments` command table: every subcommand is one row of
//! [`COMMANDS`], and dispatch, the usage text, `all` and the pin loop of
//! `tests/determinism.rs` are all derived from it.
//!
//! A row names what holds its output still — its [`Gate`]. A surface
//! nothing pins is a surface nobody would notice breaking, so
//! `tests/determinism.rs::every_command_has_a_gate` fails a row whose
//! gate does not exist.

use cor_pool::Pool;
use cor_sim::JournalLevel;
use cor_trace::Profile;
use cor_workloads::Workload;

use crate::runner::{matrix_csv, Matrix};
use crate::study::Study;
use crate::trace::{traced_trial, write_trace_out, TracedTrial};
use crate::{
    check, figures, fleet, latency, loss, replication, saturation, summary, survivability, tables,
};

/// What a command runs against: the memoised paper matrix, the seven
/// representatives, the worker pool, and the arguments after its name.
pub struct Ctx {
    /// Paper-matrix trials, shared by every command of one invocation.
    pub matrix: Matrix,
    /// The paper's representative processes.
    pub workloads: Vec<Workload>,
    /// Where independent cells run.
    pub pool: Pool,
    /// Arguments after the command name.
    pub args: Vec<String>,
    /// `--trace-out FILE`: `trace` takes it and writes its document
    /// there; left in place, `main` ships a Minprog trace artifact.
    pub trace_out: Option<String>,
}

/// Why a command produced no (or negative) output.
#[derive(Debug, PartialEq, Eq)]
pub enum Failure {
    /// A bad invocation: the message goes to stderr, nothing to stdout,
    /// exit code 2.
    Usage(String),
    /// The command ran and its verdict is negative (`check` on drift):
    /// the report goes to stdout, exit code 1.
    Failed(String),
}

/// What pins a command's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Part of `all`, whose text is committed as `results/all.txt`.
    All,
    /// Run with these arguments, it must reproduce this committed file
    /// byte for byte (`tests/determinism.rs::committed_results_are_current`).
    File(&'static str, &'static [&'static str]),
    /// This tier-1 test file drives it through the table.
    Test(&'static str),
}

type Handler = fn(&mut Ctx) -> Result<String, Failure>;

/// One subcommand.
pub struct Command {
    /// The name typed on the command line.
    pub name: &'static str,
    /// The arguments it takes, as shown in the usage text; empty means
    /// none, and any given are rejected.
    pub args: &'static str,
    /// One line for the usage text.
    pub help: &'static str,
    /// Produces exactly the bytes for stdout.
    pub run: Handler,
    /// What holds that output still.
    pub gate: Gate,
}

/// The storm sweep's name — also the target the three profile views
/// accept for its blame cell.
const FLEET: &str = "fleet";

/// The default command: every [`Gate::All`] row, in table order.
pub const ALL: Command = cmd(
    "all",
    "every table, figure and study above, in order",
    file("results/all.txt"),
    |c| {
        let sections = COMMANDS.iter().filter(|cmd| cmd.gate == Gate::All);
        sections.map(|cmd| (cmd.run)(c)).collect()
    },
);

/// A command that takes no arguments.
const fn cmd(name: &'static str, help: &'static str, gate: Gate, run: Handler) -> Command {
    Command {
        name,
        args: "",
        help,
        run,
        gate,
    }
}

impl Command {
    /// The same command taking `args` (a trace view's target and flags).
    const fn taking(mut self, args: &'static str) -> Self {
        self.args = args;
        self
    }
}

/// [`Gate::File`] for a command run without arguments.
const fn file(path: &'static str) -> Gate {
    Gate::File(path, &[])
}

const PROFILE_LAWS: Gate = Gate::Test("tests/profile_laws.rs");
const NAME: &str = "[name]";
const NAME_OR_FLEET: &str = "[name|fleet]";

/// Every subcommand, in `all` order first.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    cmd("table4-1", "address-space composition", Gate::All,
        |c| line(tables::table4_1(&c.workloads))),
    cmd("table4-2", "resident sets", Gate::All, |c| line(tables::table4_2(&c.workloads))),
    cmd("table4-3", "% of the space accessed remotely", Gate::All,
        |c| line(tables::table4_3(&mut c.matrix, &c.workloads))),
    cmd("table4-4", "excision times", Gate::All,
        |c| line(tables::table4_4(&mut c.matrix, &c.workloads))),
    cmd("table4-5", "address-space transfer times", Gate::All,
        |c| line(tables::table4_5(&mut c.matrix, &c.workloads))),
    cmd("fig4-1", "remote execution times", Gate::All,
        |c| line(figures::fig4_1(&mut c.matrix, &c.workloads))),
    cmd("fig4-2", "overall speedup over pure-copy", Gate::All,
        |c| line(figures::fig4_2(&mut c.matrix, &c.workloads))),
    cmd("fig4-3", "bytes transferred", Gate::All,
        |c| line(figures::fig4_3(&mut c.matrix, &c.workloads))),
    cmd("fig4-4", "message-handling time", Gate::All,
        |c| line(figures::fig4_4(&mut c.matrix, &c.workloads))),
    cmd("fig4-5", "Lisp-Del transfer-rate panels", Gate::All,
        |c| line(figures::fig4_5(&mut c.matrix))),
    cmd("constants", "fault-service microbenchmarks (§4.3.3)", Gate::All,
        |_| line(summary::constants())),
    cmd("speedups", "§4.3.2 transfer speedups", Gate::All,
        |c| line(summary::transfer_speedups(&mut c.matrix, &c.workloads))),
    cmd("summary", "§4.4 aggregate savings", Gate::All,
        |c| line(summary::aggregates(&mut c.matrix, &c.workloads))),
    cmd("ablation", "pre-copy ablation (§5, ours)", Gate::All,
        |c| line(summary::ablation(&c.workloads, &c.pool))),
    cmd("cow-study", "physically copied fraction under copy-on-write (§2.1)", Gate::All,
        |_| line(summary::cow_study())),
    cmd("sensitivity", "breakeven over touched fraction x locality (§4.3.4, ours)", Gate::All,
        |c| line(summary::sensitivity(&c.pool))),
    cmd("modern", "the tradeoff under 2020s cost constants (ours)", Gate::All,
        |c| line(summary::modern_study(&c.workloads, &c.pool))),
    cmd("loss-sweep", "completion time vs wire drop rate (ours)", Gate::All,
        |c| study(&loss::STUDY, c, false)),
    cmd("survivability", "crash time x strategy x drain rate sweep (ours)", Gate::All,
        |c| study(&survivability::STUDY, c, false)),
    cmd("replication", "replication factor x crash delay x strategy sweep (ours)", Gate::All,
        |c| study(&replication::STUDY, c, false)),
    cmd(FLEET, "migration storms on routed N-node fabrics (ours)", Gate::All,
        |c| study(&fleet::STUDY, c, false)),
    cmd("saturation", "remote-fault service under offered load (ours)", Gate::All,
        |c| study(&saturation::STUDY, c, false)),
    cmd("survivability-csv", "the survivability sweep as CSV", file("results/survivability.csv"),
        |c| study(&survivability::STUDY, c, true)),
    cmd("replication-csv", "the replication sweep as CSV", file("results/replication.csv"),
        |c| study(&replication::STUDY, c, true)),
    cmd("fleet-csv", "the storm sweep as CSV", file("results/fleet.csv"),
        |c| study(&fleet::STUDY, c, true)),
    cmd("saturation-csv", "the saturation sweep as CSV", file("results/saturation.csv"),
        |c| study(&saturation::STUDY, c, true)),
    cmd("csv", "the full paper matrix as CSV", file("results/matrix.csv"),
        |c| line(matrix_csv(&mut c.matrix, &c.workloads))),
    cmd("latency", "the virtual-time latency baseline", file("LATENCY_baseline.json"),
        |c| Ok(latency::latency_baseline(&c.pool))),
    cmd("trace", "Perfetto / JSONL trace of one trial", Gate::Test("tests/trace_export.rs"), trace)
        .taking("[name] [--jsonl] [--summary]"),
    cmd("journal", "human-readable journal narrative of one trial", PROFILE_LAWS,
        |c| line(summary::trace_demo(&c.workload()?))).taking(NAME),
    cmd("metrics", "per-node metrics report of one trial", PROFILE_LAWS, metrics).taking(NAME),
    cmd("profile", "blame totals + critical paths (virtual time)", PROFILE_LAWS,
        |c| line(c.profiled()?.0.report("migration"))).taking(NAME_OR_FLEET),
    cmd("blame-csv", "per-node / per-link blame decomposition as CSV",
        Gate::File("results/blame_fleet.csv", &[FLEET]),
        |c| c.profiled().map(|(p, links)| p.blame_csv(&links))).taking(NAME_OR_FLEET),
    cmd("flamegraph", "folded stacks (flamegraph.pl / inferno input)", PROFILE_LAWS,
        |c| Ok(c.profiled()?.0.folded())).taking(NAME_OR_FLEET),
    cmd("check", "paper-vs-measured assertions, exit 1 on drift",
        Gate::Test("tests/paper_claims.rs"), run_checks),
    ALL,
];

/// A section printed as `println!` would: one newline after the text.
fn line(text: String) -> Result<String, Failure> {
    Ok(text + "\n")
}

/// One study's text table, as a section of `all`, or its CSV.
fn study<C, O>(s: &Study<C, O>, c: &Ctx, csv: bool) -> Result<String, Failure> {
    let outcomes = s.outcomes(&c.workloads, &c.pool);
    if csv {
        Ok(s.csv(&outcomes))
    } else {
        line(s.table(&c.workloads, &outcomes))
    }
}

fn trace(c: &mut Ctx) -> Result<String, Failure> {
    let flag = |f: &str| c.args.iter().any(|a| a == f);
    let (jsonl, summary) = (flag("--jsonl"), flag("--summary"));
    let t = c.traced(if summary { JournalLevel::Summary } else { JournalLevel::Full })?;
    let doc = if jsonl { t.jsonl() } else { t.perfetto() };
    match c.trace_out.take() {
        Some(path) => write_trace_out(&path, &t, &doc)
            .map_err(Failure::Usage)
            .map(|()| String::new()),
        None => {
            eprintln!("{}", t.describe());
            Ok(doc)
        }
    }
}

fn metrics(c: &mut Ctx) -> Result<String, Failure> {
    let t = c.traced(JournalLevel::Full)?;
    line(t.metrics().render(t.world.clock.now()))
}

fn run_checks(c: &mut Ctx) -> Result<String, Failure> {
    let (rendered, all_pass) = check::render(&check::run_checks(&mut c.matrix, &c.workloads));
    if all_pass {
        line(rendered)
    } else {
        Err(Failure::Failed(rendered + "\n"))
    }
}

impl Ctx {
    /// A context on `pool` with no arguments.
    pub fn new(pool: Pool) -> Self {
        Ctx {
            matrix: Matrix::with_pool(pool),
            workloads: cor_workloads::all(),
            pool,
            args: Vec::new(),
            trace_out: None,
        }
    }

    /// What the six trace views look at: the first argument that is not a
    /// flag, Minprog by default.
    pub fn target(&self) -> &str {
        let named = self.args.iter().find(|a| !a.starts_with("--"));
        named.map_or("Minprog", String::as_str)
    }

    /// The target as a workload (case-sensitive, as the paper tables
    /// print it); an unknown name is a usage error listing the valid ones.
    fn workload(&self) -> Result<Workload, Failure> {
        let name = self.target();
        cor_workloads::by_name(name).ok_or_else(|| {
            let known: Vec<_> = self.workloads.iter().map(Workload::name).collect();
            Failure::Usage(format!("unknown workload {name}; try one of {known:?}"))
        })
    }

    /// The target's traced trial, with its journal at `level`.
    fn traced(&self, level: JournalLevel) -> Result<TracedTrial, Failure> {
        Ok(traced_trial(&self.workload()?, level))
    }

    /// The target's critical-path profile and per-link queue waits: the
    /// storm sweep's blame cell, or a workload's traced trial.
    fn profiled(&self) -> Result<(Profile, fleet::LinkWaits), Failure> {
        let (profile, links) = if self.target() == FLEET {
            let (_, profile, links) = fleet::run_cell_profiled(fleet::blame_cell_spec());
            (profile, links)
        } else {
            let t = self.traced(JournalLevel::Full)?;
            (t.profile(), t.link_waits())
        };
        assert!(
            profile.sums_exactly(),
            "blame buckets must sum exactly to each span's duration"
        );
        Ok((profile, links))
    }
}

/// The usage text: one line per row of [`COMMANDS`].
pub fn usage() -> String {
    let synopsis = |c: &Command| format!("{} {}", c.name, c.args);
    let width = COMMANDS.iter().map(|c| synopsis(c).len()).max().unwrap_or(0);
    let rows: String = COMMANDS
        .iter()
        .map(|c| format!("  {:width$}  {}\n", synopsis(c), c.help))
        .collect();
    format!("usage: experiments [--threads N] [--trace-out FILE] <command>\n\ncommands:\n{rows}")
}

/// Looks `name` up in [`COMMANDS`] and runs it on `ctx` with `args`.
///
/// # Errors
///
/// [`Failure::Usage`] for an unknown command, for arguments to a command
/// that takes none, for more than one target, or an unknown workload;
/// otherwise whatever the command reports.
pub fn run(ctx: &mut Ctx, name: &str, args: &[&str]) -> Result<String, Failure> {
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(Failure::Usage(format!("unknown command: {name}\n{}", usage())));
    };
    let targets = args.iter().filter(|a| !a.starts_with("--")).count();
    if command.args.is_empty() && !args.is_empty() {
        return Err(Failure::Usage(format!("{name} takes no arguments, got {args:?}")));
    }
    if targets > 1 {
        return Err(Failure::Usage(format!("{name} takes one target, got {args:?}")));
    }
    ctx.args = args.iter().map(|a| a.to_string()).collect();
    (command.run)(ctx)
}
