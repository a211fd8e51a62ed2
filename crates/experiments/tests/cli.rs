//! The `experiments` command-line contract: bad or stale invocations —
//! outside input the binary cannot use — fail with one stderr line and
//! exit code 2, never a panic, and the environment is never read: a
//! variable an older build honoured is dead, not half-honoured.

use std::process::{Command, Output, Stdio};

// The removed executor knob. Spelled in halves so the repo-wide grep
// that proves the knob is gone from the tree stays empty.
const DEAD_FLAG: &str = concat!("--run", "time");

/// Every environment variable an older build read: the executor (in
/// halves, like its flag), the journal level, the worker count, and the
/// two test-suite sweeps.
const DEAD_VARS: [&str; 5] = [
    concat!("COR_RUN", "TIME"),
    "COR_JOURNAL",
    "COR_THREADS",
    "COR_CHAOS_SEED",
    "COR_REPLICATION_FACTOR",
];

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    for var in DEAD_VARS {
        cmd.env_remove(var);
    }
    cmd
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn the experiments binary")
}

#[test]
fn zero_threads_is_rejected() {
    let out = run(experiments().args(["--threads", "0", "table4-1"]));
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing may run before the rejection"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--threads requires a positive integer"),
        "stderr: {err}"
    );
}

#[test]
fn removed_executor_flag_is_an_unknown_command() {
    let out = run(experiments().args([DEAD_FLAG, "actor", "fleet-csv"]));
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a stale script must not get a CSV");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(&format!("unknown command: {DEAD_FLAG}")),
        "stderr: {err}"
    );
}

#[test]
fn removed_environment_variables_are_ignored() {
    let trace = ["trace", "--jsonl"];
    let plain = run(experiments().args(trace));
    assert!(plain.status.success());
    assert!(plain.stdout.starts_with(b"{"));
    let junk = DEAD_VARS.map(|var| (var, "junk"));
    for (var, value) in junk.into_iter().chain([("COR_JOURNAL", "off")]) {
        let with_var = run(experiments().env(var, value).args(trace));
        assert!(with_var.status.success(), "{var}={value}");
        assert!(plain.stdout == with_var.stdout, "{var}={value} changed it");
    }
}

#[test]
fn unknown_workload_is_a_usage_error_not_output() {
    for cmd in ["journal", "metrics", "trace", "profile"] {
        let out = run(experiments().args([cmd, "NoSuchProgram"]));
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd} wrote to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("unknown workload NoSuchProgram"),
            "{cmd} stderr: {err}"
        );
    }
}

#[test]
fn a_flag_is_not_a_workload_name() {
    let plain = run(experiments().arg("metrics"));
    let flagged = run(experiments().args(["metrics", "--jsonl"]));
    assert!(plain.status.success() && flagged.status.success());
    assert!(plain.stdout.starts_with(b"metrics @ "));
    assert_eq!(plain.stdout, flagged.stdout);
}

#[test]
fn stray_arguments_are_rejected() {
    for args in [
        &["all", "extra-arg"][..],
        &["fleet-csv", "--jsonl"],
        &["profile", "Minprog", "Chess"],
    ] {
        let out = run(experiments().args(args));
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("{} takes", args[0])), "stderr: {err}");
    }
}

#[test]
fn an_unknown_command_prints_the_command_table() {
    let out = run(experiments().arg("help"));
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    for row in ["unknown command: help", "  table4-1 ", "  blame-csv [name|fleet] ", "  all "] {
        assert!(err.contains(row), "no {row:?} in: {err}");
    }
}

#[test]
fn a_closed_pipe_is_a_quiet_exit() {
    // `experiments all | head -1`: the reader is gone before the first
    // byte is written.
    let mut child = experiments()
        .arg("table4-1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the experiments binary");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A path under a regular file, which no user can create.
const UNWRITABLE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/t.json");

/// Exit 2 with one stderr line containing `needle`, and no backtrace.
fn assert_one_line_usage_error(out: &Output, needle: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {err}");
    assert_eq!(err.lines().count(), 1, "stderr: {err}");
    assert!(err.contains(needle), "stderr: {err}");
}

#[test]
fn an_unwritable_trace_out_is_a_usage_error() {
    // `trace` writes its own document there; any other command writes a
    // Minprog artifact there after its output.
    for command in ["trace", "table4-1"] {
        let out = run(experiments().args(["--trace-out", UNWRITABLE, command]));
        assert_one_line_usage_error(&out, &format!("cannot write --trace-out {UNWRITABLE}"));
    }
}

#[test]
fn latency_reproduces_the_committed_baseline_at_any_thread_count() {
    let committed = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../LATENCY_baseline.json"
    ))
    .expect("read the committed LATENCY_baseline.json");
    for threads in ["1", "4"] {
        let out = run(experiments().args(["--threads", threads, "latency"]));
        assert!(out.status.success(), "--threads {threads}");
        assert!(
            out.stdout == committed,
            "--threads {threads}: `experiments latency` drifted from LATENCY_baseline.json"
        );
    }
}
