//! The reproduction gate, and the prose that quotes it.
//!
//! Every paper claim is stated once, as a row of `experiments check`
//! (`crates/experiments/src/check.rs`) carrying the paper's value, the
//! measured value and the accepted interval. This file runs the gate
//! once through the command table, and holds the prose to what the repo
//! prints: EXPERIMENTS.md's paper sections and README's "What
//! reproduces" table may only quote numbers that `results/all.txt` or
//! the gate's report prints.

use std::collections::HashSet;
use std::sync::OnceLock;

use cor_experiments::commands::{self, Ctx, Failure};

/// `experiments check`, run once for every test in this file.
fn gate() -> &'static Result<String, Failure> {
    static GATE: OnceLock<Result<String, Failure>> = OnceLock::new();
    GATE.get_or_init(|| {
        let mut ctx = Ctx::new(cor_pool::Pool::default());
        commands::run(&mut ctx, "check", &[])
    })
}

/// The reproduction gate itself — `experiments check`, run through the
/// command table: every paper-vs-measured row passes.
#[test]
fn the_reproduction_gate_passes() {
    match gate() {
        Ok(report) => assert!(report.contains("checks passed"), "{report}"),
        Err(Failure::Failed(report)) => panic!("the gate drifted:\n{report}"),
        Err(Failure::Usage(message)) => panic!("{message}"),
    }
}

/// Every number in EXPERIMENTS.md from `## Table 4-1` through `## §4.4
/// aggregates`, and in README's "What reproduces" table, is at its
/// printed precision a rounding of a number that `results/all.txt` or
/// the gate's report prints, the paper column included. Section, table
/// and figure references (`§4.3.3`, `Table 4-5`) and `pf=N` are not
/// quantities and are skipped.
#[test]
fn the_prose_quotes_only_printed_numbers() {
    let report = match gate() {
        Ok(report) | Err(Failure::Failed(report)) => report,
        Err(Failure::Usage(message)) => panic!("{message}"),
    };
    // Every printed value at every precision the prose uses.
    let printed: HashSet<String> = numbers(&read("results/all.txt"))
        .chain(numbers(report))
        .flat_map(|n| {
            let v: f64 = n.parse().expect("a scanned number parses");
            (0..=4).map(move |d| format!("{v:.d$}"))
        })
        .collect();
    let mut unquoted = Vec::new();
    for (file, first, last) in [
        ("EXPERIMENTS.md", "## Table 4-1", "## §4.4 aggregates"),
        ("README.md", "## What reproduces", "## What reproduces"),
    ] {
        let text = section(&read(file), first, last);
        assert!(!text.is_empty(), "{file}: no {first} section");
        for line in text.lines() {
            for n in numbers(line).filter(|n| !printed.contains(n)) {
                unquoted.push(format!("{file}: {n} in `{line}`"));
            }
        }
    }
    assert!(
        unquoted.is_empty(),
        "numbers the repo does not print (quote `experiments all` / `check`, or drop them):\n{}",
        unquoted.join("\n")
    );
}

fn read(path: &str) -> String {
    let root = env!("CARGO_MANIFEST_DIR");
    std::fs::read_to_string(format!("{root}/{path}")).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The lines from the heading starting with `first` through the end of
/// the section whose heading starts with `last`.
fn section(text: &str, first: &str, last: &str) -> String {
    let mut out = Vec::new();
    let mut in_last = false;
    for line in text.lines().skip_while(|l| !l.starts_with(first)) {
        if line.starts_with("## ") {
            if in_last {
                break;
            }
            in_last = line.starts_with(last);
        }
        out.push(line);
    }
    out.join("\n")
}

/// The quantities `text` prints, as written without thousands commas: a
/// digit run glued to a word (`p99`, `table4`, `drain-64`, `pf=1`,
/// `@26`, `§4`) is a name, not a quantity, and `N-M` is a table or
/// figure reference.
fn numbers(text: &str) -> impl Iterator<Item = String> + '_ {
    let chars: Vec<char> = text.chars().collect();
    let mut found = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        if !chars[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let glued = match i.checked_sub(1).map(|p| (p, chars[p])) {
            Some((_, c)) if c.is_alphanumeric() || "§.@=_".contains(c) => true,
            Some((p, '-')) => p > 0 && chars[p - 1].is_alphanumeric(),
            _ => false,
        };
        let digit = |k: usize| chars.get(k).is_some_and(char::is_ascii_digit);
        let mut number = String::new();
        while i < chars.len() {
            match chars[i] {
                c if c.is_ascii_digit() => number.push(c),
                ',' if (1..=3).all(|k| digit(i + k)) && !digit(i + 4) => {}
                '.' if digit(i + 1) && !number.contains('.') => number.push('.'),
                _ => break,
            }
            i += 1;
        }
        let reference = chars.get(i) == Some(&'-') && digit(i + 1);
        if !glued && !reference {
            found.push(number);
        }
    }
    found.into_iter()
}
