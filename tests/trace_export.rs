//! Trace-export regression suite.
//!
//! Three layers of protection for the observability pipeline:
//!
//! 1. **Golden file.** The Summary-level JSONL of a fixed-seed Minprog
//!    migration is committed at `tests/golden/minprog_trace.jsonl`; any
//!    drift in event content, span structure, or JSON shape fails here
//!    first. Regenerate with
//!    `cargo run -p cor-experiments -- trace Minprog --jsonl --summary`.
//! 2. **Perfetto schema sanity.** The Chrome-trace export of a Full-level
//!    trial must be well-formed: every complete event ends at or after its
//!    start, every span parent exists, and tracks (pids) partition by
//!    node.
//! 3. **The acceptance criterion.** The number of `imag-fault` spans in
//!    the trace equals the trial's imaginary-fault counter — one causal
//!    span tree per remote fault, no more, no fewer.

use cor::sim::JournalLevel;
use cor_experiments::trace::traced_trial;

/// A minimal JSON scanner for the hand-rolled exporter output: extracts
/// top-level string/number fields of one-line JSON objects. Good enough
/// for schema assertions without a JSON dependency.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .char_indices()
        .scan(0i32, |depth, (i, c)| {
            match c {
                '{' | '[' => *depth += 1,
                '}' | ']' if *depth > 0 => *depth -= 1,
                ',' | '}' | ']' if *depth == 0 => return Some(Some(i)),
                _ => {}
            }
            Some(None)
        })
        .flatten()
        .next()
        .unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

#[test]
fn summary_jsonl_matches_golden_file() {
    let w = cor::workloads::minprog::workload();
    let t = traced_trial(&w, JournalLevel::Summary);
    let expected = include_str!("golden/minprog_trace.jsonl");
    assert_eq!(
        t.jsonl(),
        expected,
        "Summary JSONL drifted from tests/golden/minprog_trace.jsonl; \
         if the change is intentional, regenerate with \
         `cargo run -p cor-experiments -- trace Minprog --jsonl --summary`"
    );
}

/// What `experiments trace` prints is the trial this suite checks: the
/// command table's row adds the target, the format flag and the
/// `COR_JOURNAL` level, nothing else.
#[test]
fn the_trace_command_prints_the_traced_trial() {
    use cor_experiments::commands::{self, Ctx};
    use cor_experiments::trace::journal_level_from_env;
    let mut ctx = Ctx::new(cor_pool::Pool::serial());
    let w = cor::workloads::minprog::workload();
    let full = traced_trial(&w, journal_level_from_env(JournalLevel::Full));
    assert_eq!(commands::run(&mut ctx, "trace", &[]).unwrap(), full.perfetto());
    let summary = traced_trial(&w, journal_level_from_env(JournalLevel::Summary));
    let args = ["Minprog", "--jsonl", "--summary"];
    assert_eq!(commands::run(&mut ctx, "trace", &args).unwrap(), summary.jsonl());
}

#[test]
fn perfetto_trace_is_schema_sane() {
    let w = cor::workloads::minprog::workload();
    let t = traced_trial(&w, JournalLevel::Full);
    let doc = t.perfetto();
    assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\","));
    assert!(doc.ends_with("]}\n") || doc.ends_with("]}"));

    // Split the traceEvents array into its one-per-line objects.
    let body = doc
        .split_once("\"traceEvents\":[")
        .expect("traceEvents array")
        .1;
    let lines: Vec<&str> = body
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .collect();
    assert!(!lines.is_empty());

    let mut span_names = Vec::new();
    let mut metadata_pids = Vec::new();
    let mut complete = 0u64;
    let mut instants = 0u64;
    for l in &lines {
        match field(l, "ph") {
            Some("M") => {
                assert_eq!(field(l, "name"), Some("process_name"));
                metadata_pids.push(field(l, "pid").unwrap().to_string());
            }
            Some("X") => {
                complete += 1;
                let ts: u64 = field(l, "ts").unwrap().parse().expect("ts number");
                let dur: i64 = field(l, "dur").unwrap().parse().expect("dur number");
                assert!(dur >= 0, "span ends before it starts: {l}");
                let end = ts as i64 + dur;
                assert!(end >= ts as i64);
                span_names.push(field(l, "name").unwrap().to_string());
            }
            Some("i") => {
                instants += 1;
                assert_eq!(field(l, "s"), Some("p"), "instants are process-scoped");
            }
            other => panic!("unexpected phase {other:?} in {l}"),
        }
        // Every record sits on a declared track.
        assert!(field(l, "pid").is_some(), "no pid: {l}");
    }
    assert!(complete > 0, "no spans exported");
    assert!(instants > 0, "no instant events exported");
    // Every pid used by a span/instant has process_name metadata.
    for l in &lines {
        if field(l, "ph") != Some("M") {
            let pid = field(l, "pid").unwrap();
            assert!(
                metadata_pids.iter().any(|p| p == pid),
                "pid {pid} has no process_name metadata"
            );
        }
    }
    // The span vocabulary covers the whole stack: migration milestones,
    // fault handling, and wire activity on one timeline.
    for expected in ["migration", "excise", "insert", "exec", "imag-fault", "wire-send"] {
        assert!(
            span_names.iter().any(|n| n == expected),
            "missing {expected} span"
        );
    }
}

#[test]
fn imag_fault_span_count_equals_fault_counter() {
    // The acceptance criterion: in a Full-level Lisp migration trace, the
    // number of imag-fault spans equals the trial's imaginary-fault
    // counter. (Minprog is checked too — cheap and catches off-by-ones in
    // the span plumbing for the small case.)
    for name in ["Minprog", "Lisp-T"] {
        let w = cor::workloads::by_name(name).expect("workload");
        let t = traced_trial(&w, JournalLevel::Full);
        let spans = t.world.journals()[0].1.spans().to_vec();
        let fault_spans = spans.iter().filter(|s| s.name == "imag-fault").count() as u64;
        assert_eq!(
            fault_spans, t.imag_faults,
            "{name}: imag-fault spans != imaginary faults"
        );
        // Every fault span is closed and properly nested under exec.
        for s in spans.iter().filter(|s| s.name == "imag-fault") {
            let end = s.end.expect("fault span closed");
            assert!(end >= s.start);
            assert!(!s.parent.is_none(), "fault spans nest under exec");
        }
    }
}

#[test]
fn span_parents_exist_and_precede_children() {
    let w = cor::workloads::minprog::workload();
    let t = traced_trial(&w, JournalLevel::Full);
    for (name, journal) in t.world.journals() {
        for s in journal.spans() {
            if s.parent.is_none() {
                continue;
            }
            // Parents may live in the other journal (the fabric parents
            // wire sends under the kernel's fault spans), so resolve
            // across both.
            let parent = t
                .world
                .journals()
                .iter()
                .find_map(|(_, j)| j.span(s.parent))
                .copied()
                .unwrap_or_else(|| panic!("{name}: span {:?} has ghost parent", s.id));
            assert!(
                parent.start <= s.start,
                "{name}: child {:?} starts before its parent",
                s.id
            );
        }
    }
}

#[test]
fn mid_fault_crash_abandons_no_spans_silently() {
    // Regression for the error-path span leak: a source crash in the
    // middle of the destination's fault-heavy read-back kills faults
    // mid-flight (`OrphanedProcess`). Every span opened on that path must
    // still be closed at its enclosing scope — the exports must never
    // contain an unclosed, unflagged span, and the profile must still
    // decompose exactly.
    use cor::kernel::program::Trace;
    use cor::kernel::{KernelError, World};
    use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
    use cor::migrate::{MigrationManager, Strategy};
    use cor::net::{CrashPlan, CrashTrigger};

    let pages = 16u64;
    let (mut world, a, b) = World::testbed();
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    tb.read(VAddr(0), pages * PAGE_SIZE);
    let pid = world
        .create_process(a, "doomed", space, tb.terminate())
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    // Kill the source right now: the very first owed-page fault at the
    // destination dies against a crashed home.
    let now = world.clock.now();
    world.fabric.params.crashes = Some(CrashPlan::new().killing(a, CrashTrigger::AtTime(now)));
    let err = world.run(b, pid).expect_err("read-back must orphan");
    assert!(
        matches!(err, KernelError::OrphanedProcess { .. }),
        "expected OrphanedProcess, got {err:?}"
    );

    // Error paths close spans at their enclosing scope: no span is left
    // open, in either journal.
    for (name, j) in world.journals() {
        assert_eq!(j.open_len(), 0, "{name}: open spans leaked past the error");
        for s in j.spans() {
            assert!(
                s.end.is_some(),
                "{name}: span {:?} ({}) abandoned without a close",
                s.id,
                s.name
            );
        }
    }
    // Consequently the exports carry no abandoned flags, and the blame
    // decomposition still sums exactly.
    let jsonl = cor::trace::export::jsonl(&world.journals());
    assert!(!jsonl.contains("\"abandoned\""), "no abandoned spans expected");
    let profile = cor::trace::Profile::from_journals(&world.journals());
    assert!(profile.sums_exactly(), "crash path broke exact blame sums");
}

#[test]
fn journal_off_records_nothing_and_changes_nothing() {
    let w = cor::workloads::minprog::workload();
    let off = traced_trial(&w, JournalLevel::Off);
    let full = traced_trial(&w, JournalLevel::Full);
    for (_, j) in off.world.journals() {
        assert!(j.is_empty());
        assert!(j.spans().is_empty());
    }
    // Observability is a pure observer: virtual time and results agree
    // at every level.
    assert_eq!(off.world.clock.now(), full.world.clock.now());
    assert_eq!(off.imag_faults, full.imag_faults);
    assert_eq!(off.ops, full.ops);
}
