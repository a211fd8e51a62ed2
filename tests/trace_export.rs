//! Trace-export regression suite.
//!
//! Four layers of protection for the observability pipeline:
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
//! 4. **Every event pinned.** One literal of each [`TraceEvent`] variant,
//!    with its kind tag, milestone flag, owner node, detail string and
//!    JSON args written out, so no rendering of any event can drift.

use cor::ipc::{MsgKind, NodeId};
use cor::sim::{JournalLevel, LedgerCategory, SimDuration, SimTime};
use cor::trace::{export, Journal, JournalEvent, TraceEvent};
use cor_experiments::trace::{traced_trial, TracedTrial};

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
/// command table's row adds the target, the format flag and the journal
/// level (`--summary`), nothing else.
#[test]
fn the_trace_command_prints_the_traced_trial() {
    use cor_experiments::commands::{self, Ctx};
    let mut ctx = Ctx::new(cor_pool::Pool::serial());
    let w = cor::workloads::minprog::workload();
    let full = traced_trial(&w, JournalLevel::Full);
    assert_eq!(commands::run(&mut ctx, "trace", &[]).unwrap(), full.perfetto());
    let summary = traced_trial(&w, JournalLevel::Summary);
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

/// The histogram of `world`'s `imag-fault` span durations, as its
/// `Debug` (every bucket, count, sum, min and max).
fn fault_span_histogram(world: &cor::kernel::World) -> String {
    let mut h = cor::trace::LogHistogram::new();
    let journal = world.journal.as_ref().expect("a journal-enabled world");
    for s in journal.spans().iter().filter(|s| s.name == "imag-fault") {
        h.record_duration(s.duration().expect("fault span closed"));
    }
    format!("{h:?}")
}

/// The kernel's always-on fault histogram times exactly what the
/// `imag-fault` span covers, on every exit of the fault path: so a storm
/// cell can read it instead of keeping a journal to scan.
fn assert_fault_service_is_the_span_histogram(world: &cor::kernel::World, what: &str) {
    assert!(world.fault_service.count() > 0, "{what}: no faults");
    assert_eq!(
        format!("{:?}", world.fault_service),
        fault_span_histogram(world),
        "{what}: fault_service != imag-fault span durations"
    );
}

#[test]
fn fault_service_equals_span_durations_on_a_traced_trial() {
    let w = cor::workloads::minprog::workload();
    let t = traced_trial(&w, JournalLevel::Full);
    assert_fault_service_is_the_span_histogram(&t.world, "Minprog pure-IOU");
    assert_eq!(t.world.fault_service.count(), t.imag_faults);
}

#[test]
fn fault_service_equals_span_durations_through_recovery_and_orphan_exits() {
    // The traveler's first pages are flushed to the source's disk backer,
    // the rest stay owed; then the source dies. Reading back recovers the
    // flushed pages from disk (the recovery exit) and orphans on the first
    // unflushed one (the error exit).
    use cor::kernel::program::Trace;
    use cor::kernel::{DrainPolicy, KernelError, World};
    use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
    use cor::migrate::{MigrationManager, Strategy};
    use cor::net::{CrashPlan, CrashTrigger};

    let (pages, flushed) = (8u64, 3u64);
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
        .create_process(a, "traveler", space, tb.terminate())
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    let drained = world.drain_round(b, pid, DrainPolicy::flush(flushed));
    assert_eq!(drained.unwrap(), flushed);
    let now = world.clock.now();
    world.fabric.params.crashes = CrashPlan::new().killing(a, CrashTrigger::AtTime(now));
    let err = world.run(b, pid).expect_err("an unflushed page orphans");
    assert!(
        matches!(err, KernelError::OrphanedProcess { .. }),
        "expected OrphanedProcess, got {err:?}"
    );
    assert_eq!(world.fabric.reliability.pages_recovered.get(), flushed);
    assert_eq!(world.fault_service.count(), flushed + 1);
    assert_fault_service_is_the_span_histogram(&world, "recovery and orphan");
}

#[test]
fn fault_service_equals_span_durations_through_replica_failover() {
    // Replicated page homes, the primary dead the moment the migration
    // lands: every fault is served by a replica read, an early return of
    // the fault path that never makes the wire round trip.
    use cor::kernel::program::Trace;
    use cor::kernel::World;
    use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
    use cor::migrate::{MigrationManager, Strategy};
    use cor::net::{ReplicationParams, WireParams};

    let pages = 6u64;
    let wire = WireParams {
        replication: ReplicationParams::primary_backup(1, 1),
        ..WireParams::default()
    };
    let (mut world, nodes) = World::fleet(4, Default::default(), wire);
    world.enable_journal();
    let (a, b) = (nodes[0], nodes[1]);
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages {
        tb.read(PageNum(i).base(), 64);
    }
    let pid = world
        .create_process(a, "hopper", space, tb.terminate())
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    let now = world.clock.now();
    world.fabric.crash_node(now, &mut world.ports, a, false);
    assert!(world.run(b, pid).unwrap().finished);
    assert_eq!(world.fabric.reliability.failover_fetches.get(), pages);
    assert_eq!(world.fault_service.count(), pages);
    assert_fault_service_is_the_span_histogram(&world, "replica failover");
}

#[test]
fn a_journal_free_storm_cell_equals_a_full_journal_one() {
    // `run_cell` keeps no journal and reads the kernel's histogram;
    // `run_cell_profiled` records `Full`. Every CSV column must agree.
    use cor_experiments::fleet;
    let mut specs = fleet::gate_cells();
    specs.push(fleet::blame_cell_spec());
    for spec in specs {
        assert_eq!(
            fleet::csv_for(&[fleet::run_cell(spec)]),
            fleet::csv_for(&[fleet::run_cell_profiled(spec).0]),
            "{spec:?}"
        );
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
    world.fabric.params.crashes = CrashPlan::new().killing(a, CrashTrigger::AtTime(now));
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
    for (_, j) in off.world.journals() {
        assert!(j.is_empty());
        assert!(j.spans().is_empty());
    }
    // Observability is a pure observer: virtual time, results, bytes on
    // the wire, fault service times and memory agree at every level.
    let observed = |t: &TracedTrial| {
        let world = &t.world;
        let b = world.node_ids()[1];
        let pid = world.resident_pids(b).unwrap()[0];
        (
            world.clock.now(),
            t.imag_faults,
            t.ops,
            LedgerCategory::ALL.map(|c| world.fabric.ledger.total_for(c)),
            format!("{:?}", world.fault_service),
            world.touched_checksum(b, pid).unwrap(),
        )
    };
    let at_off = observed(&off);
    for level in [JournalLevel::Summary, JournalLevel::Full] {
        let at_level = observed(&traced_trial(&w, level));
        assert_eq!(at_level, at_off, "{level:?} differs from Off");
    }
}

/// One event with everything it renders to. Every field value is
/// distinct and non-zero and every node id is distinct, so a wrong owner
/// or a swapped key changes the output.
struct Pin {
    event: TraceEvent,
    kind: &'static str,
    milestone: bool,
    node: Option<u32>,
    detail: &'static str,
    args: &'static str,
}

fn pins() -> Vec<Pin> {
    let n = NodeId;
    vec![
        Pin {
            event: TraceEvent::Excised {
                pid: 11,
                node: n(1),
                real_pages: 12,
                resident_pages: 13,
            },
            kind: "migrate",
            milestone: true,
            node: Some(1),
            detail: "excised pid11 from node1: 12 real pages (13 resident)",
            args: r#""pid":11,"node":1,"real_pages":12,"resident_pages":13"#,
        },
        Pin {
            event: TraceEvent::Inserted {
                pid: 21,
                node: n(2),
                carried_pages: 22,
                owed_pages: 23,
            },
            kind: "migrate",
            milestone: true,
            node: Some(2),
            detail: "inserted pid21 on node2: 22 carried, 23 owed",
            args: r#""pid":21,"node":2,"carried_pages":22,"owed_pages":23"#,
        },
        Pin {
            event: TraceEvent::FillZero {
                pid: 31,
                node: n(3),
                page: 32,
            },
            kind: "fault",
            milestone: false,
            node: Some(3),
            detail: "FillZero pid31 page 32",
            args: r#""pid":31,"node":3,"page":32"#,
        },
        Pin {
            event: TraceEvent::DiskIn {
                pid: 41,
                node: n(4),
                page: 42,
            },
            kind: "fault",
            milestone: false,
            node: Some(4),
            detail: "DiskIn pid41 page 42",
            args: r#""pid":41,"node":4,"page":42"#,
        },
        Pin {
            event: TraceEvent::Imaginary {
                pid: 51,
                node: n(5),
                page: 52,
                seg: 53,
                prefetched: 54,
                service_us: SimDuration::from_micros(115_376),
            },
            kind: "fault",
            milestone: false,
            node: Some(5),
            detail: "Imaginary pid51 page 52 seg 53 +54 prefetched (115.38ms)",
            args: r#""pid":51,"node":5,"page":52,"seg":53,"prefetched":54,"service_us":115376"#,
        },
        Pin {
            event: TraceEvent::StaleReply {
                pid: 61,
                node: n(6),
                seg: 62,
                offset: 63,
                seq: 64,
            },
            kind: "stale-reply",
            milestone: false,
            node: Some(6),
            detail: "pid61 dropped stale pager message while waiting for seg 62 page 63 seq 64",
            args: r#""pid":61,"node":6,"seg":62,"offset":63,"seq":64"#,
        },
        Pin {
            event: TraceEvent::Send {
                msg: MsgKind::ImagReadRequest,
                from: n(7),
                wire_bytes: 72,
            },
            kind: "send",
            milestone: false,
            node: Some(7),
            detail: "ImagReadRequest from node7: 72 wire bytes",
            args: r#""msg":"ImagReadRequest","from":7,"wire_bytes":72"#,
        },
        Pin {
            event: TraceEvent::Send {
                msg: MsgKind::User(291),
                from: n(46),
                wire_bytes: 292,
            },
            kind: "send",
            milestone: false,
            node: Some(46),
            detail: "User(291) from node46: 292 wire bytes",
            args: r#""msg":"User(291)","from":46,"wire_bytes":292"#,
        },
        Pin {
            event: TraceEvent::DrainPrefetch {
                pid: 81,
                node: n(8),
                pages: 82,
                seg: 83,
                offset: 84,
            },
            kind: "drain",
            milestone: true,
            node: Some(8),
            detail: "pid81 prefetch-drained 82 pages of seg 83 from page 84",
            args: r#""pid":81,"node":8,"pages":82,"seg":83,"offset":84"#,
        },
        Pin {
            event: TraceEvent::DrainFlush {
                pid: 91,
                node: n(9),
                seg: 92,
                offset: 93,
                backer: n(10),
            },
            kind: "drain",
            milestone: true,
            node: Some(9),
            detail: "pid91 flushed seg 92 page 93 to node10's disk",
            args: r#""pid":91,"node":9,"seg":92,"offset":93,"backer":10"#,
        },
        Pin {
            event: TraceEvent::Recover {
                pid: 101,
                node: n(11),
                pages: 102,
                seg: 103,
                dead: n(12),
            },
            kind: "recover",
            milestone: true,
            node: Some(11),
            detail: "pid101 recovered 102 pages of seg 103 from node12's disk",
            args: r#""pid":101,"node":11,"pages":102,"seg":103,"dead":12"#,
        },
        Pin {
            event: TraceEvent::Orphan {
                pid: 111,
                node: n(13),
                dead: n(14),
                lost: 112,
            },
            kind: "orphan",
            milestone: true,
            node: Some(13),
            detail: "pid111 orphaned: node14 crashed holding 112 unrecoverable pages",
            args: r#""pid":111,"node":13,"dead":14,"lost":112"#,
        },
        Pin {
            event: TraceEvent::Exec {
                pid: 121,
                node: n(15),
                ops: 122,
                finished: true,
            },
            kind: "exec",
            milestone: true,
            node: Some(15),
            detail: "pid121 ran 122 ops on node15, terminated",
            args: r#""pid":121,"node":15,"ops":122,"finished":true"#,
        },
        Pin {
            event: TraceEvent::Exec {
                pid: 271,
                node: n(44),
                ops: 272,
                finished: false,
            },
            kind: "exec",
            milestone: true,
            node: Some(44),
            detail: "pid271 ran 272 ops on node44",
            args: r#""pid":271,"node":44,"ops":272,"finished":false"#,
        },
        Pin {
            event: TraceEvent::NetDrop {
                msg: MsgKind::ImagReadReply,
                from: n(16),
                to: n(17),
                attempt: 131,
            },
            kind: "net-drop",
            milestone: false,
            node: Some(16),
            detail: "ImagReadReply node16->node17 attempt 131 lost",
            args: r#""msg":"ImagReadReply","from":16,"to":17,"attempt":131"#,
        },
        Pin {
            event: TraceEvent::NetUnreachable {
                msg: MsgKind::ImagSegmentDeath,
                from: n(18),
                to: n(19),
                attempts: 141,
            },
            kind: "net-unreachable",
            milestone: true,
            node: Some(18),
            detail: "ImagSegmentDeath node18->node19 abandoned after 141 attempts",
            args: r#""msg":"ImagSegmentDeath","from":18,"to":19,"attempts":141"#,
        },
        Pin {
            event: TraceEvent::NetJitter {
                msg: MsgKind::Core,
                from: n(20),
                to: n(21),
                delay_us: 151,
            },
            kind: "net-jitter",
            milestone: false,
            node: Some(20),
            detail: "Core node20->node21 delayed 151us",
            args: r#""msg":"Core","from":20,"to":21,"delay_us":151"#,
        },
        Pin {
            event: TraceEvent::NetDup {
                msg: MsgKind::Rimas,
                from: n(22),
                to: n(23),
                seq: 161,
            },
            kind: "net-dup",
            milestone: false,
            node: Some(22),
            detail: "Rimas node22->node23 duplicate seq 161 suppressed",
            args: r#""msg":"Rimas","from":22,"to":23,"seq":161"#,
        },
        Pin {
            event: TraceEvent::NetReorder {
                msg: MsgKind::MigrateRequest,
                from: n(24),
                to: n(25),
            },
            kind: "net-reorder",
            milestone: false,
            node: Some(24),
            detail: "MigrateRequest node24->node25 held in limbo",
            args: r#""msg":"MigrateRequest","from":24,"to":25"#,
        },
        Pin {
            event: TraceEvent::NetStale {
                seg: 181,
                offset: 182,
                seq: 183,
            },
            kind: "net-stale",
            milestone: false,
            node: None,
            detail: "reply for seg 181 page 182 seq 183 had no pending relay",
            args: r#""seg":181,"offset":182,"seq":183"#,
        },
        Pin {
            event: TraceEvent::NetDeathLost {
                seg: 191,
                to: n(27),
            },
            kind: "net-death-lost",
            milestone: true,
            node: Some(27),
            detail: "death notice for seg 191 suppressed: node27 is down",
            args: r#""seg":191,"to":27"#,
        },
        Pin {
            event: TraceEvent::NetCrash {
                node: n(28),
                amnesiac: true,
                dropped: 201,
            },
            kind: "net-crash",
            milestone: true,
            node: Some(28),
            detail: "node28 crashed and rebooted amnesiac (201 in-flight messages lost)",
            args: r#""node":28,"amnesiac":true,"dropped":201"#,
        },
        Pin {
            event: TraceEvent::NetCrash {
                node: n(45),
                amnesiac: false,
                dropped: 281,
            },
            kind: "net-crash",
            milestone: true,
            node: Some(45),
            detail: "node45 crashed (281 in-flight messages lost)",
            args: r#""node":45,"amnesiac":false,"dropped":281"#,
        },
        Pin {
            event: TraceEvent::NetNodeDown {
                msg: MsgKind::MigrateAck,
                from: n(29),
                to: n(30),
            },
            kind: "net-node-down",
            milestone: true,
            node: Some(29),
            detail: "MigrateAck node29->node30 aborted: peer is down",
            args: r#""msg":"MigrateAck","from":29,"to":30"#,
        },
        Pin {
            event: TraceEvent::NetRoute {
                msg: MsgKind::PreCopyRound,
                from: n(31),
                to: n(32),
                hops: 211,
            },
            kind: "net-route",
            milestone: false,
            node: Some(31),
            detail: "PreCopyRound node31->node32 routed over 211 hops",
            args: r#""msg":"PreCopyRound","from":31,"to":32,"hops":211"#,
        },
        Pin {
            event: TraceEvent::NetBatch {
                node: n(33),
                requests: 221,
                pages: 222,
            },
            kind: "net-batch",
            milestone: false,
            node: Some(33),
            detail: "node33 merged 221 read requests into one 222-page reply",
            args: r#""node":33,"requests":221,"pages":222"#,
        },
        Pin {
            event: TraceEvent::NetCoalesce {
                node: n(34),
                seg: 231,
                offset: 232,
            },
            kind: "net-coalesce",
            milestone: false,
            node: Some(34),
            detail: "node34 coalesced request for seg 231 page 232 onto in-flight fetch",
            args: r#""node":34,"seg":231,"offset":232"#,
        },
        Pin {
            event: TraceEvent::NetReplicate {
                node: n(35),
                replica: n(36),
                pages: 241,
            },
            kind: "net-replicate",
            milestone: false,
            node: Some(35),
            detail: "node35 replicated 241 pages to node36",
            args: r#""node":35,"replica":36,"pages":241"#,
        },
        Pin {
            event: TraceEvent::Failover {
                pid: 251,
                node: n(37),
                dead: n(38),
                replica: n(39),
                pages: 252,
                seg: 253,
            },
            kind: "failover",
            milestone: true,
            node: Some(37),
            detail: "pid251 on node37 failed over to node39: 252 pages of seg 253 (node38 down)",
            args: r#""pid":251,"node":37,"dead":38,"replica":39,"pages":252,"seg":253"#,
        },
        Pin {
            event: TraceEvent::PlacementSkip {
                node: n(40),
                source: n(41),
            },
            kind: "placement-skip",
            milestone: false,
            node: Some(41),
            detail: "node41 placement skipped node40: node is down",
            args: r#""node":40,"source":41"#,
        },
        Pin {
            event: TraceEvent::NetPitFail {
                node: n(42),
                upstream: n(43),
                seg: 261,
                offset: 262,
                waiters: 263,
                rerouted: 264,
            },
            kind: "net-pit-fail",
            milestone: false,
            node: Some(42),
            detail: "node42 unparked 263 waiters for seg 261 page 262 (node43 down, 264 rerouted)",
            args: r#""node":42,"upstream":43,"seg":261,"offset":262,"waiters":263,"rerouted":264"#,
        },
    ]
}

/// The variant's position in declaration order. No wildcard arm: a new
/// variant does not compile until it is named here, and then fails
/// [`the_pins_cover_every_variant`] until it has a pin.
fn variant_index(e: &TraceEvent) -> usize {
    match e {
        TraceEvent::Excised { .. } => 0,
        TraceEvent::Inserted { .. } => 1,
        TraceEvent::FillZero { .. } => 2,
        TraceEvent::DiskIn { .. } => 3,
        TraceEvent::Imaginary { .. } => 4,
        TraceEvent::StaleReply { .. } => 5,
        TraceEvent::Send { .. } => 6,
        TraceEvent::DrainPrefetch { .. } => 7,
        TraceEvent::DrainFlush { .. } => 8,
        TraceEvent::Recover { .. } => 9,
        TraceEvent::Orphan { .. } => 10,
        TraceEvent::Exec { .. } => 11,
        TraceEvent::NetDrop { .. } => 12,
        TraceEvent::NetUnreachable { .. } => 13,
        TraceEvent::NetJitter { .. } => 14,
        TraceEvent::NetDup { .. } => 15,
        TraceEvent::NetReorder { .. } => 16,
        TraceEvent::NetStale { .. } => 17,
        TraceEvent::NetDeathLost { .. } => 18,
        TraceEvent::NetCrash { .. } => 19,
        TraceEvent::NetNodeDown { .. } => 20,
        TraceEvent::NetRoute { .. } => 21,
        TraceEvent::NetBatch { .. } => 22,
        TraceEvent::NetCoalesce { .. } => 23,
        TraceEvent::NetReplicate { .. } => 24,
        TraceEvent::Failover { .. } => 25,
        TraceEvent::PlacementSkip { .. } => 26,
        TraceEvent::NetPitFail { .. } => 27,
    }
}

/// Every `Full`-journal record stores one `JournalEvent` (instant, span,
/// event), so these sizes are what the benchmark's
/// `cor-trace.full_bytes_per_event` measures: a field that widens one
/// variant widens every record of every journal.
#[test]
fn an_event_is_48_bytes_and_a_journal_record_64() {
    assert_eq!(std::mem::size_of::<TraceEvent>(), 48);
    assert_eq!(std::mem::size_of::<JournalEvent>(), 64);
}

#[test]
fn the_pins_cover_every_variant() {
    let mut seen = [false; 28];
    for p in pins() {
        seen[variant_index(&p.event)] = true;
    }
    let missing: Vec<usize> = (0..seen.len()).filter(|&i| !seen[i]).collect();
    assert!(missing.is_empty(), "variants without a pin: {missing:?}");
}

#[test]
fn every_event_renders_its_pinned_kind_milestone_owner_and_detail() {
    for p in pins() {
        let e = p.event;
        assert_eq!(e.kind(), p.kind, "{e:?}");
        assert_eq!(e.is_milestone(), p.milestone, "{e:?}");
        assert_eq!(e.node().map(|n| n.0), p.node, "{e:?}");
        assert_eq!(e.to_string(), p.detail, "{e:?}");
    }
}

#[test]
fn every_event_exports_its_pinned_json() {
    let pins = pins();
    let mut j = Journal::new();
    for (i, p) in pins.iter().enumerate() {
        j.record(SimTime::from_micros(i as u64 + 1), p.event);
    }
    let jsonl = export::jsonl(&[("pin", &j)]);
    let perfetto = export::perfetto(&[("pin", &j)], 1_000);
    assert_eq!(jsonl.lines().count(), pins.len());
    for ((i, p), line) in pins.iter().enumerate().zip(jsonl.lines()) {
        let t = i + 1;
        let (kind, detail, args) = (p.kind, p.detail, p.args);
        assert_eq!(
            line,
            format!(
                r#"{{"type":"event","source":"pin","t_us":{t},"kind":"{kind}","span":0,"detail":"{detail}","args":{{{args}}}}}"#
            )
        );
        let pid = p.node.map_or(0, |n| n + 1);
        let instant = format!(
            r#"{{"name":"{kind}","ph":"i","s":"p","pid":{pid},"tid":1,"ts":{t},"args":{{"source":"pin","detail":"{detail}",{args}}}}}"#
        );
        assert!(
            perfetto.contains(&instant),
            "missing from the Perfetto export: {instant}"
        );
    }
}
