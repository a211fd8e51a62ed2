//! Chaos suite: migrations complete correctly on unreliable wires.
//!
//! The fault-injection layer (drop / duplicate / reorder / jitter, driven
//! by a seeded RNG) is turned on underneath full migrations, and three
//! properties are checked:
//!
//! 1. **Correctness under loss.** For any drop rate below the retry
//!    budget's breaking point, a migration completes and the remotely
//!    touched memory image equals the memory the trace predicts.
//! 2. **Clean-wire equivalence.** A zero-rate fault plan reproduces the
//!    lossless ledger byte counts exactly, category by category — fault
//!    injection costs nothing when it injects nothing.
//! 3. **Determinism.** Identical seeds produce identical runs, down to
//!    the journaled fault sequence; different seeds diverge.

use proptest::prelude::*;

use cor::kernel::program::Trace;
use cor::kernel::World;
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::{FaultPlan, LinkFaults};
use cor::sim::LedgerCategory;

/// Builds a deterministic workload on node `a`: `pages` pages written in
/// the source phase, half of them read back in the remote phase.
fn build_workload(world: &mut World, pages: u64) -> cor::kernel::process::ProcessId {
    let a = world.node_ids()[0];
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 4 * pages * PAGE_SIZE).unwrap();
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages / 2 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    let trace = tb.terminate();
    let pid = world.create_process(a, "chaos", space, trace).unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    pid
}

struct RunOutcome {
    checksum: u64,
    /// The memory the trace predicts for the remote phase.
    expected: u64,
    ledger: Vec<(LedgerCategory, u64)>,
    journal: Vec<String>,
    retransmissions: u64,
    duplicate_drops: u64,
    retransmit_wire_bytes: u64,
}

/// Runs one full migration (build → migrate → run remotely) under the
/// given fault plan and returns the observable outcome.
fn run_migration(
    pages: u64,
    strategy: Strategy,
    faults: Option<FaultPlan>,
) -> Result<RunOutcome, cor::kernel::KernelError> {
    let (mut world, a, b) = World::testbed();
    world.fabric.params.faults = faults;
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = build_workload(&mut world, pages);
    world.reset_touch_tracking(a, pid)?;
    let trace = &world.process(a, pid)?.trace;
    let expected = trace.expected_checksum_from(pages as usize, |_, _| ());
    src.migrate_to(&mut world, &dst, pid, strategy)?;
    world.run(b, pid)?;
    let journal = world
        .fabric
        .journal
        .as_ref()
        .map(|j| {
            j.events()
                .iter()
                .map(|e| format!("{} {} {}", e.at, e.kind(), e.detail()))
                .collect()
        })
        .unwrap_or_default();
    Ok(RunOutcome {
        checksum: world.touched_checksum(b, pid)?,
        expected,
        ledger: LedgerCategory::ALL
            .iter()
            .map(|&c| (c, world.fabric.ledger.total_for(c)))
            .collect(),
        journal,
        retransmissions: world.fabric.reliability.retransmissions.get(),
        duplicate_drops: world.fabric.reliability.duplicate_drops.get(),
        retransmit_wire_bytes: world.fabric.reliability.retransmit_wire_bytes.get(),
    })
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 1 },
    Strategy::ResidentSet { prefetch: 0 },
    Strategy::PreCopy {
        max_rounds: 3,
        stop_pages: 4,
    },
];

#[test]
fn migrations_survive_twenty_percent_drop_with_identical_memory() {
    // Seeded drop rates up to 20% must leave every migration complete
    // with the memory image its trace predicts.
    for strategy in STRATEGIES {
        for rate in [0.05, 0.10, 0.20] {
            let lossy = run_migration(24, strategy, Some(FaultPlan::dropping(0xC0FFEE, rate)))
                .unwrap_or_else(|e| {
                    panic!("{strategy} failed at drop rate {rate}: {e}");
                });
            assert_eq!(
                lossy.checksum, lossy.expected,
                "{strategy} memory image diverged at drop rate {rate}"
            );
        }
    }
}

#[test]
fn zero_loss_runs_reproduce_lossless_byte_counts_exactly() {
    for strategy in STRATEGIES {
        let without = run_migration(24, strategy, None).unwrap();
        let with_clean_plan = run_migration(
            24,
            strategy,
            Some(FaultPlan::uniform(7, LinkFaults::default())),
        )
        .unwrap();
        assert_eq!(
            without.ledger, with_clean_plan.ledger,
            "{strategy}: a zero-rate plan must not perturb the ledger"
        );
        let retransmit_bytes = without
            .ledger
            .iter()
            .find(|(c, _)| *c == LedgerCategory::Retransmit)
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(retransmit_bytes, 0, "lossless wire never retransmits");
    }
}

#[test]
fn same_seed_same_journal_different_seed_diverges() {
    let faults = LinkFaults {
        drop: 0.15,
        duplicate: 0.10,
        jitter: cor::sim::SimDuration::from_millis(5),
        ..LinkFaults::default()
    };
    let strategy = Strategy::PureIou { prefetch: 0 };
    let run = |seed| run_migration(24, strategy, Some(FaultPlan::uniform(seed, faults))).unwrap();
    let first = run(1234);
    let second = run(1234);
    assert_eq!(
        first.journal, second.journal,
        "identical seeds must journal identical fault sequences"
    );
    assert_eq!(first.checksum, second.checksum);
    assert_eq!(first.ledger, second.ledger);
    assert!(
        first.retransmissions > 0 || first.duplicate_drops > 0,
        "the plan actually injected faults"
    );
    let third = run(99);
    assert_ne!(
        first.journal, third.journal,
        "a different seed must draw a different fault sequence"
    );
}

#[test]
fn retransmit_ledger_and_reliability_counters_agree_under_chaos() {
    // The ledger's Retransmit category and the reliability layer's
    // retransmit-bytes counter are two independent accountings of the same
    // waste; a lossy run must keep them equal (the fabric also
    // debug-asserts this on every send).
    for (seed, rate) in [(0xC0FFEE, 0.10), (42, 0.20), (7, 0.15)] {
        let outcome = run_migration(
            24,
            Strategy::PureIou { prefetch: 1 },
            Some(FaultPlan::dropping(seed, rate)),
        )
        .unwrap();
        let ledger_retransmit = outcome
            .ledger
            .iter()
            .find(|(c, _)| *c == LedgerCategory::Retransmit)
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(
            ledger_retransmit, outcome.retransmit_wire_bytes,
            "seed {seed} rate {rate}: ledger and reliability retransmit \
             bytes diverged"
        );
        assert!(
            outcome.retransmissions == 0 || ledger_retransmit > 0,
            "seed {seed} rate {rate}: retransmissions occurred but no \
             bytes were accounted"
        );
    }
}

#[test]
fn duplicate_reply_after_termination_is_dropped_cleanly() {
    use cor::ipc::protocol;
    use cor::mem::page::Frame;
    use cor::mem::SegmentId;

    let (mut world, a, b) = World::testbed();
    // A (zero-rate) fault plan arms the wire's idempotent stale handling.
    world.fabric.params.faults = Some(FaultPlan::uniform(11, LinkFaults::default()));
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = build_workload(&mut world, 12);
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.run(b, pid).unwrap();
    assert_eq!(world.segs.live(), 0, "termination released every segment");
    // A duplicate of an already-satisfied COR reply arrives at the source
    // NMS after the process died — as if the wire had duplicated it and
    // delayed the copy past termination. There is no pending relay left to
    // pair it with; the handler must drop it, not panic or resurrect
    // anything.
    let nms_a = world.fabric.nms_port(a).unwrap();
    let ghost = protocol::imag_read_reply(nms_a, SegmentId(1), 0, vec![Frame::zeroed()])
        .with_seq(7)
        .with_no_ious(true);
    world.ports.enqueue(nms_a, ghost).unwrap();
    let before = world.fabric.reliability.stale_replies.get();
    world.settle().unwrap();
    assert_eq!(
        world.fabric.reliability.stale_replies.get(),
        before + 1,
        "the ghost reply was counted and suppressed"
    );
    assert_eq!(world.segs.live(), 0, "nothing was resurrected");
    for n in [a, b] {
        assert_eq!(world.fabric.cached_pages_live(n), 0);
        assert_eq!(world.fabric.standins_live(n), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized chaos: any mix of drop/duplicate/reorder/jitter below
    /// the retry budget's breaking point leaves the remote memory image
    /// equal to the memory the trace predicts.
    #[test]
    fn migration_correct_under_arbitrary_faults(
        seed in any::<u64>(),
        drop_pct in 0u64..20,
        dup_pct in 0u64..20,
        jitter_ms in 0u64..10,
        pages in 12u64..32,
        strat_idx in 0usize..4,
    ) {
        let strategy = STRATEGIES[strat_idx];
        let faults = LinkFaults {
            drop: drop_pct as f64 / 100.0,
            duplicate: dup_pct as f64 / 100.0,
            reorder: 0.0,
            jitter: cor::sim::SimDuration::from_millis(jitter_ms),
        };
        let lossy = run_migration(pages, strategy, Some(FaultPlan::uniform(seed, faults)))
            .unwrap_or_else(|e| panic!("{strategy} under {faults:?} failed: {e}"));
        prop_assert_eq!(lossy.checksum, lossy.expected);
    }
}
