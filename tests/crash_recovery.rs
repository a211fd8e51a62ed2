//! Crash-recovery property suite: node-crash tolerance end to end.
//!
//! A migrated process is residually dependent on its source until every
//! owed page has been fetched, drained, or flushed to a crash-survivable
//! disk backer. These properties pin down what a source crash may do:
//!
//! 1. **Two-outcome law.** Under *any* [`CrashPlan`] — any crash
//!    time, any trigger, amnesiac reboot or not — a migrated run either
//!    completes with its remotely touched memory equal to the memory the
//!    trace predicts, or fails with the typed
//!    [`KernelError::OrphanedProcess`] error. Never a panic, a hang, or
//!    any third outcome.
//! 2. **Drain immunity.** Fully flush-draining the dependency set before
//!    the crash always lands in the first outcome: the bytes match.
//! 3. **Determinism.** Identical crash plans journal identical event
//!    sequences, rerun after rerun; the survivability sweep's table and
//!    CSV are byte-identical at any worker-thread count.
//! 4. **Drain-scan oracle.** [`World::drain_round`] resumes its owed-page
//!    walk at a per-process cursor. After every foreground slice and
//!    every drain round — under any strategy, drain mode, rate,
//!    interleave, hop count, crash plan and replication factor together —
//!    the walk from page 0 kept here must agree with
//!    [`World::residual_dependencies`] and with what the round drained.
//!
//! The drain-scan oracle draws the replica-placement seed and the
//! replication factor with its other inputs, so one run covers every
//! placement and factor it checks. A [`CrashPlan`] has no seed (the one it
//! used to take fed only an `AtTime` slack that was zero everywhere), so
//! crash instants come from the generated inputs alone.

use proptest::prelude::*;

use std::collections::BTreeMap;

use cor::ipc::NodeId;
use cor::kernel::program::Trace;
use cor::kernel::{DrainMode, DrainPolicy, KernelError, ProcessId, World};
use cor::mem::{AddressSpace, PageNum, PageState, SegmentId, VAddr, PAGE_SIZE};
use cor::migrate::{Drainer, MigrationManager, Strategy};
use cor::net::{CrashPlan, CrashTrigger, ReplicationParams, WireParams};
use cor::sim::SimDuration;

/// Write every page, compute a while (the window a crash can land in),
/// then read everything back and terminate.
fn traveler_trace(pages: u64) -> Trace {
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for _ in 0..pages {
        tb.compute(SimDuration::from_millis(5));
    }
    tb.read(VAddr(0), pages * PAGE_SIZE);
    tb.terminate()
}

/// Write every page, then read them back one page per op with a pause
/// before each — so crashes fire, and drain rounds run, between
/// individual faults while other pages are still owed.
fn stepper_trace(pages: u64) -> Trace {
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages {
        tb.compute(SimDuration::from_millis(5));
        tb.read(PageNum(i).base(), 64);
    }
    tb.terminate()
}

struct CrashRun {
    outcome: Result<u64, KernelError>,
    journal: Vec<String>,
}

/// Builds the traveler on `a`, migrates it to `b` under `strategy`, arms
/// `plan` against the source, and drives the process to its end — with
/// `drain_rate` pages of background flush-draining per foreground op.
fn run_under_plan(
    pages: u64,
    strategy: Strategy,
    plan: CrashPlan,
    drain_rate: u64,
) -> CrashRun {
    let (mut world, a, b) = World::testbed();
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let pid = world
        .create_process(a, "traveler", space, traveler_trace(pages))
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
    world.reset_touch_tracking(b, pid).unwrap();
    world.fabric.params.crashes = Some(plan);
    let drainer = Drainer::new(DrainPolicy::flush(drain_rate)).with_interleave(1);
    let outcome = drainer
        .run(&mut world, b, pid)
        .and_then(|_| world.touched_checksum(b, pid));
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
    CrashRun { outcome, journal }
}

const LAZY: [Strategy; 2] = [
    Strategy::PureIou { prefetch: 0 },
    Strategy::ResidentSet { prefetch: 0 },
];

/// One still-owed page as the reference walk sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Owed {
    page: PageNum,
    backer: NodeId,
    bseg: SegmentId,
    boff: u64,
}

/// The drain-scan oracle: the owed pages of `pid` by a walk that always
/// starts at page 0 and keeps no state between calls — imaginary, segment
/// alive, resolved to a remote backer whose disk does not hold the page,
/// no live replica elsewhere.
fn reference_owed(world: &World, node: NodeId, pid: ProcessId) -> Vec<Owed> {
    let mut owed = Vec::new();
    for (page, state) in world.process(node, pid).unwrap().space.materialized_pages() {
        let PageState::Imaginary { seg, offset } = *state else {
            continue;
        };
        if world.segs.get(seg).is_none() {
            continue;
        }
        let (backer, bseg, boff) = world
            .fabric
            .resolve_owed(&world.ports, &world.segs, seg, offset)
            .unwrap();
        if backer != node
            && !world.fabric.disk_has(backer, bseg, boff)
            && !world.fabric.replica_live_elsewhere(backer, bseg, boff)
        {
            owed.push(Owed {
                page,
                backer,
                bseg,
                boff,
            });
        }
    }
    owed
}

fn assert_deps_match_reference(world: &World, node: NodeId, pid: ProcessId) -> Vec<Owed> {
    let owed = reference_owed(world, node, pid);
    let mut deps = BTreeMap::new();
    for o in &owed {
        *deps.entry(o.backer).or_insert(0u64) += 1;
    }
    assert_eq!(
        world.residual_dependencies(node, pid).unwrap(),
        deps,
        "the resumed walk disagrees with the walk from page 0"
    );
    owed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two-outcome law: any crash plan, any strategy, any drain rate —
    /// the run holds the memory its trace predicts or orphans with the
    /// typed error. Nothing else.
    #[test]
    fn any_crash_plan_yields_matching_bytes_or_typed_orphan(
        delay_ms in 0u64..3_000,
        amnesiac in any::<bool>(),
        pages in 8u64..24,
        strat_idx in 0usize..2,
        drain_rate in 0u64..8,
    ) {
        let strategy = LAZY[strat_idx];
        let expected = traveler_trace(pages).expected_checksum_from(pages as usize, |_, _| ());
        // The testbed's source node is always NodeId(0).
        let a = cor::ipc::NodeId(0);
        let trigger = CrashTrigger::AtTime(
            cor::sim::SimTime::ZERO + SimDuration::from_millis(delay_ms),
        );
        let plan = if amnesiac {
            CrashPlan::new().rebooting(a, trigger)
        } else {
            CrashPlan::new().killing(a, trigger)
        };
        let run = run_under_plan(pages, strategy, plan, drain_rate);
        match run.outcome {
            Ok(sum) => prop_assert_eq!(
                sum, expected,
                "a surviving run must hold the memory its trace predicts"
            ),
            Err(KernelError::OrphanedProcess { node, lost_pages, .. }) => {
                prop_assert_eq!(node, a);
                prop_assert!(lost_pages > 0, "an orphan must have lost something");
            }
            Err(other) => prop_assert!(
                false,
                "third outcome is forbidden: {other:?}"
            ),
        }
    }

    /// Drain immunity: fully flushing the dependency set to the source's
    /// disk before any crash guarantees the surviving outcome.
    #[test]
    fn full_flush_drain_then_crash_always_survives(
        pages in 8u64..20,
        strat_idx in 0usize..2,
    ) {
        let strategy = LAZY[strat_idx];
        let expected = traveler_trace(pages).expected_checksum_from(pages as usize, |_, _| ());
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
        let pid = world
            .create_process(a, "traveler", space, traveler_trace(pages))
            .unwrap();
        world.run_for(a, pid, pages as usize).unwrap();
        src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
        world.reset_touch_tracking(b, pid).unwrap();
        let drainer = Drainer::new(DrainPolicy::flush(4));
        drainer.drain_fully(&mut world, b, pid).unwrap();
        prop_assert!(world.residual_dependencies(b, pid).unwrap().is_empty());
        // Crash immediately: every subsequent fetch must recover from the
        // source's disk backer.
        let now = world.clock.now();
        world.fabric.params.crashes =
            Some(CrashPlan::new().killing(a, CrashTrigger::AtTime(now)));
        world.run(b, pid).unwrap();
        prop_assert_eq!(world.touched_checksum(b, pid).unwrap(), expected);
        prop_assert_eq!(world.fabric.reliability.pages_lost.get(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The drain-scan oracle, all axes drawn together. The stepper — half
    /// its pages paged out, so the resident-set strategy owes some too —
    /// hops `a -> b` or `a -> m -> b`; `a`, `m` (mid-chain stand-in holder
    /// or spare replica home) and the spare `s` each stay up, die, or
    /// reboot amnesiac at their own instant; `b` alternates foreground
    /// slices with drain rounds until the process ends one way or the
    /// other.
    #[test]
    fn the_drain_scan_agrees_with_a_walk_from_page_zero_after_every_round(
        seed in any::<u64>(),
        pages in 8u64..24,
        strat_idx in 0usize..3,
        prefetch_mode in any::<bool>(),
        rate in 1u64..9,
        interleave in 1usize..5,
        two_hops in any::<bool>(),
        factor in 0u64..3,
        fates in prop::collection::vec((0u8..3, 0u64..150), 3),
    ) {
        let strategy = [LAZY[0], LAZY[1], Strategy::PureCopy][strat_idx];
        let params = WireParams {
            replication: (factor > 0)
                .then(|| ReplicationParams::primary_backup(factor, seed)),
            ..WireParams::default()
        };
        let mut world = World::new(Default::default(), params);
        let nodes: Vec<NodeId> = (0..4).map(|_| world.add_node()).collect();
        let (a, b, m, s) = (nodes[0], nodes[1], nodes[2], nodes[3]);
        let managers: Vec<_> = nodes
            .iter()
            .map(|&n| MigrationManager::new(&mut world, n))
            .collect();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
        space.set_frame_budget(Some(pages as usize / 2));
        let pid = world
            .create_process(a, "stepper", space, stepper_trace(pages))
            .unwrap();
        world.run_for(a, pid, pages as usize).unwrap();
        if two_hops {
            managers[0].migrate_to(&mut world, &managers[2], pid, strategy).unwrap();
            world.run_for(m, pid, 2).unwrap();
            managers[2].migrate_to(&mut world, &managers[1], pid, strategy).unwrap();
        } else {
            managers[0].migrate_to(&mut world, &managers[1], pid, strategy).unwrap();
        }
        let mut plan = CrashPlan::new();
        for (node, &(fate, delay_ms)) in [a, m, s].into_iter().zip(&fates) {
            let at = CrashTrigger::AtTime(world.clock.now() + SimDuration::from_millis(delay_ms));
            plan = match fate {
                0 => plan,
                1 => plan.killing(node, at),
                _ => plan.rebooting(node, at),
            };
        }
        world.fabric.params.crashes = Some(plan);
        let policy = DrainPolicy {
            mode: if prefetch_mode { DrainMode::Prefetch } else { DrainMode::FlushToDisk },
            pages_per_round: rate,
        };
        let orphaned = |e: &KernelError| matches!(e, KernelError::OrphanedProcess { .. });
        loop {
            match world.run_for(b, pid, interleave) {
                Ok(exec) if exec.finished => break,
                Ok(_) => {}
                Err(e) if orphaned(&e) => break,
                Err(e) => prop_assert!(false, "third outcome is forbidden: {e:?}"),
            }
            let before = assert_deps_match_reference(&world, b, pid);
            let drained = match world.drain_round(b, pid, policy) {
                Ok(n) => n,
                Err(e) if orphaned(&e) => break,
                Err(e) => { prop_assert!(false, "third outcome is forbidden: {e:?}"); 0 }
            };
            prop_assert!(drained <= rate);
            if prefetch_mode {
                if let (true, Some(first)) = (drained > 0, before.first()) {
                    let fetched = world.process(b, pid).unwrap().space.page_state(first.page);
                    prop_assert!(
                        !matches!(fetched, Some(PageState::Imaginary { .. })),
                        "prefetch draining starts at the first owed page"
                    );
                }
            } else {
                // What was flushed is what left the owed list for a disk:
                // exactly `drained` pages, and — while every backer still
                // has its cache — the first ones in page order.
                let on_disk: Vec<bool> = before
                    .iter()
                    .map(|o| world.fabric.disk_has(o.backer, o.bseg, o.boff))
                    .collect();
                prop_assert_eq!(on_disk.iter().filter(|&&d| d).count() as u64, drained);
                if !before.iter().any(|o| world.fabric.lost_volatile_state(o.backer)) {
                    let want = before.len().min(rate as usize);
                    prop_assert!(on_disk.iter().take(want).all(|&d| d), "{on_disk:?}");
                    prop_assert_eq!(drained as usize, want);
                }
            }
            assert_deps_match_reference(&world, b, pid);
        }
    }
}

#[test]
fn identical_crash_plans_journal_identical_runs() {
    let plan = || {
        CrashPlan::new().killing(
            cor::ipc::NodeId(0),
            CrashTrigger::AtTime(cor::sim::SimTime::ZERO + SimDuration::from_millis(400)),
        )
    };
    let first = run_under_plan(16, Strategy::PureIou { prefetch: 0 }, plan(), 2);
    let second = run_under_plan(16, Strategy::PureIou { prefetch: 0 }, plan(), 2);
    assert_eq!(
        first.journal, second.journal,
        "identical crash plans must journal identical event sequences"
    );
    match (&first.outcome, &second.outcome) {
        (Ok(x), Ok(y)) => assert_eq!(x, y),
        (
            Err(KernelError::OrphanedProcess { lost_pages: x, .. }),
            Err(KernelError::OrphanedProcess { lost_pages: y, .. }),
        ) => assert_eq!(x, y),
        other => panic!("reruns diverged: {other:?}"),
    }
    assert!(
        first.journal.iter().any(|l| l.contains("net-crash")),
        "the plan actually fired"
    );
}

#[test]
fn survivability_csv_is_identical_at_any_thread_count() {
    use cor_experiments::survivability::STUDY;
    use cor_pool::Pool;

    let workloads = vec![cor::workloads::minprog::workload()];
    let render = |pool: &Pool| {
        let outcomes = STUDY.outcomes(&workloads, pool);
        (STUDY.table(&workloads, &outcomes), STUDY.csv(&outcomes))
    };
    let serial = render(&Pool::serial());
    assert_eq!(serial, render(&Pool::new(3)));
    assert_eq!(serial, render(&Pool::new(8)));
    assert!(serial.1.lines().count() > 1);
}
