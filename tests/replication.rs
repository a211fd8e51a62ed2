//! Replicated page homes: content-addressed failover end to end.
//!
//! `docs/REPLICATION.md` describes the design: migration page-out
//! write-throughs every owed page to `f` seeded replica homes, and a
//! copy-on-reference fault whose primary backing site is dead fails over
//! to a surviving replica instead of orphaning. These properties pin the
//! machinery down:
//!
//! 1. **Survival.** With `f >= 1`, *any* single-node crash of the backing
//!    site leaves the migrated run with the memory its trace predicts —
//!    no drains, no orphans, every strategy.
//! 2. **Exhaustion.** When a second crash takes the last live home down
//!    mid-failover, the run fails with the same typed
//!    [`KernelError::OrphanedProcess`] as the unreplicated hazard — never
//!    a panic, a hang, or a third outcome.
//! 3. **Invisibility.** A crash-free run under a primary-backup plan is
//!    byte-identical to the unreplicated run on the virtual clock and on
//!    every paper ledger category: the write-through is fire-and-forget
//!    and all its bytes land in the `Replicate` category.
//! 4. **PIT hygiene.** A relay NMS that parked pending-interest waiters
//!    for an upstream fetch unparks and accounts every one of them when
//!    the upstream dies: no leaked waiters under any crash plan.
//!
//! The properties draw the replica-placement seed and the replication
//! factor (0 to 2, or 1 to 2 where the law needs a live replica) with
//! their other inputs, and the fixed crash tests loop over every factor
//! and three placement seeds, so one run covers every configuration. A
//! [`CrashPlan`] has no seed (the one it used to take fed only an
//! `AtTime` slack that was zero everywhere), so crash instants come from
//! the generated inputs alone.

use proptest::prelude::*;

use cor::ipc::NodeId;
use cor::kernel::program::Trace;
use cor::kernel::{KernelError, ProcessId, World};
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::{CrashPlan, CrashTrigger, ReplicationParams, WireParams};
use cor::sim::{LedgerCategory, SimDuration};

/// Every replication factor the suite checks (0 = the unreplicated
/// baseline).
const FACTORS: std::ops::RangeInclusive<u64> = 0..=2;

/// The offsets each fixed crash test XORs into its placement seed.
const SEED_OFFSETS: std::ops::RangeInclusive<u64> = 1..=3;

fn primary_backup(factor: u64, seed: u64) -> Option<ReplicationParams> {
    (factor > 0).then(|| ReplicationParams::primary_backup(factor, seed))
}

/// Write every page, then read them all back twice — one page per op, so
/// a test can stop the run between individual faults.
fn hopper_trace(pages: u64) -> Trace {
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for _ in 0..2 {
        for i in 0..pages {
            tb.read(PageNum(i).base(), 64);
        }
    }
    tb.terminate()
}

struct Rig {
    world: World,
    nodes: Vec<NodeId>,
    pid: ProcessId,
}

/// Four nodes, a replication plan seeded with `seed`, and the hopper
/// migrated one hop `a -> b` with its writes already done at `a` (so
/// every page is owed by the source afterward).
fn single_hop_rig(pages: u64, factor: u64, seed: u64, strategy: Strategy) -> Rig {
    let params = WireParams {
        replication: primary_backup(factor, seed),
        ..WireParams::default()
    };
    let mut world = World::new(Default::default(), params);
    let nodes: Vec<NodeId> = (0..4).map(|_| world.add_node()).collect();
    let (a, b) = (nodes[0], nodes[1]);
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let pid = world
        .create_process(a, "hopper", space, hopper_trace(pages))
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
    world.reset_touch_tracking(b, pid).unwrap();
    Rig { world, nodes, pid }
}

/// Four nodes on the batched + coalescing hot path, the hopper migrated
/// `a -> b` (3 pages touched at `b`) and then `b -> c`: faults at `c`
/// relay through `b`'s NMS, parking pending-interest waiters there while
/// the upstream fetch is in flight.
fn chain_rig(pages: u64, factor: u64, seed: u64) -> Rig {
    let mut params = WireParams::default().hot_path();
    params.replication = primary_backup(factor, seed);
    let mut world = World::new(Default::default(), params);
    world.enable_journal();
    let nodes: Vec<NodeId> = (0..4).map(|_| world.add_node()).collect();
    let (a, b, c) = (nodes[0], nodes[1], nodes[2]);
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let pid = world
        .create_process(a, "hopper", space, hopper_trace(pages))
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    managers[0]
        .migrate_to(&mut world, &managers[1], pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.run_for(b, pid, 3).unwrap();
    managers[1]
        .migrate_to(&mut world, &managers[2], pid, Strategy::PureIou { prefetch: 0 })
        .unwrap();
    world.reset_touch_tracking(c, pid).unwrap();
    Rig { world, nodes, pid }
}

fn assert_no_parked_waiters(rig: &Rig) {
    for &n in &rig.nodes {
        assert_eq!(
            rig.world.fabric.pending_waiters(n),
            0,
            "leaked pending-interest waiters on {n}"
        );
    }
}

const STRATEGIES: [Strategy; 3] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 0 },
    Strategy::ResidentSet { prefetch: 0 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// Survival: with `f >= 1`, any crash of the backing site at any
    /// delay leaves every strategy's run with the memory its trace
    /// predicts — zero orphans, zero lost pages, no draining anywhere.
    #[test]
    fn any_single_node_crash_with_replication_survives_byte_identically(
        seed in any::<u64>(),
        delay_ms in 0u64..2_000,
        strat_idx in 0usize..3,
        pages in 8u64..20,
        factor in 1u64..=2,
    ) {
        let strategy = STRATEGIES[strat_idx];
        let mut rig = single_hop_rig(pages, factor, seed, strategy);
        let (a, b) = (rig.nodes[0], rig.nodes[1]);
        let at = rig.world.clock.now() + SimDuration::from_millis(delay_ms);
        rig.world.fabric.params.crashes =
            Some(CrashPlan::new().killing(a, CrashTrigger::AtTime(at)));
        let run = rig.world.run(b, rig.pid);
        prop_assert!(run.is_ok(), "f={factor} must survive the crash: {run:?}");
        prop_assert_eq!(
            rig.world.touched_checksum(b, rig.pid).unwrap(),
            hopper_trace(pages).expected_checksum_from(pages as usize, |_, _| ()),
            "a surviving run must hold the memory its trace predicts"
        );
        prop_assert_eq!(rig.world.fabric.reliability.pages_lost.get(), 0);
    }

    /// PIT hygiene under chaos: any crash plan against the chain's origin
    /// node — any trigger, amnesiac or not — obeys the two-outcome law
    /// (with `f >= 1` it always lands in the surviving outcome), and the
    /// relay's pending-interest table is empty when the dust settles.
    #[test]
    fn any_chain_crash_leaves_no_parked_waiters(
        seed in any::<u64>(),
        delay_ms in 0u64..1_500,
        after_n in 1u64..60,
        by_messages in any::<bool>(),
        amnesiac in any::<bool>(),
        factor in FACTORS,
    ) {
        let pages = 12;
        let mut rig = chain_rig(pages, factor, seed);
        let (a, c) = (rig.nodes[0], rig.nodes[2]);
        let trigger = if by_messages {
            CrashTrigger::AfterMessages(after_n)
        } else {
            CrashTrigger::AtTime(rig.world.clock.now() + SimDuration::from_millis(delay_ms))
        };
        let plan = if amnesiac {
            CrashPlan::new().rebooting(a, trigger)
        } else {
            CrashPlan::new().killing(a, trigger)
        };
        rig.world.fabric.params.crashes = Some(plan);
        match rig.world.run(c, rig.pid) {
            Ok(_) => prop_assert_eq!(
                rig.world.touched_checksum(c, rig.pid).unwrap(),
                hopper_trace(pages).expected_checksum_from(pages as usize + 3, |_, _| ())
            ),
            Err(KernelError::OrphanedProcess { lost_pages, .. }) => {
                prop_assert_eq!(factor, 0, "f>=1 must never orphan on a single crash");
                prop_assert!(lost_pages > 0, "an orphan must have lost something");
            }
            Err(other) => prop_assert!(false, "third outcome is forbidden: {other:?}"),
        }
        assert_no_parked_waiters(&rig);
    }
}

/// Every factor obeys the two-outcome law at three fixed placement seeds:
/// with `f >= 1` every strategy survives outright, and unreplicated only
/// pure-IOU orphans (the other two ship every page).
#[test]
fn every_factor_crash_obeys_the_two_outcome_law() {
    let pages = 12;
    let expected = hopper_trace(pages).expected_checksum_from(pages as usize, |_, _| ());
    let mut orphans = 0;
    for factor in FACTORS {
        for offset in SEED_OFFSETS {
            for (i, strategy) in STRATEGIES.into_iter().enumerate() {
                let seed = 0x5EED ^ offset ^ i as u64;
                let mut rig = single_hop_rig(pages, factor, seed, strategy);
                let (a, b) = (rig.nodes[0], rig.nodes[1]);
                let at = rig.world.clock.now() + SimDuration::from_millis(1);
                rig.world.fabric.params.crashes =
                    Some(CrashPlan::new().killing(a, CrashTrigger::AtTime(at)));
                match rig.world.run(b, rig.pid) {
                    Ok(_) => {
                        assert_eq!(rig.world.touched_checksum(b, rig.pid).unwrap(), expected);
                    }
                    Err(KernelError::OrphanedProcess { lost_pages, .. }) => {
                        assert_eq!(factor, 0, "f>=1 must survive a single crash ({strategy:?})");
                        assert_eq!(strategy, Strategy::PureIou { prefetch: 0 });
                        assert!(lost_pages > 0);
                        orphans += 1;
                    }
                    Err(other) => panic!("third outcome is forbidden: {other:?}"),
                }
                assert_no_parked_waiters(&rig);
            }
        }
    }
    assert_eq!(orphans, SEED_OFFSETS.count(), "each f=0 pure-IOU run orphans");
}

/// Invisibility: a crash-free primary-backup run is byte-identical to
/// the unreplicated run on the virtual clock and on every paper ledger
/// category — the write-through's bytes all land under `Replicate`.
#[test]
fn crash_free_replication_is_invisible_on_the_clock_and_paper_ledger() {
    let pages = 16;
    let run = |factor: u64| {
        let mut rig = single_hop_rig(pages, factor, 0xC0DE, Strategy::PureIou { prefetch: 0 });
        let b = rig.nodes[1];
        rig.world.run(b, rig.pid).unwrap();
        let sum = rig.world.touched_checksum(b, rig.pid).unwrap();
        (rig, sum)
    };
    let (flat, flat_sum) = run(0);
    let (repl, repl_sum) = run(1);
    assert_eq!(flat_sum, repl_sum);
    assert_eq!(
        flat.world.clock.now(),
        repl.world.clock.now(),
        "the write-through is fire-and-forget: the foreground clock never sees it"
    );
    for cat in [
        LedgerCategory::Bulk,
        LedgerCategory::FaultSupport,
        LedgerCategory::Control,
        LedgerCategory::Retransmit,
        LedgerCategory::Drain,
    ] {
        assert_eq!(
            flat.world.fabric.ledger.total_for(cat),
            repl.world.fabric.ledger.total_for(cat),
            "paper ledger category {cat:?} must be untouched by replication"
        );
    }
    assert_eq!(flat.world.fabric.ledger.total_for(LedgerCategory::Replicate), 0);
    assert!(repl.world.fabric.ledger.total_for(LedgerCategory::Replicate) > 0);
    assert_eq!(flat.world.fabric.reliability.replicated_pages.get(), 0);
    assert!(repl.world.fabric.reliability.replicated_pages.get() > 0);
    assert_eq!(repl.world.fabric.reliability.failover_fetches.get(), 0);
}

/// Exhaustion: the primary dies, failover carries the run for a while,
/// and then the last live home dies too — the run must end in the same
/// typed orphan as the unreplicated hazard, with the loss accounted.
#[test]
fn second_crash_mid_failover_exhausts_every_home_into_a_typed_orphan() {
    let pages = 12;
    let strategy = Strategy::PureIou { prefetch: 0 };
    // Find a placement seed whose replica home is a pool node rather than
    // the destination itself (killing the destination would just kill the
    // process with it, which is not the scenario under test).
    let seed = (0..64)
        .find(|&s| {
            let rig = single_hop_rig(pages, 1, s, strategy);
            rig.world.fabric.replica_pages(rig.nodes[1]) == 0
        })
        .expect("some seed places the replica off the destination");
    let mut rig = single_hop_rig(pages, 1, seed, strategy);
    let (a, b) = (rig.nodes[0], rig.nodes[1]);
    let homes: Vec<NodeId> = rig
        .nodes
        .iter()
        .copied()
        .filter(|&n| rig.world.fabric.replica_pages(n) > 0)
        .collect();
    assert!(!homes.is_empty() && !homes.contains(&b), "{homes:?}");
    // First crash: the primary dies the moment the migration lands.
    let now = rig.world.clock.now();
    rig.world
        .fabric
        .crash_node(now, &mut rig.world.ports, a, false);
    // Three single-page reads fail over to the replica and keep running.
    rig.world.run_for(b, rig.pid, 3).unwrap();
    assert!(
        rig.world.fabric.reliability.failover_fetches.get() >= 3,
        "the run is mid-failover"
    );
    assert!(rig.world.fabric.reliability.failover_time > SimDuration::ZERO);
    // Second crash: every remaining home dies. Content-addressed
    // resolution now has nowhere to go.
    for &h in &homes {
        let now = rig.world.clock.now();
        rig.world
            .fabric
            .crash_node(now, &mut rig.world.ports, h, false);
    }
    match rig.world.run(b, rig.pid) {
        Err(KernelError::OrphanedProcess { node, lost_pages, .. }) => {
            assert_eq!(node, a, "the orphan names the dead backing site");
            assert!(lost_pages > 0);
        }
        other => panic!("all homes down must orphan with the typed error: {other:?}"),
    }
    assert!(rig.world.fabric.reliability.pages_lost.get() > 0);
    assert_no_parked_waiters(&rig);
}

/// PIT hygiene, deterministic shape: with the upstream already dead, the
/// relay parks a waiter for the forwarded fetch, the forward send fails
/// fast, and the waiter is unparked and accounted — never leaked.
#[test]
fn relay_pit_unparks_and_accounts_waiters_when_the_upstream_dies() {
    let mut rig = chain_rig(12, 0, 0x917);
    let (a, c) = (rig.nodes[0], rig.nodes[2]);
    let now = rig.world.clock.now();
    rig.world
        .fabric
        .crash_node(now, &mut rig.world.ports, a, false);
    match rig.world.run(c, rig.pid) {
        Err(KernelError::OrphanedProcess { lost_pages, .. }) => assert!(lost_pages > 0),
        other => panic!("unreplicated chain with a dead origin must orphan: {other:?}"),
    }
    assert_no_parked_waiters(&rig);
    assert!(
        rig.world.fabric.reliability.pit_waiters_failed.get() >= 1,
        "the parked relay waiter was unparked and counted"
    );
    let journal: Vec<String> = rig
        .world
        .fabric
        .journal
        .as_ref()
        .map(|j| j.events().iter().map(|e| e.kind().to_string()).collect())
        .unwrap_or_default();
    assert!(
        journal.iter().any(|k| k == "net-pit-fail"),
        "the unpark is journaled as a typed event: {journal:?}"
    );
}

/// The replicated chain sails through the same upstream crash at every
/// factor `f >= 1` and three placement seeds: every fault on a
/// dead-origin page resolves content-addressed against a replica,
/// nothing parks, nothing orphans.
#[test]
fn replicated_chain_survives_the_upstream_crash_without_parked_waiters() {
    let pages = 12;
    let expected = hopper_trace(pages).expected_checksum_from(pages as usize + 3, |_, _| ());
    for factor in FACTORS.filter(|&f| f >= 1) {
        for offset in SEED_OFFSETS {
            let mut rig = chain_rig(pages, factor, 0x42 ^ offset);
            let (a, c) = (rig.nodes[0], rig.nodes[2]);
            let now = rig.world.clock.now();
            rig.world
                .fabric
                .crash_node(now, &mut rig.world.ports, a, false);
            rig.world.run(c, rig.pid).unwrap();
            assert_eq!(rig.world.touched_checksum(c, rig.pid).unwrap(), expected);
            assert!(rig.world.fabric.reliability.failover_fetches.get() >= 1);
            assert_eq!(rig.world.fabric.reliability.pages_lost.get(), 0);
            assert_no_parked_waiters(&rig);
        }
    }
}

/// The metrics view reports the replication counters: after the same
/// upstream crash, `experiments metrics` shows every non-zero
/// reliability counter with the value the fabric counted, failover
/// fetches included.
#[test]
fn the_metrics_view_reports_failover_fetches() {
    let mut rig = chain_rig(12, 1, 0x42);
    let (a, c) = (rig.nodes[0], rig.nodes[2]);
    let now = rig.world.clock.now();
    rig.world
        .fabric
        .crash_node(now, &mut rig.world.ports, a, false);
    rig.world.run(c, rig.pid).unwrap();
    let report = rig.world.metrics_registry().render(rig.world.clock.now());
    let reported = |name: &str| {
        report.lines().find_map(|l| {
            let mut words = l.split_whitespace();
            (words.next() == Some(name)).then(|| words.next().unwrap().parse::<u64>().unwrap())
        })
    };
    let r = &rig.world.fabric.reliability;
    assert!(r.failover_fetches.get() >= 1);
    assert_eq!(
        reported("net.failover-fetches"),
        Some(r.failover_fetches.get()),
        "{report}"
    );
    for (name, v) in r.counters() {
        assert_eq!(reported(name), (v > 0).then_some(v), "{name}: {report}");
    }
}

#[test]
fn a_page_spared_for_its_live_replica_is_drained_once_the_replica_dies() {
    // With f = 1 every owed page has a live replica home, so nothing is
    // residually dependent on the source and a drain round has nothing to
    // do — but a replica is volatile, so the drain scan may not pass those
    // pages for good: when the replica home dies, the same pages are owed
    // to the source again and the next rounds must find and flush them.
    use cor::kernel::DrainPolicy;
    let pages = 10;
    let mut exercised = 0;
    for seed in 0..8 {
        let Rig {
            mut world,
            nodes,
            pid,
        } = single_hop_rig(pages, 1, seed, Strategy::PureIou { prefetch: 0 });
        let (a, b) = (nodes[0], nodes[1]);
        assert!(world.residual_dependencies(b, pid).unwrap().is_empty());
        for _ in 0..2 {
            assert_eq!(world.drain_round(b, pid, DrainPolicy::flush(4)).unwrap(), 0);
        }
        let now = world.clock.now();
        for &spare in &nodes[2..] {
            world.fabric.crash_node(now, &mut world.ports, spare, false);
        }
        let deps = world.residual_dependencies(b, pid).unwrap();
        if deps.is_empty() {
            continue; // this seed homed the replica at b itself: still live
        }
        exercised += 1;
        assert_eq!(deps.get(&a).copied(), Some(pages), "deps: {deps:?}");
        let mut flushed = 0;
        loop {
            match world.drain_round(b, pid, DrainPolicy::flush(4)).unwrap() {
                0 => break,
                n => flushed += n,
            }
        }
        assert_eq!(flushed, pages);
        assert!(world.residual_dependencies(b, pid).unwrap().is_empty());
    }
    assert!(exercised > 0, "no seed homed the replica on a spare node");
}
