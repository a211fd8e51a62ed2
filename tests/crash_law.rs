//! The crash law. Copy-on-reference leaves a migrated process dependent on
//! every node that still holds its pages, so a single node crash must leave
//! it with the memory its trace predicts or end it with the typed
//! [`KernelError::OrphanedProcess`]: no wrong bytes, panic, hang or third
//! outcome. [`CRASH_TABLE`] checks that on every message-delivery crash
//! point of four worlds (the 2-node testbed; 4 nodes, a → b; 4 nodes, a →
//! b, 3 ops, → c, on the default wire and on `hot_path`) and counts intact
//! / orphaned / handoff failure by the crashed node's role and by whether
//! the crash fired while `migrate_to` ran (the handoff) or after:
//!
//! | world   | crashed | phase   | f = 0          | f = 1, f = 2 (each) |
//! |---------|---------|---------|----------------|---------------------|
//! | testbed | origin  | handoff | 59 / 37 / 48   |                     |
//! |         | origin  | after   | 136 / 1110 / 0 |                     |
//! |         | host    | handoff | 24 / 24 / 96   |                     |
//! |         | host    | after   | 30 / 1216 / 0  |                     |
//! | a → b   | origin  | handoff | 30 / 18 / 24   | 144 / 0 / 72        |
//! |         | origin  | after   | 56 / 152 / 0   | 684 / 0 / 0         |
//! |         | host    | handoff | 12 / 12 / 48   | 36 / 36 / 144       |
//! |         | host    | after   | 12 / 196 / 0   | 36 / 648 / 0        |
//! | a → b → | origin  | after   | 44 / 112 / 0   | 504 / 0 / 0         |
//! | c, both | relay   | handoff | 24 / 24 / 24   | 72 / 72 / 72        |
//! | wires   | relay   | after   | 56 / 336 / 0   | 324 / 936 / 0       |
//! |         | host    | handoff | 12 / 12 / 48   | 36 / 36 / 144       |
//! |         | host    | after   | 12 / 224 / 0   | 36 / 720 / 0        |
//!
//! - **Cases.** The 12-page hopper, and Minprog (moved before its first
//!   op) on the testbed; copy, IOU pf 0 and pf 1, resident set; f = 0 at
//!   one placement seed, f ≥ 1 at three; no drain, `flush(2)` or
//!   `prefetch(2)`, interleave 1; every node, killed or rebooted amnesiac,
//!   at `AfterMessages(n)` armed before the last `migrate_to`, for n = 1,
//!   2, … until it no longer fires: that control must equal the clean run.
//!   20,604 crashes and 2,388 crash-free runs, about 12 s warm debug, 2 vCPUs.
//! - **Judgement.** A survivor holds the clean run's k (the op its touch
//!   tracking starts at) and bytes, which equal `expected_checksum_from(k)`;
//!   a handoff failure is a [`known_handoff_failure`]; when the run returns
//!   no live node holds a parked waiter ([`assert_unparked`], before
//!   `settle` could sweep one), and after `settle` all are quiescent.
//! - **The law by role.** At f ≥ 1 an origin crash after the handoff is
//!   survived. A relay or host crash can orphan at every f: replication
//!   copies an owed page's bytes, not the relay's stand-ins that route a
//!   fault to them, and a killed host keeps only a process that needs the
//!   wire no more (copy). A crash in the handoff can lose the process.
//! - **No bystander rows.** `AfterMessages` counts deliveries only; replica
//!   write-through and replica reads are transfers, so a node carrying no
//!   delivered message (a bystander or replica home) is never crashed by
//!   it. The later tests crash those by time or by hand.
//!
//! A failing case prints its replay (world, f, seed, strategy, workload,
//! drain, node, role, mode, n).

mod common;

use proptest::prelude::*;

use std::collections::BTreeMap;
use std::panic::catch_unwind;

use common::{assert_quiescent, assert_unparked};
use cor::ipc::NodeId;
use cor::kernel::program::Trace;
use cor::kernel::{DrainPolicy, KernelError, ProcessId, World};
use cor::mem::{AddressSpace, MemError, PageNum, PageState, SegmentId, VAddr, PAGE_SIZE};
use cor::migrate::{Drainer, MigrationManager, Strategy};
use cor::net::{CrashPlan, CrashTrigger, ReplicationParams, WireParams};
use cor::sim::{LedgerCategory, SimDuration};
use cor::workloads::{Blueprint, ProcessImage};

/// Every replication factor checked (0 = the unreplicated baseline).
const FACTORS: std::ops::RangeInclusive<u64> = 0..=2;

/// What each seeded test XORs into its placement seed.
const SEED_OFFSETS: std::ops::RangeInclusive<u64> = 1..=3;

/// Trace ops a process runs at each relay of a chain.
const RELAY_OPS: usize = 3;

/// Pure IOU without prefetch: what the fixed scenarios run.
const IOU: Strategy = Strategy::PureIou { prefetch: 0 };

const STRATEGIES: [Strategy; 4] = [
    Strategy::PureCopy,
    IOU,
    Strategy::PureIou { prefetch: 1 },
    Strategy::ResidentSet { prefetch: 0 },
];

/// The one trace family. Both write every page, then read them back one
/// page per op: the hopper twice over, the stepper once with a 5 ms pause
/// before each read, so crashes and drain rounds land between faults.
fn trace(pages: u64, stepper: bool) -> Trace {
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..pages * if stepper { 1 } else { 2 } {
        if stepper {
            tb.compute(SimDuration::from_millis(5));
        }
        tb.read(PageNum(i % pages).base(), 64);
    }
    tb.terminate()
}

/// What a world runs: the hopper or the stepper over `pages` pages, their
/// writes run at the origin (the stepper under a budget of half its pages,
/// so resident-set owes some too), or a paper workload forked from its
/// image and moved before its first op.
#[derive(Clone, Copy)]
enum Program<'a> {
    Hopper(u64),
    Stepper(u64),
    Paper(&'a Blueprint, &'a ProcessImage<'a>),
}

impl Program<'_> {
    fn name(self) -> &'static str {
        match self {
            Program::Hopper(_) => "hopper",
            Program::Stepper(_) => "stepper",
            Program::Paper(bp, _) => bp.name,
        }
    }

    fn spawn(self, world: &mut World, node: NodeId) -> ProcessId {
        let (pages, stepper) = match self {
            Program::Hopper(p) => (p, false),
            Program::Stepper(p) => (p, true),
            Program::Paper(_, image) => return image.fork(world, node).unwrap(),
        };
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
        space.set_frame_budget(stepper.then_some(pages as usize / 2));
        let pid = world.create_process(node, self.name(), space, trace(pages, stepper));
        let pid = pid.unwrap();
        world.run_for(node, pid, pages as usize).unwrap();
        pid
    }

    /// The memory the trace predicts with touch tracking started at op `k`.
    fn expected(self, k: usize) -> u64 {
        match self {
            Program::Hopper(p) => trace(p, false).expected_checksum_from(k, |_, _| ()),
            Program::Stepper(p) => trace(p, true).expected_checksum_from(k, |_, _| ()),
            Program::Paper(bp, _) => bp.expected_checksum_from(k),
        }
    }
}

/// A world: name, nodes, hops, and whether its wire is the batched +
/// coalescing hot path. The process is moved node 0 → 1 → … → `hops` (its
/// host), running [`RELAY_OPS`] ops at each relay.
type Shape = (&'static str, u32, usize, bool);

const TESTBED: Shape = ("testbed", 2, 1, false);
const SINGLE: Shape = ("single", 4, 1, false);
const CHAIN: Shape = ("chain", 4, 2, false);
/// Faults at `c` relay through `b`, parking pending-interest waiters there
/// while the upstream fetch is out.
const HOT_CHAIN: Shape = ("chain-hot", 4, 2, true);

/// The one world builder: a `world`, `factor` replica homes placed by
/// `seed`, and every hop under `strategy`.
#[derive(Debug, Clone, Copy)]
struct Spec {
    world: Shape,
    factor: u64,
    seed: u64,
    strategy: Strategy,
}

impl Spec {
    fn new(world: Shape, factor: u64, seed: u64, strategy: Strategy) -> Spec {
        Spec {
            world,
            factor,
            seed,
            strategy,
        }
    }

    /// Spawns `program` on node 0 and moves it up to, not over, the last
    /// hop.
    fn staged(self, program: Program) -> Rig {
        let (_, nodes, hops, hot) = self.world;
        let base = WireParams::default();
        let mut wire = if hot { base.hot_path() } else { base };
        wire.replication = ReplicationParams::primary_backup(self.factor, self.seed);
        let (mut world, nodes) = World::fleet(nodes, Default::default(), wire);
        let managers: Vec<_> = nodes
            .iter()
            .map(|&n| MigrationManager::new(&mut world, n))
            .collect();
        let pid = program.spawn(&mut world, nodes[0]);
        for hop in 1..hops {
            managers[hop - 1]
                .migrate_to(&mut world, &managers[hop], pid, self.strategy)
                .unwrap();
            world.run_for(nodes[hop], pid, RELAY_OPS).unwrap();
        }
        Rig {
            world,
            nodes,
            managers,
            pid,
            spec: self,
            k: 0,
        }
    }

    /// The world with the last hop taken.
    fn build(self, program: Program) -> Rig {
        let mut rig = self.staged(program);
        rig.hop().unwrap();
        rig
    }
}

struct Rig {
    world: World,
    nodes: Vec<NodeId>,
    managers: Vec<MigrationManager>,
    pid: ProcessId,
    spec: Spec,
    /// The op at which the host's touch tracking starts.
    k: usize,
}

impl Rig {
    fn host(&self) -> NodeId {
        self.nodes[self.spec.world.2]
    }

    /// Takes the last hop and starts touch tracking at the host.
    fn hop(&mut self) -> Result<(), KernelError> {
        let (to, host) = (self.spec.world.2, self.host());
        let (from, to) = (&self.managers[to - 1], &self.managers[to]);
        from.migrate_to(&mut self.world, to, self.pid, self.spec.strategy)?;
        self.world.reset_touch_tracking(host, self.pid)?;
        self.k = self.world.process(host, self.pid)?.pcb.trace_pos;
        Ok(())
    }

    /// Crashes `node` now, for good.
    fn kill(&mut self, node: NodeId) {
        let now = self.world.clock.now();
        let ports = &mut self.world.ports;
        self.world.fabric.crash_node(now, ports, node, false);
    }

    /// Runs the process to its end and asserts it holds the memory its
    /// trace predicts.
    fn run_judged(&mut self, program: Program) {
        let host = self.host();
        self.world.run(host, self.pid).unwrap();
        let sum = self.world.touched_checksum(host, self.pid);
        assert_eq!(sum.unwrap(), program.expected(self.k));
    }
}

// ---------------------------------------------------------------------------
// The crash table.

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    Origin,
    Relay,
    Host,
    Bystander,
}

/// Whether the crash fired before `migrate_to` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Handoff,
    After,
}

use Phase::{After, Handoff};
use Role::{Bystander, Host, Origin, Relay};

/// Per (world, role, phase), the cases whose crash fired, as [intact,
/// orphaned, handoff failures] at f = 0, 1 and 2. The hot-path chain is
/// held to the chain's rows.
type Row = (&'static str, Role, Phase, [[u32; 3]; 3]);

#[rustfmt::skip]
const CRASH_TABLE: &[Row] = &[
    ("testbed", Origin, Handoff, [[59, 37, 48], [0; 3], [0; 3]]),
    ("testbed", Origin, After, [[136, 1110, 0], [0; 3], [0; 3]]),
    ("testbed", Host, Handoff, [[24, 24, 96], [0; 3], [0; 3]]),
    ("testbed", Host, After, [[30, 1216, 0], [0; 3], [0; 3]]),
    ("single", Origin, Handoff, [[30, 18, 24], [144, 0, 72], [144, 0, 72]]),
    ("single", Origin, After, [[56, 152, 0], [684, 0, 0], [684, 0, 0]]),
    ("single", Host, Handoff, [[12, 12, 48], [36, 36, 144], [36, 36, 144]]),
    ("single", Host, After, [[12, 196, 0], [36, 648, 0], [36, 648, 0]]),
    ("chain", Origin, After, [[44, 112, 0], [504, 0, 0], [504, 0, 0]]),
    ("chain", Relay, Handoff, [[24, 24, 24], [72, 72, 72], [72, 72, 72]]),
    ("chain", Relay, After, [[56, 336, 0], [324, 936, 0], [324, 936, 0]]),
    ("chain", Host, Handoff, [[12, 12, 48], [36, 36, 144], [36, 36, 144]]),
    ("chain", Host, After, [[12, 224, 0], [36, 720, 0], [36, 720, 0]]),
];

/// The known exceptions, all in the handoff: `migrate_to` excises the
/// process before Core and RIMAS cross, so a crash of either end there can
/// lose it. An atomic handoff empties this list (ROADMAP.md, item 25).
fn known_handoff_failure(e: &KernelError) -> bool {
    const MISSING: &str = "context message missing at destination";
    matches!(e, KernelError::SourceUnreachable { .. })
        || matches!(e, KernelError::Mem(MemError::BadState(_, m)) if *m == MISSING)
}

/// One crash point; its `Debug` form is its replay.
#[derive(Debug, Clone, Copy)]
struct Case<'a> {
    spec: Spec,
    program: Program<'a>,
    drain: Option<DrainPolicy>,
    /// The crashed node's index and role, amnesiac or not, and n.
    crash: (usize, Role, bool, u64),
}

impl std::fmt::Debug for Program<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a run ended: the op its touch tracking starts at, its bytes (0 if
/// it did not survive), clock and wire total.
type End = (usize, u64, u64, u64);

/// Runs `case`, crash-free when `clean` is `None`, and judges it: a
/// survivor must hold the clean run's k and bytes, which the caller holds
/// to the oracle. Returns the phase the crash fired in, if it did, the
/// verdict (an index into a row's counts) and how the run ended.
fn run_case(case: &Case, clean: Option<End>) -> (Option<Phase>, usize, End) {
    let (i, _, amnesiac, n) = case.crash;
    let mut rig = case.spec.staged(case.program);
    let node = rig.nodes[i];
    if clean.is_some() {
        let (plan, trigger) = (CrashPlan::new(), CrashTrigger::AfterMessages(n));
        rig.world.fabric.params.crashes = match amnesiac {
            true => plan.rebooting(node, trigger),
            false => plan.killing(node, trigger),
        };
    }
    let handoff = rig.hop();
    let in_handoff = rig.world.fabric.lost_volatile_state(node);
    let (host, pid, world, mut sum) = (rig.host(), rig.pid, &mut rig.world, 0);
    let verdict = match handoff {
        Err(e) => {
            assert!(in_handoff && known_handoff_failure(&e), "{case:?}: {e:?}");
            2
        }
        Ok(()) => {
            let run = match case.drain.map(|p| Drainer::new(p).with_interleave(1)) {
                None => world.run(host, pid).map(drop),
                Some(drainer) => drainer.run(world, host, pid).map(drop),
            };
            match run.and_then(|()| world.touched_checksum(host, pid)) {
                Ok(bytes) => {
                    sum = bytes;
                    let same = clean.is_none_or(|c| (c.0, c.1) == (rig.k, sum));
                    assert!(same, "{case:?}: wrong bytes");
                    0
                }
                Err(KernelError::OrphanedProcess { lost_pages, .. }) => {
                    assert!(lost_pages > 0, "{case:?}: an orphan that lost nothing");
                    1
                }
                Err(e) => panic!("{case:?}: a third outcome, {e:?}"),
            }
        }
    };
    assert_unparked(world, &format!("{case:?}"));
    world.settle().unwrap();
    assert_quiescent(world, &format!("{case:?}"));
    let fired = world.fabric.lost_volatile_state(node);
    let phase = fired.then_some(if in_handoff { Handoff } else { After });
    let (clock, wire) = (world.clock.now().as_micros(), world.fabric.ledger.total());
    (phase, verdict, (rig.k, sum, clock, wire))
}

/// Runs every case of one world and asserts its rows of [`CRASH_TABLE`].
fn assert_crash_table(world: Shape) {
    let (name, nodes, hops, _) = world;
    let minprog = cor::workloads::minprog::workload();
    let image = minprog.image().unwrap();
    let mut programs = vec![Program::Hopper(12)];
    if nodes == 2 {
        programs.push(Program::Paper(&minprog.blueprint, &image));
    }
    let (flush, prefetch) = (DrainPolicy::flush(2), DrainPolicy::prefetch(2));
    let drains = [None, Some(flush), Some(prefetch)];
    let mut got = BTreeMap::new();
    let factors = if nodes == 2 { 0..=0 } else { FACTORS };
    for (f, program) in factors.flat_map(|f| programs.iter().map(move |&p| (f, p))) {
        let seeds = if f == 0 { 0..=0 } else { SEED_OFFSETS };
        for (seed, strategy, drain) in seeds
            .flat_map(|o| STRATEGIES.map(|s| (0x5EED ^ o, s)))
            .flat_map(|(seed, s)| drains.map(|d| (seed, s, d)))
        {
            let clean = Case {
                spec: Spec::new(world, f, seed, strategy),
                program,
                drain,
                crash: (0, Origin, false, 0),
            };
            let (_, _, clean_end) = run_case(&clean, None);
            let oracle = program.expected(clean_end.0);
            assert_eq!(clean_end.1, oracle, "{clean:?}: wrong bytes");
            for (node, amnesiac) in (0..nodes as usize).flat_map(|n| [(n, false), (n, true)]) {
                let role = match node {
                    0 => Origin,
                    _ if node < hops => Relay,
                    _ if node == hops => Host,
                    _ => Bystander,
                };
                for n in 1.. {
                    let case = Case {
                        crash: (node, role, amnesiac, n),
                        ..clean
                    };
                    let (phase, verdict, end) = catch_unwind(|| run_case(&case, Some(clean_end)))
                        .unwrap_or_else(|_| panic!("replay: {case:?}"));
                    let Some(phase) = phase else {
                        assert_eq!(end, clean_end, "{case:?}: the control is not the clean run");
                        break;
                    };
                    got.entry((role, phase)).or_insert([[0; 3]; 3])[f as usize][verdict] += 1;
                }
            }
        }
    }
    let name = name.trim_end_matches("-hot");
    let got: Vec<Row> = got.into_iter().map(|((r, p), c)| (name, r, p, c)).collect();
    let want = CRASH_TABLE.iter().filter(|r| r.0 == name);
    let listing: String = got.iter().map(|r| format!("\n    {r:?},")).collect();
    assert!(want.eq(&got), "{world:?} runs this table:{listing}");
}

#[test]
fn every_crash_point_of_the_testbed_obeys_the_table() {
    assert_crash_table(TESTBED);
}

#[test]
fn every_crash_point_of_a_single_hop_obeys_the_table() {
    assert_crash_table(SINGLE);
}

#[test]
fn every_crash_point_of_a_chain_obeys_the_table() {
    assert_crash_table(CHAIN);
}

#[test]
fn every_crash_point_of_a_hot_path_chain_obeys_the_chain_table() {
    assert_crash_table(HOT_CHAIN);
}

// ---------------------------------------------------------------------------
// What the table cannot reach: crashes by time or by hand (of bystanders,
// replica homes, two nodes, or after a full drain), and determinism.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Drain immunity: fully flushing the dependency set to the source's
    /// disk before any crash guarantees the surviving outcome.
    #[test]
    fn full_flush_drain_then_crash_always_survives(
        pages in 8u64..20,
        strat_idx in 1usize..4,
    ) {
        let program = Program::Stepper(pages);
        let mut rig = Spec::new(TESTBED, 0, 0, STRATEGIES[strat_idx]).build(program);
        let (a, b, pid) = (rig.nodes[0], rig.host(), rig.pid);
        Drainer::new(DrainPolicy::flush(4)).drain_fully(&mut rig.world, b, pid).unwrap();
        prop_assert!(rig.world.residual_dependencies(b, pid).unwrap().is_empty());
        // Every later fetch must recover from the source's disk backer.
        rig.kill(a);
        rig.run_judged(program);
        prop_assert_eq!(rig.world.fabric.reliability.pages_lost.get(), 0);
    }
}

/// The drain-scan oracle: the owed pages of `pid` (page, backer, backing
/// segment and offset) by a walk that always starts at page 0 and keeps no
/// state between calls — imaginary, segment alive, resolved to a remote
/// backer whose disk does not hold the page, no live replica elsewhere.
/// Asserts that the resumed walk agrees.
fn assert_deps_match_reference(
    world: &World,
    node: NodeId,
    pid: ProcessId,
) -> Vec<(PageNum, NodeId, SegmentId, u64)> {
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
            owed.push((page, backer, bseg, boff));
        }
    }
    let mut deps = BTreeMap::new();
    for o in &owed {
        *deps.entry(o.1).or_insert(0u64) += 1;
    }
    assert_eq!(
        world.residual_dependencies(node, pid).unwrap(),
        deps,
        "the resumed walk disagrees with the walk from page 0"
    );
    owed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// The drain-scan oracle. [`World::drain_round`] resumes its owed-page
    /// walk at a per-process cursor; after every foreground slice and
    /// every drain round, under every axis drawn together, the walk from
    /// page 0 kept here must agree with [`World::residual_dependencies`]
    /// and with what the round drained. The stepper hops once or twice;
    /// each node but its host (origin, relay or spare replica home, and the
    /// spare `s`) stays up, dies, or reboots amnesiac at its own instant;
    /// the host alternates foreground slices with drain rounds until the
    /// process ends one way or the other.
    #[test]
    fn the_drain_scan_agrees_with_a_walk_from_page_zero_after_every_round(
        seed in any::<u64>(),
        pages in 8u64..24,
        strat_idx in 0usize..4,
        prefetch_mode in any::<bool>(),
        rate in 1u64..9,
        interleave in 1usize..5,
        two_hops in any::<bool>(),
        factor in FACTORS,
        fates in prop::collection::vec((0u8..3, 0u64..150), 3),
    ) {
        let shape = if two_hops { CHAIN } else { SINGLE };
        let rig = Spec::new(shape, factor, seed, STRATEGIES[strat_idx]).build(Program::Stepper(pages));
        let (b, k) = (rig.host(), rig.k);
        let Rig { mut world, nodes, pid, .. } = rig;
        let mut plan = CrashPlan::new();
        for (&node, &(fate, delay_ms)) in nodes.iter().filter(|&&n| n != b).zip(&fates) {
            let at = CrashTrigger::AtTime(world.clock.now() + SimDuration::from_millis(delay_ms));
            plan = match fate {
                0 => plan,
                1 => plan.killing(node, at),
                _ => plan.rebooting(node, at),
            };
        }
        world.fabric.params.crashes = plan;
        let policy =
            if prefetch_mode { DrainPolicy::prefetch(rate) } else { DrainPolicy::flush(rate) };
        let orphaned = |e: &KernelError| matches!(e, KernelError::OrphanedProcess { .. });
        loop {
            match world.run_for(b, pid, interleave) {
                Ok(exec) if exec.finished => {
                    let bytes = world.touched_checksum(b, pid).unwrap();
                    prop_assert_eq!(bytes, Program::Stepper(pages).expected(k));
                    break;
                }
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
                    let fetched = world.process(b, pid).unwrap().space.page_state(first.0);
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
                    .map(|o| world.fabric.disk_has(o.1, o.2, o.3))
                    .collect();
                prop_assert_eq!(on_disk.iter().filter(|&&d| d).count() as u64, drained);
                if !before.iter().any(|o| world.fabric.lost_volatile_state(o.1)) {
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
    let run = || {
        let spec = Spec::new(TESTBED, 0, 0, IOU);
        let mut rig = spec.staged(Program::Stepper(16));
        rig.world.enable_journal();
        rig.hop().unwrap();
        let (a, b, pid) = (rig.nodes[0], rig.host(), rig.pid);
        let world = &mut rig.world;
        let at = CrashTrigger::AtTime(world.clock.now() + SimDuration::from_millis(40));
        world.fabric.params.crashes = CrashPlan::new().killing(a, at);
        let drainer = Drainer::new(DrainPolicy::flush(2)).with_interleave(1);
        let outcome = drainer
            .run(world, b, pid)
            .and_then(|_| world.touched_checksum(b, pid));
        let events = world.fabric.journal.as_ref().unwrap().events().iter();
        let journal = events.map(|e| format!("{} {} {}", e.at, e.kind(), e.detail()));
        (format!("{outcome:?}"), journal.collect::<Vec<_>>())
    };
    let first = run();
    assert_eq!(first, run(), "identical crash plans, identical runs");
    let fired = first.1.iter().any(|l| l.contains("net-crash"));
    assert!(fired, "the plan actually fired");
}

/// Invisibility: a crash-free primary-backup run is byte-identical to
/// the unreplicated run on the virtual clock and on every paper ledger
/// category — the write-through's bytes all land under `Replicate`.
#[test]
fn crash_free_replication_is_invisible_on_the_clock_and_paper_ledger() {
    let program = Program::Hopper(16);
    let run = |factor: u64| {
        let spec = Spec::new(SINGLE, factor, 0xC0DE, IOU);
        let mut rig = spec.build(program);
        rig.run_judged(program);
        rig.world
    };
    let (flat, repl) = (run(0), run(1));
    // The write-through is fire-and-forget: the foreground clock never sees it.
    assert_eq!(flat.clock.now(), repl.clock.now());
    let ledger = |w: &World, cat| w.fabric.ledger.total_for(cat);
    // Every paper ledger category is untouched; only `Replicate` differs.
    for cat in LedgerCategory::ALL {
        let paper = cat != LedgerCategory::Replicate;
        assert_eq!(paper, ledger(&flat, cat) == ledger(&repl, cat), "{cat:?}");
    }
    assert_eq!(ledger(&flat, LedgerCategory::Replicate), 0);
    assert_eq!(flat.fabric.reliability.replicated_pages.get(), 0);
    assert!(repl.fabric.reliability.replicated_pages.get() > 0);
    assert_eq!(repl.fabric.reliability.failover_fetches.get(), 0);
}

/// Replica pages die with their segment: once the write-through has put
/// every page on each of the `f` homes, running the process to its end
/// releases the segment's last reference, and after the world settles no
/// node holds a replica page.
#[test]
fn replica_pages_die_with_their_segment() {
    let program = Program::Hopper(12);
    for factor in FACTORS.filter(|&f| f >= 1) {
        let mut rig = Spec::new(SINGLE, factor, 0xC0DE, IOU).build(program);
        let held = |rig: &Rig| -> Vec<u64> {
            let fabric = &rig.world.fabric;
            rig.nodes.iter().map(|&n| fabric.replica_pages(n)).collect()
        };
        assert_eq!(held(&rig).iter().sum::<u64>(), factor * 12, "f = {factor}");
        rig.run_judged(program);
        rig.world.settle().unwrap();
        assert_eq!(
            held(&rig),
            [0; 4],
            "f = {factor}: replicas outlived the segment"
        );
    }
}

/// Disk-backer pages die with their segment: a flush drainer puts owed
/// pages on the origin's crash-survivable disk while the process runs, and
/// once it ends and the world settles no node's disk holds one.
#[test]
fn disk_backer_pages_die_with_their_segment() {
    let program = Program::Hopper(12);
    let mut rig = Spec::new(TESTBED, 0, 0, IOU).build(program);
    let (b, pid) = (rig.host(), rig.pid);
    let drainer = Drainer::new(DrainPolicy::flush(2)).with_interleave(1);
    let report = drainer.run(&mut rig.world, b, pid).unwrap();
    assert!(report.finished && report.drained_pages > 0, "{report:?}");
    rig.world.settle().unwrap();
    let fabric = &rig.world.fabric;
    let held: Vec<u64> = rig.nodes.iter().map(|&n| fabric.disk_pages(n)).collect();
    assert_eq!(held, [0, 0], "disk pages outlived the segment");
}

/// Exhaustion: the primary dies, failover carries the run for a while,
/// and then the last live home dies too — the run must end in the same
/// typed orphan as the unreplicated hazard, with the loss accounted.
#[test]
fn second_crash_mid_failover_exhausts_every_home_into_a_typed_orphan() {
    let program = Program::Hopper(12);
    let spec = |seed| Spec::new(SINGLE, 1, seed, IOU);
    // A seed whose replica home is a pool node rather than the destination
    // itself (killing the destination would just kill the process with it,
    // which is not the scenario under test).
    let seed = (0..64)
        .find(|&s| {
            let rig = spec(s).build(program);
            rig.world.fabric.replica_pages(rig.host()) == 0
        })
        .expect("some seed places the replica off the destination");
    let mut rig = spec(seed).build(program);
    let (a, b, pid) = (rig.nodes[0], rig.host(), rig.pid);
    let mut homes = rig.nodes.clone();
    homes.retain(|&n| rig.world.fabric.replica_pages(n) > 0);
    assert!(!homes.is_empty() && !homes.contains(&b), "{homes:?}");
    // First crash: the primary dies the moment the migration lands.
    rig.kill(a);
    // Three single-page reads fail over to the replica and keep running.
    rig.world.run_for(b, pid, 3).unwrap();
    let reliability = &rig.world.fabric.reliability;
    assert!(reliability.failover_fetches.get() >= 3, "mid-failover");
    assert!(reliability.failover_time > SimDuration::ZERO);
    // Second crash: every remaining home dies. A read of the owed
    // pages now has no live home to go to.
    for &h in &homes {
        rig.kill(h);
    }
    match rig.world.run(b, pid) {
        Err(KernelError::OrphanedProcess {
            node, lost_pages, ..
        }) => {
            assert_eq!(node, a, "the orphan names the dead backing site");
            assert!(lost_pages > 0);
        }
        other => panic!("all homes down must orphan with the typed error: {other:?}"),
    }
    assert!(rig.world.fabric.reliability.pages_lost.get() > 0);
    let parked = |&n: &NodeId| rig.world.fabric.pending_waiters(n) > 0;
    assert!(!rig.nodes.iter().any(parked), "waiters left parked");
}

/// PIT hygiene, deterministic shape: with the upstream already dead, the
/// relay parks a waiter for the forwarded fetch, the forward send fails
/// fast, and the waiter is unparked and accounted — never leaked.
#[test]
fn relay_pit_unparks_and_accounts_waiters_when_the_upstream_dies() {
    let spec = Spec::new(HOT_CHAIN, 0, 0x917, IOU);
    let mut rig = spec.build(Program::Hopper(12));
    let (a, c, pid) = (rig.nodes[0], rig.host(), rig.pid);
    rig.world.enable_journal();
    rig.kill(a);
    match rig.world.run(c, pid) {
        Err(KernelError::OrphanedProcess { lost_pages, .. }) => assert!(lost_pages > 0),
        other => panic!("unreplicated chain with a dead origin must orphan: {other:?}"),
    }
    // Checked before `settle`, whose pumps would sweep a leaked waiter.
    assert_unparked(&rig.world, "dead upstream");
    let failed = rig.world.fabric.reliability.pit_waiters_failed.get();
    assert!(failed >= 1, "the relay waiter was unparked and counted");
    let events = rig.world.fabric.journal.as_ref().unwrap().events();
    let journaled = events.iter().any(|e| e.kind() == "net-pit-fail");
    assert!(journaled, "the unpark is journaled as a typed event");
    rig.world.settle().unwrap();
    assert_quiescent(&rig.world, "dead upstream");
}

/// The replicated chain sails through the same upstream crash at every
/// factor `f >= 1` and three placement seeds: every fault on a
/// dead-origin page resolves against a replica home,
/// nothing parks, nothing orphans.
#[test]
fn replicated_chain_survives_the_upstream_crash_without_parked_waiters() {
    let program = Program::Hopper(12);
    for factor in FACTORS.filter(|&f| f >= 1) {
        for offset in SEED_OFFSETS {
            let spec = Spec::new(HOT_CHAIN, factor, 0x42 ^ offset, IOU);
            let mut rig = spec.build(program);
            rig.kill(rig.nodes[0]);
            rig.run_judged(program);
            assert_unparked(&rig.world, "replicated chain");
            assert!(rig.world.fabric.reliability.failover_fetches.get() >= 1);
            assert_eq!(rig.world.fabric.reliability.pages_lost.get(), 0);
            rig.world.settle().unwrap();
            assert_quiescent(&rig.world, "replicated chain");
        }
    }
}

/// The metrics view reports the replication counters: after the same
/// upstream crash, `experiments metrics` shows every non-zero
/// reliability counter with the value the fabric counted, failover
/// fetches included.
#[test]
fn the_metrics_view_reports_failover_fetches() {
    let program = Program::Hopper(12);
    let mut rig = Spec::new(HOT_CHAIN, 1, 0x42, IOU).build(program);
    rig.kill(rig.nodes[0]);
    rig.run_judged(program);
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
    let pages = 10;
    let mut exercised = 0;
    for seed in 0..8 {
        let spec = Spec::new(SINGLE, 1, seed, IOU);
        let mut rig = spec.build(Program::Hopper(pages));
        let (a, b, pid) = (rig.nodes[0], rig.host(), rig.pid);
        assert!(rig.world.residual_dependencies(b, pid).unwrap().is_empty());
        let flush = |world: &mut World| world.drain_round(b, pid, DrainPolicy::flush(4)).unwrap();
        assert_eq!(flush(&mut rig.world) + flush(&mut rig.world), 0);
        let world = &mut rig.world;
        for &spare in &rig.nodes[2..] {
            let now = world.clock.now();
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
            match flush(world) {
                0 => break,
                n => flushed += n,
            }
        }
        assert_eq!(flushed, pages);
        assert!(world.residual_dependencies(b, pid).unwrap().is_empty());
    }
    assert!(exercised > 0, "no seed homed the replica on a spare node");
}
