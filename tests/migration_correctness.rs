//! Property tests: migration never changes what a program computes.
//!
//! For randomized synthetic workloads — arbitrary layouts, frame budgets,
//! migration points, strategies and prefetch depths — a migrated run's
//! memory (over the remotely touched pages) must equal the memory the
//! trace predicts, and the run must leak nothing: every imaginary segment
//! dies, every cache drains.

use proptest::prelude::*;
// `cor::migrate::Strategy` shadows proptest's `Strategy` *name* below, so
// re-import the trait anonymously to keep its methods in scope.
use proptest::strategy::Strategy as _;

use cor::kernel::program::Trace;
use cor::kernel::World;
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};

#[derive(Debug, Clone)]
struct SyntheticWorkload {
    pages: u64,
    budget: usize,
    pre_ops: Vec<(u64, bool)>,  // (page, write) executed before migration
    post_ops: Vec<(u64, bool)>, // executed after migration
}

fn workload_strategy() -> impl Strategy2 {
    prop_oneof![
        Just(Strategy::PureCopy),
        (0u64..8).prop_map(|p| Strategy::PureIou { prefetch: p }),
        (0u64..8).prop_map(|p| Strategy::ResidentSet { prefetch: p }),
        Just(Strategy::PreCopy {
            max_rounds: 3,
            stop_pages: 4
        }),
    ]
}

// A readable alias: proptest's Strategy trait collides with the migration
// Strategy enum by name.
trait Strategy2: proptest::strategy::Strategy<Value = Strategy> {}
impl<T: proptest::strategy::Strategy<Value = Strategy>> Strategy2 for T {}

fn synthetic() -> impl proptest::strategy::Strategy<Value = SyntheticWorkload> {
    (8u64..48, 2usize..16).prop_flat_map(|(pages, budget)| {
        let op = (0..pages, any::<bool>());
        (
            Just(pages),
            Just(budget),
            prop::collection::vec(op.clone(), 1..40),
            prop::collection::vec(op, 1..40),
        )
            .prop_map(|(pages, budget, pre_ops, post_ops)| SyntheticWorkload {
                pages,
                budget,
                pre_ops,
                post_ops,
            })
    })
}

fn trace(w: &SyntheticWorkload) -> Trace {
    let mut tb = Trace::builder();
    for &(p, wr) in w.pre_ops.iter().chain(&w.post_ops) {
        if wr {
            tb.write(PageNum(p).base(), 64);
        } else {
            tb.read(PageNum(p).base(), 64);
        }
    }
    tb.terminate()
}

fn build(
    world: &mut World,
    node: cor::ipc::NodeId,
    w: &SyntheticWorkload,
) -> cor::kernel::ProcessId {
    let mut space = AddressSpace::with_frame_budget(w.budget);
    space.validate(VAddr(0), w.pages * PAGE_SIZE).unwrap();
    let pid = world
        .create_process(node, "synthetic", space, trace(w))
        .unwrap();
    world.run_for(node, pid, w.pre_ops.len()).unwrap();
    world.reset_touch_tracking(node, pid).unwrap();
    pid
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn migrated_memory_matches_unmigrated(w in synthetic(), strategy in workload_strategy()) {
        // Migrated mid-flight under the sampled strategy.
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let pid = build(&mut world, a, &w);
        src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
        let exec = world.run(b, pid).unwrap();
        prop_assert!(exec.finished);
        let migrated = world.touched_checksum(b, pid).unwrap();
        prop_assert_eq!(trace(&w).expected_checksum_from(w.pre_ops.len(), |_, _| ()), migrated);
        // Nothing leaks once the process is gone.
        prop_assert_eq!(world.segs.live(), 0);
        prop_assert_eq!(world.fabric.cached_pages_live(a), 0);
        prop_assert_eq!(world.fabric.cached_pages_live(b), 0);
        prop_assert_eq!(world.backer_pages_held(), 0);
    }

    #[test]
    fn double_migration_round_trip(w in synthetic(), pf in 0u64..4) {
        // a -> b (run two ops) -> a (run to completion). The judged pages
        // are the ones touched after the *final* migration.
        let hop_ops = 2usize;
        let (mut world, a, b) = World::testbed();
        let mgr_a = MigrationManager::new(&mut world, a);
        let mgr_b = MigrationManager::new(&mut world, b);
        let pid = build(&mut world, a, &w);
        mgr_a.migrate_to(&mut world, &mgr_b, pid, Strategy::PureIou { prefetch: pf }).unwrap();
        let partial = world.run_for(b, pid, hop_ops).unwrap();
        let (final_node, from) = if partial.finished {
            (b, w.pre_ops.len())
        } else {
            world.reset_touch_tracking(b, pid).unwrap();
            mgr_b.migrate_to(&mut world, &mgr_a, pid, Strategy::PureIou { prefetch: pf }).unwrap();
            let exec = world.run(a, pid).unwrap();
            prop_assert!(exec.finished);
            (a, w.pre_ops.len() + hop_ops)
        };
        let migrated = world.touched_checksum(final_node, pid).unwrap();
        prop_assert_eq!(trace(&w).expected_checksum_from(from, |_, _| ()), migrated);
        prop_assert_eq!(world.segs.live(), 0);
    }
}
