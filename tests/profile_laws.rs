//! Profiler algebra laws, property-tested.
//!
//! The critical-path profiler's value rests on two exactness claims:
//!
//! 1. **Exact blame.** Every closed span's duration is partitioned into
//!    the seven blame buckets with *integer* virtual-time arithmetic —
//!    the buckets sum to the span's duration exactly, for every
//!    workload, every strategy, and every chaos wire plan. No float
//!    drift, no residue.
//! 2. **Bounded critical paths.** The blame-weighted critical path of a
//!    span never exceeds the span's own duration: a child chain cannot
//!    claim more time than its root actually spent.
//!
//! Alongside them, the percentile machinery the latency baseline is
//! built on: merging per-node [`LogHistogram`]s is order-insensitive
//! and indistinguishable from recording every sample into one pooled
//! histogram.

use proptest::prelude::*;

use cor::kernel::World;
use cor::mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};
use cor::migrate::{MigrationManager, Strategy};
use cor::net::FaultPlan;
use cor::trace::{LogHistogram, Profile};
use cor_experiments::commands::{self, Ctx, Failure};

/// One seeded, optionally lossy migration trial with the full journal,
/// reduced to its profile.
fn chaos_profile(seed: u64, drop_pct: u64, strategy: Strategy) -> Profile {
    let (mut world, a, b) = World::testbed();
    if drop_pct > 0 {
        world.fabric.params.faults = Some(FaultPlan::dropping(seed, drop_pct as f64 / 100.0));
    }
    world.enable_journal();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pages = 24u64;
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
    let mut tb = cor::kernel::program::Trace::builder();
    for i in 0..pages {
        tb.write(PageNum(i).base(), 64);
    }
    tb.read(VAddr(0), pages * PAGE_SIZE);
    let pid = world
        .create_process(a, "law", space, tb.terminate())
        .unwrap();
    world.run_for(a, pid, pages as usize).unwrap();
    src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
    world.run(b, pid).unwrap();
    Profile::from_journals(&world.journals())
}

const STRATEGIES: [Strategy; 4] = [
    Strategy::PureCopy,
    Strategy::PureIou { prefetch: 0 },
    Strategy::PureIou { prefetch: 3 },
    Strategy::ResidentSet { prefetch: 1 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Law: blame buckets sum exactly to each span's duration, and the
    /// bucket totals sum to the profile total — across workloads,
    /// strategies, and chaos wire plans.
    #[test]
    fn blame_sums_exactly_under_chaos(
        seed in any::<u64>(),
        drop_pct in 0u64..15,
        sidx in 0usize..4,
    ) {
        let p = chaos_profile(seed, drop_pct, STRATEGIES[sidx]);
        prop_assert!(p.sums_exactly());
        let mut self_total = 0u64;
        for i in 0..p.len() {
            let span_dur = p.spans()[i].dur_us();
            let bucket_sum: u64 = p.blame(i).iter().sum();
            prop_assert_eq!(bucket_sum, span_dur, "span {} blame != duration", i);
            self_total += p.self_us(i);
        }
        // Self-time partitions the profile: summing per-span self time
        // equals summing the bucket totals equals the profile total.
        let grand: u64 = p.total_blame().iter().sum();
        prop_assert_eq!(self_total, grand);
        prop_assert_eq!(grand, p.total_us());
    }

    /// Law: a root's critical path is bounded by the root's duration,
    /// and each step contributes no more than its own span's duration.
    #[test]
    fn critical_paths_are_bounded_by_roots(
        seed in any::<u64>(),
        drop_pct in 0u64..15,
        sidx in 0usize..4,
    ) {
        let p = chaos_profile(seed, drop_pct, STRATEGIES[sidx]);
        let roots: Vec<usize> = p.roots().collect();
        prop_assert!(!roots.is_empty());
        for r in roots {
            let cp = p.critical_path(r);
            prop_assert!(
                cp.total_us <= p.spans()[r].dur_us(),
                "critical path {} exceeds root duration {}",
                cp.total_us,
                p.spans()[r].dur_us()
            );
            for step in &cp.steps {
                prop_assert!(step.self_us <= p.spans()[r].dur_us());
            }
        }
    }

    /// Law: the per-workload blame decomposition of the standard traced
    /// trial sums exactly, for every paper workload.
    #[test]
    fn workload_profiles_sum_exactly(widx in 0usize..6) {
        let workloads = cor_workloads::all();
        let w = &workloads[widx % workloads.len()];
        let t = cor_experiments::trace::traced_trial(w, cor::sim::JournalLevel::Full);
        let p = t.profile();
        prop_assert!(p.sums_exactly());
        for i in 0..p.len() {
            prop_assert_eq!(p.blame(i).iter().sum::<u64>(), p.spans()[i].dur_us());
        }
    }

    /// Law: merging per-node histograms is order-insensitive and matches
    /// the pooled histogram sample for sample — count, extrema, mean,
    /// and every percentile.
    #[test]
    fn histogram_merge_is_order_insensitive_and_pooled(
        groups in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 0..12),
            1..6,
        ),
        perm_seed in any::<u64>(),
    ) {
        let mut pooled = LogHistogram::new();
        let mut per_node: Vec<LogHistogram> = Vec::new();
        for g in &groups {
            let mut h = LogHistogram::new();
            for &v in g {
                h.record(v);
                pooled.record(v);
            }
            per_node.push(h);
        }
        // Two merge orders: forward, and a seeded rotation (a cheap
        // derangement that still covers every element).
        let mut forward = LogHistogram::new();
        for h in &per_node {
            forward.merge(h);
        }
        let rot = (perm_seed as usize) % per_node.len();
        let mut rotated = LogHistogram::new();
        for i in 0..per_node.len() {
            rotated.merge(&per_node[(i + rot) % per_node.len()]);
        }
        for merged in [&forward, &rotated] {
            prop_assert_eq!(merged.count(), pooled.count());
            prop_assert_eq!(merged.min(), pooled.min());
            prop_assert_eq!(merged.max(), pooled.max());
            prop_assert_eq!(merged.mean(), pooled.mean());
            for p in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                prop_assert_eq!(merged.percentile(p), pooled.percentile(p));
            }
        }
    }
}

/// `journal`, `metrics`, `profile` and `flamegraph` of the `experiments`
/// command table, run through it: four renderings of one traced trial.
/// The folded stacks partition exactly the time the blame totals
/// account for; a flag is not a target; an unknown target is a usage
/// error, not output.
#[test]
fn the_trace_views_render_one_trial() {
    let mut ctx = Ctx::new(cor_pool::Pool::serial());
    let mut view = |name: &str, args: &[&str]| commands::run(&mut ctx, name, args);
    let folded = view("flamegraph", &[]).unwrap();
    let stack_us = |l: &str| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
    let total: u64 = folded.lines().map(stack_us).sum();
    let report = view("profile", &["Minprog"]).unwrap();
    assert!(
        report.starts_with(&format!("blame totals ({total} us profiled):")),
        "{report}"
    );
    let metrics = view("metrics", &[]).unwrap();
    assert!(metrics.starts_with("metrics @ "), "{metrics}");
    assert_eq!(view("metrics", &["--jsonl"]).unwrap(), metrics);
    let journal = view("journal", &[]).unwrap();
    assert!(journal.starts_with("Event journal of a pure-IOU (pf=1) migration of Minprog"));
    for name in ["journal", "metrics", "profile", "flamegraph"] {
        let err = view(name, &["NoSuchProgram"]).unwrap_err();
        assert!(matches!(&err, Failure::Usage(m) if m.contains("unknown workload NoSuchProgram")));
        assert!(matches!(view(name, &["Minprog", "Chess"]), Err(Failure::Usage(_))));
    }
}
