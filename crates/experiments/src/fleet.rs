//! Fleet sweep (ours): cluster size × topology × placement × storm.
//!
//! The paper measures one migration between two machines. This study
//! asks what happens at fleet scale: an N-node routed fabric
//! ([`cor_net::Topology`]) where a *migration storm* — draining nodes
//! evicting every resident process at once — stresses the interconnect
//! and the destination pagers simultaneously. Each cell reports
//! storm throughput, the p50/p99 of post-migration copy-on-reference
//! fault service (the kernel's [`World::fault_service`] histogram: a
//! storm cell keeps no journal), total wire bytes, the hottest link, and
//! the mean hop count — the quantities that separate a placement policy
//! that respects the topology from one that does not.
//!
//! Everything is deterministic: seeded topologies, seeded placement
//! tie-breaks, cells fanned across a [`cor_pool::Pool`] and rendered serially in
//! cell order, so output is byte-identical at any thread count.

use std::collections::BTreeSet;

use cor_ipc::NodeId;
use cor_kernel::placement::{LeastLoaded, LocalityAware, Placement, PlacementCtx, RoundRobin};
use cor_kernel::{CostModel, Trace, World};
use cor_mem::page::PAGE_SIZE;
use cor_mem::{AddressSpace, PageNum, VAddr};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::{Topology, WireParams};
use cor_sim::{JournalLevel, SimDuration};

use crate::render::{commas, millis, secs};
use crate::study::{fan_out, Column, Study};

/// Seed for topology routing and placement tie-breaks; fixed for
/// reproducibility.
pub const FLEET_SEED: u64 = 0xF1EE7;

/// Pages per synthetic fleet process (written at the source, half read
/// back after migration — the manager-test workload shape).
const PROC_PAGES: u64 = 8;

/// How hard the storm blows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormIntensity {
    /// Table label.
    pub name: &'static str,
    /// One in `drain_every` nodes drains (2 = half the fleet).
    pub drain_every: u32,
    /// Processes resident on each draining node when the storm starts.
    pub procs_per_node: u32,
}

/// A moderate storm: a quarter of the fleet drains, lightly loaded.
pub const STORM_LOW: StormIntensity = StormIntensity {
    name: "low",
    drain_every: 4,
    procs_per_node: 4,
};

/// A heavy storm: half the fleet drains, heavily loaded. On 64 nodes
/// this is 32 × 16 = 512 concurrent migrations.
pub const STORM_HIGH: StormIntensity = StormIntensity {
    name: "high",
    drain_every: 2,
    procs_per_node: 16,
};

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Cluster size.
    pub nodes: u32,
    /// Topology name: `full-mesh`, `ring`, or `torus`.
    pub topology: &'static str,
    /// Placement name: `round-robin`, `least-loaded`, or `locality`.
    pub placement: &'static str,
    /// Storm intensity.
    pub storm: StormIntensity,
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The cell that produced it.
    pub spec: FleetSpec,
    /// Migrations the storm performed.
    pub migrations: u64,
    /// Migrated processes that ran to termination afterwards.
    pub survived: u64,
    /// Processes still resident on draining nodes after the storm
    /// (must be zero: a drain evicts everything).
    pub drain_residents_after: u64,
    /// Virtual time the storm itself took.
    pub storm_elapsed: SimDuration,
    /// Storm throughput (migrations per virtual second).
    pub throughput: f64,
    /// p50 of post-migration imaginary-fault service, in µs.
    pub fault_p50_us: u64,
    /// p99 of post-migration imaginary-fault service, in µs.
    pub fault_p99_us: u64,
    /// Faults observed.
    pub faults: u64,
    /// Total bytes ledgered to the wire.
    pub wire_bytes: u64,
    /// Per-link bytes summed over every traversed link (≥ `wire_bytes`
    /// on multi-hop topologies: every hop bills the full message).
    pub link_bytes: u64,
    /// Bytes over the hottest single link.
    pub max_link_bytes: u64,
    /// Mean hops per remote message.
    pub mean_hops: f64,
}

/// The sweep's cells: every topology × placement at 16 nodes under the
/// low storm, plus the 64-node heavy-storm showcase (512 concurrent
/// migrations) contrasting the topology-blind and topology-aware
/// policies on a torus.
pub fn cells() -> Vec<FleetSpec> {
    let mut v = Vec::new();
    for topology in ["full-mesh", "ring", "torus"] {
        for placement in ["round-robin", "least-loaded", "locality"] {
            v.push(FleetSpec {
                nodes: 16,
                topology,
                placement,
                storm: STORM_LOW,
            });
        }
    }
    for placement in ["round-robin", "locality"] {
        v.push(FleetSpec {
            nodes: 64,
            topology: "torus",
            placement,
            storm: STORM_HIGH,
        });
    }
    v
}

/// The 16-node slice of [`cells`] — what the reproduction gate and the
/// determinism tests run (the 64-node cells are the `fleet` command's
/// showcase).
pub fn gate_cells() -> Vec<FleetSpec> {
    cells().into_iter().filter(|c| c.nodes == 16).collect()
}

fn topology_for(name: &str, n: u32) -> Topology {
    let t = match name {
        "full-mesh" => Topology::full_mesh(n),
        "ring" => Topology::ring(n),
        "torus" => {
            let mut cols = 1;
            while (cols + 1) * (cols + 1) <= n {
                cols += 1;
            }
            assert_eq!(cols * cols, n, "torus cells use square clusters");
            Topology::torus(cols, cols)
        }
        other => panic!("unknown topology {other}"),
    };
    t.with_seed(FLEET_SEED)
}

fn placement_for(name: &str) -> Box<dyn Placement> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "least-loaded" => Box::new(LeastLoaded::new()),
        "locality" => Box::new(LocalityAware::new()),
        other => panic!("unknown placement {other}"),
    }
}

/// What every fleet process runs: write its pages, then read half of
/// them back. A cell builds it once and shares it with every process.
fn storm_trace() -> Trace {
    let mut tb = Trace::builder();
    for i in 0..PROC_PAGES {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..PROC_PAGES / 2 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    tb.terminate()
}

/// Builds one synthetic fleet process on `node` running `trace` and runs
/// its write phase there, leaving the read-back phase for after
/// migration.
fn spawn_proc(world: &mut World, node: NodeId, trace: Trace) -> cor_kernel::ProcessId {
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 4 * PROC_PAGES * PAGE_SIZE).unwrap();
    let pid = world.create_process(node, "fleet", space, trace).unwrap();
    world.run_for(node, pid, PROC_PAGES as usize).unwrap();
    pid
}

/// Runs one fleet cell: build the N-node routed world, load the
/// draining nodes, blow the storm (placement-chosen destinations,
/// pure-IOU with one page of prefetch), then run every migrant to
/// termination and harvest the metrics.
///
/// # Panics
///
/// Panics on internal simulation errors — a storm cell has no expected
/// failure mode.
pub fn run_cell(spec: FleetSpec) -> FleetOutcome {
    run_cell_inner(spec, false).0
}

/// The fixed cell profiled by `experiments profile fleet` and the
/// latency baseline: 16-node ring under the low storm with least-loaded
/// placement — small enough to profile quickly, multi-hop enough that
/// every blame bucket (queue wait, wire transit, retransmit backoff)
/// is exercised.
pub fn blame_cell_spec() -> FleetSpec {
    FleetSpec {
        nodes: 16,
        topology: "ring",
        placement: "least-loaded",
        storm: STORM_LOW,
    }
}

/// Measured queue wait per link, keyed by `(src, dst)` — the shape
/// [`cor_trace::Profile::blame_csv`] takes for its per-link rows.
pub type LinkWaits = Vec<((NodeId, NodeId), u64)>;

/// The queue wait in microseconds each directed link of `world` has seen.
pub fn link_waits(world: &World) -> LinkWaits {
    let stats = world.fabric.link_stats();
    stats.iter().map(|(&l, s)| (l, s.queue_wait.as_micros())).collect()
}

/// Like [`run_cell`], but also returns the cell's critical-path
/// [`Profile`](cor_trace::Profile) (built from the world and fabric
/// journals) and the per-directed-link queue waits in microseconds —
/// the inputs of [`cor_trace::Profile::blame_csv`].
pub fn run_cell_profiled(spec: FleetSpec) -> (FleetOutcome, cor_trace::Profile, LinkWaits) {
    let (outcome, world) = run_cell_inner(spec, true);
    let profile = cor_trace::Profile::from_journals(&world.journals());
    (outcome, profile, link_waits(&world))
}

/// One storm cell; `traced` records the `Full` journal the profile is
/// built from. The outcome is the same either way.
fn run_cell_inner(spec: FleetSpec, traced: bool) -> (FleetOutcome, World) {
    let topo = topology_for(spec.topology, spec.nodes);
    let wire = WireParams {
        topology: Some(topo),
        ..WireParams::default()
    };
    let (mut world, nodes) = World::fleet(spec.nodes, CostModel::default(), wire);
    world.fabric.validate_plans().expect("a well-wired fleet");
    if traced {
        world.enable_journal_at(JournalLevel::Full);
    }
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();

    let drain_set: BTreeSet<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| n.0 % spec.storm.drain_every == 0)
        .collect();
    let trace = storm_trace();
    for &node in &drain_set {
        for _ in 0..spec.storm.procs_per_node {
            spawn_proc(&mut world, node, trace.clone());
        }
    }

    // The storm: every draining node evicts everything it hosts, one
    // placement decision per process against live load counts. The load
    // map is built once; each migration moves one process, so it updates
    // the two counts that moved.
    let candidates: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !drain_set.contains(n))
        .collect();
    let mut policy = placement_for(spec.placement);
    let storm_start = world.clock.now();
    let bytes_before = world.fabric.ledger.total();
    let mut migrations = 0u64;
    let mut loads = world.loads();
    for &source in &drain_set {
        for pid in world.resident_pids(source).unwrap() {
            debug_assert_eq!(loads, world.loads(), "the storm's load map is stale");
            let down = world.fabric.crashed_nodes();
            for &cand in &candidates {
                if down.contains(&cand) {
                    world.note(|| cor_trace::TraceEvent::PlacementSkip { node: cand, source });
                }
            }
            let ctx = PlacementCtx {
                source,
                candidates: &candidates,
                loads: &loads,
                topology: world.fabric.params.topology.as_ref(),
                down: &down,
                seed: FLEET_SEED,
            };
            let dest = policy.choose(&ctx, pid.0).expect("candidates exist");
            managers[source.0 as usize]
                .migrate_to(
                    &mut world,
                    &managers[dest.0 as usize],
                    pid,
                    Strategy::PureIou { prefetch: 1 },
                )
                .expect("storm migration");
            *loads.get_mut(&source).expect("a fleet node") -= 1;
            *loads.get_mut(&dest).expect("a fleet node") += 1;
            migrations += 1;
        }
    }
    let storm_elapsed = world.clock.now().since(storm_start);

    // Post-storm: every migrant resumes at its destination; the read
    // phase drives copy-on-reference faults back across the fabric.
    let mut survived = 0u64;
    for &node in &candidates {
        for pid in world.resident_pids(node).unwrap() {
            let report = world.run(node, pid).expect("post-storm run");
            if report.finished {
                survived += 1;
            }
        }
    }
    let drain_residents_after: u64 = drain_set
        .iter()
        .map(|&n| world.node_load(n).unwrap())
        .sum();

    let links = world.fabric.link_stats();
    let link_bytes: u64 = links.values().map(|s| s.bytes).sum();
    let max_link_bytes = links.values().map(|s| s.bytes).max().unwrap_or(0);
    let link_msgs: u64 = links.values().map(|s| s.msgs).sum();
    let remote_msgs = world.fabric.stats().msgs_remote;
    let outcome = FleetOutcome {
        spec,
        migrations,
        survived,
        drain_residents_after,
        storm_elapsed,
        throughput: migrations as f64 / storm_elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        fault_p50_us: world.fault_service.p50(),
        fault_p99_us: world.fault_service.p99(),
        faults: world.fault_service.count(),
        wire_bytes: world.fabric.ledger.total() - bytes_before,
        link_bytes,
        max_link_bytes,
        mean_hops: link_msgs as f64 / remote_msgs.max(1) as f64,
    };
    (outcome, world)
}

/// The sweep: every cell of [`cells`] fanned across the pool; its table
/// is a section of `all`, its CSV `results/fleet.csv`.
pub static STUDY: Study<FleetSpec, FleetOutcome> = Study {
    title: |_| {
        "Fleet sweep (ours): migration storms on routed N-node fabrics\n\
         (draining nodes evict every resident process at once; pure-IOU with\n\
         one page of prefetch; destinations chosen per process by the named\n\
         placement policy; p50/p99 are post-migration imaginary-fault service\n\
         times from journal spans)"
            .to_string()
    },
    cells,
    run: |_, pool, cells| fan_out(pool, cells, run_cell),
    columns: &[
        Column::same("nodes", "nodes", |o| o.spec.nodes.to_string()),
        Column::same("topology", "topology", |o| o.spec.topology.to_string()),
        Column::same("placement", "placement", |o| o.spec.placement.to_string()),
        Column::same("storm", "storm", |o| o.spec.storm.name.to_string()),
        Column::same("migs", "migrations", |o| o.migrations.to_string()),
        Column::same("ok", "survived", |o| o.survived.to_string()),
        Column::both(
            "storm s",
            |o| secs(o.storm_elapsed.as_secs_f64()),
            "storm_s",
            |o| format!("{:.6}", o.storm_elapsed.as_secs_f64()),
        ),
        Column::both(
            "migs/s",
            |o| format!("{:.2}", o.throughput),
            "throughput",
            |o| format!("{:.3}", o.throughput),
        ),
        Column::both("p50 ms", |o| millis(o.fault_p50_us), "fault_p50_us", |o| {
            o.fault_p50_us.to_string()
        }),
        Column::both("p99 ms", |o| millis(o.fault_p99_us), "fault_p99_us", |o| {
            o.fault_p99_us.to_string()
        }),
        Column::csv("faults", |o| o.faults.to_string()),
        Column::both("wire bytes", |o| commas(o.wire_bytes), "wire_bytes", |o| {
            o.wire_bytes.to_string()
        }),
        Column::csv("link_bytes", |o| o.link_bytes.to_string()),
        Column::both(
            "max link",
            |o| commas(o.max_link_bytes),
            "max_link_bytes",
            |o| o.max_link_bytes.to_string(),
        ),
        Column::both(
            "hops",
            |o| format!("{:.2}", o.mean_hops),
            "mean_hops",
            |o| format!("{:.4}", o.mean_hops),
        ),
    ],
};

/// Renders outcomes as CSV (split out so tests can diff slices).
pub fn csv_for(outcomes: &[FleetOutcome]) -> String {
    STUDY.csv(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_pool::Pool;

    #[test]
    fn multi_hop_topologies_bill_every_link() {
        let torus = run_cell(FleetSpec {
            nodes: 16,
            topology: "torus",
            placement: "round-robin",
            storm: STORM_LOW,
        });
        assert!(
            torus.link_bytes > torus.wire_bytes,
            "some route took >1 hop: {} vs {}",
            torus.link_bytes,
            torus.wire_bytes
        );
        assert!(torus.mean_hops > 1.0);
        let mesh = run_cell(FleetSpec {
            nodes: 16,
            topology: "full-mesh",
            placement: "round-robin",
            storm: STORM_LOW,
        });
        assert_eq!(mesh.link_bytes, mesh.wire_bytes);
        assert!((mesh.mean_hops - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_deterministic_and_every_storm_faults_remotely() {
        let slice = || STUDY.run(&[], &Pool::serial(), gate_cells());
        let a = slice();
        assert_eq!(
            csv_for(&a),
            csv_for(&slice()),
            "two seeded runs are byte-identical"
        );
        for o in &a {
            assert_eq!(o.migrations, 4 * 4, "a quarter of 16 nodes × 4 procs: {o:?}");
            assert!(o.faults > 0, "the read phase faulted remotely: {o:?}");
        }
    }

    #[test]
    fn every_storm_process_ends_with_the_memory_its_trace_predicts() {
        let mut judged = 0;
        for spec in gate_cells().into_iter().chain([blame_cell_spec()]) {
            let (_, world) = run_cell_inner(spec, false);
            for node in world.node_ids() {
                for (&pid, process) in &world.node(node).unwrap().processes {
                    let expected = process.trace.expected_checksum_from(0, |_, _| ());
                    let got = world.touched_checksum(node, pid).unwrap();
                    assert_eq!(got, expected, "{spec:?}: {pid:?} on {node:?}");
                    judged += 1;
                }
            }
        }
        assert_eq!(judged, 160);
    }
}
