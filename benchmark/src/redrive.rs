//! The traced run: each workload's cells driven again through the *lower*
//! public APIs, with a wall-clock span around every call into a layer.
//!
//! Each function here mirrors one `cor-experiments` entry point call for
//! call and fills in the same public outcome struct, so the harness can
//! assert that a re-driven pass produces exactly the outputs the timed pass
//! does — which is what makes the phase split a split of the same work.
//! Constants the entry points keep private are repeated below; the
//! equality assertion fails the run if they drift.

use std::collections::{BTreeSet, HashSet};

use cor_experiments::fleet::{FleetOutcome, FleetSpec, FLEET_SEED};
use cor_experiments::replication;
use cor_experiments::runner::{Matrix, Trial};
use cor_experiments::saturation::{SatOutcome, SatSpec, SAT_SEED};
use cor_experiments::survivability;
use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::NodeId;
use cor_kernel::placement::{LeastLoaded, LocalityAware, Placement, PlacementCtx, RoundRobin};
use cor_kernel::{CostModel, World};
use cor_mem::page::{frame_pool, page_from_bytes, Frame, PAGE_SIZE};
use cor_mem::{AddressSpace, PageNum, VAddr};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::{Topology, WireParams};
use cor_pool::Pool;
use cor_sim::{JournalLevel, LedgerCategory, Pcg32, SimDuration, SimTime};
use cor_trace::LogHistogram;

use crate::spans::Tracer;
use crate::workloads::{lossy_trials, DegradedOut, Raw, Workload};

// Phase names: `<layer>.<phase>`; the report appends `_ms` / `_allocs`.
pub const WORLD: &str = "cor-kernel.world";
pub const BUILD: &str = "cor-workloads.build";
pub const MIGRATE: &str = "cor-migrate.migrate";
pub const RUN: &str = "cor-kernel.run";
pub const INJECT: &str = "cor-net.inject";
pub const SETTLE: &str = "cor-kernel.settle";
pub const DRAIN: &str = "cor-ipc.drain";
pub const HARVEST: &str = "cor-trace.harvest";
pub const LOSSY: &str = "cor-experiments.lossy";
pub const SURVIVE: &str = "cor-experiments.survive";
pub const REPLICATE: &str = "cor-experiments.replicate";

/// Every phase a workload can report, in ladder order.
pub const PHASES: [&str; 11] = [
    WORLD, BUILD, MIGRATE, RUN, INJECT, SETTLE, DRAIN, HARVEST, LOSSY, SURVIVE, REPLICATE,
];

/// Spans the benchmark opens for its own bookkeeping — the pass and cell
/// containers, and correctness work the entry points do not do. Their self
/// time is not part of any layer.
pub const PASS: &str = "benchmark.pass";
pub const CELL: &str = "benchmark.cell";
pub const CHECK: &str = "benchmark.check";

/// What only the re-drive can see: it still holds the worlds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Extras {
    /// Messages sent, summed over the worlds of the pass.
    pub msgs: u64,
    /// `World::touched_checksum` of each lazy-strategy cell against its
    /// pure-copy twin: comparisons made / mismatches found.
    pub image_checks: u64,
    pub image_mismatches: u64,
}

/// One traced pass of `workload`: the same outputs as [`Workload::run`],
/// spans recorded into `tr`.
pub fn traced_pass(workload: &Workload, tr: &mut Tracer) -> (Raw, Extras) {
    let mut extras = Extras::default();
    let pass = tr.enter(PASS);
    let raw = match workload {
        Workload::PaperMatrix(workloads) => {
            let mut trials = Vec::with_capacity(workloads.len() * 11);
            let mut cell = 0;
            for w in workloads {
                let mut pure_copy_image = None;
                for strategy in Matrix::paper_strategies() {
                    tr.set_cell(cell);
                    cell += 1;
                    let TrialRun { trial, image, .. } =
                        trial(tr, w, strategy, JournalLevel::Summary);
                    extras.msgs += trial.msgs;
                    match (strategy, pure_copy_image) {
                        (Strategy::PureCopy, _) => pure_copy_image = Some(image),
                        (_, Some(reference)) => {
                            extras.image_checks += 1;
                            extras.image_mismatches += u64::from(image != reference);
                        }
                        (_, None) => unreachable!("pure-copy is the first paper strategy"),
                    }
                    trials.push(trial);
                }
            }
            Raw::Matrix(trials)
        }
        Workload::FleetStorm(cells) => Raw::Fleet(
            cells
                .iter()
                .enumerate()
                .map(|(i, &spec)| {
                    tr.set_cell(i as u32);
                    let (outcome, msgs, _) = fleet_cell(tr, spec, false);
                    extras.msgs += msgs;
                    outcome
                })
                .collect(),
        ),
        Workload::FaultService { cells, .. } => Raw::Sat(
            cells
                .iter()
                .enumerate()
                .map(|(i, &spec)| {
                    tr.set_cell(i as u32);
                    let (outcome, msgs) = sat_cell(tr, spec);
                    extras.msgs += msgs;
                    outcome
                })
                .collect(),
        ),
        Workload::DegradedWire(procs) => {
            // The three sweeps are public entry points themselves and are
            // not split further.
            let serial = Pool::serial();
            Raw::Degraded(
                procs
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        tr.set_cell(i as u32);
                        let one = std::slice::from_ref(&p.workload);
                        let s = tr.enter(LOSSY);
                        let lossy = lossy_trials(p);
                        let s = tr.switch(s, SURVIVE);
                        let survival = survivability::survival_outcomes(one, &serial);
                        let s = tr.switch(s, REPLICATE);
                        let replication = replication::replication_outcomes(one, &serial);
                        tr.exit(s);
                        extras.msgs += lossy.iter().map(|t| t.msgs).sum::<u64>();
                        DegradedOut {
                            lossy,
                            survival,
                            replication,
                        }
                    })
                    .collect(),
            )
        }
    };
    tr.exit(pass);
    (raw, extras)
}

/// A re-driven matrix trial.
pub struct TrialRun {
    /// The record `runner::run_trial` would have returned.
    pub trial: Trial,
    /// Digest of the memory image the process saw at the new site.
    pub image: u64,
    /// Events and spans the world and fabric journals hold at the end.
    pub journal_records: u64,
}

/// `runner::run_trial` (lock-step path) re-driven: build → migrate →
/// remote run on a fresh two-node world.
pub fn trial(
    tr: &mut Tracer,
    workload: &cor_workloads::Workload,
    strategy: Strategy,
    journal: JournalLevel,
) -> TrialRun {
    let cell = tr.enter(CELL);

    let s = tr.enter(WORLD);
    let mut world = World::new(CostModel::default(), WireParams::default());
    world.enable_journal_at(journal);
    let a = world.add_node();
    let b = world.add_node();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);

    let s = tr.switch(s, BUILD);
    let pid = workload.build(&mut world, a).expect("workload build");
    let (real_set, resident_set, total_pages) = {
        let process = world.process(a, pid).expect("process");
        let real: HashSet<PageNum> = process.space.materialized_pages().map(|(p, _)| p).collect();
        let resident: HashSet<PageNum> = process.space.resident_pages().into_iter().collect();
        (
            real,
            resident,
            process.space.stats().total_bytes() / PAGE_SIZE,
        )
    };

    let s = tr.switch(s, MIGRATE);
    let migration = src
        .migrate_to(&mut world, &dst, pid, strategy)
        .expect("migration");

    let s = tr.switch(s, RUN);
    let exec = world.run(b, pid).expect("remote execution");

    let s = tr.switch(s, CHECK);
    let image = world.touched_checksum(b, pid).expect("checksum");
    let journal_records = world
        .journals()
        .iter()
        .map(|(_, j)| (j.len() + j.spans().len()) as u64)
        .sum();

    let s = tr.switch(s, HARVEST);
    let stats = world.process(b, pid).expect("process").stats.clone();
    let touched_real: HashSet<PageNum> = stats.touched.intersection(&real_set).copied().collect();
    let rs_union = resident_set.union(&touched_real).count() as u64;
    let fabric_stats = world.fabric.stats().clone();
    let trial = Trial {
        workload: workload.name().to_string(),
        strategy,
        migration,
        exec_elapsed: exec.elapsed,
        total_bytes: world.fabric.ledger.total(),
        bulk_bytes: world.fabric.ledger.total_for(LedgerCategory::Bulk),
        fault_bytes: world.fabric.ledger.total_for(LedgerCategory::FaultSupport),
        msg_cpu: fabric_stats.cpu_total,
        msgs: fabric_stats.msgs_total,
        imag_faults: stats.imag_faults,
        disk_faults: stats.disk_faults,
        zero_faults: stats.zero_faults,
        prefetch_hit_ratio: stats.prefetch_hit_ratio(),
        touched_real_pages: touched_real.len() as u64,
        real_pages: real_set.len() as u64,
        total_pages,
        rs_union_pages: rs_union,
        retransmit_bytes: world.fabric.ledger.total_for(LedgerCategory::Retransmit),
        reliability: world.fabric.reliability.clone(),
        ledger: world.fabric.ledger.clone(),
        end_time: world.clock.now(),
    };
    drop((world, real_set, resident_set, touched_real, stats));
    tr.exit(s);

    tr.exit(cell);
    TrialRun {
        trial,
        image,
        journal_records,
    }
}

/// Pages per synthetic fleet process (`fleet::PROC_PAGES`).
const PROC_PAGES: u64 = 8;

fn spawn_proc(world: &mut World, node: NodeId) {
    let mut space = AddressSpace::new();
    space
        .validate(VAddr(0), 4 * PROC_PAGES * PAGE_SIZE)
        .expect("non-empty range");
    let mut tb = cor_kernel::Trace::builder();
    for i in 0..PROC_PAGES {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..PROC_PAGES / 2 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    let pid = world
        .create_process(node, "fleet", space, tb.terminate())
        .expect("known node");
    world
        .run_for(node, pid, PROC_PAGES as usize)
        .expect("write phase");
}

/// `fleet::topology_for`: the named topology over `n` nodes.
pub fn topology_for(name: &str, n: u32) -> Topology {
    let t = match name {
        "full-mesh" => Topology::full_mesh(n),
        "ring" => Topology::ring(n),
        "torus" => {
            let cols = (1..=n).find(|c| c * c >= n).expect("n >= 1");
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

/// `fleet::run_cell` re-driven. Also returns the messages the cell's
/// fabric carried and, when `keep` is set, the world itself (journals
/// intact) instead of dropping it inside the harvest span.
pub fn fleet_cell(
    tr: &mut Tracer,
    spec: FleetSpec,
    keep: bool,
) -> (FleetOutcome, u64, Option<World>) {
    let cell = tr.enter(CELL);

    let s = tr.enter(WORLD);
    let wire = WireParams {
        topology: Some(topology_for(spec.topology, spec.nodes)),
        ..WireParams::default()
    };
    let (mut world, nodes) = World::fleet(spec.nodes, CostModel::default(), wire);
    world.fabric.validate_plans().expect("a well-wired fleet");
    world.enable_journal_at(JournalLevel::Full);
    let managers: Vec<MigrationManager> = nodes
        .iter()
        .map(|&n| MigrationManager::new(&mut world, n))
        .collect();

    let s = tr.switch(s, BUILD);
    let drain_set: BTreeSet<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| n.0 % spec.storm.drain_every == 0)
        .collect();
    for &node in &drain_set {
        for _ in 0..spec.storm.procs_per_node {
            spawn_proc(&mut world, node);
        }
    }

    let s = tr.switch(s, MIGRATE);
    let candidates: Vec<NodeId> = nodes
        .iter()
        .copied()
        .filter(|n| !drain_set.contains(n))
        .collect();
    let mut policy = placement_for(spec.placement);
    let storm_start = world.clock.now();
    let bytes_before = world.fabric.ledger.total();
    let mut migrations = 0u64;
    for &source in &drain_set {
        for pid in world.resident_pids(source).expect("known node") {
            let loads = world.loads();
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
            migrations += 1;
        }
    }
    let storm_elapsed = world.clock.now().since(storm_start);

    let s = tr.switch(s, RUN);
    let mut survived = 0u64;
    for &node in &candidates {
        for pid in world.resident_pids(node).expect("known node") {
            let report = world.run(node, pid).expect("post-storm run");
            survived += u64::from(report.finished);
        }
    }

    let s = tr.switch(s, HARVEST);
    let drain_residents_after: u64 = drain_set
        .iter()
        .map(|&n| world.node_load(n).expect("known node"))
        .sum();
    let mut faults = LogHistogram::new();
    if let Some(journal) = &world.journal {
        for span in journal.spans() {
            if span.name == "imag-fault" {
                if let Some(d) = span.duration() {
                    faults.record_duration(d);
                }
            }
        }
    }
    let links = world.fabric.link_stats();
    let link_bytes: u64 = links.values().map(|l| l.bytes).sum();
    let max_link_bytes = links.values().map(|l| l.bytes).max().unwrap_or(0);
    let link_msgs: u64 = links.values().map(|l| l.msgs).sum();
    let remote_msgs = world.fabric.stats().msgs_remote;
    let msgs = world.fabric.stats().msgs_total;
    let outcome = FleetOutcome {
        spec,
        migrations,
        survived,
        drain_residents_after,
        storm_elapsed,
        throughput: migrations as f64 / storm_elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        fault_p50_us: faults.p50(),
        fault_p99_us: faults.p99(),
        faults: faults.count(),
        wire_bytes: world.fabric.ledger.total() - bytes_before,
        link_bytes,
        max_link_bytes,
        mean_hops: link_msgs as f64 / remote_msgs.max(1) as f64,
    };
    drop(managers);
    let kept = keep.then_some(world);
    tr.exit(s);

    tr.exit(cell);
    (outcome, msgs, kept)
}

// Private constants of `saturation`: pages cached at the server, the hot
// set, and the sequence base of harness requests.
const SEG_PAGES: u64 = 64;
const HOT_PAGES: u64 = 4;
const SEQ_BASE: u64 = 1_000_000;

/// `saturation::run_cell` re-driven. Open-loop arrivals stay on the
/// *virtual* clock (due times fixed by the offered rate, sojourn timed from
/// the due time); the closed-loop cell keeps one request in flight. Also
/// returns the messages the cell's fabric carried.
pub fn sat_cell(tr: &mut Tracer, spec: SatSpec) -> (SatOutcome, u64) {
    let cell = tr.enter(CELL);

    let s = tr.enter(WORLD);
    let wire = if spec.optimized {
        WireParams::default().hot_path()
    } else {
        WireParams::default()
    };
    let n = if spec.relay { 3 } else { 2 };
    let (mut world, nodes) = World::fleet(n, CostModel::default(), wire);
    let client = nodes[0];
    let server = *nodes.last().expect("nodes exist");
    if spec.optimized {
        world.fabric.ledger.set_coarse(true);
    }

    let s = tr.switch(s, BUILD);
    let server_nms = world.fabric.nms_port(server).expect("server registered");
    let frames: Vec<Frame> = (0..SEG_PAGES)
        .map(|i| Frame::new(page_from_bytes(&i.to_le_bytes())))
        .collect();
    let seg = world.segs.create(server_nms, SEG_PAGES);
    world.segs.add_refs(seg, SEG_PAGES).expect("fresh segment");
    world
        .fabric
        .install_cache(server, seg, frames)
        .expect("server registered");
    let reply_port = world.ports.allocate(client);
    let (target_port, target_seg) = if spec.relay {
        let relay = nodes[1];
        let scratch = world.ports.allocate(relay);
        let iou = Message::new(MsgKind::User(0x5A7), scratch)
            .push(MsgItem::Iou {
                base_page: 0,
                seg,
                seg_offset: 0,
                pages: SEG_PAGES,
            })
            .with_no_ious(true);
        world.send_from(server, iou).expect("iou delivery");
        let delivered = world
            .ports
            .dequeue(scratch)
            .expect("scratch port exists")
            .expect("iou delivered");
        let stand_in = match delivered.items.first() {
            Some(MsgItem::Iou { seg, .. }) => *seg,
            other => panic!("expected a rewritten IOU, got {other:?}"),
        };
        (
            world.fabric.nms_port(relay).expect("relay registered"),
            stand_in,
        )
    } else {
        (server_nms, seg)
    };
    let mut rng = Pcg32::with_stream(SAT_SEED, 0x10AD);
    let offsets: Vec<u64> = (0..spec.requests)
        .map(|i| match spec.pattern {
            "hot" => rng.range(0, HOT_PAGES),
            _ => i % SEG_PAGES,
        })
        .collect();
    tr.exit(s);

    let request = |offset: u64, i: u64| {
        protocol::imag_read_request(target_port, reply_port, target_seg, offset, 1)
            .with_seq(SEQ_BASE + i)
            .with_no_ious(true)
    };
    let mut hist = LogHistogram::new();
    let t0 = world.clock.now();
    let mut served = 0u64;
    let mut last_completion = t0;
    let arrival_span;
    // One span is always open inside the loops: each boundary is a single
    // `switch`, and the (empty) inject span left open by the last round is
    // closed after it.
    let mut s = tr.enter(INJECT);
    if spec.mode == "closed" {
        for (i, &offset) in offsets.iter().enumerate() {
            let start = world.clock.now();
            world
                .send_from(client, request(offset, i as u64))
                .expect("request send");
            s = tr.switch(s, SETTLE);
            world.settle().expect("service round");
            s = tr.switch(s, DRAIN);
            let reply = world
                .ports
                .dequeue(reply_port)
                .expect("reply port exists")
                .expect("closed-loop reply arrived");
            match protocol::parse_owned(reply) {
                Ok(ProtocolMsg::ImagReadReply { frames, .. }) => frame_pool::give(frames),
                other => panic!("expected a read reply, got {other:?}"),
            }
            last_completion = world.clock.now();
            hist.record_duration(last_completion.since(start));
            served += 1;
            s = tr.switch(s, INJECT);
        }
        arrival_span = last_completion.since(t0);
    } else {
        let interval = SimDuration::from_micros(1_000_000 / spec.offered_fps.max(1));
        arrival_span = interval.saturating_mul(spec.requests.saturating_sub(1));
        let arrival = |i: u64| -> SimTime { t0 + interval.saturating_mul(i) };
        let mut next = 0u64;
        let mut outstanding: Vec<(u64, SimTime)> = Vec::new();
        while served < spec.requests {
            while next < spec.requests && arrival(next) <= world.clock.now() {
                let offset = offsets[next as usize];
                world
                    .fabric
                    .send_detached(
                        &mut world.clock,
                        &mut world.ports,
                        &mut world.segs,
                        client,
                        request(offset, next),
                    )
                    .expect("request injection");
                outstanding.push((offset, arrival(next)));
                next += 1;
            }
            if outstanding.is_empty() {
                // Idle: jump to the next arrival.
                let at = arrival(next);
                let now = world.clock.now();
                if at > now {
                    world.clock.advance(at.since(now));
                }
                continue;
            }
            s = tr.switch(s, SETTLE);
            world.settle().expect("service round");
            s = tr.switch(s, DRAIN);
            while let Some(msg) = world.ports.dequeue(reply_port).expect("reply port") {
                let Ok(ProtocolMsg::ImagReadReply {
                    seg: rseg,
                    offset: ro,
                    frames,
                    ..
                }) = protocol::parse_owned(msg)
                else {
                    panic!("unexpected message on the reply port");
                };
                let n = frames.len() as u64;
                frame_pool::give(frames);
                let now = world.clock.now();
                outstanding.retain(|&(o, at)| {
                    let covered = rseg == target_seg && o >= ro && o < ro + n;
                    if covered {
                        hist.record_duration(now.since(at));
                        served += 1;
                        last_completion = now;
                    }
                    !covered
                });
            }
            s = tr.switch(s, INJECT);
        }
    }

    let s = tr.switch(s, HARVEST);
    let stats = world.fabric.stats();
    let msgs = stats.msgs_total;
    let outcome = SatOutcome {
        spec,
        served,
        offered_fps: if spec.mode == "closed" {
            served as f64 / arrival_span.as_secs_f64().max(f64::MIN_POSITIVE)
        } else {
            spec.offered_fps as f64
        },
        achieved_fps: served as f64
            / last_completion
                .since(t0)
                .as_secs_f64()
                .max(f64::MIN_POSITIVE),
        p50_us: hist.p50(),
        p95_us: hist.p95(),
        p99_us: hist.p99(),
        batched_replies: stats.batched_replies,
        batched_pages: stats.batched_pages,
        coalesced: stats.coalesced_requests,
        wire_bytes: world.fabric.ledger.total(),
    };
    drop(world);
    tr.exit(s);

    tr.exit(cell);
    (outcome, msgs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans;
    use cor_experiments::{fleet, runner, saturation};

    /// The traced re-drive of a matrix trial is the entry point's trial.
    #[test]
    fn minprog_redrive_equals_run_trial() {
        let w = cor_workloads::minprog::workload();
        let mut images = Vec::new();
        for strategy in Matrix::paper_strategies() {
            let mut tr = Tracer::with_capacity(64);
            let TrialRun {
                trial: ours, image, ..
            } = trial(&mut tr, &w, strategy, JournalLevel::Summary);
            let theirs = runner::run_trial(&w, strategy);
            assert_eq!(ours.csv_row(), theirs.csv_row(), "{strategy}");
            assert_eq!(ours.end_time, theirs.end_time);
            assert_eq!(ours.total_bytes, theirs.total_bytes);
            assert_eq!(ours.msgs, theirs.msgs);
            assert_eq!(ours.msg_cpu, theirs.msg_cpu);
            assert_eq!(ours.reliability, theirs.reliability);
            assert_eq!(ours.ledger.entries().len(), theirs.ledger.entries().len());
            images.push(image);
            let phases = spans::by_name(&tr.finish());
            for phase in [WORLD, BUILD, MIGRATE, RUN, HARVEST] {
                assert_eq!(phases[phase].count, 1, "{phase}");
            }
        }
        assert!(
            images.windows(2).all(|p| p[0] == p[1]),
            "every strategy leaves the process the same memory image"
        );
    }

    /// The journal level changes host cost, never a modelled output.
    #[test]
    fn journal_level_does_not_change_a_trial() {
        let w = cor_workloads::minprog::workload();
        let s = Strategy::PureIou { prefetch: 1 };
        let mut tr = Tracer::with_capacity(64);
        let off = trial(&mut tr, &w, s, JournalLevel::Off);
        let full = trial(&mut tr, &w, s, JournalLevel::Full);
        assert_eq!(off.trial.csv_row(), full.trial.csv_row());
        assert_eq!(off.trial.end_time, full.trial.end_time);
        assert_eq!(off.journal_records, 0);
        assert!(full.journal_records > 0);
    }

    /// One 16-node fleet cell: the re-drive fills in the same outcome.
    #[test]
    fn fleet_cell_redrive_equals_run_cell() {
        let spec = fleet::gate_cells()
            .into_iter()
            .find(|c| c.topology == "torus" && c.placement == "locality")
            .expect("a 16-node torus cell");
        let mut tr = Tracer::with_capacity(64);
        let (ours, msgs, world) = fleet_cell(&mut tr, spec, true);
        let theirs = fleet::run_cell(spec);
        assert_eq!(fleet::csv_for(&[ours]), fleet::csv_for(&[theirs]));
        assert!(msgs > 0);
        assert_eq!(world.expect("kept").journals().len(), 2);
    }

    /// A closed-loop, an open-loop and a relayed hot cell, both
    /// configurations: the re-drive fills in the same outcome.
    #[test]
    fn saturation_cell_redrive_equals_run_cell() {
        for spec in saturation::gate_cells() {
            let mut tr = Tracer::with_capacity(4096);
            let (ours, _) = sat_cell(&mut tr, spec);
            let theirs = saturation::run_cell(spec);
            assert_eq!(
                saturation::csv_for(&[ours]),
                saturation::csv_for(&[theirs]),
                "{}",
                spec.label()
            );
        }
    }
}
