//! The MigrationManager process (paper §3.2).
//!
//! Each machine wishing to participate in migration runs a simple
//! MigrationManager. Given a process and a destination, it excises the
//! context, packages the RIMAS message for the chosen strategy, ships both
//! context messages, and the peer manager reinserts the process.
//!
//! The manager "doesn't attempt sophisticated address space management" in
//! the pure-IOU case — it simply leaves the `NoIOUs` bit clear so the
//! intermediary NetMsgServers cache the data and become its backer. For
//! the resident-set strategy it plays the active role §3.1 allows: it
//! caches the non-resident portions itself and substitutes its *own*
//! imaginary objects in the RIMAS message, servicing later page requests
//! from its page store.

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortId;
use cor_ipc::NodeId;
use cor_kernel::process::ProcessId;
use cor_kernel::{KernelError, World};
use cor_mem::page::{Frame, PAGE_SIZE};
use cor_net::NetError;
use cor_sim::{IdSet, SimDuration, SmallVec};

use crate::context::{CoreBlob, ExcisedProcess};
use crate::excise::excise_process;
use crate::insert::insert_process;
use crate::report::{MigrationReport, PhaseTimings};
use crate::strategy::Strategy;

/// The per-node migration server.
pub struct MigrationManager {
    node: NodeId,
    control_port: PortId,
    backing_port: PortId,
}

impl MigrationManager {
    /// Starts a manager on `node`: allocates its control and backing ports
    /// and registers its (empty) page store with the world.
    pub fn new(world: &mut World, node: NodeId) -> Self {
        let control_port = world.ports.allocate(node);
        let backing_port = world.ports.allocate(node);
        world.register_backer(backing_port, node);
        MigrationManager {
            node,
            control_port,
            backing_port,
        }
    }

    /// The manager's home node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The port migration commands and context messages arrive on.
    pub fn control_port(&self) -> PortId {
        self.control_port
    }

    /// Migrates `pid` from this manager's node to `dest`'s node under
    /// `strategy`, returning the phase-by-phase report. On return the
    /// process exists at the destination, ready to resume, and
    /// `world.prefetch` is set to the strategy's prefetch amount.
    ///
    /// # Errors
    ///
    /// Any excision, transfer or insertion failure.
    pub fn migrate_to(
        &self,
        world: &mut World,
        dest: &MigrationManager,
        pid: ProcessId,
        strategy: Strategy,
    ) -> Result<MigrationReport, KernelError> {
        // The whole migration is one milestone span; each phase below is
        // a fine-grained child, so a Full-level trace shows the
        // excise/transfer/insert breakdown on the timeline. Wire spans
        // the fabric opens parent under the innermost active phase via
        // the cross-journal hook, and the span closes even on the error
        // paths so a failed migration never leaves a dangling interval.
        let mig_span = world.span_enter_milestone("migration", Some(self.node));
        let result = self.migrate_inner(world, dest, pid, strategy);
        world.span_exit(mig_span);
        result
    }

    fn migrate_inner(
        &self,
        world: &mut World,
        dest: &MigrationManager,
        pid: ProcessId,
        strategy: Strategy,
    ) -> Result<MigrationReport, KernelError> {
        let requested_at = world.clock.now();
        // The migration command itself is a control message.
        let req = Message::new(MsgKind::MigrateRequest, self.control_port).with_no_ious(true);
        world.send_from(self.node, req)?;
        let _cmd = world.ports.dequeue(self.control_port)?;

        // -- Phase 1: packaging (ExciseProcess). --
        let excise_span = world.span_enter("excise", Some(self.node));
        let (mut excised, ex_report) = excise_process(world, self.node, pid, dest.control_port)?;
        world.span_exit(excise_span);
        let mut precopy_plan: Vec<u64> = Vec::new();
        match strategy {
            Strategy::PureCopy => {
                excised.rimas.no_ious = true;
            }
            Strategy::PureIou { .. } => {
                excised.rimas.no_ious = false;
            }
            Strategy::ResidentSet { .. } => {
                self.repackage_resident_set(world, &mut excised)?;
            }
            Strategy::PreCopy {
                max_rounds,
                stop_pages,
            } => {
                excised.rimas.no_ious = true;
                precopy_plan = plan_precopy_rounds(world, &excised, max_rounds, stop_pages);
            }
        }
        world.prefetch = strategy.prefetch();

        // -- Phase 2: context transfer. --
        let core_span = world.span_enter("core-transfer", Some(self.node));
        let t0 = world.clock.now();
        world.send_from(self.node, excised.core)?;
        let core_transfer = world.clock.now().since(t0);
        world.span_exit(core_span);
        let rimas_span = world.span_enter("rimas-transfer", Some(self.node));
        let t0 = world.clock.now();
        let rimas_report = world.send_from(self.node, excised.rimas)?;
        let rimas_transfer = world.clock.now().since(t0);
        world.settle()?;
        world.span_exit(rimas_span);

        // Modeled dirty-page retransmission rounds (pre-copy only).
        let mut precopy_rounds = Vec::new();
        let mut precopy_round_times = Vec::new();
        if !precopy_plan.is_empty() {
            let precopy_span = world.span_enter("precopy-rounds", Some(self.node));
            precopy_rounds.push(rimas_report.wire_bytes);
            precopy_round_times.push(rimas_transfer);
            for &bytes in &precopy_plan {
                let round = Message::new(MsgKind::PreCopyRound, dest.control_port)
                    .with_no_ious(true)
                    .push(MsgItem::Inline(vec![0u8; bytes as usize]));
                let t0 = world.clock.now();
                let rep = world.send_from(self.node, round)?;
                precopy_rounds.push(rep.wire_bytes);
                precopy_round_times.push(world.clock.now().since(t0));
            }
            world.settle()?;
            world.span_exit(precopy_span);
        }

        // -- Phase 3: reconstruction at the destination. --
        let no_ctx = || {
            KernelError::Mem(cor_mem::MemError::BadState(
                cor_mem::PageNum(0),
                "context message missing at destination",
            ))
        };
        // Classify arrivals by kind rather than by position: an unreliable
        // wire may reorder the Core and RIMAS context messages or slot
        // pre-copy rounds between them. Taking the first of each kind and
        // ignoring the rest makes reconstruction idempotent.
        let mut core_rx = None;
        let mut rimas_rx = None;
        while let Some(m) = world.ports.dequeue(dest.control_port)? {
            match m.kind {
                MsgKind::Core if core_rx.is_none() => core_rx = Some(m),
                MsgKind::Rimas if rimas_rx.is_none() => rimas_rx = Some(m),
                MsgKind::PreCopyRound => {} // synthetic dirty-round payload
                _ => {}                     // duplicates or stray traffic
            }
        }
        let core_rx = core_rx.ok_or_else(no_ctx)?;
        let rimas_rx = rimas_rx.ok_or_else(no_ctx)?;
        let carried_pages = rimas_rx.carried_pages();
        let owed_pages = rimas_rx.owed_pages();
        let excised_rx = ExcisedProcess {
            pid: excised.pid,
            // The destination reads the name from the Core blob.
            name: String::new(),
            core: core_rx,
            rimas: rimas_rx,
            resident_slots: SmallVec::new(),
            program: excised.program,
            stats: excised.stats,
            frame_budget: excised.frame_budget,
        };
        let insert_span = world.span_enter("insert", Some(dest.node));
        let (new_pid, ins_report) = insert_process(world, dest.node, excised_rx)?;
        world.span_exit(insert_span);
        let resumed_at = world.clock.now();

        // Acknowledge completion to the source manager.
        let ack = Message::new(MsgKind::MigrateAck, self.control_port).with_no_ious(true);
        world.send_from(dest.node, ack)?;
        world.settle()?;
        let _ = world.ports.dequeue(self.control_port)?;

        debug_assert_eq!(new_pid, pid);
        Ok(MigrationReport {
            strategy,
            process: excised.name,
            timings: PhaseTimings {
                excise_amap: ex_report.amap_time,
                excise_rimas: ex_report.rimas_time,
                excise_total: ex_report.total,
                core_transfer,
                rimas_transfer,
                insert_total: ins_report.total,
            },
            requested_at,
            resumed_at,
            carried_pages,
            owed_pages,
            real_pages: ex_report.real_pages,
            resident_pages: ex_report.resident_pages,
            amap_entries: ex_report.amap_entries,
            precopy_rounds,
            precopy_round_times,
        })
    }

    /// Resident-set packaging: resident slots stay physical; every other
    /// real page moves into this manager's store behind a fresh imaginary
    /// segment, and IOU items take their place in the RIMAS message.
    fn repackage_resident_set(
        &self,
        world: &mut World,
        excised: &mut ExcisedProcess,
    ) -> Result<(), KernelError> {
        let resident: IdSet<u64> = excised
            .resident_slots
            .iter()
            .flat_map(|&(start, end)| start..end)
            .collect();
        let total_owed: u64 = excised
            .rimas
            .items
            .iter()
            .map(|item| match item {
                MsgItem::Pages { base_page, frames } => (0..frames.len() as u64)
                    .filter(|i| !resident.contains(&(base_page + i)))
                    .count() as u64,
                _ => 0,
            })
            .sum();
        if total_owed == 0 {
            excised.rimas.no_ious = true;
            return Ok(());
        }
        let seg = world.segs.create(self.backing_port, total_owed);
        world.segs.add_refs(seg, total_owed)?;

        let old_items = std::mem::take(&mut excised.rimas.items);
        let mut new_items = SmallVec::new();
        let mut owed_frames: Vec<Frame> = Vec::new();
        for item in old_items {
            let MsgItem::Pages { base_page, frames } = item else {
                new_items.push(item);
                continue;
            };
            let mut phys: Vec<Frame> = Vec::new();
            let mut phys_base = 0u64;
            let mut owed_run: Option<(u64, u64, u64)> = None; // (slot0, seg_off0, len)
            for (i, frame) in frames.into_iter().enumerate() {
                let slot = base_page + i as u64;
                if resident.contains(&slot) {
                    if let Some((s0, o0, len)) = owed_run.take() {
                        new_items.push(MsgItem::Iou {
                            base_page: s0,
                            seg,
                            seg_offset: o0,
                            pages: len,
                        });
                    }
                    if phys.is_empty() {
                        phys_base = slot;
                    }
                    phys.push(frame);
                } else {
                    if !phys.is_empty() {
                        new_items.push(MsgItem::Pages {
                            base_page: phys_base,
                            frames: std::mem::take(&mut phys),
                        });
                    }
                    let seg_off = owed_frames.len() as u64;
                    owed_run = match owed_run {
                        Some((s0, o0, len)) => Some((s0, o0, len + 1)),
                        None => Some((slot, seg_off, 1)),
                    };
                    owed_frames.push(frame);
                }
            }
            if let Some((s0, o0, len)) = owed_run {
                new_items.push(MsgItem::Iou {
                    base_page: s0,
                    seg,
                    seg_offset: o0,
                    pages: len,
                });
            }
            if !phys.is_empty() {
                new_items.push(MsgItem::Pages {
                    base_page: phys_base,
                    frames: phys,
                });
            }
        }
        // With replicated page homes enabled, write-through the owed
        // pages to the segment's replica set at page-out time (a
        // fire-and-forget background transfer; bytes are ledgered under
        // `Replicate` so the paper's categories stay untouched).
        world
            .fabric
            .replicate_backing(&mut world.clock, self.node, seg, &owed_frames)?;
        world
            .backer_mut(self.backing_port)
            .ok_or(NetError::MissingData { seg, offset: 0 })?
            .insert(seg, owed_frames);
        excised.rimas.items = new_items;
        excised.rimas.no_ious = true;
        Ok(())
    }
}

/// Sizes the dirty-page retransmission rounds of a modeled pre-copy.
///
/// The dirty rate is estimated from the process's remaining trace (bytes
/// written per unit of modeled computation); each round retransmits what
/// was dirtied while the previous round was on the wire, shrinking until
/// `stop_pages` or `max_rounds` is reached.
fn plan_precopy_rounds(
    world: &World,
    excised: &ExcisedProcess,
    max_rounds: u32,
    stop_pages: u64,
) -> Vec<u64> {
    let trace = &excised.program;
    let pos = excised
        .core
        .items
        .first()
        .and_then(|item| match item {
            MsgItem::Inline(bytes) => CoreBlob::decode(bytes).map(|b| b.trace_pos as usize),
            _ => None,
        })
        .unwrap_or(0);
    let remaining = &trace.ops()[pos.min(trace.len())..];
    let write_bytes: u64 = remaining
        .iter()
        .filter_map(|op| match op {
            cor_kernel::program::Op::Touch {
                len, write: true, ..
            } => Some(*len),
            _ => None,
        })
        .sum();
    let compute: SimDuration = remaining
        .iter()
        .filter_map(|op| match op {
            cor_kernel::program::Op::Compute(d) => Some(*d),
            _ => None,
        })
        .sum();
    let secs = compute.as_secs_f64().max(0.1);
    let rate = write_bytes as f64 / secs; // bytes dirtied per second
    let full_bytes = excised.rimas.wire_size();
    let mut rounds = Vec::new();
    let mut prev = full_bytes as f64;
    for _ in 0..max_rounds {
        let t_prev = world.fabric.params.xmit_time(prev as u64, 1).as_secs_f64();
        let dirty = (rate * t_prev).min(prev);
        let dirty_pages = (dirty / PAGE_SIZE as f64).ceil() as u64;
        if dirty_pages == 0 {
            break;
        }
        rounds.push(dirty_pages * PAGE_SIZE);
        if dirty_pages <= stop_pages {
            break;
        }
        prev = dirty;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_kernel::program::Trace;
    use cor_mem::{AddressSpace, PageNum, VAddr};
    use cor_sim::{LedgerCategory, SimDuration};

    fn workload(world: &mut World, node: NodeId, pages: u64, budget: Option<usize>) -> ProcessId {
        let mut space = match budget {
            Some(b) => AddressSpace::with_frame_budget(b),
            None => AddressSpace::new(),
        };
        space.validate(VAddr(0), 4 * pages * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        // Phase A (run at source): write all pages.
        for i in 0..pages {
            tb.write(PageNum(i).base(), 64);
        }
        // Phase B (run at destination): read half of them back.
        for i in 0..pages / 2 {
            tb.read(PageNum(i * 2).base(), 64);
        }
        let trace = tb.terminate();
        let pid = world
            .create_process(node, "mgr-test", space, trace)
            .unwrap();
        world.run_for(node, pid, pages as usize).unwrap();
        pid
    }

    fn managers(world: &mut World, a: NodeId, b: NodeId) -> (MigrationManager, MigrationManager) {
        (
            MigrationManager::new(world, a),
            MigrationManager::new(world, b),
        )
    }

    #[test]
    fn pure_copy_ships_everything_up_front() {
        let (mut world, a, b) = World::testbed();
        let (src, dst) = managers(&mut world, a, b);
        let pid = workload(&mut world, a, 20, None);
        let report = src
            .migrate_to(&mut world, &dst, pid, Strategy::PureCopy)
            .unwrap();
        assert_eq!(report.carried_pages, 20);
        assert_eq!(report.owed_pages, 0);
        assert!(world.fabric.ledger.total_for(LedgerCategory::Bulk) > 20 * PAGE_SIZE);
        let r = world.run(b, pid).unwrap();
        assert!(r.finished);
        assert_eq!(world.process(b, pid).unwrap().stats.imag_faults, 0);
    }

    #[test]
    fn pure_iou_ships_only_ious_then_faults() {
        let (mut world, a, b) = World::testbed();
        let (src, dst) = managers(&mut world, a, b);
        let pid = workload(&mut world, a, 20, None);
        let report = src
            .migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
            .unwrap();
        assert_eq!(report.carried_pages, 0);
        assert_eq!(report.owed_pages, 20);
        let bulk_at_transfer = world.fabric.ledger.total_for(LedgerCategory::Bulk);
        assert!(
            bulk_at_transfer < 20 * PAGE_SIZE / 2,
            "transfer phase is cheap: {bulk_at_transfer}"
        );
        let r = world.run(b, pid).unwrap();
        assert!(r.finished);
        let stats = &world.process(b, pid).unwrap().stats;
        assert_eq!(stats.imag_faults, 10, "half the pages were referenced");
        assert!(world.fabric.ledger.total_for(LedgerCategory::FaultSupport) > 10 * PAGE_SIZE);
    }

    #[test]
    fn iou_transfer_is_much_faster_than_copy() {
        let time_for = |strategy: Strategy| {
            let (mut world, a, b) = World::testbed();
            let (src, dst) = managers(&mut world, a, b);
            let pid = workload(&mut world, a, 200, None);
            let report = src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
            report.timings.rimas_transfer.as_secs_f64()
        };
        let copy = time_for(Strategy::PureCopy);
        let iou = time_for(Strategy::PureIou { prefetch: 0 });
        assert!(copy > 10.0 * iou, "copy {copy} vs iou {iou}");
    }

    #[test]
    fn resident_set_splits_physical_and_owed() {
        let (mut world, a, b) = World::testbed();
        let (src, dst) = managers(&mut world, a, b);
        // 20 pages written, budget 8: 8 resident, 12 on disk at migration.
        let pid = workload(&mut world, a, 20, Some(8));
        let report = src
            .migrate_to(&mut world, &dst, pid, Strategy::ResidentSet { prefetch: 0 })
            .unwrap();
        assert_eq!(report.carried_pages, 8);
        assert_eq!(report.owed_pages, 12);
        assert_eq!(
            world.backer_pages_held(),
            12,
            "manager stores the owed pages"
        );
        let r = world.run(b, pid).unwrap();
        assert!(r.finished);
        // Faults on the owed pages were served by the manager's store.
        let stats = &world.process(b, pid).unwrap().stats;
        assert!(stats.imag_faults > 0);
    }

    #[test]
    fn migration_preserves_final_memory_under_every_strategy() {
        // The judged set is the pages touched in the *remote* phase: an
        // unreferenced owed page is correctly discarded when the process
        // dies, so its data is (by design) gone afterwards.
        for strategy in [
            Strategy::PureCopy,
            Strategy::PureIou { prefetch: 0 },
            Strategy::PureIou { prefetch: 3 },
            Strategy::ResidentSet { prefetch: 1 },
            Strategy::PreCopy {
                max_rounds: 4,
                stop_pages: 4,
            },
        ] {
            let (mut world, a, b) = World::testbed();
            let (src, dst) = managers(&mut world, a, b);
            let pid = workload(&mut world, a, 24, Some(10));
            world.reset_touch_tracking(a, pid).unwrap();
            let trace = &world.process(a, pid).unwrap().trace;
            let expected = trace.expected_checksum_from(24, |_, _| ());
            src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
            world.run(b, pid).unwrap();
            let got = world.touched_checksum(b, pid).unwrap();
            assert_eq!(got, expected, "strategy {strategy} diverged");
        }
    }

    #[test]
    fn all_segments_die_after_remote_execution() {
        for strategy in [
            Strategy::PureIou { prefetch: 1 },
            Strategy::ResidentSet { prefetch: 0 },
        ] {
            let (mut world, a, b) = World::testbed();
            let (src, dst) = managers(&mut world, a, b);
            let pid = workload(&mut world, a, 16, Some(6));
            src.migrate_to(&mut world, &dst, pid, strategy).unwrap();
            world.run(b, pid).unwrap();
            assert_eq!(world.segs.live(), 0, "segments leaked under {strategy}");
            assert_eq!(world.fabric.cached_pages_live(a), 0);
            assert_eq!(world.backer_pages_held(), 0);
        }
    }

    #[test]
    fn precopy_records_shrinking_rounds() {
        let (mut world, a, b) = World::testbed();
        let (src, dst) = managers(&mut world, a, b);
        // A process with a moderate remaining write rate: 100 pages built
        // at the source, then remote-phase writes interleaved with compute
        // so the modeled dirty set shrinks round over round.
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 512 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        for i in 0..100u64 {
            tb.write(PageNum(i).base(), 64);
        }
        for i in 0..20u64 {
            tb.compute(SimDuration::from_millis(500));
            tb.write(PageNum(i).base(), PAGE_SIZE);
        }
        let pid = world
            .create_process(a, "precopy", space, tb.terminate())
            .unwrap();
        world.run_for(a, pid, 100).unwrap();
        let report = src
            .migrate_to(
                &mut world,
                &dst,
                pid,
                Strategy::PreCopy {
                    max_rounds: 5,
                    stop_pages: 2,
                },
            )
            .unwrap();
        assert!(
            report.precopy_rounds.len() >= 2,
            "rounds: {:?}",
            report.precopy_rounds
        );
        assert!(report.precopy_rounds[0] > report.precopy_rounds[1]);
        let r = world.run(b, pid).unwrap();
        assert!(r.finished);
    }

    #[test]
    fn prefetch_reduces_fault_count() {
        let faults_with = |prefetch: u64| {
            let (mut world, a, b) = World::testbed();
            let (src, dst) = managers(&mut world, a, b);
            // Sequential reader: touches pages 0..10 in order.
            let mut space = AddressSpace::new();
            space.validate(VAddr(0), 64 * PAGE_SIZE).unwrap();
            let mut tb = Trace::builder();
            for i in 0..10u64 {
                tb.write(PageNum(i).base(), 32);
            }
            for i in 0..10u64 {
                tb.read(PageNum(i).base(), 32);
            }
            let pid = world
                .create_process(a, "seq", space, tb.terminate())
                .unwrap();
            world.run_for(a, pid, 10).unwrap();
            src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch })
                .unwrap();
            world.run(b, pid).unwrap();
            world.process(b, pid).unwrap().stats.imag_faults
        };
        assert_eq!(faults_with(0), 10);
        assert_eq!(faults_with(4), 2);
    }
}
