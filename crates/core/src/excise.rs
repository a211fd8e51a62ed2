//! The `ExciseProcess` kernel trap (paper §3.1).
//!
//! Removes the complete context of a process from its host and delivers it
//! as two self-contained IPC messages. The address space is *collapsed*:
//! walking the AMap in address order, every Real and Imaginary page is
//! assigned a consecutive slot in a contiguous area. Resident pages are
//! memory-mapped into the message (copy-on-write frame shares — "instead
//! of physical copies"); paged-out pages are transferred by reference to
//! their disk blocks; already-imaginary ranges become IOU items carrying
//! the references the space held.

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortId;
use cor_ipc::NodeId;
use cor_kernel::process::ProcessId;
use cor_kernel::{KernelError, World};
use cor_mem::amap::Access;
use cor_mem::page::{Frame, PAGE_SIZE};
use cor_mem::{MemError, PageState};
use cor_sim::{SimDuration, SmallVec};

use crate::context::{CoreBlob, ExcisedProcess};

/// Measurements of one excision (Table 4-4 quantities).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExciseReport {
    /// AMap construction time.
    pub amap_time: SimDuration,
    /// RIMAS collapse time.
    pub rimas_time: SimDuration,
    /// Total elapsed excision time.
    pub total: SimDuration,
    /// RealMem pages collapsed.
    pub real_pages: u64,
    /// Of those, pages resident at excision.
    pub resident_pages: u64,
    /// Pages that were already imaginary.
    pub imag_pages: u64,
    /// AMap entries produced.
    pub amap_entries: u64,
}

/// Excises `pid` from `node`, addressing both context messages to `dest`.
/// The process ceases to exist on the node; its identity, port rights and
/// address-space contents travel in the returned context.
///
/// # Errors
///
/// Unknown node/process, or internal state errors while collapsing.
pub fn excise_process(
    world: &mut World,
    node: NodeId,
    pid: ProcessId,
    dest: PortId,
) -> Result<(ExcisedProcess, ExciseReport), KernelError> {
    let start = world.clock.now();

    // -- AMap construction (the dominant cost for sparse spaces). --
    let (amap, map_complexity) = {
        let process = world.process(node, pid)?;
        if process.finished() {
            // A terminated process released its owed-page references; its
            // context can no longer be shipped coherently.
            return Err(KernelError::ProcessNotActive(pid));
        }
        let space = &process.space;
        (space.amap(), space.map_complexity())
    };
    let amap_time = world.costs.amap_cost(map_complexity);
    world.clock.advance(amap_time);

    // -- Collapse the Real and Imaginary portions into RIMAS items. Each
    // vector is sized up front: a batch holds at most the Real pages not
    // yet collapsed. --
    let real_total = amap.bytes_of(Access::Real) / PAGE_SIZE;
    let mut items = SmallVec::new();
    let mut batch: Vec<Frame> = Vec::new();
    let mut batch_base = 0u64;
    let mut cursor = 0u64; // next collapsed slot
    let mut resident_slots: SmallVec<(u64, u64)> = SmallVec::new();
    let mut real_pages = 0u64;
    let mut resident_pages = 0u64;
    let mut imag_pages = 0u64;
    {
        let n = world.node_mut(node)?;
        let (processes, disk) = (&n.processes, &mut n.disk);
        let process = processes
            .get(&pid)
            .ok_or(KernelError::UnknownProcess(pid))?;
        let bad = |page, what| KernelError::Mem(MemError::BadState(page, what));
        for entry in amap.entries() {
            match entry.access {
                Access::RealZero => {} // reconstructed from the AMap alone
                Access::Real => {
                    if batch.is_empty() {
                        batch_base = cursor;
                        batch.reserve_exact((real_total - real_pages) as usize);
                    }
                    // The AMap was walked off this page table, so the
                    // entry's pages are its next entries: walk them
                    // alongside instead of searching for each.
                    let mut table = process.space.materialized_pages_from(entry.range.start);
                    for page in entry.range.iter() {
                        match table.next().filter(|&(p, _)| p == page) {
                            Some((_, PageState::Resident(frame, _))) => {
                                // Memory-mapped into the message: a COW
                                // share, not a copy.
                                batch.push(frame.clone());
                                match resident_slots.last_mut() {
                                    Some((_, end)) if *end == cursor => *end += 1,
                                    _ => resident_slots.push((cursor, cursor + 1)),
                                }
                                resident_pages += 1;
                            }
                            // Transferred by reference to the disk block:
                            // the frame moves into the message and the
                            // block is reclaimed (the process is leaving
                            // this node) — one disk read, no byte copy.
                            Some((_, PageState::OnDisk(addr))) => batch.push(
                                disk.take_frame(*addr)
                                    .ok_or(KernelError::Mem(MemError::NotResident(page)))?,
                            ),
                            Some(_) => {
                                return Err(bad(page, "AMap says Real but page is imaginary"))
                            }
                            None => return Err(bad(page, "AMap says Real but page is missing")),
                        }
                        real_pages += 1;
                        cursor += 1;
                    }
                }
                Access::Imag => {
                    if !batch.is_empty() {
                        items.push(MsgItem::Pages {
                            base_page: batch_base,
                            frames: std::mem::take(&mut batch),
                        });
                    }
                    let pages = entry.range.len();
                    items.push(MsgItem::Iou {
                        base_page: cursor,
                        seg: entry.seg.ok_or_else(|| {
                            bad(entry.range.start, "Imag entry without a segment")
                        })?,
                        seg_offset: entry.seg_offset,
                        pages,
                    });
                    imag_pages += pages;
                    cursor += pages;
                }
                Access::Bad => return Err(bad(entry.range.start, "BadMem entry in an AMap")),
            }
        }
    }
    if !batch.is_empty() {
        items.push(MsgItem::Pages {
            base_page: batch_base,
            frames: batch,
        });
    }
    let rimas_time = world.costs.rimas_cost(resident_pages, real_pages);
    world.clock.advance(rimas_time);
    world.clock.advance(world.costs.excise_fixed);

    // -- Remove the process and assemble the self-contained messages. --
    let process = world.remove_process(node, pid)?;
    let frame_budget = process.space.frame_budget();
    let blob = CoreBlob::from_parts(
        process.pcb,
        process.microstate,
        process.kernel_stack,
        frame_budget,
    );
    let amap_entries = amap.len() as u64;
    let core = Message::new(MsgKind::Core, dest)
        .with_no_ious(true)
        .push(MsgItem::Inline(blob.encode()))
        .push(MsgItem::Rights(process.rights))
        .push(MsgItem::AMap(amap));
    let mut rimas = Message::new(MsgKind::Rimas, dest);
    rimas.items = items;

    world.note(|| cor_trace::TraceEvent::Excised {
        pid: pid.0,
        node,
        real_pages,
        resident_pages,
    });
    let report = ExciseReport {
        amap_time,
        rimas_time,
        total: world.clock.now().since(start),
        real_pages,
        resident_pages,
        imag_pages,
        amap_entries,
    };
    let excised = ExcisedProcess {
        pid,
        name: blob.name,
        core,
        rimas,
        resident_slots,
        program: process.trace,
        stats: process.stats,
        frame_budget,
    };
    Ok((excised, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_kernel::program::Trace;
    use cor_mem::{AddressSpace, PageNum, PageRange, VAddr, PAGE_SIZE};

    /// The resident slots an excision names, run by run.
    fn resident_slots(excised: &ExcisedProcess) -> Vec<u64> {
        excised
            .resident_slots
            .iter()
            .flat_map(|&(s, e)| s..e)
            .collect()
    }

    fn build_process(budget: Option<usize>) -> (World, NodeId, ProcessId) {
        let (mut world, a, _) = World::testbed();
        let mut space = match budget {
            Some(b) => AddressSpace::with_frame_budget(b),
            None => AddressSpace::new(),
        };
        space.validate(VAddr(0), 16 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        for i in 0..8u64 {
            tb.write(PageNum(i).base(), 16);
        }
        let trace = tb.terminate();
        let pid = world.create_process(a, "excisee", space, trace).unwrap();
        // Materialize the first 8 pages.
        world.run_for(a, pid, 8).unwrap();
        (world, a, pid)
    }

    #[test]
    fn excision_removes_process_and_packages_context() {
        let (mut world, a, pid) = build_process(None);
        let dest = world.ports.allocate(a);
        let (excised, report) = excise_process(&mut world, a, pid, dest).unwrap();
        assert!(world.process(a, pid).is_err(), "process ceased to exist");
        assert_eq!(report.real_pages, 8);
        assert_eq!(report.resident_pages, 8);
        assert_eq!(excised.rimas.carried_pages(), 8);
        assert_eq!(excised.rimas.owed_pages(), 0);
        assert_eq!(resident_slots(&excised), (0..8).collect::<Vec<_>>());
        assert_eq!(excised.resident_slots[..], [(0, 8)], "one run");
        // The Core message is self-contained.
        let blob_item = &excised.core.items[0];
        let MsgItem::Inline(bytes) = blob_item else {
            panic!("expected blob")
        };
        let blob = CoreBlob::decode(bytes).unwrap();
        assert_eq!(blob.name, "excisee");
        assert_eq!(blob.trace_pos, 8);
        assert!(excised.core.amap().is_some());
    }

    #[test]
    fn collapse_shares_frames_instead_of_copying() {
        let (mut world, a, pid) = build_process(None);
        // Hold an alias of a resident frame so sharing is observable after
        // the source process is dismantled.
        let alias = {
            let process = world.process(a, pid).unwrap();
            match process.space.page_state(PageNum(0)) {
                Some(cor_mem::PageState::Resident(f, _)) => f.clone(),
                other => panic!("expected resident page, got {other:?}"),
            }
        };
        assert_eq!(world.process(a, pid).unwrap().space.cow_copies(), 0);
        let dest = world.ports.allocate(a);
        let (excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
        let MsgItem::Pages { frames, .. } = &excised.rimas.items[0] else {
            panic!("expected Pages");
        };
        // Slot 0's frame in the message IS the original frame (COW share,
        // not a byte copy): both views are marked shared.
        assert!(alias.is_shared());
        assert!(frames[0].is_shared());
    }

    #[test]
    fn paged_out_pages_are_collapsed_from_disk() {
        let (mut world, a, pid) = build_process(Some(4));
        // 8 pages touched with a 4-frame budget: 4 on disk, 4 resident.
        let st = world.process(a, pid).unwrap().space.stats();
        assert_eq!(st.resident_bytes, 4 * PAGE_SIZE);
        let dest = world.ports.allocate(a);
        let (excised, report) = excise_process(&mut world, a, pid, dest).unwrap();
        assert_eq!(report.real_pages, 8);
        assert_eq!(report.resident_pages, 4);
        // Pages 0–3 were paged out first, so 4–7 stay resident.
        assert_eq!(resident_slots(&excised), (4..8).collect::<Vec<_>>());
        assert_eq!(excised.rimas.carried_pages(), 8, "disk pages included");
    }

    #[test]
    fn imaginary_ranges_become_iou_items() {
        let (mut world, a, _) = World::testbed();
        let backing = world.ports.allocate(a);
        let seg = world.segs.create(backing, 4);
        world.segs.add_refs(seg, 4).unwrap();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 8 * PAGE_SIZE).unwrap();
        space.map_imaginary(PageRange::new(PageNum(2), PageNum(6)), seg, 0);
        let trace = Trace::new(vec![cor_kernel::program::Op::Terminate]);
        let pid = world.create_process(a, "imag", space, trace).unwrap();
        let dest = world.ports.allocate(a);
        let (excised, report) = excise_process(&mut world, a, pid, dest).unwrap();
        assert_eq!(report.imag_pages, 4);
        assert_eq!(excised.rimas.owed_pages(), 4);
        // Refs were not disturbed: still 4 outstanding, held by the item.
        assert_eq!(world.segs.get(seg).unwrap().outstanding, 4);
    }

    #[test]
    fn excision_time_has_the_right_structure() {
        let (mut world, a, pid) = build_process(None);
        let complexity = world.process(a, pid).unwrap().space.map_complexity();
        let dest = world.ports.allocate(a);
        let (_, report) = excise_process(&mut world, a, pid, dest).unwrap();
        assert_eq!(report.amap_time, world.costs.amap_cost(complexity));
        assert_eq!(report.rimas_time, world.costs.rimas_cost(8, 8));
        assert_eq!(
            report.total,
            report.amap_time + report.rimas_time + world.costs.excise_fixed
        );
    }
}
