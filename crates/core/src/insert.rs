//! The `InsertProcess` primitive (paper §3.1).
//!
//! "Using the AMap for guidance and the RIMAS data for ammunition, the
//! process address space mappings are restored." The two context messages
//! are self-contained: the Core message's inline blob rebuilds the PCB,
//! microstate and kernel stack; its rights are relocated to the new host;
//! and the address space is reconstructed by replaying the AMap walk that
//! `ExciseProcess` performed, consuming collapsed RIMAS slots in order —
//! physically carried slots install real pages, owed slots map imaginary
//! ranges (typically the stand-ins the receiving NetMsgServer created).

use cor_ipc::message::MsgItem;
use cor_ipc::port::Right;
use cor_ipc::NodeId;
use cor_kernel::process::{Pcb, Process, ProcessId};
use cor_kernel::{KernelError, World};
use cor_mem::amap::Access;
use cor_mem::{AddressSpace, PageNum, PageState};
use cor_sim::SimDuration;

use crate::context::{CoreBlob, ExcisedProcess};

/// Measurements of one insertion.
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertReport {
    /// Total elapsed insertion time.
    pub total: SimDuration,
    /// Pages installed from physically carried data.
    pub carried_pages: u64,
    /// Pages mapped as owed (imaginary).
    pub owed_pages: u64,
    /// Address-space runs re-mapped.
    pub runs: u64,
}

/// Recreates a process on `node` from its two context messages.
///
/// The RIMAS message's page and IOU items arrive in ascending slot order,
/// as excision and the resident-set repackaging emit them, so insertion
/// walks them in place with one cursor. Other items are skipped.
///
/// # Errors
///
/// Malformed context messages (an item out of slot order among them),
/// unknown node, or port failures while relocating rights.
pub fn insert_process(
    world: &mut World,
    node: NodeId,
    excised: ExcisedProcess,
) -> Result<(ProcessId, InsertReport), KernelError> {
    let start = world.clock.now();
    let malformed =
        || KernelError::Mem(cor_mem::MemError::BadState(PageNum(0), "malformed context"));

    // -- Decode the Core message. --
    let MsgItem::Inline(blob_bytes) = excised.core.items.first().ok_or_else(malformed)? else {
        return Err(malformed());
    };
    let blob = CoreBlob::decode(blob_bytes).ok_or_else(malformed)?;
    let rights = excised.core.rights();
    let amap = excised.core.amap().ok_or_else(malformed)?;

    // -- Rebuild the address space by replaying the collapse walk, the
    // k-th mapped page filling collapsed slot k. The frame budget applies
    // as it would during page-by-page installation: physically carried
    // pages beyond the destination's physical memory overflow to its disk,
    // just as a bulk-copied context would on the real testbed. --
    let items = &excised.rimas.items;
    let (mut at, mut carried_pages, mut owed_pages) = (0, 0u64, 0u64);
    // What fills a collapsed slot: a carried frame or an owed segment page,
    // `None` if no item covers it. The walk asks in ascending order, so the
    // search resumes at the item that answered last; an item that starts
    // past the slot (one out of order) answers `None`.
    let fill = |slot: u64| loop {
        match items.get(at)? {
            MsgItem::Pages { base_page, frames } if slot >= *base_page => {
                let off = slot - base_page;
                if let Some(frame) = frames.get(off as usize) {
                    carried_pages += 1;
                    return Some(PageState::resident(frame.clone()));
                }
            }
            MsgItem::Iou {
                base_page,
                seg,
                seg_offset,
                pages,
            } if slot >= *base_page => {
                let off = slot - base_page;
                if off < *pages {
                    owed_pages += 1;
                    let offset = seg_offset + off;
                    return Some(PageState::Imaginary { seg: *seg, offset });
                }
            }
            MsgItem::Pages { .. } | MsgItem::Iou { .. } => return None,
            _ => {}
        }
        at += 1;
    };
    let disk = &mut world.node_mut(node)?.disk;
    let space = AddressSpace::from_amap(amap, fill, blob.budget(), disk).ok_or_else(malformed)?;
    let runs = amap
        .entries()
        .iter()
        .filter(|e| e.access != Access::RealZero)
        .count() as u64;

    // -- Relocate the receive and ownership rights to the new host. --
    for right in &rights {
        if matches!(right.right, Right::Receive | Right::Ownership) {
            world.ports.relocate(right.port, node)?;
        }
    }

    // -- Reassemble the process from its context, taking the decoded
    // pieces over. --
    let pcb = Pcb {
        name: blob.name,
        status: blob.status,
        priority: blob.priority,
        trace_pos: blob.trace_pos as usize,
    };
    let mut process = Process::resume(excised.pid, pcb, space, excised.program, excised.stats);
    process.microstate = blob.microstate;
    process.kernel_stack = blob.kernel_stack;
    process.rights = rights;
    world.install_process(node, process)?;

    world
        .clock
        .advance(world.costs.insert_cost(runs, carried_pages));
    world.note(|| cor_trace::TraceEvent::Inserted {
        pid: excised.pid.0,
        node,
        carried_pages,
        owed_pages,
    });
    let report = InsertReport {
        total: world.clock.now().since(start),
        carried_pages,
        owed_pages,
        runs,
    };
    Ok((excised.pid, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::excise::excise_process;
    use cor_kernel::program::Trace;
    use cor_mem::{PageRange, VAddr, PAGE_SIZE};

    /// Excise on node a, insert on node b, entirely locally (no wire):
    /// the context messages are consumed as built.
    #[test]
    fn excise_insert_roundtrip_preserves_everything() {
        let (mut world, a, b) = World::testbed();
        let mut space = AddressSpace::with_frame_budget(6);
        space.validate(VAddr(0), 32 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        for i in 0..10u64 {
            tb.write(PageNum(i).base(), 32);
        }
        for i in 0..10u64 {
            tb.read(PageNum(i).base(), 32);
        }
        let trace = tb.terminate();
        let pid = world.create_process(a, "roundtrip", space, trace).unwrap();
        // Give it some port rights, including a receive right.
        let owned = world.ports.allocate(a);
        world.process_mut(a, pid).unwrap().rights = vec![
            cor_ipc::PortRight {
                port: owned,
                right: Right::Receive,
            },
            cor_ipc::PortRight {
                port: owned,
                right: Right::Ownership,
            },
        ];
        // Run half the trace, then checksum.
        world.run_for(a, pid, 10).unwrap();
        let micro_before = world.process(a, pid).unwrap().microstate.clone();

        let dest = world.ports.allocate(b);
        let (excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
        let (pid2, report) = insert_process(&mut world, b, excised).unwrap();
        assert_eq!(pid2, pid, "identity preserved");
        assert_eq!(report.carried_pages, 10);
        assert_eq!(report.owed_pages, 0);

        // Port right relocated with the process.
        assert_eq!(world.ports.home(owned).unwrap(), b);
        // Context pieces intact.
        let process = world.process(b, pid).unwrap();
        assert_eq!(process.pcb.name, "roundtrip");
        assert_eq!(process.pcb.trace_pos, 10);
        assert_eq!(process.microstate, micro_before);
        assert_eq!(process.space.frame_budget(), Some(6));
        // The space classifies like the original.
        let st = process.space.stats();
        assert_eq!(st.real_bytes, 10 * PAGE_SIZE);
        assert_eq!(st.total_bytes(), 32 * PAGE_SIZE);
        // Resuming execution reads back exactly what was written.
        let r = world.run(b, pid).unwrap();
        assert!(r.finished);
    }

    #[test]
    fn final_memory_matches_unmigrated_run() {
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 16 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        for i in 0..12u64 {
            tb.write(VAddr(i * 700), 100);
        }
        let trace = tb.terminate();
        let expected = trace.expected_checksum_from(0, |_, _| ());
        let (mut world, a, b) = World::testbed();
        let pid = world.create_process(a, "check", space, trace).unwrap();
        world.run_for(a, pid, 5).unwrap();
        let dest = world.ports.allocate(b);
        let (excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
        let (pid, _) = insert_process(&mut world, b, excised).unwrap();
        world.run(b, pid).unwrap();
        assert_eq!(world.touched_checksum(b, pid).unwrap(), expected);
    }

    #[test]
    fn malformed_context_is_rejected() {
        let (mut world, a, b) = World::testbed();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), PAGE_SIZE).unwrap();
        let pid = world
            .create_process(
                a,
                "x",
                space,
                Trace::new(vec![cor_kernel::program::Op::Terminate]),
            )
            .unwrap();
        let dest = world.ports.allocate(b);
        let (mut excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
        excised.core.items.clear();
        assert!(insert_process(&mut world, b, excised).is_err());
    }

    #[test]
    fn rimas_items_out_of_slot_order_are_a_malformed_context() {
        let (mut world, a, b) = World::testbed();
        let backing = world.ports.allocate(a);
        let seg = world.segs.create(backing, 2);
        world.segs.add_refs(seg, 2).unwrap();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        space.map_imaginary(PageRange::new(PageNum(2), PageNum(4)), seg, 0);
        let mut tb = Trace::builder();
        tb.write(PageNum(0).base(), 8).write(PageNum(1).base(), 8);
        let pid = world
            .create_process(a, "swapped", space, tb.terminate())
            .unwrap();
        world.run_for(a, pid, 2).unwrap();
        let dest = world.ports.allocate(b);
        let (mut excised, _) = excise_process(&mut world, a, pid, dest).unwrap();
        // Slots 0–1 carried, 2–3 owed: two items, which a swap puts out of
        // order.
        let items = &mut excised.rimas.items;
        assert!(matches!(
            &items[..],
            [
                MsgItem::Pages { base_page: 0, .. },
                MsgItem::Iou { base_page: 2, .. }
            ]
        ));
        items.swap(0, 1);
        match insert_process(&mut world, b, excised) {
            Err(KernelError::Mem(cor_mem::MemError::BadState(_, what))) => {
                assert_eq!(what, "malformed context");
            }
            other => panic!("expected a malformed context, got {other:?}"),
        }
    }
}
