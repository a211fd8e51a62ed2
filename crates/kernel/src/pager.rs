//! The Pager/Scheduler: the fault loop of §3.2.
//!
//! This module owns the per-node memory-touch path — zero-fill and
//! disk faults serviced locally, imaginary faults by a full IPC round
//! trip to the segment's backing port (with optional prefetch, replica
//! failover, and the batched/coalesced hot path).

use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_mem::{Fault, PageNum, PageRange, PageState, VAddr, PAGE_SIZE};
use cor_sim::SimTime;
use cor_trace::TraceEvent;

use crate::error::KernelError;
use crate::process::ProcessId;
use crate::program::write_pattern;
use crate::world::World;

impl World {
    // ----- the Pager/Scheduler ---------------------------------------------

    /// Makes `[addr, addr+len)` of `pid` accessible (servicing any faults)
    /// and performs the touch. Write-touches store the deterministic
    /// [`write_pattern`] for `op_index`.
    ///
    /// # Errors
    ///
    /// Addressing violations, broken backing chains, or internal state
    /// errors.
    pub fn touch(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        addr: VAddr,
        len: u64,
        write: bool,
        op_index: usize,
    ) -> Result<(), KernelError> {
        let range = PageRange::covering(addr, len);
        let end = addr.0 + len;
        for page in range.iter() {
            self.ensure_ready(node, pid, page, write)?;
            self.note_touch(node, pid, page)?;
            // Move this page's slice of the data immediately — a touch
            // spanning more pages than the frame budget would otherwise
            // evict earlier pages before the access completes (thrashing
            // is re-faulting, not failing).
            let chunk_start = addr.0.max(page.base().0);
            let chunk_end = end.min(page.offset(1).base().0);
            // A chunk never crosses a page boundary: one page of stack.
            let mut buf = [0u8; PAGE_SIZE as usize];
            let chunk = &mut buf[..(chunk_end - chunk_start) as usize];
            let process = self.process_mut(node, pid)?;
            if write {
                for (byte, a) in chunk.iter_mut().zip(chunk_start..) {
                    *byte = write_pattern(VAddr(a), op_index);
                }
                process.space.write(VAddr(chunk_start), chunk)?;
            } else {
                process.space.read(VAddr(chunk_start), chunk)?;
            }
        }
        Ok(())
    }

    pub(crate) fn ensure_ready(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        write: bool,
    ) -> Result<(), KernelError> {
        for _ in 0..8 {
            let fault = {
                let process = self.process_mut(node, pid)?;
                let res = if write {
                    process.space.check_write(page)
                } else {
                    process.space.check_read(page)
                };
                match res {
                    Ok(()) => return Ok(()),
                    Err(f) => f,
                }
            };
            self.handle_fault(node, pid, fault)?;
        }
        Err(KernelError::Mem(cor_mem::MemError::BadState(
            page,
            "page still faulting after repeated service",
        )))
    }

    pub(crate) fn handle_fault(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        fault: Fault,
    ) -> Result<(), KernelError> {
        match fault {
            Fault::FillZero { page } => {
                let span = self.span_enter(fault.name(), Some(node));
                self.clock.advance(self.costs.fill_zero_fault());
                let (process, disk) = self.node_mut(node)?.process_and_disk(pid)?;
                process.space.fill_zero(page, disk)?;
                process.stats.zero_faults += 1;
                self.note(|| TraceEvent::FillZero {
                    pid: pid.0,
                    node,
                    page: page.0,
                });
                self.span_exit(span);
                Ok(())
            }
            Fault::DiskIn { page, .. } => {
                let span = self.span_enter(fault.name(), Some(node));
                self.clock.advance(self.costs.disk_fault());
                let (process, disk) = self.node_mut(node)?.process_and_disk(pid)?;
                process.space.page_in(page, disk)?;
                process.stats.disk_faults += 1;
                self.note(|| TraceEvent::DiskIn {
                    pid: pid.0,
                    node,
                    page: page.0,
                });
                self.span_exit(span);
                Ok(())
            }
            Fault::Imaginary { page, seg, offset } => self
                .handle_imaginary_fault(node, pid, page, seg, offset)
                .map(|_| ()),
            Fault::Addressing { addr } => Err(KernelError::AddressingViolation { pid, addr }),
        }
    }

    /// The copy-on-reference fault path (paper §2.2): an IPC round trip to
    /// the segment's backing port, through the NetMsgServers when the
    /// backer is remote, with `self.prefetch` extra contiguous pages
    /// requested. Returns the number of pages installed.
    ///
    /// When the backing site has crashed the fetch falls through to the
    /// recovery ladder ([`World::crash_recover_or_orphan`]): the crashed
    /// node's disk backer first, clean orphan termination second.
    pub(crate) fn handle_imaginary_fault(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        seg: SegmentId,
        offset: u64,
    ) -> Result<u64, KernelError> {
        // One span per copy-on-reference fault, closed on every exit —
        // recovery-ladder errors included — so a trace is never left with
        // a dangling fault interval. The service-time histogram times the
        // same interval, journal or not.
        let start = self.clock.now();
        let span = self.span_enter("imag-fault", Some(node));
        // Fabric spans opened outside the round trip (replica reads,
        // failover fetches) parent under the fault via the cross-journal
        // hook, which span_enter/span_exit keep synced to the innermost
        // open world span.
        let result = self.imaginary_fault_inner(node, pid, page, seg, offset);
        self.span_exit(span);
        self.fault_service
            .record_duration(self.clock.now().since(start));
        result
    }

    pub(crate) fn imaginary_fault_inner(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        seg: SegmentId,
        offset: u64,
    ) -> Result<u64, KernelError> {
        let fault_start = self.clock.now();
        self.clock.advance(self.costs.fault_dispatch);
        let want = self.prefetch + 1;
        let count = self.contiguous_owed(node, pid, page, seg, offset, want)?;
        // With replicated page homes any live home may serve the fetch: a
        // replica may answer instead of the primary backing site — always
        // when the primary is down, and in Quorum mode also when a replica
        // is simply closer on the topology.
        if let Some(installed) =
            self.try_replica_read(node, pid, page, seg, offset, count, fault_start)?
        {
            return Ok(installed);
        }
        let pager_port = self.node(node)?.pager_port;
        let backing = self.segs.backing_port(seg)?;
        let seq = self.next_seq();
        let req = protocol::imag_read_request(backing, pager_port, seg, offset, count)
            .with_seq(seq)
            .with_no_ious(true);
        // The round-trip span covers the request send, every relay hop
        // the NetMsgServers serve during the settle, and the reply's
        // journey back. Wire spans opened by the fabric parent under it
        // via the cross-journal hook.
        let rt_span = self.span_enter("cor-roundtrip", Some(node));
        let round_trip = self
            .send_from(node, req)
            .and_then(|_| self.settle())
            .map(|_| ());
        self.span_exit(rt_span);
        if let Err(err) = round_trip {
            return self.crash_recover_or_orphan(node, pid, page, seg, offset, count, err);
        }
        // Drain the pager port until *our* reply appears. Anything else —
        // a reply to an earlier request that was duplicated or delayed on
        // an unreliable wire — is stale: drop it and keep looking
        // (idempotent handling).
        let mut frames = loop {
            let Some(reply) = self.ports.dequeue(pager_port)? else {
                // The queue ran dry without our reply: if the backing site
                // died mid-flight this is recoverable; otherwise it is the
                // old broken-chain error.
                let err = KernelError::NoReply {
                    fault: Fault::Imaginary { page, seg, offset },
                };
                return self.crash_recover_or_orphan(node, pid, page, seg, offset, count, err);
            };
            // Owned parse: the reply's frames move out of the message
            // instead of being cloned.
            match protocol::parse_owned(reply) {
                Ok(ProtocolMsg::ImagReadReply {
                    seg: rseg,
                    offset: roffset,
                    frames,
                    seq: rseq,
                }) if rseg == seg && roffset == offset && (rseq == seq || rseq == 0) => {
                    break frames;
                }
                _ => {
                    self.fabric.reliability.stale_replies.incr();
                    self.note(|| TraceEvent::StaleReply {
                        pid: pid.0,
                        node,
                        seg: seg.0,
                        offset,
                        seq,
                    });
                }
            }
        };
        let installed = self.map_in(node, pid, page, frames.drain(..))?;
        // The drained reply vector goes back to the scratch pool for the
        // next reply assembly on this thread.
        cor_mem::page::frame_pool::give(frames);
        self.release_installed(node, seg, installed)?;
        let service_time = self.clock.now().since(fault_start);
        self.note(|| TraceEvent::Imaginary {
            pid: pid.0,
            node,
            page: page.0,
            seg: seg.0,
            prefetched: installed.saturating_sub(1),
            service_us: service_time,
        });
        Ok(installed)
    }

    /// The map-in phase of every fetch that got its pages — wire reply,
    /// replica or disk salvage: one `map-in` span charging
    /// [`CostModel::map_in`](crate::CostModel) plus `map_in_extra` per
    /// further page, under which the frames are installed by reference
    /// count, not by 512-byte snapshot — each page is mapped copy-on-write
    /// against the sender's cache, and a later write performs the deferred
    /// copy (Accent's own message semantics, paper §2.1).
    pub(crate) fn map_in(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        frames: impl ExactSizeIterator<Item = Frame>,
    ) -> Result<u64, KernelError> {
        let span = self.span_enter("map-in", Some(node));
        let extra = frames.len().saturating_sub(1) as u64;
        self.clock
            .advance(self.costs.map_in + self.costs.map_in_extra.saturating_mul(extra));
        let installed = self.install_owed(node, pid, page, frames);
        self.span_exit(span);
        installed
    }

    /// Installs delivered `frames` at `page`, `page + 1`, … of `pid`,
    /// skipping targets that are no longer imaginary (a duplicate or a
    /// raced prefetch), counts every installed page past the first as
    /// prefetched, and counts the fault. Returns the pages installed.
    fn install_owed(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        frames: impl IntoIterator<Item = Frame>,
    ) -> Result<u64, KernelError> {
        let (process, disk) = self.node_mut(node)?.process_and_disk(pid)?;
        let mut installed = 0u64;
        for (i, frame) in frames.into_iter().enumerate() {
            let target = page.offset(i as u64);
            if matches!(
                process.space.page_state(target),
                Some(PageState::Imaginary { .. })
            ) {
                process.space.satisfy_imaginary_frame(target, frame, disk)?;
                installed += 1;
                if i > 0 {
                    process.stats.prefetched_pages += 1;
                    process.stats.prefetch_pending.insert(target);
                }
            }
        }
        process.stats.imag_faults += 1;
        Ok(installed)
    }

    /// Gives back the `installed` references [`World::map_in`] made
    /// unnecessary on `seg`, and lets a resulting death notice settle.
    pub(crate) fn release_installed(
        &mut self,
        node: NodeId,
        seg: SegmentId,
        installed: u64,
    ) -> Result<(), KernelError> {
        if installed > 0 {
            self.fabric.release_refs(
                &mut self.clock,
                &mut self.ports,
                &mut self.segs,
                node,
                seg,
                installed,
            )?;
            self.settle()?;
        }
        Ok(())
    }

    /// Counts how many pages starting at `page` are still owed by `seg`
    /// with consecutive offsets, clipped to `want` and to the segment
    /// length — the prefetchable run.
    pub(crate) fn contiguous_owed(
        &self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        seg: SegmentId,
        offset: u64,
        want: u64,
    ) -> Result<u64, KernelError> {
        let seg_len = self
            .segs
            .get(seg)
            .map(|s| s.len_pages)
            .ok_or(KernelError::Net(cor_net::NetError::MissingData {
                seg,
                offset,
            }))?;
        let process = self.process(node, pid)?;
        let max = want.min(seg_len.saturating_sub(offset));
        let mut count = 0;
        for i in 0..max {
            match process.space.page_state(page.offset(i)) {
                Some(PageState::Imaginary { seg: s, offset: o })
                    if *s == seg && *o == offset + i =>
                {
                    count += 1;
                }
                _ => break,
            }
        }
        Ok(count.max(1))
    }

    /// Tries to satisfy an owed fetch from a replica page home (see
    /// `docs/REPLICATION.md`) instead of the primary backing site. The
    /// fabric decides whether a replica may answer — always when the
    /// primary is down (the failover path, rung 0 of the recovery ladder),
    /// and under [`cor_net::ReplicationMode::Quorum`]
    /// also when a live replica is nearer on the topology. Returns
    /// `Ok(None)` when no replica can or should serve the read — at once
    /// when nothing is replicated (f = 0); the caller then proceeds
    /// exactly as without replication.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn try_replica_read(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        seg: SegmentId,
        offset: u64,
        count: u64,
        fault_start: SimTime,
    ) -> Result<Option<u64>, KernelError> {
        if self.fabric.params.replication.factor == 0 {
            return Ok(None);
        }
        // A broken chain here is not ours to diagnose: fall through and
        // let the ordinary fetch surface the seed-identical error.
        let Ok((backer, bseg, boff)) =
            self.fabric
                .resolve_owed(&self.ports, &self.segs, seg, offset)
        else {
            return Ok(None);
        };
        if backer == node {
            return Ok(None);
        }
        // Clip the prefetch run to the prefix resolving contiguously to
        // the same terminal home (mirrors the disk-salvage rung).
        let mut run = 1u64;
        while run < count {
            match self
                .fabric
                .resolve_owed(&self.ports, &self.segs, seg, offset + run)
            {
                Ok((n2, s2, o2)) if n2 == backer && s2 == bseg && o2 == boff + run => run += 1,
                _ => break,
            }
        }
        let Some((replica, frames, failover)) =
            self.fabric
                .replica_read(&mut self.clock, node, backer, bseg, boff, run)
        else {
            return Ok(None);
        };
        let installed = self.map_in(node, pid, page, frames.into_iter())?;
        self.release_installed(node, seg, installed)?;
        let service_time = self.clock.now().since(fault_start);
        self.note(|| TraceEvent::Imaginary {
            pid: pid.0,
            node,
            page: page.0,
            seg: seg.0,
            prefetched: installed.saturating_sub(1),
            service_us: service_time,
        });
        if failover {
            self.note(|| TraceEvent::Failover {
                pid: pid.0,
                node,
                dead: backer,
                replica,
                pages: installed,
                seg: bseg.0,
            });
        }
        Ok(Some(installed))
    }

    pub(crate) fn note_touch(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
    ) -> Result<(), KernelError> {
        let process = self.process_mut(node, pid)?;
        if process.stats.touched.insert(page) && process.stats.prefetch_pending.remove(&page) {
            process.stats.prefetch_hits += 1;
        }
        Ok(())
    }
}
