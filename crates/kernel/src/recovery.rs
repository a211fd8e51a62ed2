//! Crash tolerance: residual dependencies, draining, and the recovery
//! ladder.
//!
//! This module owns everything that runs when a node crashes or is
//! about to — the multi-hop residual-dependency walk, the background
//! drainer ([`crate::DrainPolicy`]), and the salvage-or-orphan ladder.

use std::collections::BTreeMap;

use cor_ipc::NodeId;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;
use cor_mem::{PageNum, PageRange, PageState, VAddr};
use cor_trace::TraceEvent;

use crate::error::KernelError;
use crate::process::ProcessId;
use crate::world::{DrainMode, DrainPolicy, World};

/// A page owed to a remote node's volatile state: the process's mapping
/// of it and the `(backer, bseg, boff)` its bytes resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OwedPage {
    page: PageNum,
    seg: SegmentId,
    offset: u64,
    backer: NodeId,
    bseg: SegmentId,
    boff: u64,
}

impl World {
    // ----- crash tolerance: residual deps, draining, recovery --------------

    /// The residual dependencies of `pid`: for every still-owed
    /// (imaginary) page, the node whose *volatile* state the process
    /// depends on — resolved through the full stand-in forwarding chain,
    /// multi-hop included. Pages whose bytes already sit in the backer's
    /// crash-survivable disk backer are crash-recoverable and therefore
    /// not counted, which is what makes flush-draining monotonically
    /// shrink this map. Local dependencies (pages the node owes itself)
    /// are omitted: a node cannot outlive its own crash.
    ///
    /// # Errors
    ///
    /// Unknown node/process, or a broken backing chain.
    pub fn residual_dependencies(
        &self,
        node: NodeId,
        pid: ProcessId,
    ) -> Result<BTreeMap<NodeId, u64>, KernelError> {
        let mut deps = BTreeMap::new();
        for owed in self.owed_pages(node, pid, None, u64::MAX)?.0 {
            *deps.entry(owed.backer).or_insert(0) += 1;
        }
        Ok(deps)
    }

    /// One round of background IOU draining under `policy`; returns the
    /// number of pages made crash-safe this round (zero means the
    /// dependency set is fully drained — or nothing more is drainable).
    /// Every drained page is counted in
    /// [`ReliabilityStats::drained_pages`](cor_sim::ReliabilityStats) and
    /// its traffic ledgered under [`cor_sim::LedgerCategory::Drain`], so paper
    /// tables built from the other categories are untouched.
    ///
    /// # Errors
    ///
    /// Unknown node/process, broken chains, or (for prefetch draining
    /// against a crashed backer) the recovery-ladder outcomes of
    /// [`World::touch`].
    pub fn drain_round(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        policy: DrainPolicy,
    ) -> Result<u64, KernelError> {
        if policy.pages_per_round == 0 {
            return Ok(0);
        }
        match policy.mode {
            DrainMode::Prefetch => self.drain_prefetch(node, pid, policy.pages_per_round),
            DrainMode::FlushToDisk => self.drain_flush(node, pid, policy.pages_per_round),
        }
    }

    /// The owed-page walk: the first `limit` materialized pages of `pid`,
    /// from `from` (default: its drain cursor) upward, that are imaginary
    /// with a live segment and resolve to a *remote* backer whose disk
    /// does not hold them and that have no live replica elsewhere. Also
    /// returns the next cursor: one past the leading run of *settled*
    /// pages — not imaginary, segment dead, or resolved to this node or
    /// to a disk that holds them; each is permanent for the process's life
    /// here unless a forward table on the chain dies with its node, so
    /// the last two settle nothing while a remote node holds a stand-in
    /// (`docs/ARCHITECTURE.md`). Debug builds check every resumed walk
    /// against the walk from page 0.
    fn owed_pages(
        &self,
        node: NodeId,
        pid: ProcessId,
        from: Option<PageNum>,
        limit: u64,
    ) -> Result<(Vec<OwedPage>, PageNum), KernelError> {
        let process = self.process(node, pid)?;
        let chain_is_local = self
            .nodes
            .keys()
            .all(|&n| n == node || self.fabric.standins_live(n) == 0);
        let mut owed = Vec::new();
        let (mut cursor, mut settling) = (from.unwrap_or(process.drain_cursor), true);
        for (page, state) in process.space.materialized_pages_from(cursor) {
            let mut settled = true;
            if let PageState::Imaginary { seg, offset } = *state {
                // A dead segment means the references were already
                // released (e.g. at termination): no dependency remains.
                if self.segs.get(seg).is_some() {
                    let (backer, bseg, boff) =
                        self.fabric
                            .resolve_owed(&self.ports, &self.segs, seg, offset)?;
                    let safe = backer == node || self.fabric.disk_has(backer, bseg, boff);
                    settled = safe && chain_is_local;
                    if !safe && !self.fabric.replica_live_elsewhere(backer, bseg, boff) {
                        owed.push(OwedPage {
                            page,
                            seg,
                            offset,
                            backer,
                            bseg,
                            boff,
                        });
                    }
                }
            }
            settling &= settled;
            if settling {
                cursor = page.offset(1);
            }
            if owed.len() as u64 == limit {
                break;
            }
        }
        debug_assert!(
            from.is_some()
                || self
                    .owed_pages(node, pid, Some(PageNum(0)), limit)
                    .is_ok_and(|full| full.0 == owed),
            "the drain cursor skipped a page that is owed again"
        );
        Ok((owed, cursor))
    }

    /// Prefetch-mode draining: pull up to `quota` owed pages across the
    /// wire during idle time, exactly as an imaginary fault would, so the
    /// dependency disappears outright.
    pub(crate) fn drain_prefetch(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        quota: u64,
    ) -> Result<u64, KernelError> {
        let (owed, cursor) = self.owed_pages(node, pid, None, 1)?;
        self.process_mut(node, pid)?.drain_cursor = cursor;
        let Some(&first) = owed.first() else {
            return Ok(0);
        };
        let (seg, offset) = (first.seg, first.offset);
        let saved = self.prefetch;
        self.prefetch = quota - 1;
        self.fabric.set_drain_accounting(true);
        let fetched = self.handle_imaginary_fault(node, pid, first.page, seg, offset);
        self.fabric.set_drain_accounting(false);
        self.prefetch = saved;
        let installed = fetched?;
        self.fabric.reliability.drained_pages.add(installed);
        self.note(|| TraceEvent::DrainPrefetch {
            pid: pid.0,
            node,
            pages: installed,
            seg: seg.0,
            offset,
        });
        Ok(installed)
    }

    /// Flush-mode draining ("flush to Sesame"): copy up to `quota` owed
    /// pages from the backing site's volatile NMS cache (or user-level
    /// backer) onto that site's crash-survivable disk backer. The pages
    /// stay owed — no wire transfer happens — but a crash can no longer
    /// lose them, so they leave [`World::residual_dependencies`].
    pub(crate) fn drain_flush(&mut self, node: NodeId, pid: ProcessId, quota: u64) -> Result<u64, KernelError> {
        let (mut flushed, mut from) = (0u64, None);
        // Targets that cannot be flushed do not use up the quota: walk on
        // past them until it is spent or no owed page is left.
        while flushed < quota {
            let (targets, cursor) = self.owed_pages(node, pid, from, quota - flushed)?;
            if from.is_none() {
                self.process_mut(node, pid)?.drain_cursor = cursor;
            }
            let Some(last) = targets.last() else { break };
            from = Some(last.page.offset(1));
            for target in targets {
                let (backer, bseg, boff) = (target.backer, target.bseg, target.boff);
                // A dead backer's volatile copy is already gone; there is
                // nothing left to flush (prefetch-mode draining would instead
                // climb the recovery ladder here).
                if self.fabric.is_crashed(backer) {
                    continue;
                }
                let written = self.fabric.flush_cached_page_to_disk(backer, bseg, boff)
                    || self.flush_user_backed_page(backer, bseg, boff);
                if !written {
                    continue;
                }
                // The flush is the *backer's* disk writing out its own cache —
                // background work at another node that overlaps the foreground
                // process's execution, so it costs ledger bytes but no global
                // wall time (the destination never blocks on it).
                let now = self.clock.now();
                self.fabric
                    .ledger
                    .record(now, cor_mem::PAGE_SIZE, cor_sim::LedgerCategory::Drain);
                self.fabric.reliability.drained_pages.incr();
                flushed += 1;
                self.note(|| TraceEvent::DrainFlush {
                    pid: pid.0,
                    node,
                    seg: bseg.0,
                    offset: boff,
                    backer,
                });
            }
        }
        Ok(flushed)
    }

    /// Flushes one page of a *user-level*-backed segment to the backing
    /// node's disk backer. Returns `true` if a page was written.
    pub(crate) fn flush_user_backed_page(&mut self, backer: NodeId, seg: SegmentId, offset: u64) -> bool {
        let Ok(port) = self.segs.backing_port(seg) else {
            return false;
        };
        let Some(frame) = self
            .backers
            .get(&port)
            .and_then(|e| e.store.range(seg, offset, 1))
            .and_then(<[Frame]>::first)
            .cloned()
        else {
            return false;
        };
        self.fabric.disk_install_page(backer, seg, offset, frame);
        true
    }

    /// The crash-recovery ladder, entered when an imaginary fetch failed.
    /// Rung 1: if the failure traces to a *crashed* backing site, read the
    /// owed pages back from that site's crash-survivable disk backer and
    /// map them in as a wire reply would be. Rung 2: if the faulting page
    /// is not on disk either, the data is gone — count the losses,
    /// terminate the orphan cleanly (releasing its remaining references),
    /// and surface [`KernelError::OrphanedProcess`]. Failures unrelated to
    /// a crash propagate unchanged.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn crash_recover_or_orphan(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        page: PageNum,
        seg: SegmentId,
        offset: u64,
        count: u64,
        err: KernelError,
    ) -> Result<u64, KernelError> {
        let dead = match &err {
            KernelError::SourceUnreachable { to, .. } if self.fabric.is_crashed(*to) => *to,
            // A missing reply (the backer died after the request left) or
            // a transport error: recoverable only if the resolved backing
            // site is in fact down.
            KernelError::NoReply { .. } | KernelError::Net(_) => {
                let (backer, _, _) =
                    self.fabric
                        .resolve_owed(&self.ports, &self.segs, seg, offset)?;
                // An amnesiac reboot answers the wire again but its cache
                // and forward tables are gone — for owed pages that is the
                // same loss as staying down, so it climbs the same ladder.
                if self.fabric.lost_volatile_state(backer) {
                    backer
                } else {
                    return Err(err);
                }
            }
            _ => return Err(err),
        };
        // Rung 0: a surviving replica home, if any, serves the read — no
        // data loss, no drain, and the fetch is charged like a wire round
        // trip (the measured failover latency). Reached when the primary died *mid-flight*: a fetch
        // that found it already down failed over before sending.
        let now = self.clock.now();
        if let Some(installed) = self.try_replica_read(node, pid, page, seg, offset, count, now)? {
            return Ok(installed);
        }
        // Rung 1: the crashed node's disk backer, page by page; prefetch
        // pages beyond the faulting one are best-effort.
        let mut recovered = Vec::new();
        for i in 0..count {
            let (bnode, bseg, boff) =
                self.fabric
                    .resolve_owed(&self.ports, &self.segs, seg, offset + i)?;
            if bnode != dead {
                break;
            }
            match self.fabric.disk_recover(bnode, bseg, boff) {
                Some(frame) => recovered.push(frame),
                None => break,
            }
        }
        if !recovered.is_empty() {
            let n = recovered.len() as u64;
            self.clock.advance(self.costs.disk_service);
            let installed = self.map_in(node, pid, page, recovered.into_iter())?;
            let now = self.clock.now();
            self.fabric.ledger.record(
                now,
                cor_mem::PAGE_SIZE * n,
                cor_sim::LedgerCategory::Drain,
            );
            self.fabric.reliability.pages_recovered.add(installed);
            self.release_installed(node, seg, installed)?;
            self.note(|| TraceEvent::Recover {
                pid: pid.0,
                node,
                pages: installed,
                seg: seg.0,
                dead,
            });
            return Ok(installed);
        }
        // Rung 2: the faulting page is unrecoverable. Tally every owed
        // page this process will never see, then terminate it cleanly.
        let lost = self.count_lost_pages(node, pid, dead)?;
        self.fabric.reliability.pages_lost.add(lost);
        self.note(|| TraceEvent::Orphan {
            pid: pid.0,
            node,
            dead,
            lost,
        });
        self.terminate(node, pid)?;
        Err(KernelError::OrphanedProcess {
            pid,
            node: dead,
            lost_pages: lost,
        })
    }

    /// Owed pages of `pid` that resolve to `dead` and are not on its disk
    /// backer: data that no rung of the recovery ladder can produce.
    pub(crate) fn count_lost_pages(
        &self,
        node: NodeId,
        pid: ProcessId,
        dead: NodeId,
    ) -> Result<u64, KernelError> {
        let process = self.process(node, pid)?;
        let mut lost = 0;
        for (_, state) in process.space.materialized_pages() {
            if let PageState::Imaginary { seg, offset } = state {
                if self.segs.get(*seg).is_none() {
                    continue;
                }
                let (bnode, bseg, boff) =
                    self.fabric
                        .resolve_owed(&self.ports, &self.segs, *seg, *offset)?;
                if bnode == dead
                    && !self.fabric.disk_has(bnode, bseg, boff)
                    && !self.fabric.replica_live_elsewhere(bnode, bseg, boff)
                {
                    lost += 1;
                }
            }
        }
        Ok(lost)
    }

    /// A *kernel-context* read of process memory (paper §2.3): the caller
    /// holds the system critical section, so touching a port-backed
    /// (imaginary) page would deadlock — the backer could never execute
    /// the `Receive` needed to answer the fault. The accessibility map is
    /// consulted first and the read is refused, not deadlocked, when the
    /// range is distantly accessible. FillZero and disk faults are safe
    /// and serviced inline.
    ///
    /// # Errors
    ///
    /// [`KernelError::WouldDeadlock`] for ImagMem ranges;
    /// [`KernelError::AddressingViolation`] for BadMem; otherwise the
    /// usual failures.
    pub fn kernel_peek(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        addr: VAddr,
        len: u64,
    ) -> Result<Vec<u8>, KernelError> {
        let range = PageRange::covering(addr, len);
        let access = {
            let process = self.process(node, pid)?;
            process.space.amap().max_access_in(range)
        };
        match access {
            cor_mem::amap::Access::Imag => return Err(KernelError::WouldDeadlock { pid, addr }),
            cor_mem::amap::Access::Bad => {
                return Err(KernelError::AddressingViolation { pid, addr })
            }
            _ => {}
        }
        for page in range.iter() {
            self.ensure_ready(node, pid, page, false)?;
        }
        let process = self.process(node, pid)?;
        let mut buf = vec![0u8; len as usize];
        process.space.read(addr, &mut buf)?;
        Ok(buf)
    }
}
