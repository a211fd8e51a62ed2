//! The executor: trace-driven process execution on the virtual clock.
//!
//! This module owns [`World::run`] and friends — the per-node
//! instruction loop that consumes [`crate::program::Op`]s, charges
//! compute time, and feeds memory touches to the pager.

use cor_ipc::NodeId;
use cor_mem::page::{page_hash, PageBytes};
use cor_mem::space::SegmentId;
use cor_mem::{PageNum, PageState};
use cor_sim::IdMap;
use cor_trace::TraceEvent;

use crate::error::KernelError;
use crate::process::{ProcessId, RunStatus};
use crate::program::Op;
use crate::world::{ExecReport, World};

/// Where every memory checksum starts: the FNV-1a offset basis.
pub(crate) const CHECKSUM_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one page into a memory checksum, FNV-1a over two words: the
/// page's number, then the word-wise [`page_hash`] of its bytes. Folded
/// in ascending page order from [`CHECKSUM_BASIS`], it is the one form of
/// the transparency digest: [`World::touched_checksum`] folds the pages a
/// run touched, [`crate::Trace::expected_checksum_from`] the pages its trace
/// predicts, so the two cannot drift apart.
pub(crate) fn checksum_page(digest: u64, page: PageNum, bytes: &PageBytes) -> u64 {
    let fnv = |digest: u64, word: u64| (digest ^ word).wrapping_mul(0x100_0000_01b3);
    fnv(fnv(digest, page.0), page_hash(bytes))
}

impl World {
    // ----- the executor ----------------------------------------------------

    /// Runs `pid` until it terminates.
    ///
    /// # Errors
    ///
    /// Execution failures, or [`KernelError::TraceUnderrun`] if the trace
    /// ends without `Terminate`.
    pub fn run(&mut self, node: NodeId, pid: ProcessId) -> Result<ExecReport, KernelError> {
        self.run_for(node, pid, usize::MAX)
    }

    /// Runs `pid` for at most `max_ops` trace ops (or to termination).
    /// Execution resumes from the PCB's trace position, so a process can be
    /// run partially, migrated, and resumed elsewhere.
    ///
    /// # Errors
    ///
    /// Execution failures, or [`KernelError::TraceUnderrun`] if the trace
    /// ends without `Terminate`.
    pub fn run_for(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        max_ops: usize,
    ) -> Result<ExecReport, KernelError> {
        // A milestone span per scheduling slice: at Summary level a trace
        // still shows when each process ran and for how long.
        let span = self.span_enter_milestone("exec", Some(node));
        let result = self.run_for_inner(node, pid, max_ops);
        self.span_exit(span);
        result
    }

    pub(crate) fn run_for_inner(
        &mut self,
        node: NodeId,
        pid: ProcessId,
        max_ops: usize,
    ) -> Result<ExecReport, KernelError> {
        let started_at = self.clock.now();
        {
            let process = self.process_mut(node, pid)?;
            process.pcb.status = RunStatus::Running;
        }
        let mut ops_executed = 0usize;
        let mut finished = false;
        while ops_executed < max_ops {
            let (op, op_index) = {
                let process = self.process_mut(node, pid)?;
                let idx = process.pcb.trace_pos;
                match process.trace.ops().get(idx) {
                    Some(&op) => {
                        process.pcb.trace_pos += 1;
                        (op, idx)
                    }
                    None => return Err(KernelError::TraceUnderrun(pid)),
                }
            };
            ops_executed += 1;
            match op {
                Op::Touch { addr, len, write } => {
                    self.touch(node, pid, addr, len, write, op_index)?;
                }
                Op::Compute(d) => {
                    self.clock.advance(d);
                    self.process_mut(node, pid)?.stats.compute += d;
                }
                Op::ScreenUpdate => {
                    self.clock.advance(self.costs.screen_update);
                    self.process_mut(node, pid)?.stats.screen_updates += 1;
                }
                Op::Terminate => {
                    self.terminate(node, pid)?;
                    finished = true;
                    break;
                }
            }
        }
        if !finished {
            self.process_mut(node, pid)?.pcb.status = RunStatus::Ready;
        }
        self.note(|| TraceEvent::Exec {
            pid: pid.0,
            node,
            ops: ops_executed as u64,
            finished,
        });
        Ok(ExecReport {
            started_at,
            elapsed: self.clock.now().since(started_at),
            ops_executed,
            finished,
        })
    }

    /// Terminates `pid`: releases the references its address space holds on
    /// imaginary segments (never-touched owed pages), triggering segment
    /// deaths, and marks the PCB terminated. The address space itself is
    /// preserved for post-mortem inspection.
    ///
    /// # Errors
    ///
    /// Network failures during reference release.
    pub fn terminate(&mut self, node: NodeId, pid: ProcessId) -> Result<(), KernelError> {
        let mut owed: IdMap<SegmentId, u64> = IdMap::default();
        {
            let process = self.process_mut(node, pid)?;
            for (_, state) in process.space.materialized_pages() {
                if let PageState::Imaginary { seg, .. } = state {
                    *owed.entry(*seg).or_insert(0) += 1;
                }
            }
            process.pcb.status = RunStatus::Terminated;
        }
        let mut owed: Vec<(SegmentId, u64)> = owed.into_iter().collect();
        owed.sort_unstable_by_key(|&(s, _)| s);
        for (seg, pages) in owed {
            self.fabric.release_refs(
                &mut self.clock,
                &mut self.ports,
                &mut self.segs,
                node,
                seg,
                pages,
            )?;
        }
        self.settle()?;
        Ok(())
    }

    /// Clears `pid`'s touch and prefetch tracking. Experiments call this at
    /// a phase boundary (e.g. the moment of migration) so that
    /// [`ExecStats::touched`](crate::process::ExecStats) afterwards reports
    /// exactly the pages referenced *at the remote site* — the quantity
    /// Table 4-3 of the paper tabulates.
    ///
    /// # Errors
    ///
    /// Unknown node or process.
    pub fn reset_touch_tracking(
        &mut self,
        node: NodeId,
        pid: ProcessId,
    ) -> Result<(), KernelError> {
        let process = self.process_mut(node, pid)?;
        process.stats.touched.clear();
        process.stats.prefetch_pending.clear();
        Ok(())
    }

    /// A deterministic digest of the contents of every page `pid` has
    /// touched. A run whose touch tracking starts at op `k` must end equal
    /// to [`crate::Trace::expected_checksum_from`]`(k, ..)`.
    ///
    /// Folds, in page order, each touched page's bytes as they are now
    /// with `checksum_page`; every byte is read on every call. A
    /// host-side peek: an on-disk page counts no simulated disk read. Only
    /// equality of two digests means anything; the value appears in no
    /// output.
    ///
    /// # Errors
    ///
    /// Unknown node/process, or internal state errors for touched pages
    /// that have no data.
    pub fn touched_checksum(&self, node: NodeId, pid: ProcessId) -> Result<u64, KernelError> {
        let process = self.process(node, pid)?;
        let disk = &self.node(node)?.disk;
        let mut pages: Vec<PageNum> = process.stats.touched.iter().copied().collect();
        pages.sort_unstable();
        let mut digest = CHECKSUM_BASIS;
        for page in pages {
            let frame = process
                .space
                .peek_frame(page, disk)
                .ok_or(KernelError::Mem(cor_mem::MemError::NotResident(page)))?;
            digest = frame.with(|bytes| checksum_page(digest, page, bytes));
        }
        Ok(digest)
    }

}
