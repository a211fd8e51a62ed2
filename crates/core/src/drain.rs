//! Background IOU draining (the robustness counterpart of §6).
//!
//! A pure-IOU migration leaves the process residually dependent on its
//! source: every untouched page is still owed by the source NetMsgServer's
//! volatile cache, and a source crash orphans the process. The [`Drainer`]
//! attacks that window: it interleaves foreground execution with idle
//! rounds of [`World::drain_round`], either *prefetching* owed pages
//! across the wire or *flushing* them to the source's crash-survivable
//! disk backer ("flush to Sesame"), so that
//! [`World::residual_dependencies`] shrinks monotonically while the
//! process makes normal progress. All drain traffic is ledgered under
//! [`cor_sim::LedgerCategory::Drain`], leaving the paper's byte categories
//! untouched.

use cor_ipc::NodeId;
use cor_kernel::process::ProcessId;
use cor_kernel::{DrainPolicy, KernelError, World};

/// What a drained run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Trace ops the foreground process executed.
    pub ops_executed: usize,
    /// Idle drain rounds taken.
    pub drain_rounds: u64,
    /// Pages made crash-safe by those rounds.
    pub drained_pages: u64,
    /// Whether the process ran to termination.
    pub finished: bool,
    /// Whether the dependency set was empty when the run ended.
    pub fully_drained: bool,
}

/// Interleaves foreground execution with background IOU draining.
#[derive(Debug, Clone, Copy)]
pub struct Drainer {
    /// The per-round draining policy.
    pub policy: DrainPolicy,
    /// Foreground trace ops executed between drain rounds — the model of
    /// "idle time": a smaller value drains more aggressively.
    pub interleave_ops: usize,
}

impl Drainer {
    /// A drainer with the given policy and a default interleave of 16
    /// foreground ops per drain round.
    pub fn new(policy: DrainPolicy) -> Self {
        Drainer {
            policy,
            interleave_ops: 16,
        }
    }

    /// Sets the foreground ops per drain round.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero (the foreground could never progress).
    pub fn with_interleave(mut self, ops: usize) -> Self {
        assert!(ops > 0, "foreground slices must make progress");
        self.interleave_ops = ops;
        self
    }

    /// Runs `pid` to termination, draining between foreground slices.
    ///
    /// # Errors
    ///
    /// Execution failures — including
    /// [`KernelError::OrphanedProcess`](cor_kernel::KernelError) if a
    /// dependency crashes before draining saves its pages.
    pub fn run(
        &self,
        world: &mut World,
        node: NodeId,
        pid: ProcessId,
    ) -> Result<DrainReport, KernelError> {
        let mut report = DrainReport {
            ops_executed: 0,
            drain_rounds: 0,
            drained_pages: 0,
            finished: false,
            fully_drained: false,
        };
        loop {
            let exec = world.run_for(node, pid, self.interleave_ops)?;
            report.ops_executed += exec.ops_executed;
            if exec.finished {
                report.finished = true;
                break;
            }
            report.drain_rounds += 1;
            report.drained_pages += world.drain_round(node, pid, self.policy)?;
        }
        report.fully_drained = world.residual_dependencies(node, pid)?.is_empty();
        Ok(report)
    }

    /// Drains with no foreground progress at all until the dependency set
    /// stops shrinking; returns the pages made crash-safe. After this,
    /// either [`World::residual_dependencies`] is empty or the remainder
    /// is undrainable under the policy.
    ///
    /// # Errors
    ///
    /// Draining failures (e.g. the recovery-ladder outcomes when
    /// prefetch-draining races a crash).
    pub fn drain_fully(
        &self,
        world: &mut World,
        node: NodeId,
        pid: ProcessId,
    ) -> Result<u64, KernelError> {
        let mut total = 0;
        loop {
            let drained = world.drain_round(node, pid, self.policy)?;
            if drained == 0 {
                return Ok(total);
            }
            total += drained;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::MigrationManager;
    use crate::strategy::Strategy;
    use cor_kernel::program::Trace;
    use cor_kernel::{DrainMode, RunStatus};
    use cor_mem::{AddressSpace, PageNum, VAddr, PAGE_SIZE};

    /// The traveler's trace: write every page, idle a while (compute),
    /// then re-read everything. Migration happens after the writes, so at
    /// the destination every page is owed and the computes are the idle
    /// time a drainer can exploit before the final read touches it all.
    fn traveler_trace(pages: u64) -> Trace {
        let mut tb = Trace::builder();
        for i in 0..pages {
            tb.write(PageNum(i).base(), 64);
        }
        for _ in 0..pages {
            tb.compute(cor_sim::SimDuration::from_millis(5));
        }
        tb.read(VAddr(0), pages * PAGE_SIZE);
        tb.terminate()
    }

    /// A process on `a` with all `pages` materialized, migrated to `b`
    /// pure-IOU so everything stays owed by `a`'s NMS cache.
    fn migrated(pages: u64) -> (World, NodeId, NodeId, ProcessId) {
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), pages * PAGE_SIZE).unwrap();
        let pid = world
            .create_process(a, "traveler", space, traveler_trace(pages))
            .unwrap();
        world.run_for(a, pid, pages as usize).unwrap();
        src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
            .unwrap();
        (world, a, b, pid)
    }

    #[test]
    fn interleaved_prefetch_drain_finishes_and_empties_the_set() {
        let (mut world, a, b, pid) = migrated(12);
        assert!(
            world.residual_dependencies(b, pid).unwrap().contains_key(&a),
            "migration left a residual dependency on the source"
        );
        let drainer = Drainer::new(DrainPolicy::prefetch(4)).with_interleave(1);
        let report = drainer.run(&mut world, b, pid).unwrap();
        assert!(report.finished);
        assert!(report.fully_drained);
        assert!(report.drain_rounds > 0);
        assert_eq!(report.drained_pages, 12, "idle rounds pulled every page");
        assert_eq!(
            world.process(b, pid).unwrap().pcb.status,
            RunStatus::Terminated
        );
    }

    #[test]
    fn flush_drain_immunizes_against_a_source_crash() {
        let pages = 10u64;
        let expected = traveler_trace(pages).expected_checksum_from(0, |_, _| ());
        let (mut world, a, b, pid) = migrated(pages);
        let drainer = Drainer::new(DrainPolicy {
            mode: DrainMode::FlushToDisk,
            pages_per_round: 3,
        });
        let flushed = drainer.drain_fully(&mut world, b, pid).unwrap();
        assert!(flushed > 0);
        assert!(world.residual_dependencies(b, pid).unwrap().is_empty());
        // Kill the source: every remaining fetch recovers from its disk.
        let now = world.clock.now();
        world.fabric.crash_node(now, &mut world.ports, a, false);
        world.run(b, pid).unwrap();
        assert_eq!(world.touched_checksum(b, pid).unwrap(), expected);
        assert_eq!(world.fabric.reliability.pages_lost.get(), 0);
    }

    #[test]
    fn without_draining_the_same_crash_orphans() {
        let (mut world, a, b, pid) = migrated(10);
        let now = world.clock.now();
        world.fabric.crash_node(now, &mut world.ports, a, false);
        match world.run(b, pid) {
            Err(KernelError::OrphanedProcess { pid: p, node, .. }) => {
                assert_eq!(p, pid);
                assert_eq!(node, a);
            }
            other => panic!("expected OrphanedProcess, got {other:?}"),
        }
    }
}
