//! Processes: the five Accent context components.
//!
//! Paper §3.1: "Accent contexts are divided into five components: the
//! state of the Perq microengine, the kernel stack if the process is
//! executing in supervisor mode, the PCB, the set of port rights owned by
//! the process and the virtual address space contents. While the first
//! four parts combined only account for roughly 1 Kbyte, the address space
//! contributes up to 4 gigabytes."

use std::collections::HashSet;

use cor_ipc::PortRight;
use cor_mem::{AddressSpace, PageNum};
use cor_sim::{IdSet, SimDuration};

use crate::program::Trace;

/// A process identifier, unique within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u64);

/// Scheduling status recorded in the PCB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Eligible to run.
    Ready,
    /// Currently executing.
    Running,
    /// Waiting on a fault or message.
    Blocked,
    /// Finished.
    Terminated,
}

/// The process control block.
#[derive(Debug, Clone)]
pub struct Pcb {
    /// Human-readable name ("Minprog", "Lisp-Del", ...).
    pub name: String,
    /// Scheduling status.
    pub status: RunStatus,
    /// Scheduling priority (carried but not used by the single-process
    /// trials).
    pub priority: u8,
    /// Next op index in the trace (the "program counter").
    pub trace_pos: usize,
}

/// Per-process execution measurements.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// FillZero faults serviced.
    pub zero_faults: u64,
    /// Local disk faults serviced.
    pub disk_faults: u64,
    /// Imaginary faults serviced.
    pub imag_faults: u64,
    /// Pages that arrived as prefetch (beyond the faulting page).
    pub prefetched_pages: u64,
    /// Prefetched pages later touched by the program.
    pub prefetch_hits: u64,
    /// Distinct pages the program has touched. It keeps std's hasher: the
    /// frozen benchmark intersects it with a std `HashSet`, which needs the
    /// same hasher type.
    pub touched: HashSet<PageNum>,
    /// Pages currently installed by prefetch and not yet touched. An
    /// [`IdSet`], so when it grows, and with it a run's heap-allocation
    /// count, is the same on every run.
    pub prefetch_pending: IdSet<PageNum>,
    /// Total modeled computation time executed.
    pub compute: SimDuration,
    /// Screen updates drawn.
    pub screen_updates: u64,
}

impl ExecStats {
    /// Prefetch hit ratio in `[0, 1]`, or `None` if nothing was prefetched.
    pub fn prefetch_hit_ratio(&self) -> Option<f64> {
        if self.prefetched_pages == 0 {
            None
        } else {
            Some(self.prefetch_hits as f64 / self.prefetched_pages as f64)
        }
    }
}

/// A process: context plus its driving trace and measurements.
#[derive(Debug)]
pub struct Process {
    /// Identifier.
    pub id: ProcessId,
    /// Control block.
    pub pcb: Pcb,
    /// Microengine register state (opaque; carried verbatim by migration).
    pub microstate: Vec<u8>,
    /// Kernel stack contents, when in supervisor mode.
    pub kernel_stack: Vec<u8>,
    /// Port rights owned.
    pub rights: Vec<PortRight>,
    /// The virtual address space.
    pub space: AddressSpace,
    /// The driving trace.
    pub trace: Trace,
    /// Execution measurements.
    pub stats: ExecStats,
    /// The drain cursor: no page below it can be owed to another node's
    /// volatile state again while the process lives here, so the
    /// owed-page walk of [`crate::World::drain_round`] resumes at it.
    pub(crate) drain_cursor: PageNum,
}

impl Process {
    /// Creates a ready process with the given name, space and trace.
    pub fn new(id: ProcessId, name: impl Into<String>, space: AddressSpace, trace: Trace) -> Self {
        let pcb = Pcb {
            name: name.into(),
            status: RunStatus::Ready,
            priority: 10,
            trace_pos: 0,
        };
        let mut process = Process::resume(id, pcb, space, trace, ExecStats::default());
        // The microstate is deterministic, non-zero content so context
        // transfer fidelity is observable.
        process.microstate = (0..512u32).map(|i| (i as u8) ^ (id.0 as u8)).collect();
        process
    }

    /// Reassembles a process from a shipped context: its PCB, space, trace
    /// and measurements, with an empty microstate, kernel stack and rights
    /// list, which allocate nothing; insertion moves the carried ones in.
    pub fn resume(
        id: ProcessId,
        pcb: Pcb,
        space: AddressSpace,
        trace: Trace,
        stats: ExecStats,
    ) -> Self {
        Process {
            id,
            pcb,
            microstate: Vec::new(),
            kernel_stack: Vec::new(),
            rights: Vec::new(),
            space,
            trace,
            stats,
            drain_cursor: PageNum(0),
        }
    }

    /// Whether execution has consumed the whole trace.
    pub fn finished(&self) -> bool {
        self.pcb.status == RunStatus::Terminated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;

    #[test]
    fn new_process_is_ready_at_trace_start() {
        let p = Process::new(
            ProcessId(1),
            "test",
            AddressSpace::new(),
            Trace::new(vec![Op::Terminate]),
        );
        assert_eq!(p.pcb.status, RunStatus::Ready);
        assert_eq!(p.pcb.trace_pos, 0);
        assert!(!p.finished());
        assert_eq!(p.microstate.len(), 512);
    }

    #[test]
    fn microstate_differs_by_pid() {
        let a = Process::new(ProcessId(1), "a", AddressSpace::new(), Trace::default());
        let b = Process::new(ProcessId(2), "b", AddressSpace::new(), Trace::default());
        assert_ne!(a.microstate, b.microstate);
    }

    #[test]
    fn prefetch_hit_ratio() {
        let mut s = ExecStats::default();
        assert!(s.prefetch_hit_ratio().is_none());
        s.prefetched_pages = 10;
        s.prefetch_hits = 4;
        assert_eq!(s.prefetch_hit_ratio(), Some(0.4));
    }
}
