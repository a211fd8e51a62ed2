//! A simulated machine.

use std::collections::BTreeMap;

use cor_ipc::{NodeId, PortId};
use cor_mem::Disk;

use crate::error::KernelError;
use crate::process::{Process, ProcessId};

/// One machine of the testbed: a local disk, a pager service port, and the
/// processes currently homed here. Its NetMsgServer state lives in the
/// world's [`cor_net::Fabric`].
#[derive(Debug)]
pub struct Node {
    /// Identifier.
    pub id: NodeId,
    /// The local paging disk.
    pub disk: Disk,
    /// The Pager/Scheduler's reply port (imaginary read replies arrive
    /// here).
    pub pager_port: PortId,
    /// Processes homed on this node.
    pub processes: BTreeMap<ProcessId, Process>,
}

impl Node {
    /// Creates a node with the given pager port.
    pub fn new(id: NodeId, pager_port: PortId) -> Self {
        Node {
            id,
            disk: Disk::new(),
            pager_port,
            processes: BTreeMap::new(),
        }
    }

    /// Looks up a process.
    pub fn process(&self, pid: ProcessId) -> Option<&Process> {
        self.processes.get(&pid)
    }

    /// Looks up a process mutably.
    pub fn process_mut(&mut self, pid: ProcessId) -> Option<&mut Process> {
        self.processes.get_mut(&pid)
    }

    /// Borrows a process together with the node's paging disk: the split
    /// borrow every page-state transition that may evict needs.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownProcess`].
    pub fn process_and_disk(
        &mut self,
        pid: ProcessId,
    ) -> Result<(&mut Process, &mut Disk), KernelError> {
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(KernelError::UnknownProcess(pid))?;
        Ok((process, &mut self.disk))
    }
}
