//! Excised process contexts and the Core-message codec.
//!
//! The Core message must be self-contained (paper §3.1: the context
//! messages "do not have to be preprocessed in any way"), so the PCB,
//! microengine state and kernel stack are serialized into a real binary
//! encoding whose length is what crosses the wire.

use cor_ipc::message::Message;
use cor_kernel::process::{ExecStats, Pcb, ProcessId, RunStatus};
use cor_kernel::program::Trace;
use cor_sim::SmallVec;

/// A process context extracted by `ExciseProcess`, ready for shipment.
#[derive(Debug)]
pub struct ExcisedProcess {
    /// The identity of the excised process (preserved across migration).
    pub pid: ProcessId,
    /// The process's name, as the Core blob carries it: kept beside the
    /// message so the source's report need not decode the blob.
    pub name: String,
    /// The Core context message: serialized PCB + microstate + kernel
    /// stack (inline), the port rights, and the address-space AMap.
    pub core: Message,
    /// The RIMAS message: the Real and Imaginary address-space portions
    /// collapsed into a contiguous area of page slots.
    pub rimas: Message,
    /// The collapsed slots that were *resident* at excision time, as
    /// ascending `[start, end)` runs (used by the resident-set strategy to
    /// decide what ships physically). A space resident in one stretch is
    /// one run, held inline.
    pub resident_slots: SmallVec<(u64, u64)>,
    /// The program text. In a real system this lives in the Real pages
    /// already carried by the RIMAS message; the simulation keeps the
    /// structured form alongside so the destination can keep executing it.
    pub program: Trace,
    /// Measurement carry-over (simulation bookkeeping, not context).
    pub stats: ExecStats,
    /// The source's resident-set frame budget, restored at insertion.
    pub frame_budget: Option<usize>,
}

/// The serializable PCB/microstate/kernel-stack bundle carried inline in
/// the Core message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreBlob {
    /// Process name.
    pub name: String,
    /// Next trace op ("program counter").
    pub trace_pos: u64,
    /// Scheduling priority.
    pub priority: u8,
    /// Run status at excision (preserved so the process resumes in its
    /// original queue, §3.1).
    pub status: RunStatus,
    /// Microengine registers.
    pub microstate: Vec<u8>,
    /// Kernel stack (non-empty only in supervisor mode).
    pub kernel_stack: Vec<u8>,
    /// Resident frame budget (0 = unbounded).
    pub frame_budget: u64,
}

fn status_code(s: RunStatus) -> u8 {
    match s {
        RunStatus::Ready => 0,
        RunStatus::Running => 1,
        RunStatus::Blocked => 2,
        RunStatus::Terminated => 3,
    }
}

fn status_from(code: u8) -> Option<RunStatus> {
    Some(match code {
        0 => RunStatus::Ready,
        1 => RunStatus::Running,
        2 => RunStatus::Blocked,
        3 => RunStatus::Terminated,
        _ => return None,
    })
}

impl CoreBlob {
    /// Builds the blob from a PCB and context pieces, taking them over.
    pub fn from_parts(
        pcb: Pcb,
        microstate: Vec<u8>,
        kernel_stack: Vec<u8>,
        frame_budget: Option<usize>,
    ) -> Self {
        CoreBlob {
            name: pcb.name,
            trace_pos: pcb.trace_pos as u64,
            priority: pcb.priority,
            status: pcb.status,
            microstate,
            kernel_stack,
            frame_budget: frame_budget.map_or(0, |b| b as u64),
        }
    }

    /// Serializes to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.name.len() + self.microstate.len());
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.trace_pos.to_le_bytes());
        out.push(self.priority);
        out.push(status_code(self.status));
        out.extend_from_slice(&self.frame_budget.to_le_bytes());
        out.extend_from_slice(&(self.microstate.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.microstate);
        out.extend_from_slice(&(self.kernel_stack.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.kernel_stack);
        out
    }

    /// Parses the wire form; `None` on any structural damage.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = bytes.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let name_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let name = String::from_utf8(take(&mut pos, name_len)?.to_vec()).ok()?;
        let trace_pos = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let priority = take(&mut pos, 1)?[0];
        let status = status_from(take(&mut pos, 1)?[0])?;
        let frame_budget = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let micro_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let microstate = take(&mut pos, micro_len)?.to_vec();
        let ks_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
        let kernel_stack = take(&mut pos, ks_len)?.to_vec();
        if pos != bytes.len() {
            return None;
        }
        Some(CoreBlob {
            name,
            trace_pos,
            priority,
            status,
            microstate,
            kernel_stack,
            frame_budget,
        })
    }

    /// The carried frame budget, `None` when unbounded.
    pub fn budget(&self) -> Option<usize> {
        if self.frame_budget == 0 {
            None
        } else {
            Some(self.frame_budget as usize)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CoreBlob {
        CoreBlob {
            name: "Lisp-Del".into(),
            trace_pos: 1234,
            priority: 7,
            status: RunStatus::Ready,
            microstate: (0..512).map(|i| i as u8).collect(),
            kernel_stack: vec![9; 64],
            frame_budget: 372,
        }
    }

    #[test]
    fn roundtrip() {
        let blob = sample();
        let bytes = blob.encode();
        assert_eq!(CoreBlob::decode(&bytes), Some(blob));
    }

    #[test]
    fn encoded_size_is_about_a_kilobyte() {
        let n = sample().encode().len();
        assert!((600..1400).contains(&n), "got {n}");
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().encode();
        assert!(CoreBlob::decode(&bytes[..bytes.len() - 1]).is_none());
        assert!(CoreBlob::decode(&[]).is_none());
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(CoreBlob::decode(&bytes).is_none());
    }

    #[test]
    fn bad_status_code_is_rejected() {
        let blob = sample();
        let mut bytes = blob.encode();
        // The status byte sits right after name(4+8) + trace_pos(8) + prio.
        let idx = 4 + blob.name.len() + 8 + 1;
        bytes[idx] = 99;
        assert!(CoreBlob::decode(&bytes).is_none());
    }

    #[test]
    fn budget_zero_means_unbounded() {
        let mut blob = sample();
        blob.frame_budget = 0;
        assert_eq!(blob.budget(), None);
        blob.frame_budget = 42;
        assert_eq!(blob.budget(), Some(42));
    }
}
