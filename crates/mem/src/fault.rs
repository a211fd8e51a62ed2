//! The fault taxonomy of Accent's Pager/Scheduler (paper §2.3).

use crate::disk::DiskAddr;
use crate::page::{PageNum, VAddr};
use crate::space::SegmentId;

/// A memory fault awaiting service.
///
/// `cor-mem` *detects* faults; the pager in `cor-kernel` *services* them,
/// charging each kind its calibrated cost (a FillZero fault never touches
/// the disk; an imaginary fault is a full IPC round trip to the backing
/// port, possibly across the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// First touch of validated-but-never-accessed memory (*RealZeroMem*).
    /// Serviced by reserving a frame and zero-filling it; the disk is never
    /// consulted.
    FillZero {
        /// The page to materialize.
        page: PageNum,
    },
    /// The page's data is on the local disk (*RealMem*, paged out).
    DiskIn {
        /// The faulting page.
        page: PageNum,
        /// Where its data lives on the local disk.
        addr: DiskAddr,
    },
    /// The page is mapped to an imaginary segment (*ImagMem*); its data must
    /// be requested from the segment's backing port.
    Imaginary {
        /// The faulting page.
        page: PageNum,
        /// The imaginary segment backing this page.
        seg: SegmentId,
        /// Page offset within the segment.
        offset: u64,
    },
    /// A true addressing error (*BadMem*): the address was never validated.
    Addressing {
        /// The offending address.
        addr: VAddr,
    },
}

impl Fault {
    /// The faulting page, if the fault concerns a specific page.
    pub fn page(&self) -> Option<PageNum> {
        match self {
            Fault::FillZero { page }
            | Fault::DiskIn { page, .. }
            | Fault::Imaginary { page, .. } => Some(*page),
            Fault::Addressing { .. } => None,
        }
    }

    /// A static name for the fault kind, used as the trace span name for
    /// fault-handling intervals.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::FillZero { .. } => "fill-zero",
            Fault::DiskIn { .. } => "disk-in",
            Fault::Imaginary { .. } => "imag-fault",
            Fault::Addressing { .. } => "addressing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_extraction() {
        assert_eq!(
            Fault::FillZero { page: PageNum(9) }.page(),
            Some(PageNum(9))
        );
        assert_eq!(Fault::Addressing { addr: VAddr(9) }.page(), None);
    }
}
