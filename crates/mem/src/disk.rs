//! The simulated local disk.
//!
//! The disk is a flat page store with an allocation cursor. Service *times*
//! are charged by the kernel's cost model (the paper reports 40.8 ms for a
//! local fault, §4.3.3); this module only stores and returns real bytes and
//! counts operations.

use std::fmt;

use crate::page::{Frame, PageData, PAGE_SIZE};

/// The address of a page-sized block on the local disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskAddr(pub u64);

/// A simulated local disk holding 512-byte blocks.
///
/// Blocks are stored as [`Frame`]s so page-outs and flushes move a
/// reference count instead of copying 512 bytes; a block's contents are
/// never mutated in place (overwrites replace the frame), so sharing a
/// stored frame with a live mapping is safe under the copy-on-write
/// discipline.
///
/// Addresses allocate upward and are never reused, so an address is an
/// index: blocks live in one slab with a hole where a block was freed or
/// taken. The slab costs 16 bytes per block *ever written* — one frame
/// handle, a block pointer and a slot number, whose `None` is the hole (a
/// keyed tree cost ≈ 30 per *live* block). Over the 77 paper-matrix cells
/// the disk a process ends its run on has `writes ≤ 1.7 × blocks_in_use`
/// (worst: Lisp-Del resident-set pf=0, 607 / 376; PM-Mid pure-copy,
/// 1,298 / 849), and the disk it was excised from is left all holes — at
/// most 3,931 (Lisp-T), 63 KB, until its world is dropped — so holes are
/// not reclaimed. A fork's blocks are slots of the fork's one frame block
/// ([`crate::ImageArena::frames`]), so writing them allocates nothing but
/// the slab's doublings.
///
/// # Examples
///
/// ```
/// use cor_mem::{Disk, page};
///
/// let mut disk = Disk::new();
/// let addr = disk.write_new(page::page_from_bytes(b"block"));
/// assert_eq!(&disk.read(addr).unwrap()[..5], b"block");
/// ```
#[derive(Debug, Default)]
pub struct Disk {
    /// Block `addr` is `blocks[addr]`: `None` once freed or taken.
    blocks: Vec<Option<Frame>>,
    live: usize,
    reads: u64,
    writes: u64,
}

impl Disk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Disk::default()
    }

    /// Allocates a fresh block and writes `data` into it, returning its
    /// address.
    pub fn write_new(&mut self, data: PageData) -> DiskAddr {
        self.write_new_frame(Frame::new(data))
    }

    /// Allocates a fresh block holding `frame` by reference — the zero-copy
    /// page-out path. The frame may be shared with live mappings; the disk
    /// never mutates it.
    pub fn write_new_frame(&mut self, frame: Frame) -> DiskAddr {
        let addr = DiskAddr(self.blocks.len() as u64);
        self.blocks.push(Some(frame));
        self.live += 1;
        self.writes += 1;
        addr
    }

    /// The cell of block `addr`, if the address was ever allocated.
    fn cell(&mut self, addr: DiskAddr) -> Option<&mut Option<Frame>> {
        self.blocks.get_mut(usize::try_from(addr.0).ok()?)
    }

    /// Empties a live block, leaving its address a hole.
    fn release(&mut self, addr: DiskAddr) -> Option<Frame> {
        let frame = self.cell(addr)?.take()?;
        self.live -= 1;
        Some(frame)
    }

    /// Overwrites an existing block (by frame replacement, never in-place
    /// mutation).
    ///
    /// Returns `false` (and stores nothing) if the block was never
    /// allocated or has been released.
    pub fn write(&mut self, addr: DiskAddr, data: PageData) -> bool {
        let Some(Some(frame)) = self.cell(addr) else {
            return false;
        };
        *frame = Frame::new(data);
        self.writes += 1;
        true
    }

    /// Reads a block, returning a copy of its contents.
    pub fn read(&mut self, addr: DiskAddr) -> Option<PageData> {
        let data = self.peek_frame(addr)?.snapshot();
        self.reads += 1;
        Some(data)
    }

    /// The frame stored in a block, without counting a read — host-side
    /// inspection (freezing a process image, checksumming its pages), not a
    /// simulated disk access.
    pub fn peek_frame(&self, addr: DiskAddr) -> Option<&Frame> {
        self.blocks.get(usize::try_from(addr.0).ok()?)?.as_ref()
    }

    /// Reads a block and releases it in one step — the zero-copy page-in:
    /// the caller takes over the disk's reference, so a block written by
    /// [`Disk::write_new_frame`] and taken back never copies its bytes.
    /// Counts as one read.
    pub fn take_frame(&mut self, addr: DiskAddr) -> Option<Frame> {
        let frame = self.release(addr)?;
        self.reads += 1;
        Some(frame)
    }

    /// Releases a block.
    pub fn free(&mut self, addr: DiskAddr) -> bool {
        self.release(addr).is_some()
    }

    /// Number of blocks currently allocated.
    pub fn blocks_in_use(&self) -> usize {
        self.live
    }

    /// Bytes currently stored.
    pub fn bytes_in_use(&self) -> u64 {
        self.live as u64 * PAGE_SIZE
    }

    /// Total reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Total writes serviced (including initial allocations).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

impl fmt::Display for DiskAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "disk#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{page_from_bytes, zero_page};

    #[test]
    fn write_read_roundtrip() {
        let mut d = Disk::new();
        let a = d.write_new(page_from_bytes(b"abc"));
        let b = d.write_new(page_from_bytes(b"xyz"));
        assert_ne!(a, b);
        assert_eq!(&d.read(a).unwrap()[..3], b"abc");
        assert_eq!(&d.read(b).unwrap()[..3], b"xyz");
        assert_eq!(d.reads(), 2);
        assert_eq!(d.writes(), 2);
    }

    #[test]
    fn overwrite_requires_allocation() {
        let mut d = Disk::new();
        assert!(!d.write(DiskAddr(99), zero_page()));
        let a = d.write_new(zero_page());
        assert!(d.write(a, page_from_bytes(b"new")));
        assert_eq!(&d.read(a).unwrap()[..3], b"new");
    }

    #[test]
    fn free_releases_blocks() {
        let mut d = Disk::new();
        let a = d.write_new(zero_page());
        assert_eq!(d.blocks_in_use(), 1);
        assert!(d.free(a));
        assert!(!d.free(a));
        assert_eq!(d.blocks_in_use(), 0);
        assert!(d.read(a).is_none());
    }

    #[test]
    fn frame_roundtrip_is_zero_copy() {
        use crate::page::{alloc_stats, Frame};
        let mut d = Disk::new();
        let frame = Frame::new(page_from_bytes(b"shared"));
        alloc_stats::reset();
        let a = d.write_new_frame(frame.clone());
        assert!(frame.is_shared(), "disk holds the same frame");
        d.peek_frame(a).unwrap().with(|data| assert_eq!(&data[..6], b"shared"));
        let taken = d.take_frame(a).unwrap();
        drop(frame);
        assert!(!taken.is_shared(), "take released the disk's reference");
        assert_eq!(d.reads(), 1);
        assert_eq!(d.blocks_in_use(), 0);
        assert_eq!(alloc_stats::frame_allocs(), 0, "no byte copies");
    }

    #[test]
    fn overwrite_replaces_frame_without_mutating_shares() {
        let mut d = Disk::new();
        let original = crate::page::Frame::new(page_from_bytes(b"old"));
        let a = d.write_new_frame(original.clone());
        assert!(d.write(a, page_from_bytes(b"new")));
        assert_eq!(&d.read(a).unwrap()[..3], b"new");
        original.with(|data| assert_eq!(&data[..3], b"old"));
    }

    #[test]
    fn accounting() {
        let mut d = Disk::new();
        let a = d.write_new(zero_page());
        let _ = d.write_new(zero_page());
        assert_eq!(d.bytes_in_use(), 2 * PAGE_SIZE);
        d.read(a);
        d.read(DiskAddr(1_000_000)); // miss: not counted
        assert_eq!(d.reads(), 1);
    }
}
