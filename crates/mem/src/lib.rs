//! Accent-style virtual memory substrate.
//!
//! This crate implements, from scratch, the memory machinery the paper's
//! copy-on-reference facility is built on (Zayas, SOSP 1987, §2):
//!
//! * 512-byte [`page`]s that carry **real contents** — the simulation moves
//!   actual bytes, so migration correctness is testable, not assumed.
//! * Sparse [`AddressSpace`]s supporting the Accent idiom of validating
//!   enormous regions (Lisp validates its full 4 GB at birth) while only
//!   materializing touched pages. Untouched validated memory is
//!   *RealZeroMem*: conceptually zero-filled, lazily materialized by the
//!   cheap *FillZero* fault.
//! * [`AMap`]s (accessibility maps): coalesced interval maps over the four
//!   memory "distances" of §2.3 — [`Access::RealZero`], [`Access::Real`],
//!   [`Access::Imag`] and [`Access::Bad`].
//! * **Copy-on-write** page sharing: frames are reference counted and a
//!   write to a shared frame performs the deferred 512-byte copy, exactly
//!   the mechanism Accent's IPC uses for large messages (§2.1).
//! * **Imaginary mappings**: pages whose data lives behind an IPC backing
//!   port ([`SegmentId`]); touching one raises [`Fault::Imaginary`].
//! * A simulated local [`Disk`] and an LRU [`resident::ResidentTracker`]
//!   modelling limited physical memory, so each process has a well-defined
//!   resident set at migration time (Table 4-2 of the paper).
//! * A [`SegmentStore`] of backed segments' frames by `(segment, offset)`:
//!   the NetMsgServer's segment cache and every user-level backer.
//!
//! Faults are *returned*, not handled, by this crate: the pager/scheduler in
//! `cor-kernel` interprets them, charges the right service times, and
//! installs pages via the mutators exposed here.

pub mod amap;
pub mod disk;
pub mod error;
pub mod fault;
pub mod page;
pub mod resident;
pub mod space;
mod store;
mod table;

pub use amap::{AMap, AMapEntry, Access};
pub use disk::{Disk, DiskAddr};
pub use error::MemError;
pub use fault::Fault;
pub use page::{Frame, ImageArena, PageData, PageNum, PageRange, VAddr, PAGE_SIZE};
pub use space::{AddressSpace, PageState, SegmentId, SpaceImage, SpaceStats};
pub use store::SegmentStore;
