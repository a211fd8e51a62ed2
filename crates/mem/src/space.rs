//! Sparse process address spaces.
//!
//! An [`AddressSpace`] supports the Accent idioms the paper's evaluation
//! depends on:
//!
//! * **Sparse validation** — validating a range is O(regions), not O(pages):
//!   Lisp validates its full 4 GB at birth (Table 4-1) yet the page table
//!   only ever holds touched pages. Untouched validated pages are
//!   *RealZeroMem* and are materialized by a [`Fault::FillZero`].
//! * **Copy-on-write** — resident pages are reference-counted [`Frame`]s; a
//!   write to a shared frame performs the deferred 512-byte copy.
//! * **Imaginary mappings** — pages may map to a [`SegmentId`] (an IOU for
//!   data behind a backing port); touching one raises [`Fault::Imaginary`].
//! * **Limited physical memory** — an LRU [`ResidentTracker`] pages the
//!   least recently used page out to the local [`Disk`] when a configured
//!   frame budget is exceeded, giving each process a meaningful resident
//!   set at migration time (Table 4-2).
//!
//! The page table is one ascending vector of the materialized pages,
//! searched by binary search; a state change (fault service, page-out) is
//! one search and an in-place write. Installing above the highest
//! materialized page appends; installing below it costs a `memmove` of the
//! pages above. The spaces built whole — a fork ([`SpaceImage::thaw`]), a
//! process insertion ([`AddressSpace::from_amap`]) and a blueprint's image
//! ([`AddressSpace::from_installs`]) — sort their pages first and insert
//! none. The only entries the paper workloads add after that are the PM
//! zero-fills, which land above the highest page in every trial of
//! `experiments all`; a PM space has at most 1,857 pages, which bounds any
//! `memmove` there.

use std::fmt;

use cor_sim::lru::Slot;
use cor_sim::IdMap;

use crate::amap::{AMap, Access};
use crate::disk::{Disk, DiskAddr};
use crate::error::MemError;
use crate::fault::Fault;
use crate::page::{Frame, ImageArena, PageData, PageNum, PageRange, VAddr, PAGE_SIZE};
use crate::resident::ResidentTracker;
use crate::table::PageTable;

/// Identifies an imaginary segment (a memory object served through a
/// backing IPC port). Allocation and the backing protocol live in
/// `cor-ipc`; the address space only records which segment a page owes its
/// data to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u64);

/// Where one materialized page's data currently lives: 24 bytes.
#[derive(Debug, Clone)]
pub enum PageState {
    /// In physical memory. The frame may be shared copy-on-write. The
    /// slot is the page's place in its space's LRU order, so a hit
    /// refreshes it and a page-out removes it without a second index.
    Resident(Frame, Slot),
    /// Paged out to the local disk.
    OnDisk(DiskAddr),
    /// Owed by an imaginary segment: the page's data is `offset` pages into
    /// segment `seg` and must be fetched through its backing port.
    Imaginary {
        /// The owing segment.
        seg: SegmentId,
        /// Page offset within the segment.
        offset: u64,
    },
}

impl PageState {
    /// A resident page as a bulk constructor takes it
    /// ([`AddressSpace::from_installs`], [`AddressSpace::from_amap`]),
    /// which links it into the LRU order.
    pub fn resident(frame: Frame) -> Self {
        PageState::Resident(frame, Slot::default())
    }
}

/// Byte-level composition of an address space, as reported in Table 4-1 of
/// the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpaceStats {
    /// Allocated, non-zero data (*RealMem*): resident plus paged-out bytes.
    pub real_bytes: u64,
    /// Allocated but never touched (*RealZeroMem*).
    pub realzero_bytes: u64,
    /// Bytes owed by imaginary segments (*ImagMem*).
    pub imag_bytes: u64,
    /// Bytes currently resident in physical memory.
    pub resident_bytes: u64,
}

impl SpaceStats {
    /// Total validated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.real_bytes + self.realzero_bytes + self.imag_bytes
    }

    /// RealZeroMem share of the total, as a percentage.
    pub fn realzero_pct(&self) -> f64 {
        if self.total_bytes() == 0 {
            0.0
        } else {
            100.0 * self.realzero_bytes as f64 / self.total_bytes() as f64
        }
    }
}

/// A sparse virtual address space.
#[derive(Default)]
pub struct AddressSpace {
    /// Sorted, disjoint, non-adjacent validated page ranges.
    regions: Vec<(u64, u64)>,
    /// Materialized pages only; a validated page absent from this table is
    /// RealZeroMem.
    pages: PageTable<PageNum, PageState>,
    resident: ResidentTracker,
    zero_fills: u64,
    cow_copies: u64,
    pageouts: u64,
}

impl AddressSpace {
    /// Creates an empty space with unbounded physical memory.
    pub fn new() -> Self {
        AddressSpace::default()
    }

    /// Creates an empty space whose resident set is bounded to
    /// `frame_budget` pages (LRU page-out beyond that).
    pub fn with_frame_budget(frame_budget: usize) -> Self {
        let mut s = AddressSpace::new();
        s.set_frame_budget(Some(frame_budget));
        s
    }

    /// The raw bulk constructor: `pages` ascends, so the page table is
    /// taken over whole instead of built by per-page insertion, and
    /// `resident` holds the resident ones, each under the slot its state
    /// names.
    fn assemble(
        regions: Vec<(u64, u64)>,
        pages: Vec<(PageNum, PageState)>,
        resident: ResidentTracker,
        [zero_fills, cow_copies, pageouts]: [u64; 3],
    ) -> Self {
        AddressSpace {
            regions,
            pages: PageTable::from_sorted(pages),
            resident,
            zero_fills,
            cow_copies,
            pageouts,
        }
    }

    /// Builds, in one pass, what a new space with `frame_budget` holds
    /// after validating `regions` and then installing `pages` in the order
    /// given: a resident page as [`AddressSpace::install_page`] installs it,
    /// an imaginary one as [`AddressSpace::map_imaginary`] maps it, an
    /// on-disk one as it stands (its block already on `disk`). On a new
    /// tracker every install is a first touch, so the LRU victim is always
    /// the oldest resident page: the first `len − budget` resident installs
    /// spill to `disk` in install order, each frame moved to a fresh block
    /// and counted as a page-out, and the rest, in install order, are the
    /// LRU order. `pages` may come in any page order; it is sorted once.
    ///
    /// # Errors
    ///
    /// [`MemError::NotFresh`] if a page is installed twice; `disk` then
    /// already holds the refused build's spilled blocks.
    pub fn from_installs(
        regions: impl IntoIterator<Item = PageRange>,
        mut pages: Vec<(PageNum, PageState)>,
        frame_budget: Option<usize>,
        disk: &mut Disk,
    ) -> Result<Self, MemError> {
        let resident = pages
            .iter()
            .filter(|(_, s)| matches!(s, PageState::Resident(..)))
            .count();
        let spill = frame_budget.map_or(0, |budget| resident.saturating_sub(budget));
        // Room for every page that may become resident, up to the budget,
        // so the LRU slab does not grow page by page as owed pages fault in.
        let room = frame_budget.map_or(pages.len(), |budget| budget.min(pages.len()));
        let mut lru = ResidentTracker::sized(frame_budget, room);
        let mut spilling = spill;
        for (page, state) in &mut pages {
            match state {
                PageState::Resident(frame, _) if spilling > 0 => {
                    spilling -= 1;
                    let frame = frame.clone();
                    *state = PageState::OnDisk(disk.write_new_frame(frame));
                }
                PageState::Resident(_, slot) => *slot = lru.push(*page),
                PageState::OnDisk(_) | PageState::Imaginary { .. } => {}
            }
        }
        // Strictly ascending already (an AMap walk) is one check.
        if !pages.is_sorted_by(|a, b| a.0 < b.0) {
            pages.sort_unstable_by_key(|&(page, _)| page);
            if pages.windows(2).any(|w| w[0].0 == w[1].0) {
                return Err(MemError::NotFresh("a page is installed twice"));
            }
        }
        let regions = validated(regions, &pages);
        let counters = [0, 0, spill as u64];
        Ok(Self::assemble(regions, pages, lru, counters))
    }

    /// Rebuilds the space `amap` was walked off, in one pass — process
    /// insertion replaying the collapse (paper §3.1). `fill(k)` is the state
    /// of the k-th mapped (Real or Imag) page in address order; `None` from
    /// it, or a BadMem entry, yields `None`. The result is what a new space
    /// with `frame_budget` holds after validating every entry and then
    /// `install_page` / `map_imaginary` of each mapped page in turn
    /// ([`AddressSpace::from_installs`], installing in address order).
    pub fn from_amap(
        amap: &AMap,
        mut fill: impl FnMut(u64) -> Option<PageState>,
        frame_budget: Option<usize>,
        disk: &mut Disk,
    ) -> Option<Self> {
        let mapped = amap.bytes_of(Access::Real) + amap.bytes_of(Access::Imag);
        let mut pages = Vec::with_capacity((mapped / PAGE_SIZE) as usize);
        for entry in amap.entries() {
            match entry.access {
                Access::RealZero => {}
                Access::Real | Access::Imag => {
                    for page in entry.range.iter() {
                        pages.push((page, fill(pages.len() as u64)?));
                    }
                }
                Access::Bad => return None,
            }
        }
        let regions = amap.entries().iter().map(|e| e.range);
        Self::from_installs(regions, pages, frame_budget, disk).ok()
    }

    /// Makes room for a run that touches `pages` distinct pages: the page
    /// table and the LRU slab grow once, here, rather than by doubling as
    /// the pages fault in. Pages already materialized count against
    /// `pages`, so a thawed image's exact tables grow by nothing, and the
    /// LRU slab is never sized past the frame budget.
    pub fn reserve(&mut self, pages: usize) {
        let more = pages.saturating_sub(self.pages.len());
        self.pages.reserve(more);
        self.resident.reserve(more);
    }

    /// Adjusts the frame budget (`None` = unbounded).
    pub fn set_frame_budget(&mut self, frames: Option<usize>) {
        self.resident.set_capacity(frames);
    }

    /// The current frame budget (`None` = unbounded).
    pub fn frame_budget(&self) -> Option<usize> {
        self.resident.capacity()
    }

    // ----- validation ------------------------------------------------------

    /// Validates (allocates) the pages covering `[addr, addr+len)`.
    /// Validation is idempotent and merges with adjacent regions; it is
    /// conceptually a zero-fill, deferred until first touch (paper §2.3).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyRange`] when `len` is zero.
    pub fn validate(&mut self, addr: VAddr, len: u64) -> Result<(), MemError> {
        if len == 0 {
            return Err(MemError::EmptyRange);
        }
        let r = PageRange::covering(addr, len);
        self.validate_pages(r);
        Ok(())
    }

    /// Validates a page range directly.
    pub fn validate_pages(&mut self, r: PageRange) {
        if r.is_empty() {
            return;
        }
        let new = (r.start.0, r.end.0);
        // Already inside one region (every page install after the first
        // validation of its region): nothing to merge, nothing to allocate.
        let idx = self.regions.partition_point(|&(_, e)| e <= new.0);
        if self
            .regions
            .get(idx)
            .is_some_and(|&(s, e)| s <= new.0 && new.1 <= e)
        {
            return;
        }
        // Inserted in order, so the coalescing sort is one linear check.
        let at = self.regions.partition_point(|&region| region < new);
        self.regions.insert(at, new);
        coalesce(&mut self.regions);
    }

    /// Whether `page` lies in a validated region.
    pub fn is_validated(&self, page: PageNum) -> bool {
        let idx = self.regions.partition_point(|&(_, e)| e <= page.0);
        self.regions.get(idx).is_some_and(|&(s, _)| s <= page.0)
    }

    /// The validated regions as page ranges.
    pub fn regions(&self) -> Vec<PageRange> {
        self.regions
            .iter()
            .map(|&(s, e)| PageRange::new(PageNum(s), PageNum(e)))
            .collect()
    }

    // ----- classification --------------------------------------------------

    /// Classifies a page into its accessibility class.
    pub fn classify(&self, page: PageNum) -> Access {
        match self.pages.get(page) {
            Some(PageState::Resident(..)) | Some(PageState::OnDisk(_)) => Access::Real,
            Some(PageState::Imaginary { .. }) => Access::Imag,
            None if self.is_validated(page) => Access::RealZero,
            None => Access::Bad,
        }
    }

    /// Builds the accessibility map for the whole space: a walk of the
    /// regions and the page table, coalescing as it goes. This is the
    /// operation whose cost dominates `ExciseProcess` for sparse spaces
    /// (Table 4-4); its *cost model* lives in the kernel crate, keyed on
    /// [`AddressSpace::map_complexity`].
    pub fn amap(&self) -> AMap {
        let mut b = AMap::builder();
        for &(rs, re) in &self.regions {
            let mut cursor = rs;
            for &(p, ref state) in self.pages.range(PageNum(rs), PageNum(re)) {
                if cursor < p.0 {
                    b.push(
                        PageRange::new(PageNum(cursor), p),
                        Access::RealZero,
                        None,
                        0,
                    );
                }
                let one = PageRange::new(p, PageNum(p.0 + 1));
                match state {
                    PageState::Resident(..) | PageState::OnDisk(_) => {
                        b.push(one, Access::Real, None, 0)
                    }
                    PageState::Imaginary { seg, offset } => {
                        b.push(one, Access::Imag, Some(*seg), *offset)
                    }
                }
                cursor = p.0 + 1;
            }
            if cursor < re {
                b.push(
                    PageRange::new(PageNum(cursor), PageNum(re)),
                    Access::RealZero,
                    None,
                    0,
                );
            }
        }
        b.finish()
    }

    /// A complexity measure for the AMap construction cost model: the
    /// number of validated regions plus materialized page-table entries the
    /// kernel must walk.
    pub fn map_complexity(&self) -> u64 {
        self.regions.len() as u64 + self.pages.len() as u64
    }

    // ----- access checks (fault detection) ---------------------------------

    /// Checks whether `page` can be read right now; on failure returns the
    /// fault that must be serviced first. A successful check refreshes the
    /// page's LRU recency.
    pub fn check_read(&mut self, page: PageNum) -> Result<(), Fault> {
        self.check(page, false)
    }

    /// Checks whether `page` can be written right now. Performs the
    /// deferred copy-on-write duplication if the page is resident but
    /// shared (counted in [`AddressSpace::cow_copies`]); other states fault
    /// exactly as [`AddressSpace::check_read`].
    ///
    /// Diverging an interned-zero alias is *not* counted as a CoW copy: it
    /// is the deferred materialization of a zero-fill (the pre-interning
    /// pager allocated that page at fault time), not a copy forced by
    /// sharing with another mapping.
    pub fn check_write(&mut self, page: PageNum) -> Result<(), Fault> {
        self.check(page, true)
    }

    /// [`AddressSpace::check_read`], and with `write` the copy-on-write
    /// duplication of [`AddressSpace::check_write`], on one search.
    fn check(&mut self, page: PageNum, write: bool) -> Result<(), Fault> {
        let frame = match self.pages.get_mut(page) {
            Some(PageState::Resident(frame, slot)) => {
                self.resident.refresh(*slot);
                frame
            }
            Some(PageState::OnDisk(addr)) => return Err(Fault::DiskIn { page, addr: *addr }),
            Some(PageState::Imaginary { seg, offset }) => {
                return Err(Fault::Imaginary {
                    page,
                    seg: *seg,
                    offset: *offset,
                })
            }
            None => {
                return Err(if self.is_validated(page) {
                    Fault::FillZero { page }
                } else {
                    Fault::Addressing { addr: page.base() }
                })
            }
        };
        if write && frame.is_shared() {
            let materializing_zero = frame.is_interned_zero();
            *frame = frame.deep_copy();
            if !materializing_zero {
                self.cow_copies += 1;
            }
        }
        Ok(())
    }

    // ----- data access (requires residency) --------------------------------

    /// Reads `buf.len()` bytes starting at `addr`. Every covered page must
    /// be resident (callers service faults from `check_read` first).
    ///
    /// # Errors
    ///
    /// [`MemError::NotResident`] if any covered page is not resident.
    pub fn read(&self, addr: VAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut cursor = addr;
        let mut filled = 0usize;
        while filled < buf.len() {
            let page = cursor.page();
            let off = cursor.page_offset() as usize;
            let n = ((PAGE_SIZE as usize) - off).min(buf.len() - filled);
            match self.pages.get(page) {
                Some(PageState::Resident(frame, _)) => {
                    frame.with(|d| buf[filled..filled + n].copy_from_slice(&d[off..off + n]));
                }
                _ => return Err(MemError::NotResident(page)),
            }
            filled += n;
            cursor = cursor.offset(n as u64);
        }
        Ok(())
    }

    /// Writes `data` starting at `addr`. Every covered page must be
    /// resident and unshared (callers run `check_write` first).
    ///
    /// # Errors
    ///
    /// [`MemError::NotResident`] if a covered page is not resident;
    /// [`MemError::BadState`] if one is still copy-on-write shared.
    pub fn write(&mut self, addr: VAddr, data: &[u8]) -> Result<(), MemError> {
        let mut cursor = addr;
        let mut written = 0usize;
        while written < data.len() {
            let page = cursor.page();
            let off = cursor.page_offset() as usize;
            let n = ((PAGE_SIZE as usize) - off).min(data.len() - written);
            match self.pages.get(page) {
                Some(PageState::Resident(frame, _)) => {
                    if frame.is_shared() {
                        return Err(MemError::BadState(page, "copy-on-write shared"));
                    }
                    frame
                        .with_mut(|d| d[off..off + n].copy_from_slice(&data[written..written + n]));
                }
                _ => return Err(MemError::NotResident(page)),
            }
            written += n;
            cursor = cursor.offset(n as u64);
        }
        Ok(())
    }

    // ----- fault service mutators (called by the pager) --------------------

    /// Services a FillZero fault: materializes `page` as an alias of the
    /// interned zero frame (no allocation; a later write diverges it). May
    /// page out an LRU victim to `disk`.
    ///
    /// # Errors
    ///
    /// [`MemError::NotValidated`] if the page is outside every region;
    /// [`MemError::BadState`] if it is already materialized.
    pub fn fill_zero(&mut self, page: PageNum, disk: &mut Disk) -> Result<(), MemError> {
        if !self.is_validated(page) {
            return Err(MemError::NotValidated(page.base()));
        }
        if self.pages.contains(page) {
            return Err(MemError::BadState(page, "already materialized"));
        }
        self.zero_fills += 1;
        self.install_frame(page, Frame::zeroed(), disk);
        Ok(())
    }

    /// Services a DiskIn fault: brings `page` back from `disk` (freeing the
    /// block) and makes it resident. May page out an LRU victim.
    ///
    /// # Errors
    ///
    /// [`MemError::BadState`] if the page is not in the on-disk state or
    /// the disk block vanished.
    pub fn page_in(&mut self, page: PageNum, disk: &mut Disk) -> Result<(), MemError> {
        let on_disk = self.pages.get_mut(page).and_then(|state| match *state {
            PageState::OnDisk(addr) => Some((state, addr)),
            _ => None,
        });
        let Some((state, addr)) = on_disk else {
            return Err(MemError::BadState(page, "not on disk"));
        };
        // Zero-copy: take over the disk's reference to the frame; no bytes
        // move in either direction of the page-out/page-in roundtrip.
        let frame = disk
            .take_frame(addr)
            .ok_or(MemError::BadState(page, "disk block missing"))?;
        *state = PageState::Resident(frame, self.resident.push(page));
        self.evict_over_budget(disk);
        Ok(())
    }

    /// Services an imaginary fault with an already-framed page, sharing
    /// the frame by reference count instead of copying 512 bytes. The
    /// fetch path hands the reply message's frame straight in; a later
    /// write performs the deferred copy through the normal copy-on-write
    /// machinery ([`AddressSpace::check_write`]).
    ///
    /// # Errors
    ///
    /// [`MemError::BadState`] if the page is not imaginary.
    pub fn satisfy_imaginary_frame(
        &mut self,
        page: PageNum,
        frame: Frame,
        disk: &mut Disk,
    ) -> Result<(), MemError> {
        match self.pages.get_mut(page) {
            Some(state @ PageState::Imaginary { .. }) => {
                *state = PageState::Resident(frame, self.resident.push(page));
            }
            _ => return Err(MemError::BadState(page, "not imaginary")),
        }
        self.evict_over_budget(disk);
        Ok(())
    }

    /// Installs `frame` for `page` unconditionally (used when building
    /// processes and reconstructing them at insertion). The page is
    /// validated if it was not already. May page out an LRU victim.
    pub fn install_page(&mut self, page: PageNum, frame: Frame, disk: &mut Disk) {
        self.validate_pages(PageRange::new(page, PageNum(page.0 + 1)));
        self.install_frame(page, frame, disk);
    }

    /// Installs `data` for `page` directly in the on-disk state (used to
    /// model memory-mapped files whose pages have not been read yet: they
    /// are RealMem, accessible at local-disk cost, but not resident). The
    /// page is validated if needed.
    pub fn install_on_disk(&mut self, page: PageNum, data: PageData, disk: &mut Disk) {
        self.install_on_disk_frame(page, Frame::new(data), disk);
    }

    /// [`AddressSpace::install_on_disk`] with an already-framed page: the
    /// disk block holds `frame` by reference.
    pub fn install_on_disk_frame(&mut self, page: PageNum, frame: Frame, disk: &mut Disk) {
        self.validate_pages(PageRange::new(page, PageNum(page.0 + 1)));
        let addr = disk.write_new_frame(frame);
        let old = self.pages.insert(page, PageState::OnDisk(addr));
        self.forget(old);
    }

    /// Maps `range` to imaginary segment `seg`, with the range's first page
    /// at `base_offset` pages into the segment. The range is validated if
    /// needed. Existing materialized pages in the range are replaced (their
    /// data is owed by the segment now).
    pub fn map_imaginary(&mut self, range: PageRange, seg: SegmentId, base_offset: u64) {
        self.validate_pages(range);
        for (i, page) in range.iter().enumerate() {
            let offset = base_offset + i as u64;
            let state = PageState::Imaginary { seg, offset };
            let old = self.pages.insert(page, state);
            self.forget(old);
        }
    }

    /// Makes `frame` the resident `page`, the most recently used, paging
    /// out the LRU victim if that exceeds the frame budget.
    fn install_frame(&mut self, page: PageNum, frame: Frame, disk: &mut Disk) {
        let slot = match self.pages.get(page) {
            Some(&PageState::Resident(_, slot)) => {
                self.resident.refresh(slot);
                slot
            }
            _ => self.resident.push(page),
        };
        self.pages.insert(page, PageState::Resident(frame, slot));
        self.evict_over_budget(disk);
    }

    /// Drops a replaced page state's place in the LRU order, if it had one.
    fn forget(&mut self, replaced: Option<PageState>) {
        if let Some(PageState::Resident(_, slot)) = replaced {
            self.resident.remove(slot);
        }
    }

    /// Pages out the LRU page if the resident set is over its frame
    /// budget: one page per install, so a budget shrink drains gradually.
    fn evict_over_budget(&mut self, disk: &mut Disk) {
        if let Some(victim) = self.resident.victim() {
            self.page_out(victim, disk);
        }
    }

    /// Forces `page` out to disk (used by tests and by explicit flush
    /// policies). The frame moves to the disk by reference — no byte copy.
    /// No-op unless the page is resident.
    pub fn page_out(&mut self, page: PageNum, disk: &mut Disk) {
        let Some(state) = self.pages.get_mut(page) else {
            return;
        };
        let PageState::Resident(frame, slot) = state else {
            return;
        };
        self.resident.remove(*slot);
        let addr = disk.write_new_frame(frame.clone());
        *state = PageState::OnDisk(addr);
        self.pageouts += 1;
    }

    // ----- inspection -------------------------------------------------------

    /// A copy of `page`'s current contents regardless of where they live
    /// (resident or on disk); `None` for RealZero (all zeros by definition),
    /// imaginary, or invalid pages. Does not refresh LRU recency — this is
    /// the kernel peeking (excision, backing service), not the process
    /// touching memory.
    pub fn peek_page(&self, page: PageNum, disk: &mut Disk) -> Option<PageData> {
        match self.pages.get(page)? {
            PageState::Resident(frame, _) => Some(frame.snapshot()),
            PageState::OnDisk(addr) => disk.read(*addr),
            PageState::Imaginary { .. } => None,
        }
    }

    /// Like [`AddressSpace::peek_page`] but borrows the frame instead of
    /// copying its bytes, and counts no disk read: host-side inspection
    /// (checksums), not a simulated access.
    pub fn peek_frame<'a>(&'a self, page: PageNum, disk: &'a Disk) -> Option<&'a Frame> {
        match self.pages.get(page)? {
            PageState::Resident(frame, _) => Some(frame),
            PageState::OnDisk(addr) => disk.peek_frame(*addr),
            PageState::Imaginary { .. } => None,
        }
    }

    /// The page's raw state, if materialized.
    pub fn page_state(&self, page: PageNum) -> Option<&PageState> {
        self.pages.get(page)
    }

    /// All materialized pages in ascending order.
    pub fn materialized_pages(&self) -> impl Iterator<Item = (PageNum, &PageState)> {
        self.pages.iter().map(|(p, s)| (*p, s))
    }

    /// The materialized pages numbered `from` and above, in ascending
    /// order, found without visiting the ones below.
    pub fn materialized_pages_from(
        &self,
        from: PageNum,
    ) -> impl Iterator<Item = (PageNum, &PageState)> {
        self.pages.range_from(from).iter().map(|(p, s)| (*p, s))
    }

    /// The resident pages in ascending page order.
    pub fn resident_pages(&self) -> Vec<PageNum> {
        self.resident.pages()
    }

    /// The resident pages from least to most recently used: the order in
    /// which the frame budget would page them out.
    pub fn resident_pages_lru(&self) -> Vec<PageNum> {
        self.resident.pages_lru_order()
    }

    /// Composition statistics (Table 4-1 quantities).
    pub fn stats(&self) -> SpaceStats {
        let mut real = 0u64;
        let mut imag = 0u64;
        let mut res = 0u64;
        for (_, state) in self.pages.iter() {
            match state {
                PageState::Resident(..) => {
                    real += PAGE_SIZE;
                    res += PAGE_SIZE;
                }
                PageState::OnDisk(_) => real += PAGE_SIZE,
                PageState::Imaginary { .. } => imag += PAGE_SIZE,
            }
        }
        let total: u64 = self.regions.iter().map(|&(s, e)| (e - s) * PAGE_SIZE).sum();
        SpaceStats {
            real_bytes: real,
            imag_bytes: imag,
            realzero_bytes: total - real - imag,
            resident_bytes: res,
        }
    }

    /// Deferred copy-on-write copies performed so far.
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies
    }

    /// FillZero faults serviced so far.
    pub fn zero_fills(&self) -> u64 {
        self.zero_fills
    }

    /// Pages paged out so far.
    pub fn pageouts(&self) -> u64 {
        self.pageouts
    }
}

/// Sorts `ranges` and merges the overlapping and adjacent ones, leaving
/// them sorted, disjoint and non-adjacent: the form of
/// [`AddressSpace::regions`], whatever order they were validated in.
fn coalesce(ranges: &mut Vec<(u64, u64)>) {
    ranges.sort_unstable();
    ranges.dedup_by(|next, last| {
        let merges = next.0 <= last.1;
        if merges {
            last.1 = last.1.max(next.1);
        }
        merges
    });
}

/// The regions of a space built by validating `ranges` (in any order) and
/// installing `pages` (ascending): a page outside every range validates
/// itself, as [`AddressSpace::install_page`] does.
fn validated(
    ranges: impl IntoIterator<Item = PageRange>,
    pages: &[(PageNum, PageState)],
) -> Vec<(u64, u64)> {
    let mut regions: Vec<(u64, u64)> = Vec::new();
    for r in ranges.into_iter().filter(|r| !r.is_empty()) {
        let (start, end) = (r.start.0, r.end.0);
        match regions.last_mut() {
            // Merged as they arrive while they arrive in order (an AMap's
            // entries do), so the vector stays as short as the result.
            Some(last) if last.0 <= start && start <= last.1 => last.1 = last.1.max(end),
            _ => regions.push((start, end)),
        }
    }
    coalesce(&mut regions);
    let (mut at, mut outside) = (0, Vec::new());
    for &(page, _) in pages {
        at += regions[at..].partition_point(|&(_, e)| e <= page.0);
        if regions.get(at).is_none_or(|&(s, _)| page.0 < s) {
            outside.push((page.0, page.0 + 1));
        }
    }
    if !outside.is_empty() {
        regions.append(&mut outside);
        coalesce(&mut regions);
    }
    regions
}

/// One materialized page of a [`SpaceImage`]: 16 bytes, no frame held.
#[derive(Clone, Copy)]
struct ImagePage {
    page: PageNum,
    /// The arena slot holding the page's bytes.
    slot: u32,
    /// Resident: the page's rank in LRU order (0 = next to be paged out).
    /// Paged out: [`ON_DISK`] | the block's number on the build disk.
    home: u32,
}

/// Tag bit of [`ImagePage::home`].
const ON_DISK: u32 = 1 << 31;

impl ImagePage {
    /// The page's block number on the build disk, if it is paged out.
    fn block(&self) -> Option<usize> {
        (self.home & ON_DISK != 0).then_some((self.home & !ON_DISK) as usize)
    }
}

/// A freshly built address space, frozen: the thing to build once and
/// fork many times.
///
/// The image holds no [`Frame`]s — only the validated regions, a sorted
/// 16-byte-per-page index into an [`ImageArena`], and the counters — so it
/// is `Send + Sync` and can be thawed on any thread. [`SpaceImage::thaw`]
/// returns a space indistinguishable from the one that was frozen: every
/// frame is fresh and unshared (a fork is not a simulated copy-on-write,
/// `cow_copies` does not move), only the host bytes behind the frames are
/// shared until written.
pub struct SpaceImage {
    arena: ImageArena,
    regions: Vec<(u64, u64)>,
    /// Materialized pages in ascending page order.
    pages: Vec<ImagePage>,
    resident: usize,
    frame_budget: Option<usize>,
    zero_fills: u64,
    cow_copies: u64,
    pageouts: u64,
}

impl SpaceImage {
    /// Freezes `space`, which must be *freshly built*: populated only by
    /// validation and page installs of frames from `arena`, on a `disk`
    /// that was empty before and has served nothing else.
    ///
    /// # Errors
    ///
    /// [`MemError::NotFresh`] when that contract is broken: an imaginary
    /// page, a frame not backed by `arena` (foreign, or already written),
    /// or a disk that was read, freed from, or written to by anyone else.
    pub fn freeze(space: &AddressSpace, disk: &Disk, arena: &ImageArena) -> Result<Self, MemError> {
        // As many live blocks as writes, none read: nothing was freed or
        // overwritten, so the live blocks are exactly numbers 0..blocks —
        // which lets `thaw` replay the disk with plain `write_new_frame`s.
        let blocks = disk.blocks_in_use() as u64;
        if (disk.writes(), disk.reads()) != (blocks, 0) || blocks >= u64::from(ON_DISK) {
            return Err(MemError::NotFresh("build disk served other traffic"));
        }
        let lru = space.resident.pages_lru_order();
        let rank: IdMap<PageNum, u32> = lru.iter().copied().zip(0..).collect();
        let mut pages = Vec::with_capacity(space.pages.len());
        // A fork makes one frame per arena slot, so two pages on one slot
        // would thaw as aliases of each other.
        let mut taken = vec![false; arena.len()];
        for &(page, ref state) in space.pages.iter() {
            let (frame, home) = match state {
                PageState::Resident(frame, _) => (Some(frame), rank[&page]),
                PageState::OnDisk(addr) => (disk.peek_frame(*addr), ON_DISK | addr.0 as u32),
                PageState::Imaginary { .. } => (None, 0),
            };
            let slot = frame
                .and_then(|f| f.image_slot(arena))
                .ok_or(MemError::NotFresh("a page's bytes are not in the arena"))?;
            if std::mem::replace(&mut taken[slot as usize], true) {
                return Err(MemError::NotFresh("two pages hold one arena slot"));
            }
            pages.push(ImagePage { page, slot, home });
        }
        if (pages.len() - lru.len()) as u64 != blocks {
            return Err(MemError::NotFresh("build disk holds blocks of no page"));
        }
        Ok(SpaceImage {
            arena: arena.clone(),
            regions: space.regions.clone(),
            pages,
            resident: lru.len(),
            frame_budget: space.frame_budget(),
            zero_fills: space.zero_fills,
            cow_copies: space.cow_copies,
            pageouts: space.pageouts,
        })
    }

    /// A fork of the frozen space, its paged-out pages written to `disk`
    /// as fresh blocks in the order the build wrote them (so block
    /// numbers, `Disk::writes` and `Disk::blocks_in_use` advance exactly
    /// as the incremental build advanced them).
    pub fn thaw(&self, disk: &mut Disk) -> AddressSpace {
        let mut block_slots = vec![0; self.pages.len() - self.resident];
        let mut lru = vec![PageNum(0); self.resident];
        for p in &self.pages {
            match p.block() {
                Some(block) => block_slots[block] = p.slot,
                None => lru[p.home as usize] = p.page,
            }
        }
        let mut resident = ResidentTracker::sized(self.frame_budget, lru.len());
        let lru_slots: Vec<Slot> = lru.into_iter().map(|page| resident.push(page)).collect();
        let frame = self.arena.frames();
        let addrs: Vec<DiskAddr> = block_slots
            .iter()
            .map(|&slot| disk.write_new_frame(frame(slot)))
            .collect();
        let state = |p: &ImagePage| match p.block() {
            Some(block) => PageState::OnDisk(addrs[block]),
            None => PageState::Resident(frame(p.slot), lru_slots[p.home as usize]),
        };
        AddressSpace::assemble(
            self.regions.clone(),
            self.pages.iter().map(|p| (p.page, state(p))).collect(),
            resident,
            [self.zero_fills, self.cow_copies, self.pageouts],
        )
    }

    /// Where `page` was when the space was frozen: `Some(true)` in the
    /// resident set, `Some(false)` paged out, `None` not materialized.
    pub fn residency(&self, page: PageNum) -> Option<bool> {
        let i = self.pages.binary_search_by_key(&page, |p| p.page).ok()?;
        Some(self.pages[i].block().is_none())
    }

    /// Materialized (RealMem) pages.
    pub fn real_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Pages in the resident set.
    pub fn resident_pages(&self) -> u64 {
        self.resident as u64
    }

    /// Validated pages, materialized or not.
    pub fn total_pages(&self) -> u64 {
        self.regions.iter().map(|&(s, e)| e - s).sum()
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.stats();
        f.debug_struct("AddressSpace")
            .field("regions", &self.regions.len())
            .field("materialized", &self.pages.len())
            .field("real_bytes", &st.real_bytes)
            .field("total_bytes", &st.total_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageNum {
        PageNum(n)
    }

    fn ready(space: &mut AddressSpace, disk: &mut Disk, page: PageNum) {
        // Service faults until the page is readable, like a tiny pager.
        loop {
            match space.check_write(page) {
                Ok(()) => return,
                Err(Fault::FillZero { page }) => space.fill_zero(page, disk).unwrap(),
                Err(Fault::DiskIn { page, .. }) => space.page_in(page, disk).unwrap(),
                Err(f) => panic!("unexpected fault {f:?}"),
            }
        }
    }

    #[test]
    fn validation_merging() {
        let mut s = AddressSpace::new();
        s.validate(VAddr(0), 1024).unwrap();
        s.validate(VAddr(4096), 512).unwrap();
        s.validate(VAddr(1024), 3072).unwrap(); // bridges the gap
        assert_eq!(s.regions().len(), 1);
        assert_eq!(s.regions()[0], PageRange::new(p(0), p(9)));
        assert!(s.validate(VAddr(0), 0).is_err());
    }

    #[test]
    fn classification_lifecycle() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        assert_eq!(s.classify(p(0)), Access::RealZero);
        assert_eq!(s.classify(p(4)), Access::Bad);
        ready(&mut s, &mut d, p(0));
        assert_eq!(s.classify(p(0)), Access::Real);
        s.map_imaginary(PageRange::new(p(2), p(3)), SegmentId(7), 5);
        assert_eq!(s.classify(p(2)), Access::Imag);
    }

    #[test]
    fn first_touch_is_fillzero_then_reads_zeros() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), PAGE_SIZE).unwrap();
        match s.check_read(p(0)) {
            Err(Fault::FillZero { page }) => assert_eq!(page, p(0)),
            other => panic!("expected FillZero, got {other:?}"),
        }
        s.fill_zero(p(0), &mut d).unwrap();
        assert!(s.check_read(p(0)).is_ok());
        let mut buf = [1u8; 16];
        s.read(VAddr(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.zero_fills(), 1);
    }

    #[test]
    fn write_read_roundtrip_across_pages() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 3 * PAGE_SIZE).unwrap();
        for i in 0..3 {
            ready(&mut s, &mut d, p(i));
        }
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        s.write(VAddr(300), &data).unwrap(); // spans pages 0..3
        let mut back = vec![0u8; 1000];
        s.read(VAddr(300), &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn unresident_data_access_errors() {
        let mut s = AddressSpace::new();
        s.validate(VAddr(0), PAGE_SIZE).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(VAddr(0), &mut buf), Err(MemError::NotResident(p(0))));
        assert_eq!(s.write(VAddr(0), &buf), Err(MemError::NotResident(p(0))));
    }

    #[test]
    fn addressing_error_on_unvalidated() {
        let mut s = AddressSpace::new();
        match s.check_read(p(9)) {
            Err(Fault::Addressing { addr }) => assert_eq!(addr, p(9).base()),
            other => panic!("expected Addressing, got {other:?}"),
        }
    }

    #[test]
    fn cow_write_copies_shared_frame() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let frame = Frame::new(crate::page::page_from_bytes(b"shared"));
        let alias = frame.clone();
        s.install_page(p(0), frame, &mut d);
        assert!(s.check_read(p(0)).is_ok(), "shared frames are readable");
        assert_eq!(s.cow_copies(), 0);
        s.check_write(p(0)).unwrap();
        assert_eq!(s.cow_copies(), 1);
        s.write(VAddr(0), b"WRITED").unwrap();
        // The alias (the "sender's copy") is untouched: deferred copy done.
        alias.with(|d| assert_eq!(&d[..6], b"shared"));
        let mut buf = [0u8; 6];
        s.read(VAddr(0), &mut buf).unwrap();
        assert_eq!(&buf, b"WRITED");
    }

    #[test]
    fn write_to_shared_frame_without_check_is_rejected() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let frame = Frame::zeroed();
        let _alias = frame.clone();
        s.install_page(p(0), frame, &mut d);
        assert!(matches!(
            s.write(VAddr(0), b"x"),
            Err(MemError::BadState(_, _))
        ));
    }

    #[test]
    fn frame_budget_pages_out_lru_and_pages_back_in() {
        let mut s = AddressSpace::with_frame_budget(2);
        let mut d = Disk::new();
        s.validate(VAddr(0), 3 * PAGE_SIZE).unwrap();
        for i in 0..3 {
            ready(&mut s, &mut d, p(i));
            s.write(p(i).base(), &[i as u8 + 1; 8]).unwrap();
        }
        // Page 0 was LRU and went to disk.
        assert_eq!(s.classify(p(0)), Access::Real);
        assert!(matches!(s.page_state(p(0)), Some(PageState::OnDisk(_))));
        assert_eq!(s.pageouts(), 1);
        match s.check_read(p(0)) {
            Err(Fault::DiskIn { .. }) => {}
            other => panic!("expected DiskIn, got {other:?}"),
        }
        ready(&mut s, &mut d, p(0));
        let mut buf = [0u8; 8];
        s.read(VAddr(0), &mut buf).unwrap();
        assert_eq!(buf, [1u8; 8], "contents survive the disk round trip");
    }

    #[test]
    fn imaginary_fault_and_satisfaction() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        let seg = SegmentId(3);
        s.map_imaginary(PageRange::new(p(10), p(12)), seg, 100);
        match s.check_read(p(11)) {
            Err(Fault::Imaginary {
                page,
                seg: got,
                offset,
            }) => {
                assert_eq!((page, got, offset), (p(11), seg, 101));
            }
            other => panic!("expected Imaginary, got {other:?}"),
        }
        let owed = Frame::new(crate::page::page_from_bytes(b"owed"));
        s.satisfy_imaginary_frame(p(11), owed, &mut d).unwrap();
        assert!(s.check_read(p(11)).is_ok());
        let mut buf = [0u8; 4];
        s.read(p(11).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"owed");
        // Page 10 is still imaginary.
        assert_eq!(s.classify(p(10)), Access::Imag);
    }

    #[test]
    fn satisfy_imaginary_frame_shares_until_written() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.map_imaginary(PageRange::new(p(0), p(1)), SegmentId(1), 0);
        let frame = Frame::new(crate::page::page_from_bytes(b"wire"));
        let senders_copy = frame.clone();
        s.satisfy_imaginary_frame(p(0), frame, &mut d).unwrap();
        let mut buf = [0u8; 4];
        s.check_read(p(0)).unwrap();
        s.read(p(0).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"wire", "no byte copy needed to read");
        assert_eq!(s.cow_copies(), 0, "install itself copies nothing");
        // A write triggers the deferred copy; the sender's cache survives.
        s.check_write(p(0)).unwrap();
        assert_eq!(s.cow_copies(), 1);
        s.write(p(0).base(), b"MINE").unwrap();
        senders_copy.with(|d| assert_eq!(&d[..4], b"wire"));
        // Non-imaginary pages are rejected.
        assert!(matches!(
            s.satisfy_imaginary_frame(p(0), Frame::zeroed(), &mut d),
            Err(MemError::BadState(_, _))
        ));
    }

    #[test]
    fn stats_track_composition() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 10 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(0));
        ready(&mut s, &mut d, p(1));
        s.page_out(p(0), &mut d);
        s.map_imaginary(PageRange::new(p(5), p(7)), SegmentId(1), 0);
        let st = s.stats();
        assert_eq!(st.real_bytes, 2 * PAGE_SIZE);
        assert_eq!(st.resident_bytes, PAGE_SIZE);
        assert_eq!(st.imag_bytes, 2 * PAGE_SIZE);
        assert_eq!(st.realzero_bytes, 6 * PAGE_SIZE);
        assert_eq!(st.total_bytes(), 10 * PAGE_SIZE);
        assert!((st.realzero_pct() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn amap_reflects_space() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.validate(VAddr(0), 8 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(2));
        ready(&mut s, &mut d, p(3));
        s.map_imaginary(PageRange::new(p(5), p(6)), SegmentId(9), 4);
        let m = s.amap();
        assert!(m.verify().is_ok());
        assert_eq!(m.lookup(p(0)).0, Access::RealZero);
        assert_eq!(m.lookup(p(2)).0, Access::Real);
        assert_eq!(m.lookup(p(3)).0, Access::Real);
        assert_eq!(m.lookup(p(5)), (Access::Imag, Some((SegmentId(9), 4))));
        assert_eq!(m.lookup(p(7)).0, Access::RealZero);
        assert_eq!(m.lookup(p(8)).0, Access::Bad);
        assert_eq!(m.bytes_of(Access::Real), 2 * PAGE_SIZE);
        // Real pages at 2,3 coalesce into one run.
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn peek_reads_without_lru_effect() {
        let mut s = AddressSpace::with_frame_budget(2);
        let mut d = Disk::new();
        s.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        ready(&mut s, &mut d, p(0));
        s.write(VAddr(0), b"zero").unwrap();
        ready(&mut s, &mut d, p(1));
        // Peeking page 0 must NOT make it recently-used...
        assert_eq!(&s.peek_page(p(0), &mut d).unwrap()[..4], b"zero");
        // ...so materializing page 2 evicts page 0, not page 1.
        ready(&mut s, &mut d, p(2));
        assert!(matches!(s.page_state(p(0)), Some(PageState::OnDisk(_))));
        // And peek still reads it from disk.
        assert_eq!(&s.peek_page(p(0), &mut d).unwrap()[..4], b"zero");
        assert_eq!(s.peek_page(p(3), &mut d), None, "RealZero has no data");
    }

    #[test]
    fn install_on_disk_models_unread_file_pages() {
        let mut s = AddressSpace::new();
        let mut d = Disk::new();
        s.install_on_disk(p(4), crate::page::page_from_bytes(b"file"), &mut d);
        assert_eq!(s.classify(p(4)), Access::Real);
        assert_eq!(s.stats().resident_bytes, 0);
        match s.check_read(p(4)) {
            Err(Fault::DiskIn { .. }) => {}
            other => panic!("expected DiskIn, got {other:?}"),
        }
        ready(&mut s, &mut d, p(4));
        let mut buf = [0u8; 4];
        s.read(p(4).base(), &mut buf).unwrap();
        assert_eq!(&buf, b"file");
    }

    #[test]
    fn freeze_refuses_spaces_that_are_not_freshly_built() {
        use crate::page::page_from_bytes;
        let arena = ImageArena::new(vec![*page_from_bytes(b"a"), *page_from_bytes(b"b")]);
        let fresh = || {
            let (mut s, mut d) = (AddressSpace::with_frame_budget(1), Disk::new());
            s.install_page(p(0), arena.frames()(0), &mut d);
            s.install_page(p(1), arena.frames()(1), &mut d); // pages 0 out
            (s, d)
        };
        let refused = |s: &AddressSpace, d: &Disk| {
            matches!(SpaceImage::freeze(s, d, &arena), Err(MemError::NotFresh(_)))
        };
        let (s, d) = fresh();
        let image = SpaceImage::freeze(&s, &d, &arena).unwrap();
        assert_eq!((image.real_pages(), image.resident_pages()), (2, 1));
        let residency = [p(0), p(1), p(2)].map(|page| image.residency(page));
        assert_eq!(residency, [Some(false), Some(true), None]);

        let (mut s, d) = fresh();
        s.map_imaginary(PageRange::new(p(5), p(6)), SegmentId(1), 0);
        assert!(refused(&s, &d), "imaginary page");
        let (mut s, mut d) = fresh();
        s.install_page(p(2), Frame::zeroed(), &mut d);
        assert!(refused(&s, &d), "frame from outside the arena");
        let (mut s, d) = fresh();
        s.check_write(p(1)).unwrap();
        s.write(p(1).base(), b"x").unwrap();
        assert!(refused(&s, &d), "written frame");
        let (mut s, mut d) = fresh();
        s.install_page(p(0), arena.frames()(0), &mut d);
        assert!(refused(&s, &d), "re-installed page strands its old block");
        let (mut s, mut d) = fresh();
        s.install_page(p(2), arena.frames()(1), &mut d);
        assert!(refused(&s, &d), "two pages on one arena slot");
        let (mut s, mut d) = fresh();
        ready(&mut s, &mut d, p(0));
        assert!(refused(&s, &d), "disk was read");
    }
}
