//! Pages, addresses, and reference-counted frames.
//!
//! Accent used 512-byte pages (§2.1 of the paper); every quantity in the
//! evaluation (resident sets, prefetch units, fault granularity) is in these
//! units, so the page size is a crate-wide constant rather than a parameter.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// The Accent page size in bytes.
pub const PAGE_SIZE: u64 = 512;

/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 9;

/// A virtual address within a (up to 4 GB, as on the Perq) address space.
///
/// Addresses are 64-bit here so that arithmetic never overflows even for the
/// Lisp workloads that validate their entire 4 GB space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A virtual page number: `addr >> 9`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageNum(pub u64);

impl VAddr {
    /// The page containing this address.
    pub const fn page(self) -> PageNum {
        PageNum(self.0 >> PAGE_SHIFT)
    }

    /// The byte offset of this address within its page.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Address arithmetic.
    pub const fn offset(self, delta: u64) -> VAddr {
        VAddr(self.0 + delta)
    }
}

impl PageNum {
    /// The first address of this page.
    pub const fn base(self) -> VAddr {
        VAddr(self.0 << PAGE_SHIFT)
    }

    /// The page `delta` pages after this one.
    pub const fn offset(self, delta: u64) -> PageNum {
        PageNum(self.0 + delta)
    }
}

/// A half-open range of pages `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page in the range.
    pub start: PageNum,
    /// One past the last page.
    pub end: PageNum,
}

impl PageRange {
    /// Creates a range; `start` may equal `end` (empty range).
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: PageNum, end: PageNum) -> Self {
        assert!(start <= end, "inverted page range");
        PageRange { start, end }
    }

    /// The smallest page range covering `[addr, addr + len)`.
    pub fn covering(addr: VAddr, len: u64) -> Self {
        if len == 0 {
            let p = addr.page();
            return PageRange::new(p, p);
        }
        let start = addr.page();
        let last = VAddr(addr.0 + len - 1).page();
        PageRange::new(start, PageNum(last.0 + 1))
    }

    /// Number of pages in the range.
    pub fn len(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// `true` when the range contains no pages.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Number of bytes spanned.
    pub fn bytes(&self) -> u64 {
        self.len() * PAGE_SIZE
    }

    /// Whether `page` lies within the range.
    pub fn contains(&self, page: PageNum) -> bool {
        self.start <= page && page < self.end
    }

    /// Iterator over the pages in the range.
    pub fn iter(&self) -> impl Iterator<Item = PageNum> {
        (self.start.0..self.end.0).map(PageNum)
    }
}

/// The raw bytes of one page.
pub type PageBytes = [u8; PAGE_SIZE as usize];

/// The contents of one page, privately owned.
pub type PageData = Box<PageBytes>;

/// Allocates a zero-filled page.
pub fn zero_page() -> PageData {
    Box::new([0u8; PAGE_SIZE as usize])
}

/// Allocates a page initialized from `bytes` (zero-padded, truncated to the
/// page size).
pub fn page_from_bytes(bytes: &[u8]) -> PageData {
    Box::new(padded(bytes))
}

/// `bytes` zero-padded, or truncated, to one page.
fn padded(bytes: &[u8]) -> PageBytes {
    let mut page = [0; PAGE_SIZE as usize];
    let n = bytes.len().min(PAGE_SIZE as usize);
    page[..n].copy_from_slice(&bytes[..n]);
    page
}

/// A reference-counted physical frame.
///
/// The share count *is* the copy-on-write reference count: a frame with
/// `Frame::is_shared() == true` must be copied before being written.
/// This is the deferred-copy machinery of Accent's IPC (§2.1): mapping
/// message data into a receiver clones the handle, and the 512-byte copy
/// happens only when either party writes.
///
/// A handle is 16 bytes. An *owned* frame ([`Frame::new`],
/// [`Frame::deep_copy`], the interned zero page) is one allocation holding
/// its count and bytes, so a diverging write costs one allocation.
/// An *image* frame is a slot, with its own share count, of the one block
/// a process-image fork makes ([`ImageArena::frames`]), so a thaw costs
/// O(1) allocations — μFork's "share the structure, copy on divergence"
/// (PAPERS.md) applied to the frame handles themselves.
pub struct Frame(Handle);

/// The two kinds of frame handle.
enum Handle {
    /// Slot `u32` of a block of image frames.
    Image(Rc<FrameBlock>, u32),
    /// A frame that owns its bytes; the `Rc`'s strong count is its share
    /// count.
    Owned(Rc<OwnedFrame>),
}

/// An owned frame's one allocation.
struct OwnedFrame {
    bytes: RefCell<PageBytes>,
}

/// The shared allocation behind a fork's image frames: the image their
/// unwritten slots read from, and a slot per arena page (the handle's slot
/// number is the arena slot).
struct FrameBlock {
    arena: ImageArena,
    slots: Box<[Slot]>,
}

/// One image frame's state inside its block: 24 bytes.
#[derive(Default)]
struct Slot {
    /// Live handles to this slot.
    count: Cell<u32>,
    /// The slot's own host bytes, copied out of the arena by the first
    /// write; `None` while they are still the arena's. This is a level
    /// *below* the simulated frame: two unrelated frames — in different
    /// forks of one process image, on different threads — may read the
    /// same arena bytes, and the first write copies them private.
    bytes: RefCell<Option<PageData>>,
}

/// An immutable, atomically reference-counted block of page bytes: the
/// host memory behind every fork of one frozen process image (see
/// `SpaceImage`). One allocation holds every page; frames made by
/// [`ImageArena::frames`] point into it instead of owning 512 bytes each,
/// and the arena is `Send + Sync`, so forks on `cor-pool` workers share
/// it although frames themselves never cross threads.
#[derive(Clone)]
pub struct ImageArena(Arc<Vec<PageBytes>>);

impl ImageArena {
    /// Freezes `pages` as an arena; slot `i` holds `pages[i]`. The vector
    /// is moved, not copied.
    pub fn new(pages: Vec<PageBytes>) -> Self {
        ImageArena(Arc::new(pages))
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// A frame factory for one fork: `frames()(slot)` is a fresh, unshared
    /// frame whose bytes are slot `slot` of the arena. The factory makes
    /// one frame block with a slot per arena page, so the fork's frames
    /// cost two allocations between them, whatever its page count; no
    /// page-sized allocation happens (and none is counted in
    /// `alloc_stats`) until a frame is first written. The atomic count all
    /// workers contend on moves once per fork, not once per page.
    ///
    /// # Panics
    ///
    /// The factory panics on a slot that is out of range, or that it
    /// handed out before and some handle still holds.
    pub fn frames(&self) -> impl Fn(u32) -> Frame {
        let block = Rc::new(FrameBlock {
            arena: self.clone(),
            slots: (0..self.len()).map(|_| Slot::default()).collect(),
        });
        move |slot| {
            let count = &block.slots[slot as usize].count;
            assert_eq!(count.get(), 0, "arena slot {slot} is already a live frame");
            count.set(1);
            Frame(Handle::Image(Rc::clone(&block), slot))
        }
    }
}

thread_local! {
    /// The interned zero frame: one canonical all-zeros page per thread
    /// (frames are `Rc`-based and never cross threads). Every
    /// [`Frame::zeroed`] call aliases it, so validating or zero-filling
    /// megabytes of RealZeroMem costs reference bumps, not allocations;
    /// the first write diverges through the normal deferred-copy path.
    static ZERO_FRAME: Frame = Frame::owned([0; PAGE_SIZE as usize]);
}

/// A thread-local pool of recycled `Vec<Frame>` buffers for message
/// assembly on the COR reply hot path. Serving a read request builds a
/// frame vector, ships it inside the reply, and the consumer drains it
/// at install time; [`frame_pool::give`] returns the drained (or
/// emptied) vector here so the next reply assembles into warmed
/// capacity instead of a fresh heap allocation. Purely an allocator
/// shortcut: pooled vectors are always handed out empty, so behaviour
/// is identical to `Vec::new`.
pub mod frame_pool {
    use std::cell::RefCell;

    use super::Frame;

    /// Upper bound on pooled buffers per thread; beyond it, returned
    /// vectors are simply dropped. Above the deepest reply backlog the
    /// open-loop fault-service cells build (a few hundred replies queued
    /// at once), so a drained backlog refills without allocating.
    const MAX_POOLED: usize = 1024;

    thread_local! {
        static POOL: RefCell<Vec<Vec<Frame>>> = const { RefCell::new(Vec::new()) };
    }

    /// Takes an empty frame vector with at least `cap` capacity,
    /// reusing a pooled buffer when one is available: the most recently
    /// pooled one that fits, so a wide batched reply looks past one-page
    /// buffers instead of growing one of them.
    pub fn take(cap: usize) -> Vec<Frame> {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            let fits = pool.iter().rposition(|v| v.capacity() >= cap);
            match fits.map(|i| pool.swap_remove(i)).or_else(|| pool.pop()) {
                Some(mut v) => {
                    v.reserve(cap);
                    v
                }
                None => Vec::with_capacity(cap),
            }
        })
    }

    /// Returns a spent frame vector to the pool (cleared first; frame
    /// refcounts drop as usual).
    pub fn give(mut v: Vec<Frame>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < MAX_POOLED {
                pool.push(v);
            }
        });
    }
}

/// Frame-allocation counters, compiled in for tests and for builds with the
/// `alloc-stats` feature. They let benchmarks and regression tests assert
/// the zero-copy pipeline's claim directly: sparse workloads must allocate
/// O(pages touched) frames, not O(address-space size).
#[cfg(any(test, feature = "alloc-stats"))]
pub mod alloc_stats {
    use std::cell::Cell;

    thread_local! {
        static FRAME_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn record_alloc() {
        FRAME_ALLOCS.with(|c| c.set(c.get() + 1));
    }

    /// Fresh page-sized frame allocations on this thread since the last
    /// [`reset`]. Interned-zero clones, CoW `Rc` shares and image-backed
    /// frames ([`super::ImageArena::frames`]: no bytes are allocated) do
    /// not count; the first write to an image-backed frame, which copies
    /// its 512 bytes out of the arena, does.
    pub fn frame_allocs() -> u64 {
        FRAME_ALLOCS.with(|c| c.get())
    }

    /// Zeroes this thread's allocation counter.
    pub fn reset() {
        FRAME_ALLOCS.with(|c| c.set(0));
    }
}

impl Frame {
    /// An owned frame holding `bytes`: one allocation.
    fn owned(bytes: PageBytes) -> Frame {
        Frame(Handle::Owned(Rc::new(OwnedFrame {
            bytes: RefCell::new(bytes),
        })))
    }

    /// `true` when `self` and `other` are handles to the same frame.
    fn is(&self, other: &Frame) -> bool {
        match (&self.0, &other.0) {
            (Handle::Image(a, i), Handle::Image(b, j)) => Rc::ptr_eq(a, b) && i == j,
            (Handle::Owned(a), Handle::Owned(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Wraps page data in a frame: an owned frame, one allocation.
    pub fn new(data: PageData) -> Self {
        #[cfg(any(test, feature = "alloc-stats"))]
        alloc_stats::record_alloc();
        Frame::owned(*data)
    }

    /// An owned frame initialized from `bytes` (zero-padded, truncated to
    /// the page size): what `Frame::new(page_from_bytes(bytes))` makes, in
    /// one allocation instead of a boxed page and then the frame.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        #[cfg(any(test, feature = "alloc-stats"))]
        alloc_stats::record_alloc();
        Frame::owned(padded(bytes))
    }

    /// A zero-filled frame: an alias of the thread's interned zero page.
    ///
    /// The returned frame is permanently shared (the intern itself holds a
    /// reference), so any write through an `AddressSpace` first diverges it
    /// into a private copy — observable behaviour is identical to a fresh
    /// allocation, minus the 512-byte allocate-and-memset per call.
    pub fn zeroed() -> Self {
        ZERO_FRAME.with(Frame::clone)
    }

    /// `true` when this frame is an alias of the interned zero page.
    pub fn is_interned_zero(&self) -> bool {
        ZERO_FRAME.with(|z| z.is(self))
    }

    /// `true` when more than one mapping references this frame, i.e. a write
    /// must first perform the deferred copy.
    pub fn is_shared(&self) -> bool {
        self.count() > 1
    }

    /// Live handles to this frame.
    fn count(&self) -> usize {
        match &self.0 {
            Handle::Image(block, slot) => block.slots[*slot as usize].count.get() as usize,
            Handle::Owned(own) => Rc::strong_count(own),
        }
    }

    /// Copies the frame contents into a brand-new unshared frame: an owned
    /// frame, so the copy costs one allocation — the page's bytes and its
    /// count together.
    pub fn deep_copy(&self) -> Frame {
        #[cfg(any(test, feature = "alloc-stats"))]
        alloc_stats::record_alloc();
        self.with(|d| Frame::owned(*d))
    }

    /// Reads the whole page into a fresh buffer.
    pub fn snapshot(&self) -> PageData {
        self.with(|d| Box::new(*d))
    }

    /// The arena slot behind this frame, if its bytes are still backed by
    /// `arena` (i.e. it came from [`ImageArena::frames`] on that arena and
    /// has not been written since).
    pub fn image_slot(&self, arena: &ImageArena) -> Option<u32> {
        let Handle::Image(block, slot) = &self.0 else {
            return None;
        };
        let unwritten = block.slots[*slot as usize].bytes.borrow().is_none();
        (unwritten && Arc::ptr_eq(&block.arena.0, &arena.0)).then_some(*slot)
    }

    /// [`page_hash`] of the page contents, walked on every call: a
    /// fingerprint for tests and benchmarks. No simulator path calls it — a
    /// NetMsgServer names every page it holds by `(segment, offset)`.
    /// Equal pages always collide; unequal pages practically never do,
    /// so confirm with [`Frame::same_contents`] where it matters.
    pub fn content_hash(&self) -> u64 {
        self.with(page_hash)
    }

    /// Byte-for-byte equality of two frames (constant-time `true` for two
    /// aliases of the same frame).
    pub fn same_contents(&self, other: &Frame) -> bool {
        self.is(other) || self.with(|a| other.with(|b| a[..] == b[..]))
    }

    /// Runs `f` over the page contents.
    pub fn with<R>(&self, f: impl FnOnce(&PageBytes) -> R) -> R {
        match &self.0 {
            Handle::Image(block, slot) => match &*block.slots[*slot as usize].bytes.borrow() {
                Some(data) => f(data),
                None => f(&block.arena.0[*slot as usize]),
            },
            Handle::Owned(own) => f(&own.bytes.borrow()),
        }
    }

    /// Runs `f` over the mutable page contents.
    ///
    /// Callers must only do this on unshared frames (enforced by
    /// `AddressSpace`, which copies shared frames first); mutating a shared
    /// frame would violate copy-on-write semantics, though it cannot violate
    /// memory safety. An image frame first copies its bytes out of the
    /// arena into its slot — a host-level divergence no simulation counter
    /// sees.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut PageBytes) -> R) -> R {
        match &self.0 {
            Handle::Image(block, slot) => {
                let mut bytes = block.slots[*slot as usize].bytes.borrow_mut();
                f(bytes.get_or_insert_with(|| {
                    #[cfg(any(test, feature = "alloc-stats"))]
                    alloc_stats::record_alloc();
                    Box::new(block.arena.0[*slot as usize])
                }))
            }
            Handle::Owned(own) => f(&mut own.bytes.borrow_mut()),
        }
    }
}

impl Clone for Frame {
    fn clone(&self) -> Self {
        Frame(match &self.0 {
            Handle::Image(block, slot) => {
                let count = &block.slots[*slot as usize].count;
                count.set(count.get() + 1);
                Handle::Image(Rc::clone(block), *slot)
            }
            Handle::Owned(own) => Handle::Owned(Rc::clone(own)),
        })
    }
}

impl Drop for Frame {
    /// Releases this handle. An image slot's last handle frees the slot's
    /// private bytes at once, not when the block goes: the slot's
    /// neighbours may keep the block alive for the rest of the run, and a
    /// factory that hands the slot out again hands out a fresh frame. An
    /// owned frame goes with its `Rc`.
    fn drop(&mut self) {
        let Handle::Image(block, slot) = &self.0 else {
            return;
        };
        let cell = &block.slots[*slot as usize];
        let count = cell.count.get() - 1;
        cell.count.set(count);
        if count == 0 {
            drop(cell.bytes.take());
        }
    }
}

/// Hashes a page as its 64 little-endian words, four at a time: four
/// independent lanes (so the multiplies pipeline instead of waiting on
/// each other as a byte-serial walk's do), each a folded multiply — the
/// 128-bit product's halves xored, so a change in any byte of a word
/// reaches every byte of the lane and the next word cannot cancel it —
/// with its own multiplier (so words moving between lanes change the
/// result), folded and finalised with two xor-shift-multiplies. Only
/// this process ever sees the value: it is in no wire byte or output.
///
/// Reads every byte on each call.
pub fn page_hash(bytes: &PageBytes) -> u64 {
    const K: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0xd6e8_feb8_6659_fd93,
    ];
    let mut lanes = K;
    for quad in bytes.chunks_exact(32) {
        for ((lane, k), word) in lanes.iter_mut().zip(K).zip(quad.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("chunks_exact(8)"));
            let product = u128::from(*lane ^ w) * u128::from(k);
            *lane = product as u64 ^ (product >> 64) as u64;
        }
    }
    let [a, b, c, d] = lanes;
    let mut h = a ^ b.rotate_left(17) ^ c.rotate_left(31) ^ d.rotate_left(47);
    h = (h ^ (h >> 32)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 29)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 32)
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame(rc={})", self.count())
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#x})", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::Debug for PageNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageNum({})", self.0)
    }
}

impl fmt::Debug for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pages[{}, {})", self.start.0, self.end.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn addr_page_math() {
        assert_eq!(VAddr(0).page(), PageNum(0));
        assert_eq!(VAddr(511).page(), PageNum(0));
        assert_eq!(VAddr(512).page(), PageNum(1));
        assert_eq!(VAddr(513).page_offset(), 1);
        assert_eq!(PageNum(3).base(), VAddr(1536));
    }

    #[test]
    fn covering_ranges() {
        let r = PageRange::covering(VAddr(0), 512);
        assert_eq!((r.start, r.end), (PageNum(0), PageNum(1)));
        let r = PageRange::covering(VAddr(0), 513);
        assert_eq!(r.len(), 2);
        let r = PageRange::covering(VAddr(100), 412);
        assert_eq!(r.len(), 1);
        let r = PageRange::covering(VAddr(100), 413);
        assert_eq!(r.len(), 2);
        let r = PageRange::covering(VAddr(1000), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn range_iteration_and_bytes() {
        let r = PageRange::new(PageNum(2), PageNum(5));
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![PageNum(2), PageNum(3), PageNum(4)]
        );
        assert_eq!(r.bytes(), 3 * PAGE_SIZE);
        assert!(r.contains(PageNum(4)));
        assert!(!r.contains(PageNum(5)));
    }

    #[test]
    fn frame_sharing_and_deep_copy() {
        let f = Frame::new(page_from_bytes(b"hello"));
        assert!(!f.is_shared());
        let g = f.clone();
        assert!(f.is_shared() && g.is_shared());
        let h = g.deep_copy();
        h.with_mut(|d| d[0] = b'H');
        // The copy diverged; the original is untouched.
        f.with(|d| assert_eq!(&d[..5], b"hello"));
        h.with(|d| assert_eq!(&d[..5], b"Hello"));
        drop(g);
        assert!(!f.is_shared());
    }

    #[test]
    fn zeroed_frames_are_interned_aliases() {
        let a = Frame::zeroed();
        let b = Frame::zeroed();
        assert!(a.is_interned_zero() && b.is_interned_zero());
        // Both alias the intern, so both are permanently shared.
        assert!(a.is_shared() && b.is_shared());
        a.with(|d| assert!(d.iter().all(|&x| x == 0)));
    }

    #[test]
    fn alloc_stats_count_fresh_frames_only() {
        alloc_stats::reset();
        let z = Frame::zeroed();
        let _alias = z.clone();
        assert_eq!(alloc_stats::frame_allocs(), 0, "interned + Rc shares");
        let f = Frame::new(zero_page());
        let _ = f.deep_copy();
        assert_eq!(alloc_stats::frame_allocs(), 2);
        let _ = Frame::from_bytes(b"fresh");
        assert_eq!(alloc_stats::frame_allocs(), 3);
    }

    #[test]
    fn from_bytes_holds_what_a_boxed_page_would() {
        let long = [7u8; PAGE_SIZE as usize + 3];
        for bytes in [&b""[..], b"abc", &long] {
            let direct = Frame::from_bytes(bytes);
            let boxed = Frame::new(page_from_bytes(bytes));
            direct.with(|d| boxed.with(|b| assert_eq!(d, b)));
            assert!(!direct.is_shared());
        }
    }

    /// `content_hash` reads the bytes as they are now: an alias agrees,
    /// and a write moves it.
    #[test]
    fn content_hash_follows_every_write() {
        let hash_of = |bytes: &[u8]| Frame::new(page_from_bytes(bytes)).content_hash();
        let f = Frame::new(page_from_bytes(b"abc"));
        assert_eq!(f.clone().content_hash(), hash_of(b"abc"));
        f.with_mut(|d| d[0] = b'x');
        assert_eq!(f.content_hash(), hash_of(b"xbc"));
        assert_ne!(hash_of(b"xbc"), hash_of(b"abc"));
    }

    /// A write through an image frame moves that frame's hash alone, never
    /// the arena's or another fork's.
    #[test]
    fn a_fork_s_write_moves_its_own_hash_only() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ImageArena>();
        assert_send_sync::<crate::space::SpaceImage>();

        let hash_of = |bytes: &[u8]| Frame::new(page_from_bytes(bytes)).content_hash();
        let arena = ImageArena::new(vec![*page_from_bytes(b"one"), *page_from_bytes(b"two")]);
        let (a, b) = (arena.frames()(1), arena.frames()(1));
        assert_eq!(a.content_hash(), hash_of(b"two"));
        a.with_mut(|d| d[0] = b'T');
        assert_eq!(a.content_hash(), hash_of(b"Two"));
        assert_eq!(b.content_hash(), hash_of(b"two"), "the other fork");
        let later = arena.frames()(1);
        assert_eq!(later.content_hash(), hash_of(b"two"), "a later fork");
    }

    /// A weak mix must fail here, not show up as a slow workload: over
    /// pages as the simulator really makes them, no two hashes collide.
    #[test]
    fn page_hash_separates_the_pages_the_simulator_makes() {
        // What a write-touch stores (`cor_kernel::program::write_pattern`).
        fn pattern(addr: u64, op: u64) -> u8 {
            let x = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(op);
            (x.wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 56) as u8
        }
        let written = |page: u64, op: u64| -> PageBytes {
            std::array::from_fn(|i| pattern(page * PAGE_SIZE + i as u64, op))
        };
        let (mut hashes, mut pages) = (HashSet::new(), 0usize);
        let mut see = |page: &PageBytes| {
            hashes.insert(page_hash(page));
            pages += 1;
        };
        // 64 pages x 64 op indices, written whole.
        (0..64 * 64).for_each(|k| see(&written(k / 64, k % 64)));
        // The zero page, a written one, and every single-byte change of each.
        for base in [*zero_page(), written(64, 0)] {
            see(&base);
            for at in 0..PAGE_SIZE as usize {
                for delta in 1..=255u8 {
                    let mut page = base;
                    page[at] ^= delta;
                    see(&page);
                }
            }
        }
        // Every swap of two words of one page: within a lane (4 apart),
        // between adjacent lanes, and everything else.
        let base = written(65, 0);
        see(&base);
        for a in 0..64 {
            for b in a + 1..64 {
                let mut page = base;
                for i in 0..8 {
                    page.swap(a * 8 + i, b * 8 + i);
                }
                assert_ne!(page, base, "words {a} and {b} happen to be equal");
                see(&page);
            }
        }
        assert_eq!(hashes.len(), pages, "two distinct pages collide");
    }

    #[test]
    fn image_frames_share_host_bytes_until_written() {
        let arena = ImageArena::new(vec![*page_from_bytes(b"one"), *page_from_bytes(b"two")]);
        let two = Frame::new(page_from_bytes(b"two")).content_hash();
        alloc_stats::reset();
        let (a, b) = (arena.frames()(1), arena.frames()(1));
        assert_eq!(alloc_stats::frame_allocs(), 0, "no page-sized allocation");
        // Two forks of one slot are unrelated simulated frames.
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(a.image_slot(&arena), Some(1));
        assert_eq!(a.content_hash(), two);
        // A write diverges the host bytes: invisible to the other fork and
        // to the arena, counted as one frame allocation.
        a.with_mut(|d| d[0] = b'T');
        assert_eq!(alloc_stats::frame_allocs(), 1);
        assert_eq!(a.image_slot(&arena), None);
        a.with(|d| assert_eq!(&d[..3], b"Two"));
        b.with(|d| assert_eq!(&d[..3], b"two"));
        arena.frames()(1).with(|d| assert_eq!(&d[..3], b"two"));
        a.with_mut(|d| d[1] = b'W');
        assert_eq!(alloc_stats::frame_allocs(), 1, "already private");
        // A handle is a block and a slot number; a slot is 24 bytes, and so
        // is a page-table entry.
        assert_eq!(std::mem::size_of::<Frame>(), 16);
        assert_eq!(std::mem::size_of::<Slot>(), 24);
        assert_eq!(std::mem::size_of::<crate::space::PageState>(), 24);
        // Another arena with equal bytes is still another arena.
        let other = ImageArena::new(vec![*page_from_bytes(b"one")]);
        assert_eq!(other.frames()(0).image_slot(&arena), None);
    }

    #[test]
    fn a_fork_is_one_block_of_unrelated_frames() {
        let arena = ImageArena::new(vec![*page_from_bytes(b"one"), *page_from_bytes(b"two")]);
        let take = arena.frames();
        let (a, b) = (take(0), take(1));
        let (Handle::Image(block_a, _), Handle::Image(block_b, _)) = (&a.0, &b.0) else {
            panic!("a fork's frames are image frames");
        };
        assert!(Rc::ptr_eq(block_a, block_b), "one block for the fork");
        assert!(!a.is_shared() && !b.is_shared());
        let a2 = a.clone();
        assert!(a.is_shared() && !b.is_shared(), "counts are per slot");
        drop(a2);
        a.with_mut(|d| d[0] = b'O');
        let hash = a.content_hash();
        // The slot's last handle frees its bytes; handed out
        // again, it is the image's page once more.
        drop(a);
        let again = take(0);
        again.with(|d| assert_eq!(&d[..3], b"one"));
        assert_ne!(again.content_hash(), hash);
        assert_eq!(again.image_slot(&arena), Some(0));
        let taken_twice = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| take(1)));
        assert!(taken_twice.is_err(), "slot 1 is still a live frame");
    }

    #[test]
    fn frame_pool_recycles_capacity() {
        let mut v = frame_pool::take(4);
        assert!(v.is_empty());
        v.push(Frame::zeroed());
        v.push(Frame::zeroed());
        let cap = v.capacity();
        frame_pool::give(v);
        let v2 = frame_pool::take(1);
        assert!(v2.is_empty(), "pooled buffers come back empty");
        assert!(v2.capacity() >= cap.min(1), "capacity survives the round trip");
        frame_pool::give(v2);
        frame_pool::give(Vec::new()); // zero-capacity returns are dropped
    }

    #[test]
    fn page_from_bytes_pads_and_truncates() {
        let p = page_from_bytes(b"ab");
        assert_eq!(&p[..2], b"ab");
        assert!(p[2..].iter().all(|&b| b == 0));
        let big = vec![7u8; 1000];
        let p = page_from_bytes(&big);
        assert!(p.iter().all(|&b| b == 7));
    }
}
