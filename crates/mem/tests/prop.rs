//! Property tests on the virtual-memory substrate: AMap invariants,
//! data-path roundtrips, LRU model conformance.

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use cor_mem::amap::Access;
use cor_mem::page::PAGE_SIZE;
use cor_mem::{
    AddressSpace, Disk, Fault, ImageArena, PageNum, PageRange, PageState, SegmentId, SpaceImage,
    VAddr,
};

/// Drives a page to readiness like a minimal pager (no imaginary service).
fn ready(space: &mut AddressSpace, disk: &mut Disk, page: PageNum) {
    loop {
        match space.check_write(page) {
            Ok(()) => return,
            Err(Fault::FillZero { page }) => space.fill_zero(page, disk).unwrap(),
            Err(Fault::DiskIn { page, .. }) => space.page_in(page, disk).unwrap(),
            Err(f) => panic!("unexpected fault {f:?}"),
        }
    }
}

#[derive(Debug, Clone)]
enum SpaceOp {
    Validate(u64, u64),
    Touch(u64),
    PageOut(u64),
    MapImag(u64, u64),
}

fn space_ops() -> impl Strategy<Value = Vec<SpaceOp>> {
    let op = prop_oneof![
        (0u64..256, 1u64..32).prop_map(|(p, n)| SpaceOp::Validate(p, n)),
        (0u64..256).prop_map(SpaceOp::Touch),
        (0u64..256).prop_map(SpaceOp::PageOut),
        (0u64..256, 1u64..8).prop_map(|(p, n)| SpaceOp::MapImag(p, n)),
    ];
    prop::collection::vec(op, 1..80)
}

#[derive(Debug, Clone)]
enum BuildOp {
    Validate(u64, u64),
    Install(u64),
    InstallOnDisk(u64),
    Budget(Option<usize>),
}

fn build_ops() -> impl Strategy<Value = Vec<BuildOp>> {
    let op = prop_oneof![
        (0u64..128, 1u64..24).prop_map(|(p, n)| BuildOp::Validate(p, n)),
        (0u64..128).prop_map(BuildOp::Install),
        (0u64..128).prop_map(BuildOp::Install),
        (0u64..128).prop_map(BuildOp::InstallOnDisk),
        (0usize..12).prop_map(|b| BuildOp::Budget((b > 0).then_some(b))),
    ];
    prop::collection::vec(op, 1..120)
}

#[derive(Debug, Clone)]
enum LruOp {
    /// Make the page resident by whichever path its state takes.
    Touch(u64),
    /// A hit: `check_write` when `true`, else `check_read`.
    Refresh(u64, bool),
    PageOut(u64),
    /// Map the page imaginary: it leaves the resident set.
    Unmap(u64),
    /// Reinstall the page on disk: it leaves the resident set.
    Spill(u64),
    SetCapacity(Option<usize>),
}

fn lru_op() -> impl Strategy<Value = LruOp> {
    let page = || 0u64..32;
    prop_oneof![
        page().prop_map(LruOp::Touch),
        page().prop_map(LruOp::Touch),
        page().prop_map(LruOp::Touch),
        (page(), any::<bool>()).prop_map(|(p, w)| LruOp::Refresh(p, w)),
        (page(), any::<bool>()).prop_map(|(p, w)| LruOp::Refresh(p, w)),
        page().prop_map(LruOp::PageOut),
        page().prop_map(LruOp::Unmap),
        page().prop_map(LruOp::Spill),
        (0usize..12).prop_map(|c| LruOp::SetCapacity((c > 0).then_some(c))),
    ]
}

#[derive(Debug, Clone)]
enum DiskOp {
    WriteNew(u8),
    Write(u64, u8),
    Read(u64),
    Take(u64),
    Free(u64),
    Peek(u64),
}

/// Addresses reach past anything a 200-op run allocates, so every
/// operation also meets blocks that were never written.
fn disk_op() -> impl Strategy<Value = DiskOp> {
    let addr = || 0u64..96;
    prop_oneof![
        any::<u8>().prop_map(DiskOp::WriteNew),
        any::<u8>().prop_map(DiskOp::WriteNew),
        any::<u8>().prop_map(DiskOp::WriteNew),
        (addr(), any::<u8>()).prop_map(|(a, b)| DiskOp::Write(a, b)),
        addr().prop_map(DiskOp::Read),
        addr().prop_map(DiskOp::Take),
        addr().prop_map(DiskOp::Free),
        addr().prop_map(DiskOp::Peek),
    ]
}

#[derive(Debug, Clone)]
enum HandleOp {
    Clone(usize),
    Drop(usize),
    Write(usize, usize, u8),
    DeepCopy(usize),
    DiskWrite(usize),
    Take(usize),
}

/// Indices are taken modulo the live handles (or disk blocks), so every
/// operation lands on something whenever something is there.
fn handle_op() -> impl Strategy<Value = HandleOp> {
    let at = || 0usize..64;
    prop_oneof![
        at().prop_map(HandleOp::Clone),
        at().prop_map(HandleOp::Clone),
        at().prop_map(HandleOp::Drop),
        (at(), 0usize..PAGE_SIZE as usize, any::<u8>())
            .prop_map(|(h, i, b)| HandleOp::Write(h, i, b)),
        (at(), 0usize..PAGE_SIZE as usize, any::<u8>())
            .prop_map(|(h, i, b)| HandleOp::Write(h, i, b)),
        at().prop_map(HandleOp::DeepCopy),
        at().prop_map(HandleOp::DiskWrite),
        at().prop_map(HandleOp::Take),
    ]
}

/// The page table, compiled in from its own file (it names no `crate::`
/// item) so its reference model can reach the private type.
#[allow(dead_code)]
#[path = "../src/table.rs"]
mod table;

#[derive(Debug, Clone)]
enum TableOp {
    Insert(u64, u32),
    WriteInPlace(u64, u32),
    Get(u64),
    Range(u64, u64),
    RangeFrom(u64),
}

/// Keys from a small set, so inserts land before, between and after the
/// entries already there and often replace one.
fn table_op() -> impl Strategy<Value = TableOp> {
    let key = || 0u64..48;
    prop_oneof![
        (key(), any::<u32>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
        (key(), any::<u32>()).prop_map(|(k, v)| TableOp::Insert(k, v)),
        (key(), any::<u32>()).prop_map(|(k, v)| TableOp::WriteInPlace(k, v)),
        key().prop_map(TableOp::Get),
        (key(), key()).prop_map(|(lo, hi)| TableOp::Range(lo, hi)),
        key().prop_map(TableOp::RangeFrom),
    ]
}

/// Everything observable about a space and the blocks it owns on `disk`,
/// with disk addresses relative to `base`.
fn observe(space: &AddressSpace, disk: &Disk, base: u64) -> String {
    let pages: Vec<String> = space
        .materialized_pages()
        .map(|(p, state)| match state {
            PageState::Resident(f, _) => format!("{}:r:{:x}", p.0, f.content_hash()),
            PageState::OnDisk(a) => {
                let hash = disk.peek_frame(*a).unwrap().content_hash();
                format!("{}:d{}:{hash:x}", p.0, a.0 - base)
            }
            PageState::Imaginary { .. } => unreachable!("no build op maps imaginary memory"),
        })
        .collect();
    format!(
        "{:?} {pages:?} {:?} {:?} {:?} {:?} {:?}",
        space.regions(),
        space.resident_pages_lru(),
        space.frame_budget(),
        space.stats(),
        (space.pageouts(), space.zero_fills(), space.cow_copies()),
        (
            disk.blocks_in_use() as u64 - base,
            disk.writes() - base,
            disk.reads()
        ),
    )
}

proptest! {
    /// Any freshly built space — validations, resident and on-disk installs
    /// and budget changes in any order — thaws from its frozen image into
    /// an indistinguishable space, on an empty disk or a used one, and keeps
    /// behaving identically (the next installs evict the same victims).
    #[test]
    fn freeze_then_thaw_is_the_original(ops in build_ops(), used in 0u64..5) {
        use cor_mem::page::page_from_bytes;
        let arena = ImageArena::new((0..128u64).map(|p| *page_from_bytes(&p.to_le_bytes())).collect());
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let mut installed = HashSet::new();
        for op in ops {
            match op {
                BuildOp::Validate(p, n) => {
                    space.validate_pages(PageRange::new(PageNum(p), PageNum(p + n)));
                }
                // A build installs each page once: a second install would
                // strand the first one's disk block, which `freeze` refuses.
                BuildOp::Install(p) if installed.insert(p) => {
                    space.install_page(PageNum(p), arena.frames()(p as u32), &mut disk);
                }
                BuildOp::InstallOnDisk(p) if installed.insert(p) => {
                    space.install_on_disk_frame(PageNum(p), arena.frames()(p as u32), &mut disk);
                }
                BuildOp::Budget(b) => space.set_frame_budget(b),
                BuildOp::Install(_) | BuildOp::InstallOnDisk(_) => {}
            }
        }
        let image = SpaceImage::freeze(&space, &disk, &arena).unwrap();
        prop_assert_eq!(image.real_pages(), installed.len() as u64);
        let mut disk2 = Disk::new();
        for i in 0..used {
            disk2.write_new(page_from_bytes(&[i as u8]));
        }
        let mut thawed = image.thaw(&mut disk2);
        prop_assert_eq!(observe(&thawed, &disk2, used), observe(&space, &disk, 0));
        for p in (0..128).map(PageNum) {
            let expected = space.page_state(p).map(|s| matches!(s, PageState::Resident(..)));
            prop_assert_eq!(image.residency(p), expected);
        }
        for p in 200..204u64 {
            space.install_page(PageNum(p), arena.frames()(0), &mut disk);
            thawed.install_page(PageNum(p), arena.frames()(0), &mut disk2);
        }
        prop_assert_eq!(observe(&thawed, &disk2, used), observe(&space, &disk, 0));
    }

    /// After any sequence of operations, the constructed AMap satisfies
    /// its structural invariants and agrees with per-page classification.
    #[test]
    fn amap_always_valid_and_consistent(ops in space_ops()) {
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let mut seg_count = 0u64;
        for op in ops {
            match op {
                SpaceOp::Validate(p, n) => {
                    space.validate_pages(PageRange::new(PageNum(p), PageNum(p + n)));
                }
                SpaceOp::Touch(p) => {
                    if space.classify(PageNum(p)) == Access::RealZero {
                        ready(&mut space, &mut disk, PageNum(p));
                    }
                }
                SpaceOp::PageOut(p) => space.page_out(PageNum(p), &mut disk),
                SpaceOp::MapImag(p, n) => {
                    seg_count += 1;
                    space.map_imaginary(
                        PageRange::new(PageNum(p), PageNum(p + n)),
                        SegmentId(seg_count),
                        0,
                    );
                }
            }
        }
        let amap = space.amap();
        prop_assert!(amap.verify().is_ok(), "{:?}", amap.verify());
        for p in 0..300u64 {
            let page = PageNum(p);
            prop_assert_eq!(amap.lookup(page).0, space.classify(page), "page {}", p);
        }
        // Byte accounting agrees between the AMap and the space stats.
        let st = space.stats();
        prop_assert_eq!(amap.bytes_of(Access::Real), st.real_bytes);
        prop_assert_eq!(amap.bytes_of(Access::RealZero), st.realzero_bytes);
        prop_assert_eq!(amap.bytes_of(Access::Imag), st.imag_bytes);
    }

    /// Arbitrary writes followed by reads return the written bytes, across
    /// page boundaries, page-outs and page-ins.
    #[test]
    fn write_read_roundtrip_survives_paging(
        writes in prop::collection::vec((0u64..30 * 512, 1usize..200, any::<u8>()), 1..20),
        budget in 2usize..8,
    ) {
        let mut space = AddressSpace::with_frame_budget(budget);
        let mut disk = Disk::new();
        space.validate(VAddr(0), 32 * PAGE_SIZE).unwrap();
        let mut model: Vec<u8> = vec![0; 32 * PAGE_SIZE as usize];
        for &(addr, len, byte) in &writes {
            let range = PageRange::covering(VAddr(addr), len as u64);
            for p in range.iter() {
                ready(&mut space, &mut disk, p);
            }
            let data = vec![byte; len];
            space.write(VAddr(addr), &data).unwrap();
            model[addr as usize..addr as usize + len].fill(byte);
        }
        // Read everything back (through disk for paged-out pages).
        for &(addr, len, _) in &writes {
            let range = PageRange::covering(VAddr(addr), len as u64);
            for p in range.iter() {
                ready(&mut space, &mut disk, p);
            }
            let mut buf = vec![0u8; len];
            space.read(VAddr(addr), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &model[addr as usize..addr as usize + len]);
        }
    }

    /// A space's resident set — the LRU order its page states hold the
    /// slots of — behaves exactly like a naive list under any interleaving
    /// of installs by every path (zero fill, page-in, imaginary service,
    /// reinstall), hits, page-outs, removals and budget changes, from any
    /// bulk-built start.
    #[test]
    fn resident_lru_matches_reference_model(
        start in prop::collection::vec(0u64..32, 0..24),
        ops in prop::collection::vec(lru_op(), 1..300),
        cap in 0usize..12,
    ) {
        use cor_mem::page::Frame;
        let cap = (cap > 0).then_some(cap);
        let mut model: Vec<u64> = Vec::new(); // LRU order, front = oldest
        for &p in &start {
            if !model.contains(&p) {
                model.push(p);
            }
        }
        let mut disk = Disk::new();
        let installs = model.iter().map(|&p| (PageNum(p), PageState::resident(Frame::zeroed())));
        let regions = [PageRange::new(PageNum(0), PageNum(32))];
        let mut space = AddressSpace::from_installs(regions, installs.collect(), cap, &mut disk).unwrap();
        // The first `len - budget` installs spilled to disk.
        model.drain(..cap.map_or(0, |cap| model.len().saturating_sub(cap)));
        let mut model_cap = cap;
        let renew = |model: &mut Vec<u64>, p: u64| {
            model.retain(|&q| q != p);
            model.push(p);
        };
        let mut seg = 0;
        for op in ops {
            match op {
                LruOp::Touch(p) => {
                    let page = PageNum(p);
                    match space.page_state(page) {
                        None => space.fill_zero(page, &mut disk).unwrap(),
                        Some(PageState::OnDisk(_)) => space.page_in(page, &mut disk).unwrap(),
                        Some(PageState::Imaginary { .. }) => {
                            space.satisfy_imaginary_frame(page, Frame::zeroed(), &mut disk).unwrap();
                        }
                        Some(PageState::Resident(..)) => space.install_page(page, Frame::zeroed(), &mut disk),
                    }
                    renew(&mut model, p);
                    // Over capacity (after a shrink, by any amount): one
                    // victim per install, the oldest.
                    if model_cap.is_some_and(|cap| model.len() > cap) {
                        model.remove(0);
                    }
                }
                LruOp::Refresh(p, write) => {
                    let page = PageNum(p);
                    let hit = if write { space.check_write(page) } else { space.check_read(page) };
                    prop_assert_eq!(hit.is_ok(), model.contains(&p));
                    if hit.is_ok() {
                        renew(&mut model, p);
                    }
                }
                LruOp::PageOut(p) => {
                    space.page_out(PageNum(p), &mut disk);
                    model.retain(|&q| q != p);
                }
                LruOp::Unmap(p) => {
                    seg += 1;
                    space.map_imaginary(PageRange::new(PageNum(p), PageNum(p + 1)), SegmentId(seg), 0);
                    model.retain(|&q| q != p);
                }
                LruOp::Spill(p) => {
                    space.install_on_disk_frame(PageNum(p), Frame::zeroed(), &mut disk);
                    model.retain(|&q| q != p);
                }
                LruOp::SetCapacity(cap) => {
                    model_cap = cap;
                    space.set_frame_budget(cap);
                }
            }
            prop_assert_eq!(space.frame_budget(), model_cap);
            let mut expected: Vec<PageNum> = model.iter().map(|&p| PageNum(p)).collect();
            prop_assert_eq!(space.resident_pages_lru(), expected.clone());
            expected.sort_unstable();
            prop_assert_eq!(space.resident_pages(), expected);
            prop_assert_eq!(space.stats().resident_bytes, model.len() as u64 * PAGE_SIZE);
            for p in 0..32 {
                let resident = matches!(space.page_state(PageNum(p)), Some(PageState::Resident(..)));
                prop_assert_eq!(resident, model.contains(&p), "page {}", p);
            }
        }
    }

    /// The disk behaves exactly like a keyed map whose addresses count up
    /// and are never reused: same addresses, same results, same counters
    /// after every operation, on live, released and never-allocated blocks.
    #[test]
    fn disk_matches_reference_model(ops in prop::collection::vec(disk_op(), 1..200)) {
        use cor_mem::page::{page_from_bytes, Frame};
        use cor_mem::DiskAddr;
        let mut disk = Disk::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new(); // block -> its first byte
        let (mut next, mut reads, mut writes) = (0u64, 0u64, 0u64);
        let first = |frame: &Frame| frame.with(|d| d[0]);
        for op in ops {
            match op {
                DiskOp::WriteNew(byte) => {
                    let addr = disk.write_new_frame(Frame::new(page_from_bytes(&[byte])));
                    prop_assert_eq!(addr, DiskAddr(next));
                    model.insert(next, byte);
                    next += 1;
                    writes += 1;
                }
                DiskOp::Write(a, byte) => {
                    let live = model.contains_key(&a);
                    prop_assert_eq!(disk.write(DiskAddr(a), page_from_bytes(&[byte])), live);
                    if live {
                        model.insert(a, byte);
                        writes += 1;
                    }
                }
                DiskOp::Read(a) => {
                    let expected = model.get(&a).copied();
                    prop_assert_eq!(disk.read(DiskAddr(a)).map(|d| d[0]), expected);
                    reads += u64::from(expected.is_some());
                }
                DiskOp::Take(a) => {
                    let expected = model.remove(&a);
                    prop_assert_eq!(disk.take_frame(DiskAddr(a)).as_ref().map(first), expected);
                    reads += u64::from(expected.is_some());
                }
                DiskOp::Free(a) => {
                    prop_assert_eq!(disk.free(DiskAddr(a)), model.remove(&a).is_some());
                }
                DiskOp::Peek(a) => {
                    let expected = model.get(&a).copied();
                    prop_assert_eq!(disk.peek_frame(DiskAddr(a)).map(first), expected);
                }
            }
            prop_assert_eq!(disk.blocks_in_use(), model.len());
            prop_assert_eq!(disk.bytes_in_use(), model.len() as u64 * PAGE_SIZE);
            prop_assert_eq!((disk.reads(), disk.writes()), (reads, writes));
        }
    }

    /// The page table behaves exactly like a `BTreeMap` under inserts in
    /// any key order, replacements, in-place writes, lookups and range
    /// queries, starting empty or from a table built whole.
    #[test]
    fn page_table_matches_reference_model(
        start in prop::collection::vec(0u64..48, 0..16),
        ops in prop::collection::vec(table_op(), 1..200),
    ) {
        use table::PageTable;
        fn pairs<'a>(it: impl Iterator<Item = (&'a u64, &'a u32)>) -> Vec<(u64, u32)> {
            it.map(|(&k, &v)| (k, v)).collect()
        }
        let mut model: BTreeMap<u64, u32> = start.iter().map(|&k| (k, k as u32)).collect();
        let mut table = PageTable::from_sorted(pairs(model.iter()));
        for op in ops {
            match op {
                TableOp::Insert(k, v) => prop_assert_eq!(table.insert(k, v), model.insert(k, v)),
                TableOp::WriteInPlace(k, v) => match (table.get_mut(k), model.get_mut(&k)) {
                    (Some(got), Some(want)) => (*got, *want) = (v, v),
                    (got, want) => prop_assert_eq!(got, want),
                },
                TableOp::Get(k) => {
                    prop_assert_eq!(table.get(k), model.get(&k));
                    prop_assert_eq!(table.contains(k), model.contains_key(&k));
                }
                TableOp::Range(lo, hi) => {
                    let want = if lo <= hi { pairs(model.range(lo..hi)) } else { Vec::new() };
                    prop_assert_eq!(table.range(lo, hi).to_vec(), want);
                }
                TableOp::RangeFrom(lo) => {
                    prop_assert_eq!(table.range_from(lo).to_vec(), pairs(model.range(lo..)));
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.iter().copied().collect::<Vec<_>>(), pairs(model.iter()));
        }
    }

    /// Copy-on-write: writes through one mapping never leak into aliases.
    #[test]
    fn cow_isolation(pages in 1usize..16, dirty in prop::collection::vec(any::<bool>(), 16)) {
        use cor_mem::page::{page_from_bytes, Frame};
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let frames: Vec<Frame> = (0..pages)
            .map(|i| Frame::new(page_from_bytes(&[i as u8 + 1; 8])))
            .collect();
        let aliases = frames.clone();
        for (i, f) in frames.into_iter().enumerate() {
            space.install_page(PageNum(i as u64), f, &mut disk);
        }
        let mut dirtied = HashSet::new();
        for (i, &d) in dirty.iter().take(pages).enumerate() {
            if d {
                let page = PageNum(i as u64);
                space.check_write(page).unwrap();
                space.write(page.base(), &[0xEE; 8]).unwrap();
                dirtied.insert(i);
            }
        }
        prop_assert_eq!(space.cow_copies(), dirtied.len() as u64);
        for (i, alias) in aliases.iter().enumerate() {
            alias.with(|d| {
                // The alias always sees the original bytes.
                assert_eq!(d[0], i as u8 + 1, "alias {i} corrupted");
            });
        }
    }

    /// Zero-fill interning: every FillZero page aliases the one canonical
    /// zero frame; any write diverges it privately; the interned frame is
    /// never mutated; and RealZero byte accounting is exactly what the
    /// copying implementation reported.
    #[test]
    fn interned_zero_diverges_on_write(
        total in 4u64..32,
        fills in prop::collection::vec(0u64..32, 1..32),
        writes in prop::collection::vec((0u64..32, 1u8..=255), 0..32),
    ) {
        use cor_mem::page::Frame;
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        space.validate(VAddr(0), total * PAGE_SIZE).unwrap();
        let mut filled = HashSet::new();
        for &p in fills.iter().filter(|&&p| p < total) {
            if filled.insert(p) {
                space.fill_zero(PageNum(p), &mut disk).unwrap();
            }
        }
        // Materialized-but-unwritten zero pages are Real; the rest of the
        // validated range stays RealZero — interning must not change the
        // paper's RealZeroMem accounting.
        let st = space.stats();
        prop_assert_eq!(st.realzero_bytes, (total - filled.len() as u64) * PAGE_SIZE);
        prop_assert_eq!(st.real_bytes, filled.len() as u64 * PAGE_SIZE);
        let mut written = HashSet::new();
        for &(p, byte) in &writes {
            if !filled.contains(&p) {
                continue;
            }
            space.check_write(PageNum(p)).unwrap();
            space.write(PageNum(p).base(), &[byte]).unwrap();
            written.insert(p);
        }
        // The canonical zero frame never sees any of those writes.
        Frame::zeroed().with(|d| {
            assert!(d.iter().all(|&b| b == 0), "interned zero frame corrupted");
        });
        // Unwritten zero-filled pages still read back zero, written ones
        // diverged (first byte is the nonzero write).
        for &p in &filled {
            let mut buf = [0xAAu8; 1];
            space.read(PageNum(p).base(), &mut buf).unwrap();
            prop_assert_eq!(buf[0] == 0, !written.contains(&p), "page {}", p);
        }
        prop_assert_eq!(st.realzero_bytes, space.stats().realzero_bytes);
    }

    /// Wire sharing: frames delivered by reference count to several
    /// receivers — one of them twice, the same frame installed over
    /// itself — diverge privately on write.
    /// The sender's frames and every other receiver keep the original
    /// bytes.
    #[test]
    fn shared_delivery_diverges_privately(
        pages in 1usize..12,
        writers in prop::collection::vec((0usize..3, 0usize..12), 1..24),
    ) {
        use cor_mem::page::{page_from_bytes, Frame};
        let sender: Vec<Frame> = (0..pages)
            .map(|i| Frame::new(page_from_bytes(&[0x5A, i as u8])))
            .collect();
        let mut receivers = Vec::new();
        for r in 0..3usize {
            let mut space = AddressSpace::new();
            let mut disk = Disk::new();
            for (i, f) in sender.iter().enumerate() {
                space.install_page(PageNum(i as u64), f.clone(), &mut disk);
                if r == 2 {
                    // The same frame installed again over itself.
                    space.install_page(PageNum(i as u64), f.clone(), &mut disk);
                }
            }
            receivers.push((space, disk));
        }
        let mut wrote: Vec<HashSet<usize>> = vec![HashSet::new(); 3];
        for &(r, p) in &writers {
            let page = PageNum((p % pages) as u64);
            let (space, _) = &mut receivers[r];
            space.check_write(page).unwrap();
            space.write(page.base(), &[0x80 + r as u8]).unwrap();
            wrote[r].insert(p % pages);
        }
        // The sender's view is untouched by any receiver's writes.
        for (i, f) in sender.iter().enumerate() {
            f.with(|d| {
                assert_eq!((d[0], d[1]), (0x5A, i as u8), "sender frame {i} mutated");
            });
        }
        // Each receiver sees exactly its own writes, nobody else's.
        for (r, (space, _)) in receivers.iter().enumerate() {
            for i in 0..pages {
                let mut buf = [0u8; 1];
                space.read(PageNum(i as u64).base(), &mut buf).unwrap();
                let expect = if wrote[r].contains(&i) { 0x80 + r as u8 } else { 0x5A };
                prop_assert_eq!(buf[0], expect, "receiver {} page {}", r, i);
            }
        }
    }

    /// Frame handles of one fork behave like a map of per-frame share
    /// counts under clone, drop, copy-on-write writes, deep copies and
    /// disk round trips: after every operation each live handle — held
    /// directly or by the disk — is shared exactly when its frame's count
    /// exceeds one, reads its frame's bytes, and names its arena slot
    /// exactly while the frame is unwritten. The fork's frames start
    /// unshared, and a clone of one never moves another's count, so two
    /// frames of one block are never shared with each other.
    #[test]
    fn frame_handles_match_reference_model(
        n in 1u32..12,
        ops in prop::collection::vec(handle_op(), 1..120),
    ) {
        use cor_mem::page::{Frame, PageBytes};
        use cor_mem::DiskAddr;
        struct Model {
            count: usize,
            bytes: PageBytes,
            slot: Option<u32>,
        }
        let image = |slot: u32| -> PageBytes { std::array::from_fn(|i| (i as u32 ^ slot) as u8) };
        let arena = ImageArena::new((0..n).map(image).collect());
        let take = arena.frames();
        let mut model: Vec<Model> = (0..n)
            .map(|slot| Model { count: 1, bytes: image(slot), slot: Some(slot) })
            .collect();
        let mut handles: Vec<(usize, Frame)> = (0..n).map(|s| (s as usize, take(s))).collect();
        drop(take);
        let mut disk = Disk::new();
        let mut blocks: Vec<(DiskAddr, usize)> = Vec::new();
        for op in ops {
            let live = handles.len();
            match op {
                HandleOp::Clone(h) if live > 0 => {
                    let (id, frame) = &handles[h % live];
                    model[*id].count += 1;
                    handles.push((*id, frame.clone()));
                }
                HandleOp::Drop(h) if live > 0 => {
                    let (id, _) = handles.swap_remove(h % live);
                    model[id].count -= 1;
                }
                HandleOp::Write(h, at, byte) if live > 0 => {
                    // The address space's discipline: copy a shared frame
                    // before writing it.
                    let (id, frame) = &mut handles[h % live];
                    if frame.is_shared() {
                        let copy = frame.deep_copy();
                        model[*id].count -= 1;
                        let bytes = model[*id].bytes;
                        model.push(Model { count: 1, bytes, slot: None });
                        *id = model.len() - 1;
                        *frame = copy;
                    }
                    frame.with_mut(|d| d[at] = byte);
                    model[*id].bytes[at] = byte;
                    model[*id].slot = None;
                }
                HandleOp::DeepCopy(h) if live > 0 => {
                    let copy = handles[h % live].1.deep_copy();
                    let bytes = model[handles[h % live].0].bytes;
                    model.push(Model { count: 1, bytes, slot: None });
                    handles.push((model.len() - 1, copy));
                }
                HandleOp::DiskWrite(h) if live > 0 => {
                    let (id, frame) = &handles[h % live];
                    model[*id].count += 1;
                    blocks.push((disk.write_new_frame(frame.clone()), *id));
                }
                HandleOp::Take(b) if !blocks.is_empty() => {
                    let (addr, id) = blocks.swap_remove(b % blocks.len());
                    handles.push((id, disk.take_frame(addr).unwrap()));
                }
                _ => {}
            }
            let on_disk = blocks.iter().map(|&(addr, id)| (id, disk.peek_frame(addr).unwrap()));
            for (id, frame) in handles.iter().map(|(id, f)| (*id, f)).chain(on_disk) {
                let m = &model[id];
                prop_assert_eq!(frame.is_shared(), m.count > 1, "frame {}", id);
                prop_assert!(frame.with(|d| *d == m.bytes), "frame {} bytes", id);
                prop_assert_eq!(frame.image_slot(&arena), m.slot, "frame {}", id);
            }
        }
    }
}
