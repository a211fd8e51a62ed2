//! Four allocation guarantees.
//!
//! * The zero-copy pipeline's: a sparse workload performs O(pages touched)
//!   frame allocations, never O(address space). The Lisp workloads
//!   validate a ~4 GB heap (over 8 million pages) but materialize only a
//!   few thousand; before the zero-copy pipeline, transfer and fault paths
//!   allocated fresh 512-byte frames at every hop. These tests pin the
//!   frame count to the touched set with generous headroom, so any
//!   reintroduced per-page copy fails loudly.
//! * The remote fault's: once warm, a copy-on-reference fault — direct,
//!   relayed, or answered in a batch — makes no heap allocation at all.
//!   This binary installs a counting global allocator for that.
//! * A fork's: thawing a process image allocates a constant number of
//!   heap blocks, whatever its page count, and returns every byte of them
//!   when its last frame handle goes.
//! * A storm cell's: its high-water mark of live heap is what its
//!   simulated state needs, with no journal it would only scan.
//!
//! The counters are thread-local (frames: `cor-mem`'s `alloc-stats`
//! feature), so each test must run its whole trial on its own thread —
//! which is exactly what libtest does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cor_experiments::runner;
use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortId;
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::NodeId;
use cor_kernel::{CostModel, ProcessId, Trace, World};
use cor_mem::page::{alloc_stats, frame_pool, page_from_bytes, Frame, PAGE_SIZE};
use cor_mem::space::{PageState, SegmentId};
use cor_mem::{AddressSpace, Disk, PageNum, VAddr};
use cor_migrate::{MigrationManager, Strategy};
use cor_net::WireParams;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static HEAP_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated and not yet freed (negative when
    /// it frees what another thread allocated).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE_BYTES` since [`peak_bytes`] last
    /// reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = HEAP_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = LIVE_BYTES.try_with(|c| {
        let live = c.get() + delta;
        c.set(live);
        let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(live)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local `Cell`, which
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        count_bytes(layout.size() as i64);
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        count_bytes(layout.size() as i64);
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        count_bytes(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator with this layout, and
        // `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Heap allocations `f` makes on this thread (a `realloc` counts as one).
fn heap_allocs(f: impl FnOnce()) -> u64 {
    let before = HEAP_ALLOCS.with(Cell::get);
    f();
    HEAP_ALLOCS.with(Cell::get) - before
}

/// The most heap `f` held live at once on this thread, beyond what was
/// live when it started.
fn peak_bytes(f: impl FnOnce()) -> u64 {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|p| p.set(before));
    f();
    (PEAK_BYTES.with(Cell::get) - before) as u64
}

/// Runs one full trial (build, migrate, remote run) and returns the
/// number of frame allocations it performed.
fn allocs_for(workload: &str, strategy: Strategy) -> (u64, u64) {
    let w = cor_workloads::by_name(workload).expect("workload exists");
    alloc_stats::reset();
    let trial = runner::run_trial(&w, strategy);
    (alloc_stats::frame_allocs(), trial.total_pages)
}

#[test]
fn sparse_lisp_allocates_o_pages_touched() {
    let (allocs, total_pages) = allocs_for("Lisp-T", Strategy::PureIou { prefetch: 1 });
    // The address space is over 8M pages; the touched set is ~4,300.
    assert!(
        total_pages > 8_000_000,
        "Lisp-T should validate a 4 GB heap, got {total_pages} pages"
    );
    // The zero-copy pipeline allocates only for pages with real content
    // or diverged writes — measured 4,332 — so 8,192 gives ~2x headroom
    // for legitimate drift while failing loudly if anything starts
    // allocating per *validated* page again.
    assert!(
        allocs <= 8_192,
        "sparse trial allocated {allocs} frames — O(address space), not O(touched)"
    );
}

#[test]
fn pure_copy_allocates_no_more_than_iou() {
    // Pure-copy ships every materialized page up front but must still
    // allocate O(touched): the wire shares frames instead of copying.
    let (copy_allocs, _) = allocs_for("Lisp-T", Strategy::PureCopy);
    assert!(
        copy_allocs < 15_000,
        "pure-copy trial allocated {copy_allocs} frames"
    );
}

#[test]
fn forks_of_one_image_allocate_o_pages_written() {
    // `frame_allocs` counts page-sized host buffers. Thawing an image
    // allocates none (its frames point into the one arena), and the first
    // write to an image-backed page — the host-level divergence copy — is
    // counted, so a whole strategy sweep on one Lisp-T image costs what
    // its cells write and receive, not eleven 4,300-page rebuilds.
    let w = cor_workloads::by_name("Lisp-T").expect("workload exists");
    let image = w.image().expect("workload build");
    let strategies = runner::Matrix::paper_strategies();
    alloc_stats::reset();
    let mut touched = 0;
    for &s in &strategies {
        let t = runner::run_trial_on(
            &image,
            s,
            cor_kernel::CostModel::default(),
            cor_net::WireParams::default(),
        );
        touched += t.touched_real_pages + t.zero_faults;
    }
    let allocs = alloc_stats::frame_allocs();
    // Measured: 319 allocations for 1,419 page touches (most are reads).
    assert!(
        allocs <= touched,
        "{allocs} frame allocs for {touched} pages touched in 11 forks"
    );
    assert!(
        allocs < image.space().real_pages() / 4,
        "{allocs} frame allocs: a fork is rebuilding pages again"
    );
}

#[test]
fn zero_fill_faults_do_not_allocate() {
    // A run that only zero-fills must clone the interned zero frame, not
    // allocate: compare allocations against an identical trial and the
    // same trial again — counts are deterministic per thread.
    let first = allocs_for("Minprog", Strategy::PureIou { prefetch: 0 });
    let second = allocs_for("Minprog", Strategy::PureIou { prefetch: 0 });
    assert_eq!(first, second, "alloc counts are deterministic");
}

#[test]
fn prefetching_runs_allocate_the_same_count_every_time() {
    // Heap allocations are a function of the inputs, not of a hasher's
    // random seed: the seven paper workloads under IOU pf 1 and pf 15,
    // where prefetched pages enter and leave the pending set, count the
    // same every time.
    let workloads = cor_workloads::all();
    let images: Vec<_> = workloads
        .iter()
        .map(|w| w.image().expect("build"))
        .collect();
    let matrix = || {
        heap_allocs(|| {
            for (image, prefetch) in images.iter().flat_map(|i| [(i, 1), (i, 15)]) {
                let strategy = Strategy::PureIou { prefetch };
                runner::run_trial_on(image, strategy, CostModel::default(), WireParams::default());
            }
        })
    };
    matrix(); // the first run also fills this thread's lazily built tables
    let counts = [matrix(), matrix(), matrix()];
    assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
}

/// Frame allocations of one saturation cell (its own setup included).
fn sat_allocs(spec: cor_experiments::saturation::SatSpec) -> u64 {
    alloc_stats::reset();
    let o = cor_experiments::saturation::run_cell(spec);
    assert_eq!(o.served, spec.requests, "every fault completed");
    alloc_stats::frame_allocs()
}

fn sat_spec(relay: bool, optimized: bool) -> cor_experiments::saturation::SatSpec {
    cor_experiments::saturation::SatSpec {
        mode: "open",
        pattern: if relay { "hot" } else { "scan" },
        relay,
        optimized,
        offered_fps: if relay { 12 } else { 26 },
        requests: 192,
    }
}

/// The wire of a saturation cell: the seed configuration, or batched
/// replies + coalescing + the coarse ledger.
fn sat_wire(optimized: bool) -> WireParams {
    if optimized {
        WireParams::default().hot_path()
    } else {
        WireParams::default()
    }
}

/// A backlog with duplicates and an adjacent run: duplicates park in a
/// relay's pending-interest table (coalescing on) or replace the earlier
/// waiter (off); adjacent requests merge into one reply when batching.
const BACKLOG: [u64; 6] = [2, 3, 3, 4, 9, 2];

#[test]
fn batched_reply_path_is_allocation_free() {
    // A saturated open-loop cell allocates frames only in its setup (the
    // 64 distinct-content cache pages); the batched reply hot path
    // reference-counts cache frames into pooled vectors and must not
    // allocate per served fault, nor, once warm, anything on the heap.
    // The unbatched cell bounds the same.
    for optimized in [false, true] {
        let allocs = sat_allocs(sat_spec(false, optimized));
        assert!(
            allocs < 100,
            "optimized={optimized}: {allocs} frame allocs for 192 served \
             faults — the reply path is copying pages again"
        );
        let mut s = Service::new(sat_wire(optimized), false);
        let heap = s.warm_allocs(&BACKLOG);
        assert_eq!(
            heap, 0,
            "optimized={optimized}: heap allocations in a warm backlog"
        );
        let batched = s.world.fabric.stats().batched_replies;
        assert_eq!(batched > 0, optimized, "the backlog batches when optimized");
    }
}

#[test]
fn coalesced_relay_path_is_allocation_free() {
    // The relayed hot-set cell adds the forward/rename path and (when
    // optimized) pending-interest coalescing; renamed replies slice the
    // upstream reply by reference, so the bound is the same as direct
    // service, and a warm relayed backlog allocates nothing on the heap.
    for optimized in [false, true] {
        let allocs = sat_allocs(sat_spec(true, optimized));
        assert!(
            allocs < 100,
            "optimized={optimized}: {allocs} frame allocs on the relay \
             path — renamed replies are copying pages again"
        );
        let mut s = Service::new(sat_wire(optimized), true);
        let heap = s.warm_allocs(&BACKLOG);
        assert_eq!(
            heap, 0,
            "optimized={optimized}: heap allocations relaying a warm backlog"
        );
        let coalesced = s.world.fabric.stats().coalesced_requests;
        assert_eq!(
            coalesced > 0,
            optimized,
            "duplicates coalesce when optimized"
        );
    }
}

#[test]
fn profile_analysis_allocates_no_frames() {
    // Profile analysis is pure arithmetic over the journals: building the
    // blame decomposition, walking every critical path, and rendering the
    // CSV / folded-stack / JSONL exports must never touch the frame pool.
    // A profiler that clones page frames to attribute latency would
    // perturb the very allocation budget it reports on.
    use cor_experiments::trace::traced_trial;
    use cor_sim::JournalLevel;

    let w = cor_workloads::by_name("Lisp-T").expect("workload exists");
    let t = traced_trial(&w, JournalLevel::Full);
    alloc_stats::reset();
    let p = t.profile();
    assert!(p.sums_exactly());
    let paths: u64 = p.roots().map(|r| p.critical_path(r).total_us).sum();
    assert!(paths > 0, "critical paths must attribute real time");
    let links = t.link_waits();
    let rendered = p.blame_csv(&links).len() + p.folded().len() + p.jsonl().len();
    assert!(rendered > 0);
    assert_eq!(
        alloc_stats::frame_allocs(),
        0,
        "profile analysis touched the frame pool"
    );
}

/// A fault-service world: a server NMS caching a segment of distinct
/// pages and a client faulting on it, directly or through a relay's
/// stand-in (set up by shipping an IOU, as migration does). The ledger
/// runs coarse: at full detail it appends one entry per transfer for the
/// Figure 4-5 time series, an amortised growth the fault does not need.
struct Service {
    world: World,
    client: NodeId,
    target_port: PortId,
    target_seg: SegmentId,
    reply_port: PortId,
    seq: u64,
}

/// Pages in the served segment.
const PAGES: u64 = 16;

/// The served segment's contents: distinct pages.
fn contents() -> Vec<Frame> {
    (0..PAGES)
        .map(|i| Frame::new(page_from_bytes(&i.to_le_bytes())))
        .collect()
}

impl Service {
    fn new(wire: WireParams, relay: bool) -> Self {
        let (mut world, nodes) =
            World::fleet(if relay { 3 } else { 2 }, CostModel::default(), wire);
        world.fabric.ledger.set_coarse(true);
        let (client, server) = (nodes[0], nodes[nodes.len() - 1]);
        let server_nms = world.fabric.nms_port(server).expect("server registered");
        let seg = world.segs.create(server_nms, PAGES);
        world.segs.add_refs(seg, PAGES).expect("fresh segment");
        world
            .fabric
            .install_cache(server, seg, contents())
            .expect("server registered");
        let (target_port, target_seg) = if relay {
            let scratch = world.ports.allocate(nodes[1]);
            let iou = Message::new(MsgKind::User(0xA110C), scratch)
                .push(MsgItem::Iou {
                    base_page: 0,
                    seg,
                    seg_offset: 0,
                    pages: PAGES,
                })
                .with_no_ious(true);
            world.send_from(server, iou).expect("iou delivery");
            let delivered = world.ports.dequeue(scratch).expect("live port");
            let Some(MsgItem::Iou { seg: stand_in, .. }) =
                delivered.expect("delivered").items.first().cloned()
            else {
                panic!("expected a rewritten IOU");
            };
            let relay_nms = world.fabric.nms_port(nodes[1]).expect("relay registered");
            (relay_nms, stand_in)
        } else {
            (server_nms, seg)
        };
        let reply_port = world.ports.allocate(client);
        Service {
            world,
            client,
            target_port,
            target_seg,
            reply_port,
            seq: 1,
        }
    }

    /// A client faulting on a segment a user-level backer on the server
    /// owns: the path an IOU-migrated process's faults take to the
    /// migration manager at its source.
    fn backed() -> Self {
        let (mut world, nodes) = World::fleet(2, CostModel::default(), WireParams::default());
        world.fabric.ledger.set_coarse(true);
        let (client, server) = (nodes[0], nodes[1]);
        let backing = world.ports.allocate(server);
        let seg = world.segs.create(backing, PAGES);
        world.segs.add_refs(seg, PAGES).expect("fresh segment");
        world.register_backer(backing, server);
        let store = world.backer_mut(backing).expect("just registered");
        store.insert(seg, contents());
        let reply_port = world.ports.allocate(client);
        Service {
            world,
            client,
            target_port: backing,
            target_seg: seg,
            reply_port,
            seq: 1,
        }
    }

    /// Injects one read request per offset without waiting, as the
    /// open-loop harness does, then settles and drains every reply.
    /// Returns the pages delivered.
    fn faults(&mut self, offsets: &[u64]) -> u64 {
        for &offset in offsets {
            let req = protocol::imag_read_request(
                self.target_port,
                self.reply_port,
                self.target_seg,
                offset,
                1,
            )
            .with_seq(self.seq)
            .with_no_ious(true);
            self.seq += 1;
            let w = &mut self.world;
            w.fabric
                .send_detached(&mut w.clock, &mut w.ports, &mut w.segs, self.client, req)
                .expect("request injection");
        }
        self.world.settle().expect("service round");
        let mut pages = 0;
        while let Some(reply) = self
            .world
            .ports
            .dequeue(self.reply_port)
            .expect("reply port")
        {
            let Ok(ProtocolMsg::ImagReadReply { frames, .. }) = protocol::parse_owned(reply) else {
                panic!("expected a read reply");
            };
            pages += frames.len() as u64;
            frame_pool::give(frames);
        }
        pages
    }

    /// Heap allocations of `faults(offsets)` once the same faults have run
    /// before: every table the path touches is at its working size.
    fn warm_allocs(&mut self, offsets: &[u64]) -> u64 {
        self.faults(offsets);
        let mut pages = 0;
        let allocs = heap_allocs(|| pages = self.faults(offsets));
        assert!(pages >= 1, "the faults were answered");
        allocs
    }
}

#[test]
fn a_warm_closed_loop_fault_allocates_nothing() {
    for relay in [false, true] {
        let mut s = Service::new(WireParams::default(), relay);
        let allocs = s.warm_allocs(&[5]);
        assert_eq!(
            allocs, 0,
            "relay={relay}: heap allocations in one warm fault"
        );
    }
}

#[test]
fn a_warm_backer_served_fault_allocates_nothing() {
    // The backer builds its reply in a pooled buffer, which the faulter
    // hands back once it has installed the frames.
    let mut s = Service::backed();
    let allocs = s.warm_allocs(&[5]);
    assert_eq!(
        allocs, 0,
        "heap allocations in one warm backer-served fault"
    );
}

/// Allocations a thaw of `workload`'s image makes besides its disk's
/// block slab: the frame block and its slots, and 7 whole tables (block
/// list, LRU order, the LRU slots by rank, disk addresses, regions, page
/// table, LRU slab). None of them is per page.
const FORK_ALLOCS: u64 = 2 + 7;

#[test]
fn a_fork_allocates_a_constant() {
    // A thaw onto a fresh disk allocates `FORK_ALLOCS`, plus one per
    // growth of the disk's block slab, which doubles from 4 slots: 11 to
    // hold Lisp-T's 3,931 paged-out pages, 7 for Minprog's 138. That is
    // the only way the count may differ between the two images, whatever
    // their page counts. A frame handle, a page table or a node that
    // allocates by the page fails this.
    for (name, pages, blocks, growths) in [("Lisp-T", 4_303, 3_931, 11), ("Minprog", 278, 138, 7)] {
        let w = cor_workloads::by_name(name).expect("workload exists");
        let image = w.image().expect("workload build");
        let mut disk = cor_mem::Disk::new();
        let mut fork = None;
        let allocs = heap_allocs(|| fork = Some(image.space().thaw(&mut disk)));
        assert_eq!(image.space().real_pages(), pages, "{name}'s real pages");
        assert_eq!(disk.blocks_in_use(), blocks, "{name}'s paged-out pages");
        assert_eq!(allocs, FORK_ALLOCS + growths, "{name}");
    }
}

#[test]
fn a_dropped_fork_returns_every_byte() {
    // A fork's frames share one block; it must go with the last handle,
    // even when that handle outlives the space and the disk, and written
    // slots must give their private bytes back with it.
    let w = cor_workloads::by_name("Lisp-T").expect("workload exists");
    let image = w.image().expect("workload build");
    let resident: Vec<PageNum> = w
        .blueprint
        .install_order
        .iter()
        .copied()
        .filter(|&p| image.space().residency(p) == Some(true))
        .take(8)
        .collect();
    let live = || LIVE_BYTES.with(Cell::get);
    let baseline = live();
    let mut disk = cor_mem::Disk::new();
    let mut space = image.space().thaw(&mut disk);
    let mut held = Vec::new();
    for (i, &page) in resident.iter().enumerate() {
        space.check_write(page).expect("resident and unshared");
        space.write(page.base(), b"diverged").expect("writable");
        if i % 2 == 0 {
            let Some(PageState::Resident(frame, _)) = space.page_state(page) else {
                panic!("page {page:?} is resident");
            };
            held.push(frame.clone());
        }
    }
    let with_fork = live();
    drop((space, disk));
    assert!(live() > baseline, "the held frames keep their block");
    assert!(live() < with_fork, "the space and disk are gone");
    drop(held);
    assert_eq!(live(), baseline, "a fork's block or slot bytes leaked");
}

#[test]
fn a_protocol_round_trip_allocates_nothing() {
    let frame = Frame::new(page_from_bytes(b"page"));
    let round_trip = || {
        let req = protocol::imag_read_request(PortId(1), PortId(2), SegmentId(7), 3, 1).with_seq(9);
        assert!(matches!(
            protocol::parse(&req),
            Some(ProtocolMsg::ImagReadRequest { seq: 9, .. })
        ));
        let mut frames = frame_pool::take(1);
        frames.push(frame.clone());
        let reply = protocol::imag_read_reply(PortId(2), SegmentId(7), 3, frames).with_seq(9);
        match protocol::parse_owned(reply) {
            Ok(ProtocolMsg::ImagReadReply { frames, seq: 9, .. }) => frame_pool::give(frames),
            _ => panic!("the reply did not parse"),
        }
    };
    round_trip();
    assert_eq!(heap_allocs(round_trip), 0);
}

#[test]
fn a_diverging_write_allocates_once() {
    // The first write to a zero-filled page materialises it, and the first
    // write to a page another mapping shares copies it: one allocation
    // each, the new frame's count and bytes together.
    let (mut space, mut disk) = (AddressSpace::new(), Disk::new());
    space.validate(VAddr(0), 2 * PAGE_SIZE).expect("non-empty");
    space.fill_zero(PageNum(0), &mut disk).expect("validated");
    let shared = Frame::new(page_from_bytes(b"shared"));
    space.install_page(PageNum(1), shared.clone(), &mut disk);
    for page in [PageNum(0), PageNum(1)] {
        let allocs = heap_allocs(|| space.check_write(page).expect("resident"));
        assert_eq!(allocs, 1, "{page:?}");
    }
    assert_eq!(space.cow_copies(), 1, "the zero page's is no copy");
    shared.with(|d| assert_eq!(&d[..6], b"shared"));
}

/// What the fleet storm migrates: 8 pages written at the source, and a
/// trace that reads 4 of them back after the migration.
fn storm_trace() -> Trace {
    let mut tb = Trace::builder();
    for i in 0..8 {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..4 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    tb.terminate()
}

/// A storm process on `node` running `trace`, its 8 writes done.
fn storm_process(world: &mut World, node: NodeId, trace: &Trace) -> ProcessId {
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 32 * PAGE_SIZE).expect("non-empty");
    let pid = world
        .create_process(node, "fleet", space, trace.clone())
        .expect("known node");
    world.run_for(node, pid, 8).expect("the write phase");
    pid
}

/// Allocations of one storm process's spawn and write phase besides its
/// 8 page copies (each write materialises a zero-filled page): the
/// space's region list, the process's name and microstate, and one each
/// of the tables its run fills, sized for the trace's 8 pages when the
/// process is created (the touched set, the page table, the LRU slab).
/// The trace is shared, not copied.
const SPAWN_ALLOCS: u64 = 3 + 3;

#[test]
fn a_storm_spawn_allocates_one_of_each_table() {
    // The node's process table grows by doubling now and then; the fewest
    // of four spawns is one where it did not. A table that grows page by
    // page, or a trace copied per process, fails this.
    let (mut world, nodes) = World::fleet(2, CostModel::default(), WireParams::default());
    let trace = storm_trace();
    assert_eq!(trace.pages(), 8);
    let mut spawn = || {
        heap_allocs(|| {
            storm_process(&mut world, nodes[0], &trace);
        })
    };
    spawn();
    let fewest = (0..4).map(|_| spawn()).min();
    assert_eq!(fewest, Some(8 + SPAWN_ALLOCS));
}

/// Allocations of one storm migration, IOU with one page of prefetch,
/// and of the migrant's run to its end. Excision makes 4: the AMap's
/// entries and the RIMAS page batch (each sized once), the Core blob's
/// bytes, and the Core message's item list (its third item spills the two
/// inline); the resident slots are one run, held inline. Insertion makes
/// 5: the decoded blob's name and microstate, which the rebuilt process
/// takes over, the page list, the LRU slab (sized for every page that may
/// fault in) and the regions; it walks the RIMAS items in place. The
/// remote run makes 2: growths of the `ExecStats::prefetch_pending` set.
/// No message is cloned, no frame is copied (the process only reads
/// after it migrates), and nothing is per page or per fault.
const STORM_ALLOCS: u64 = 4 + 5 + 2;

#[test]
fn a_storm_migration_allocates_a_constant() {
    // The fleet storm's per-process cost, on a two-node fabric that has
    // migrated one such process before. Tables that outlive a migration
    // (the segment table, the ledger) grow by doubling now and then; the
    // fewest of four migrations is one where none did. A per-page or
    // per-fault allocation on the migrate or fault path fails this.
    let (mut world, nodes) = World::fleet(2, CostModel::default(), WireParams::default());
    let src = MigrationManager::new(&mut world, nodes[0]);
    let dst = MigrationManager::new(&mut world, nodes[1]);
    let trace = storm_trace();
    let storm = |world: &mut World| {
        let pid = storm_process(world, nodes[0], &trace);
        heap_allocs(|| {
            let report = src
                .migrate_to(world, &dst, pid, Strategy::PureIou { prefetch: 1 })
                .expect("migration");
            assert_eq!(report.owed_pages, 8);
            let run = world.run(nodes[1], pid).expect("remote run");
            assert!(run.finished);
        })
    };
    storm(&mut world);
    let fewest = (0..4).map(|_| storm(&mut world)).min();
    assert_eq!(fewest, Some(STORM_ALLOCS));
}

/// The most heap one storm cell may hold at once. The blame cell (16-node
/// ring, low storm: 16 processes migrated by least-loaded placement)
/// peaks at 230.5 KiB, all of it simulated state:
/// * the world and its 16 migration managers: 10.8 KiB (nodes, ports,
///   fabric, ring routes);
/// * the 16 spawned processes: 113.1 KiB, ≈ 7.1 KiB each (8 written
///   512-byte frames, microstate, trace, page table, LRU slab);
/// * the storm: 73.6 KiB more, ≈ 4.6 KiB per migration (the destination's
///   space, process and decoded microstate; the segments and stand-ins
///   the source keeps to serve the IOUs);
/// * the post-storm runs: 24.2 KiB more held at their end, ≈ 1.5 KiB per
///   migrant (what its read faults leave in its stats and the serving
///   nodes' tables), and an 8.6 KiB transient peak.
///
/// That leaves 25.5 KiB of headroom. A `Full` journal, which the cell
/// only scanned for its fault times, cost 141.7 KiB on top of all this.
const STORM_CELL_PEAK_BYTES: u64 = 256 * 1024;

#[test]
fn a_storm_cell_keeps_no_journal() {
    let peak = peak_bytes(|| {
        cor_experiments::fleet::run_cell(cor_experiments::fleet::blame_cell_spec());
    });
    assert!(
        peak <= STORM_CELL_PEAK_BYTES,
        "a storm cell peaked at {peak} bytes"
    );
}
