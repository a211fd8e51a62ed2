//! The ladder: nanoseconds (or microseconds) per call of one public
//! function on a fixed input, fastest of twelve rounds — one rung per
//! thing a later issue may want to make cheaper, so the layer that moved
//! can be told from the layer that did not.
//!
//! Every rung builds its input outside the timed region, times a batch of
//! calls with one `Instant` pair, and divides. Rounds are interleaved
//! across rungs (round 1 of every rung, round 2 of every rung, …): a rung's
//! twelve rounds together take well under 0.1 s, so run back to back one
//! scheduler hiccup would spoil them all. Inputs are constants of the
//! benchmark (fixed seeds): the ladder ignores `--seed`.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

use cor_experiments::fleet;
use cor_experiments::runner::{self, Matrix};
use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::{PortId, PortRegistry};
use cor_ipc::protocol;
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_kernel::placement::{LocalityAware, Placement, PlacementCtx};
use cor_kernel::{CostModel, Trace, World};
use cor_mem::page::{frame_pool, page_from_bytes, Frame, PAGE_SIZE};
use cor_mem::{AddressSpace, Disk, PageNum, PageRange, SegmentId, VAddr};
use cor_migrate::{excise_process, insert_process, MigrationManager, Strategy};
use cor_net::{Fabric, FaultPlan, Topology, WireParams};
use cor_pool::Pool;
use cor_sim::{Clock, JournalLevel, Ledger, LedgerCategory, Pcg32, SimTime};
use cor_trace::{Journal, Profile, TraceEvent};

use crate::alloc;
use crate::metrics::LADDER;
use crate::redrive;
use crate::spans::Tracer;

/// Rounds per rung.
pub const ROUNDS: usize = 12;

/// Rounds for the three rungs that run whole matrix passes.
const MATRIX_ROUNDS: usize = 3;

/// One measured rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Rounds the value is the fastest of.
    pub rounds: usize,
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    let out = f();
    let dt = start.elapsed();
    black_box(out);
    dt
}

/// One rung being measured: `round` sets its input up, times a batch of
/// calls and returns the time they took.
struct Entry<'a> {
    name: &'static str,
    rounds: usize,
    /// Nanoseconds of a round are divided by this (calls per round, times
    /// 1000 when the rung reports microseconds).
    per: f64,
    round: Box<dyn FnMut() -> Duration + 'a>,
    best: Duration,
}

/// The rungs, collected first and measured together.
struct Rungs<'a>(Vec<Entry<'a>>);

impl<'a> Rungs<'a> {
    fn push(
        &mut self,
        name: &'static str,
        rounds: usize,
        per: f64,
        round: impl FnMut() -> Duration + 'a,
    ) {
        self.0.push(Entry {
            name,
            rounds,
            per,
            round: Box::new(round),
            best: Duration::MAX,
        });
    }

    /// A catalogue rung timing `calls` calls per round; the unit the
    /// catalogue declares for it (`ns` or `us`) sets the scale.
    fn rung(&mut self, name: &'static str, calls: f64, round: impl FnMut() -> Duration + 'a) {
        let per_call = match LADDER.iter().find(|(n, _)| *n == name) {
            Some((_, "ns")) => 1.0,
            Some((_, "us")) => 1e3,
            other => panic!("{name} is not a timed rung of the catalogue: {other:?}"),
        };
        self.push(name, ROUNDS, calls * per_call, round);
    }

    /// Runs the rounds, interleaved, and returns each rung's fastest.
    fn measure(mut self) -> BTreeMap<&'static str, f64> {
        for round in 0..ROUNDS {
            for e in self.0.iter_mut().filter(|e| round < e.rounds) {
                e.best = e.best.min((e.round)());
            }
        }
        self.0
            .iter()
            .map(|e| (e.name, e.best.as_nanos() as f64 / e.per))
            .collect()
    }
}

/// 600 scattered 7-page runs low in a 4 GB validated space — the shape of
/// the Lisp representatives — in install order.
fn lisp_pages() -> Vec<PageNum> {
    let mut rng = Pcg32::new(7);
    let mut pages = Vec::with_capacity(4200);
    let mut page = 10_000u64;
    for _ in 0..600 {
        page += rng.range(3, 40);
        pages.extend((0..7).map(|i| PageNum(page + i)));
        page += 7;
    }
    pages
}

/// Bytes the Lisp representatives validate (Table 4-1).
const LISP_VALIDATED: u64 = 4_228_129_280;

fn content_frames(n: u64) -> Vec<Frame> {
    (0..n)
        .map(|i| Frame::new(page_from_bytes(&i.to_le_bytes())))
        .collect()
}

fn torus8() -> Topology {
    Topology::torus(8, 8).with_seed(fleet::FLEET_SEED)
}

/// Inputs shared by rungs and built once, before any round.
struct Fixtures {
    pages: Vec<PageNum>,
    /// The Lisp-shaped space, every page of `pages` installed.
    space: AddressSpace,
    amap: cor_mem::AMap,
    probes: Vec<PageNum>,
    rimas: Message,
    /// Random (from, to) pairs on the 8×8 torus.
    pairs: Vec<(NodeId, NodeId)>,
    topo: Topology,
    candidates: Vec<NodeId>,
    loads: BTreeMap<NodeId, u64>,
    down: BTreeSet<NodeId>,
    lisp_t: cor_workloads::Workload,
    /// The 16-node blame cell (ring, least-loaded, low storm), journals kept.
    blame_world: World,
    paper: Vec<cor_workloads::Workload>,
    /// CSV rows of the first matrix pass at any journal level; every other
    /// level must reproduce them.
    matrix_rows: RefCell<Option<Vec<String>>>,
}

impl Fixtures {
    fn new() -> Fixtures {
        let pages = lisp_pages();
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        space.validate(VAddr(0), LISP_VALIDATED).expect("non-empty");
        for &p in &pages {
            space.install_page(p, Frame::zeroed(), &mut disk);
        }
        let mut rng = Pcg32::new(9);
        let probes = (0..65_536)
            .map(|_| PageNum(rng.range(0, 2_000_000)))
            .collect();
        let mut rng = Pcg32::new(11);
        let pairs = (0..2048)
            .map(|_| {
                let from = rng.below(64);
                (NodeId(from), NodeId((from + 1 + rng.below(63)) % 64))
            })
            .collect();
        let candidates: Vec<NodeId> = (1..64).step_by(2).map(NodeId).collect();
        let (_, _, blame_world) = redrive::fleet_cell(
            &mut Tracer::with_capacity(16),
            fleet::blame_cell_spec(),
            true,
        );
        Fixtures {
            amap: space.amap(),
            space,
            pages,
            probes,
            rimas: Message::new(MsgKind::Rimas, PortId(0)).push(MsgItem::Pages {
                base_page: 0,
                frames: vec![Frame::zeroed(); 877],
            }),
            pairs,
            topo: torus8(),
            loads: candidates
                .iter()
                .map(|&n| (n, u64::from(n.0 % 5)))
                .collect(),
            candidates,
            down: BTreeSet::new(),
            lisp_t: cor_workloads::lisp::lisp_t(),
            blame_world: blame_world.expect("kept"),
            paper: cor_workloads::all(),
            matrix_rows: RefCell::new(None),
        }
    }
}

fn mem<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    r.rung(
        "cor-mem.install_page_ns",
        fx.pages.len() as f64,
        move || {
            let mut space = AddressSpace::new();
            let mut disk = Disk::new();
            space.validate(VAddr(0), LISP_VALIDATED).expect("non-empty");
            let frames = content_frames(fx.pages.len() as u64);
            timed(|| {
                for (&p, f) in fx.pages.iter().zip(frames) {
                    space.install_page(p, f, &mut disk);
                }
                space
            })
        },
    );
    r.rung("cor-mem.fill_zero_ns", 2048.0, || {
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        space
            .validate(VAddr(0), 4096 * PAGE_SIZE)
            .expect("non-empty");
        timed(|| {
            for i in 0..2048 {
                space.fill_zero(PageNum(i), &mut disk).expect("validated");
            }
            space
        })
    });
    r.rung("cor-mem.cow_diverge_ns", 1024.0, || {
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        let frames = content_frames(1024);
        // The aliases keep every frame shared, so each write diverges.
        let aliases = frames.clone();
        for (i, f) in frames.into_iter().enumerate() {
            space.install_page(PageNum(i as u64), f, &mut disk);
        }
        let dt = timed(|| {
            for i in 0..1024u64 {
                space.check_write(PageNum(i)).expect("resident");
                space.write(PageNum(i).base(), b"dirty").expect("private");
            }
        });
        assert_eq!(space.cow_copies(), 1024);
        drop(aliases);
        dt
    });
    r.rung("cor-mem.amap_build_us", 16.0, move || {
        timed(|| {
            (0..16)
                .map(|_| black_box(&fx.space).amap().len())
                .sum::<usize>()
        })
    });
    r.rung(
        "cor-mem.amap_lookup_ns",
        fx.probes.len() as f64,
        move || {
            timed(|| {
                fx.probes
                    .iter()
                    .filter(|&&p| fx.amap.lookup(p).1.is_some())
                    .count()
            })
        },
    );
    r.rung("cor-mem.satisfy_imag_ns", 2048.0, || {
        let mut space = AddressSpace::new();
        let mut disk = Disk::new();
        space.map_imaginary(PageRange::new(PageNum(0), PageNum(2048)), SegmentId(7), 0);
        let frames = content_frames(2048);
        timed(|| {
            for (i, f) in frames.into_iter().enumerate() {
                space
                    .satisfy_imaginary_frame(PageNum(i as u64), f, &mut disk)
                    .expect("imaginary");
            }
            space
        })
    });
    r.rung("cor-mem.page_out_in_ns", 2048.0, || {
        // 256 pages under a 64-frame budget, scanned cyclically: every
        // touch pages one in from disk and an LRU victim out.
        let mut space = AddressSpace::with_frame_budget(64);
        let mut disk = Disk::new();
        for (i, f) in content_frames(256).into_iter().enumerate() {
            space.install_page(PageNum(i as u64), f, &mut disk);
        }
        timed(|| {
            for i in 0..2048u64 {
                let page = PageNum(i % 256);
                assert!(space.check_read(page).is_err(), "scan outruns the budget");
                space.page_in(page, &mut disk).expect("on disk");
            }
            space.pageouts()
        })
    });
    r.rung("cor-mem.content_hash_ns", 2048.0, || {
        // Fresh frames: the hash is memoized after the first call.
        let frames = content_frames(2048);
        timed(|| frames.iter().fold(0u64, |acc, f| acc ^ f.content_hash()))
    });
}

fn ipc<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    r.rung("cor-ipc.request_roundtrip_ns", 16384.0, || {
        timed(|| {
            (0..16_384u64)
                .filter(|&i| {
                    let m = protocol::imag_read_request(PortId(1), PortId(2), SegmentId(7), i, 4);
                    protocol::parse(black_box(&m)).is_some()
                })
                .count()
        })
    });
    r.rung("cor-ipc.reply_parse_owned_ns", 2048.0, || {
        // 1-frame and 16-frame replies, alternating.
        let replies: Vec<Message> = (0..2048u64)
            .map(|i| {
                let n = if i % 2 == 0 { 1 } else { 16 };
                protocol::imag_read_reply(PortId(2), SegmentId(7), i, vec![Frame::zeroed(); n])
            })
            .collect();
        timed(|| {
            let mut pages = 0;
            for m in replies {
                if let Ok(protocol::ProtocolMsg::ImagReadReply { frames, .. }) =
                    protocol::parse_owned(m)
                {
                    pages += frames.len();
                    frame_pool::give(frames);
                }
            }
            pages
        })
    });
    r.rung("cor-ipc.port_enq_deq_ns", 16384.0, || {
        let mut ports = PortRegistry::new();
        let p = ports.allocate(NodeId(0));
        timed(|| {
            (0..16_384)
                .filter(|_| {
                    ports
                        .enqueue(p, Message::new(MsgKind::User(1), p))
                        .expect("live port");
                    ports.dequeue(p).expect("live port").is_some()
                })
                .count()
        })
    });
    r.rung("cor-ipc.wire_size_877p_ns", 4096.0, move || {
        timed(|| {
            (0..4096)
                .map(|_| black_box(&fx.rimas).wire_size())
                .sum::<u64>()
        })
    });
}

/// A bare fabric: no kernel, just the clock and the two registries every
/// `Fabric` method takes.
struct Bare {
    fabric: Fabric,
    clock: Clock,
    ports: PortRegistry,
    segs: SegmentRegistry,
}

/// Pages of the segment the service rungs fault on (as in `saturation`).
const SEG_PAGES: u64 = 64;

impl Bare {
    fn new(params: WireParams, n: u32) -> Bare {
        let mut fabric = Fabric::new(params);
        let mut ports = PortRegistry::new();
        for node in 0..n {
            fabric.add_node(NodeId(node), &mut ports);
        }
        Bare {
            fabric,
            clock: Clock::new(),
            ports,
            segs: SegmentRegistry::new(),
        }
    }

    fn routed() -> Bare {
        let wire = WireParams {
            topology: Some(torus8()),
            ..WireParams::default()
        };
        Bare::new(wire, 64)
    }

    fn send(&mut self, from: NodeId, msg: Message) {
        self.fabric
            .send(&mut self.clock, &mut self.ports, &mut self.segs, from, msg)
            .expect("delivery");
    }

    fn serve(&mut self, node: NodeId) {
        let unknown = self
            .fabric
            .serve_nms(&mut self.clock, &mut self.ports, &mut self.segs, node)
            .expect("service");
        assert!(unknown.is_empty(), "the NMS understood every message");
    }

    fn pump(&mut self) -> usize {
        self.fabric
            .pump(&mut self.clock, &mut self.ports, &mut self.segs)
            .expect("pump")
    }

    /// A segment of [`SEG_PAGES`] distinct pages cached at `server`'s NMS.
    fn serve_segment(&mut self, server: NodeId) -> (PortId, SegmentId) {
        let nms = self.fabric.nms_port(server).expect("registered");
        let seg = self.segs.create(nms, SEG_PAGES);
        self.segs.add_refs(seg, SEG_PAGES).expect("fresh segment");
        self.fabric
            .install_cache(server, seg, content_frames(SEG_PAGES))
            .expect("registered");
        (nms, seg)
    }

    /// Queues `n` one-page read requests from node 0 at `target`, for
    /// consecutive pages of `seg`, answered on `reply`.
    fn queue_requests(&mut self, target: PortId, seg: SegmentId, reply: PortId, n: u64) {
        for i in 0..n {
            let req = protocol::imag_read_request(target, reply, seg, i % SEG_PAGES, 1)
                .with_seq(1_000_000 + i)
                .with_no_ious(true);
            self.fabric
                .send_detached(
                    &mut self.clock,
                    &mut self.ports,
                    &mut self.segs,
                    NodeId(0),
                    req,
                )
                .expect("injection");
        }
    }
}

fn one_page(dest: PortId) -> Message {
    Message::new(MsgKind::User(1), dest)
        .push(MsgItem::Pages {
            base_page: 0,
            frames: vec![Frame::zeroed()],
        })
        .with_no_ious(true)
}

fn net<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    r.rung("cor-net.send_direct_ns", 2048.0, || {
        let mut b = Bare::new(WireParams::default(), 2);
        let dest = b.ports.allocate(NodeId(1));
        let msgs: Vec<Message> = (0..2048).map(|_| one_page(dest)).collect();
        timed(|| {
            for m in msgs {
                b.send(NodeId(0), m);
            }
            b
        })
    });
    r.rung("cor-net.send_routed_ns", fx.pairs.len() as f64, move || {
        let mut b = Bare::routed();
        let inbox: Vec<PortId> = (0..64).map(|n| b.ports.allocate(NodeId(n))).collect();
        let msgs: Vec<(NodeId, Message)> = fx
            .pairs
            .iter()
            .map(|&(from, to)| (from, one_page(inbox[to.0 as usize])))
            .collect();
        timed(|| {
            for (from, m) in msgs {
                b.send(from, m);
            }
            b
        })
    });
    r.rung("cor-net.send_bulk_877p_us", 32.0, || {
        let mut b = Bare::new(WireParams::default(), 2);
        let dest = b.ports.allocate(NodeId(1));
        let msgs: Vec<Message> = (0..32)
            .map(|_| {
                Message::new(MsgKind::Rimas, dest)
                    .push(MsgItem::Pages {
                        base_page: 0,
                        frames: vec![Frame::zeroed(); 877],
                    })
                    .with_no_ious(true)
            })
            .collect();
        timed(|| {
            for m in msgs {
                b.send(NodeId(0), m);
            }
            b
        })
    });
    r.rung("cor-net.serve_hit_ns", 256.0, || {
        let mut b = Bare::new(WireParams::default(), 2);
        let (nms, seg) = b.serve_segment(NodeId(1));
        let reply = b.ports.allocate(NodeId(0));
        b.queue_requests(nms, seg, reply, 256);
        let dt = timed(|| b.serve(NodeId(1)));
        assert_eq!(b.ports.queue_len(reply), 256, "one reply per request");
        dt
    });
    r.rung("cor-net.serve_batched_ns", 64.0 * 16.0, || {
        // 64 service calls, each facing a 16-deep contiguous backlog it
        // answers with one 16-page reply; per page.
        let mut b = Bare::new(WireParams::default().hot_path(), 2);
        let (nms, seg) = b.serve_segment(NodeId(1));
        let reply = b.ports.allocate(NodeId(0));
        let mut total = Duration::ZERO;
        for _ in 0..64 {
            b.queue_requests(nms, seg, reply, 16);
            total += timed(|| b.serve(NodeId(1)));
        }
        assert_eq!(
            b.fabric.stats().batched_pages,
            64 * 16,
            "every page rode a batch"
        );
        total
    });
    r.rung("cor-net.serve_relay_ns", SEG_PAGES as f64, || {
        // client 0 -> relay 1 (stand-in + forward entry) -> server 2.
        let mut b = Bare::new(WireParams::default(), 3);
        let (_, seg) = b.serve_segment(NodeId(2));
        let scratch = b.ports.allocate(NodeId(1));
        let iou = Message::new(MsgKind::User(2), scratch)
            .push(MsgItem::Iou {
                base_page: 0,
                seg,
                seg_offset: 0,
                pages: SEG_PAGES,
            })
            .with_no_ious(true);
        b.send(NodeId(2), iou);
        let delivered = b
            .ports
            .dequeue(scratch)
            .expect("live port")
            .expect("delivered");
        let Some(MsgItem::Iou { seg: stand_in, .. }) = delivered.items.first() else {
            panic!("expected a rewritten IOU");
        };
        let relay_nms = b.fabric.nms_port(NodeId(1)).expect("registered");
        let reply = b.ports.allocate(NodeId(0));
        b.queue_requests(relay_nms, *stand_in, reply, SEG_PAGES);
        let dt = timed(|| b.pump());
        assert_eq!(
            b.ports.queue_len(reply),
            SEG_PAGES as usize,
            "every request answered"
        );
        dt
    });
    r.rung("cor-net.pump_idle_ns_per_node", 1024.0 * 64.0, || {
        let mut b = Bare::routed();
        timed(|| (0..1024).map(|_| b.pump()).sum::<usize>())
    });
    r.rung("cor-net.route_ns", fx.pairs.len() as f64, move || {
        timed(|| {
            fx.pairs
                .iter()
                .map(|&(from, to)| fx.topo.route(from, to).expect("connected").len())
                .sum::<usize>()
        })
    });
    r.rung("cor-net.send_lossy_ns", 2048.0, || {
        let wire = WireParams {
            faults: Some(FaultPlan::dropping(0x10E5, 0.20)),
            ..WireParams::default()
        };
        let mut b = Bare::new(wire, 2);
        let dest = b.ports.allocate(NodeId(1));
        let msgs: Vec<Message> = (0..2048).map(|_| one_page(dest)).collect();
        let dt = timed(|| {
            for m in msgs {
                b.send(NodeId(0), m);
            }
        });
        assert_eq!(
            b.ports.queue_len(dest),
            2048,
            "every message delivered once"
        );
        assert!(b.fabric.reliability.retransmissions.get() > 0);
        dt
    });
}

fn read_each(pages: u64) -> Trace {
    let mut tb = Trace::builder();
    for i in 0..pages {
        tb.read(PageNum(i).base(), 64);
    }
    tb.terminate()
}

/// The storm's process shape: 8 pages written, half read back later.
fn spawn_8p(world: &mut World, node: NodeId) -> cor_kernel::ProcessId {
    let mut space = AddressSpace::new();
    space.validate(VAddr(0), 32 * PAGE_SIZE).expect("non-empty");
    let mut tb = Trace::builder();
    for i in 0..8 {
        tb.write(PageNum(i).base(), 64);
    }
    for i in 0..4 {
        tb.read(PageNum(i * 2).base(), 64);
    }
    let pid = world
        .create_process(node, "fleet", space, tb.terminate())
        .expect("known node");
    world.run_for(node, pid, 8).expect("write phase");
    pid
}

fn kernel<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    r.rung("cor-kernel.imag_fault_us", 512.0, || {
        // Node b's process reads 512 pages owed by a segment cached at
        // node a's NMS: one remote fault each.
        let (mut w, a, b) = World::testbed();
        let nms_a = w.fabric.nms_port(a).expect("registered");
        let seg = w.segs.create(nms_a, 512);
        w.segs.add_refs(seg, 512).expect("fresh segment");
        w.fabric
            .install_cache(a, seg, content_frames(512))
            .expect("registered");
        let mut space = AddressSpace::new();
        space.map_imaginary(PageRange::new(PageNum(0), PageNum(512)), seg, 0);
        let pid = w
            .create_process(b, "owed", space, read_each(512))
            .expect("known node");
        let dt = timed(|| w.run(b, pid).expect("run"));
        assert_eq!(w.process(b, pid).expect("process").stats.imag_faults, 512);
        dt
    });
    r.rung("cor-kernel.zero_fault_ns", 2048.0, || {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        space
            .validate(VAddr(0), 2048 * PAGE_SIZE)
            .expect("non-empty");
        let pid = w
            .create_process(a, "zero", space, read_each(2048))
            .expect("known node");
        let dt = timed(|| w.run(a, pid).expect("run"));
        assert_eq!(w.process(a, pid).expect("process").stats.zero_faults, 2048);
        dt
    });
    r.rung("cor-kernel.disk_fault_ns", 2048.0, || {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        {
            let disk = &mut w.node_mut(a).expect("known node").disk;
            for i in 0..2048u64 {
                space.install_on_disk(PageNum(i), page_from_bytes(&i.to_le_bytes()), disk);
            }
        }
        let pid = w
            .create_process(a, "disk", space, read_each(2048))
            .expect("known node");
        let dt = timed(|| w.run(a, pid).expect("run"));
        assert_eq!(w.process(a, pid).expect("process").stats.disk_faults, 2048);
        dt
    });
    r.rung("cor-kernel.exec_hit_ns", 16384.0, || {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        {
            let disk = &mut w.node_mut(a).expect("known node").disk;
            for (i, f) in content_frames(64).into_iter().enumerate() {
                space.install_page(PageNum(i as u64), f, disk);
            }
        }
        let mut tb = Trace::builder();
        for i in 0..16_384u64 {
            tb.read(PageNum(i % 64).base(), 64);
        }
        let pid = w
            .create_process(a, "hit", space, tb.terminate())
            .expect("known node");
        let dt = timed(|| w.run(a, pid).expect("run"));
        let stats = &w.process(a, pid).expect("process").stats;
        assert_eq!(stats.zero_faults + stats.disk_faults + stats.imag_faults, 0);
        dt
    });
    r.rung("cor-kernel.settle_idle_ns_per_node", 1024.0 * 64.0, || {
        // The storm's world: 64 NMS queues and 64 manager backers to poll.
        let wire = WireParams {
            topology: Some(torus8()),
            ..WireParams::default()
        };
        let (mut world, nodes) = World::fleet(64, CostModel::default(), wire);
        let _managers: Vec<MigrationManager> = nodes
            .iter()
            .map(|&n| MigrationManager::new(&mut world, n))
            .collect();
        timed(|| {
            (0..1024)
                .map(|_| world.settle().expect("settle"))
                .sum::<usize>()
        })
    });
    r.rung("cor-kernel.placement_ns", 4096.0, move || {
        let ctx = PlacementCtx {
            source: NodeId(0),
            candidates: &fx.candidates,
            loads: &fx.loads,
            topology: Some(&fx.topo),
            down: &fx.down,
            seed: fleet::FLEET_SEED,
        };
        let mut policy = LocalityAware::new();
        timed(|| {
            (0..4096u64)
                .filter_map(|salt| policy.choose(black_box(&ctx), salt))
                .count()
        })
    });
}

fn migrate<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    let kpages = fx.lisp_t.paper.real as f64 / PAGE_SIZE as f64 / 1e3;
    // Lisp-T built on node a, ready to leave for node b.
    let staged = move || {
        let (mut world, a, b) = World::testbed();
        let dst = MigrationManager::new(&mut world, b);
        let pid = fx.lisp_t.build(&mut world, a).expect("workload build");
        (world, a, b, dst, pid)
    };
    r.rung("cor-migrate.excise_us_per_kpage", kpages, move || {
        let (mut world, a, _, dst, pid) = staged();
        timed(|| excise_process(&mut world, a, pid, dst.control_port()).expect("excise"))
    });
    r.rung("cor-migrate.insert_us_per_kpage", kpages, move || {
        let (mut world, a, b, dst, pid) = staged();
        let (context, _) = excise_process(&mut world, a, pid, dst.control_port()).expect("excise");
        timed(|| insert_process(&mut world, b, context).expect("insert"))
    });
    r.rung("cor-migrate.migrate_8p_us", 64.0, || {
        // The storm's process shape, on the direct wire.
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let pids: Vec<_> = (0..64).map(|_| spawn_8p(&mut world, a)).collect();
        timed(|| {
            for pid in pids {
                src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
                    .expect("migration");
            }
            world
        })
    });
}

// Helper rungs the two ratio figures are computed from.
const MATRIX_OFF: &str = "matrix pass, journal off";
const MATRIX_FULL: &str = "matrix pass, journal full";
const MATRIX_SERIAL: &str = "matrix pass, one thread";
const MATRIX_POOLED: &str = "matrix pass, every thread";

fn trace<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    for (name, level) in [
        ("cor-trace.record_off_ns", JournalLevel::Off),
        ("cor-trace.record_summary_ns", JournalLevel::Summary),
        ("cor-trace.record_full_ns", JournalLevel::Full),
    ] {
        r.rung(name, 16384.0, move || {
            // One fault's worth of journal traffic: an event and a
            // fine-grained span around it.
            let mut j = Journal::with_level(level);
            timed(|| {
                for i in 0..16_384u64 {
                    let at = SimTime::from_micros(i);
                    let span = j.span_start(at, "imag-fault", Some(NodeId(1)));
                    j.record_with(at, || TraceEvent::FillZero {
                        pid: 1,
                        node: NodeId(1),
                        page: i,
                    });
                    j.span_end(at, span);
                }
                j
            })
        });
    }
    let kspans = Profile::from_journals(&fx.blame_world.journals()).len() as f64 / 1e3;
    r.rung("cor-trace.profile_us_per_kspan", kspans, move || {
        timed(|| Profile::from_journals(&fx.blame_world.journals()))
    });
    // The re-driven matrix at both ends of the journal scale; the level
    // must not change a modelled output.
    for (name, level) in [
        (MATRIX_OFF, JournalLevel::Off),
        (MATRIX_FULL, JournalLevel::Full),
    ] {
        r.push(name, MATRIX_ROUNDS, 1.0, move || {
            let mut tr = Tracer::with_capacity(1024);
            let mut rows = Vec::new();
            let dt = timed(|| {
                for w in &fx.paper {
                    for s in Matrix::paper_strategies() {
                        rows.push(redrive::trial(&mut tr, w, s, level).trial.csv_row());
                    }
                }
            });
            let mut reference = fx.matrix_rows.borrow_mut();
            let reference = reference.get_or_insert_with(|| rows.clone());
            assert_eq!(
                *reference, rows,
                "the journal level changed a modelled output"
            );
            dt
        });
    }
}

/// Allocated bytes per journal record at `Full`: one Minprog trial counted
/// at `Full` and at `Off`, the difference over the records `Full` kept.
fn full_bytes_per_event() -> f64 {
    let minprog = cor_workloads::minprog::workload();
    let counted = |level| {
        let mut tr = Tracer::with_capacity(16);
        alloc::arm();
        let run = redrive::trial(&mut tr, &minprog, Strategy::PureIou { prefetch: 0 }, level);
        (alloc::disarm().bytes, run.journal_records)
    };
    counted(JournalLevel::Full); // warm the thread-local pools
    let (off_bytes, _) = counted(JournalLevel::Off);
    let (full_bytes, records) = counted(JournalLevel::Full);
    full_bytes.saturating_sub(off_bytes) as f64 / records as f64
}

fn sim(r: &mut Rungs<'_>) {
    for (name, coarse) in [
        ("cor-sim.ledger_record_ns", false),
        ("cor-sim.ledger_coarse_ns", true),
    ] {
        r.rung(name, 65536.0, move || {
            let mut ledger = Ledger::new();
            ledger.set_coarse(coarse);
            timed(|| {
                for i in 0..65_536u64 {
                    ledger.record(SimTime::from_micros(i), 576, LedgerCategory::FaultSupport);
                }
                ledger
            })
        });
    }
}

/// Worker threads the pool rungs use: everything the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pool<'a>(r: &mut Rungs<'a>, fx: &'a Fixtures) {
    let pool = Pool::new(nproc());
    r.rung("cor-pool.dispatch_us_per_job", 64.0, move || {
        timed(|| pool.run((0..64u64).map(|i| move || i).collect::<Vec<_>>()))
    });
    // Informational: no timed pass of any workload uses more than one thread.
    for (name, threads) in [(MATRIX_SERIAL, 1), (MATRIX_POOLED, nproc())] {
        r.push(name, MATRIX_ROUNDS, 1.0, move || {
            timed(|| runner::matrix_csv(&mut Matrix::with_threads(threads), &fx.paper))
        });
    }
}

/// Runs every rung, in catalogue order.
pub fn run() -> Vec<Rung> {
    let fx = Fixtures::new();
    let mut rungs = Rungs(Vec::new());
    mem(&mut rungs, &fx);
    ipc(&mut rungs, &fx);
    net(&mut rungs, &fx);
    kernel(&mut rungs, &fx);
    migrate(&mut rungs, &fx);
    trace(&mut rungs, &fx);
    sim(&mut rungs);
    pool(&mut rungs, &fx);
    let mut values = rungs.measure();
    values.insert("cor-trace.full_bytes_per_event", full_bytes_per_event());
    values.insert(
        "cor-trace.full_overhead_pct",
        100.0 * (values[MATRIX_FULL] - values[MATRIX_OFF]) / values[MATRIX_OFF],
    );
    values.insert(
        "cor-pool.matrix_speedup",
        values[MATRIX_SERIAL] / values[MATRIX_POOLED],
    );
    LADDER
        .iter()
        .map(|&(name, unit)| Rung {
            name,
            unit,
            value: *values
                .get(name)
                .unwrap_or_else(|| panic!("no rung measures {name}")),
            rounds: match name {
                "cor-trace.full_overhead_pct" | "cor-pool.matrix_speedup" => MATRIX_ROUNDS,
                "cor-trace.full_bytes_per_event" => 1,
                _ => ROUNDS,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn rounds_interleave_and_the_fastest_is_kept() {
        let order = RefCell::new(Vec::new());
        let tick = Cell::new(0u64);
        let mut rungs = Rungs(Vec::new());
        for (name, rounds) in [("a", 3), ("b", 1)] {
            let (order, tick) = (&order, &tick);
            rungs.push(name, rounds, 2.0, move || {
                order.borrow_mut().push(name);
                tick.set(tick.get() + 1);
                // a: 100, 80, 60 ns; b: 90 ns.
                Duration::from_nanos(110 - 10 * tick.get())
            });
        }
        let values = rungs.measure();
        assert_eq!(*order.borrow(), ["a", "b", "a", "a"]);
        assert_eq!(values["a"], 35.0, "fastest round / calls");
        assert_eq!(values["b"], 45.0);
    }
}
