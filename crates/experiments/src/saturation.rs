//! Saturation study (ours): how many remote COR faults per second can one
//! node serve, and what does the latency tail look like under load?
//!
//! The paper measures a single fault's round trip (§4.3.3, ~115 ms); this
//! study drives the remote-fault path as a service under load. Two
//! harnesses share one setup (a serving NetMsgServer with a cached
//! segment, a faulting client, optionally a relaying stand-in node):
//!
//! * **Closed loop** — one fault in flight at a time; measures intrinsic
//!   service latency (the paper's number) and the zero-queueing baseline.
//! * **Open loop** — arrivals at a fixed offered rate on the *virtual*
//!   clock (seeded page choice for the hot-set pattern), independent of
//!   service progress; reports offered vs. achieved faults/sec and
//!   p50/p95/p99 sojourn time, so the knee and the saturated regime are
//!   both visible.
//!
//! Two access patterns stress the two hot-path optimizations:
//!
//! * `scan` — sequential offsets; a backlog at the server is a contiguous
//!   fragment run, which [`WireParams::batch_replies`] answers in one
//!   multi-page reply.
//! * `hot` (relayed) — a small hot set faulted through a stand-in relay;
//!   duplicate in-flight requests for the same origin page park in the
//!   relay's pending-interest table under [`WireParams::coalesce`].
//!
//! Everything is deterministic: fixed seeds, cells fanned across a
//! [`cor_pool::Pool`] and rendered serially in cell order, byte-identical at any
//! thread count.

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::PortId;
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::NodeId;
use cor_kernel::{CostModel, World};
use cor_mem::page::{frame_pool, Frame};
use cor_mem::space::SegmentId;
use cor_net::WireParams;
use cor_sim::{Pcg32, SimDuration, SimTime};
use cor_trace::LogHistogram;

use crate::render::{commas, millis};
use crate::study::{fan_out, Column, Study};

/// Seed for the hot-set page choice; fixed for reproducibility.
pub const SAT_SEED: u64 = 0x5A7;

/// Pages cached at the serving NMS (and covered by the relay stand-in).
const SEG_PAGES: u64 = 64;

/// Size of the hot set the `hot` pattern hammers.
const HOT_PAGES: u64 = 4;

/// Sequence-number base for harness requests, clear of kernel traffic.
const SEQ_BASE: u64 = 1_000_000;

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct SatSpec {
    /// `closed` (one fault in flight) or `open` (fixed arrival rate).
    pub mode: &'static str,
    /// `scan` (sequential offsets) or `hot` (seeded small hot set).
    pub pattern: &'static str,
    /// Fault through a stand-in relay node instead of directly at the
    /// serving NMS (three-node world; exercises the forward/rename path
    /// and the pending-interest table).
    pub relay: bool,
    /// Run with the optimized hot path: batched replies + coalescing +
    /// coarse (totals-only) ledger. Off is the seed configuration.
    pub optimized: bool,
    /// Offered load in faults per virtual second (0 for closed loop).
    pub offered_fps: u64,
    /// Total faults issued.
    pub requests: u64,
}

impl SatSpec {
    /// Table label, e.g. `open-scan@20` or `closed-hot-relay`.
    pub fn label(&self) -> String {
        let relay = if self.relay { "-relay" } else { "" };
        match self.mode {
            "closed" => format!("closed-{}{relay}", self.pattern),
            _ => format!("open-{}{relay}@{}", self.pattern, self.offered_fps),
        }
    }
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct SatOutcome {
    /// The cell that produced it.
    pub spec: SatSpec,
    /// Faults served to completion (always `spec.requests`).
    pub served: u64,
    /// Offered rate over the arrival span (closed loop: equals achieved).
    pub offered_fps: f64,
    /// Served faults per virtual second, first arrival to last completion.
    pub achieved_fps: f64,
    /// Sojourn-time percentiles (arrival to reply drain), in µs.
    pub p50_us: u64,
    /// 95th percentile, in µs.
    pub p95_us: u64,
    /// 99th percentile, in µs.
    pub p99_us: u64,
    /// Multi-request batches the server answered with one reply.
    pub batched_replies: u64,
    /// Pages those batches carried.
    pub batched_pages: u64,
    /// Requests that piggybacked on an in-flight fetch at the relay.
    pub coalesced: u64,
    /// Total bytes ledgered to the wire.
    pub wire_bytes: u64,
}

/// The sweep's cells: closed-loop baselines plus offered-load ladders for
/// both patterns, each in seed and optimized configurations. The scan
/// ladder brackets the unoptimized knee (~14 faults/s on the default
/// wire) and the optimized one (~2× higher); the relayed hot ladder
/// brackets the relay's lower capacity.
pub fn cells() -> Vec<SatSpec> {
    let mut v = Vec::new();
    for optimized in [false, true] {
        v.push(SatSpec {
            mode: "closed",
            pattern: "scan",
            relay: false,
            optimized,
            offered_fps: 0,
            requests: 64,
        });
        for offered_fps in [4, 8, 11, 14, 20, 26, 34] {
            v.push(SatSpec {
                mode: "open",
                pattern: "scan",
                relay: false,
                optimized,
                offered_fps,
                requests: 256,
            });
        }
        for offered_fps in [3, 6, 12, 18] {
            v.push(SatSpec {
                mode: "open",
                pattern: "hot",
                relay: true,
                optimized,
                offered_fps,
                requests: 192,
            });
        }
    }
    v
}

/// The quick slice of [`cells`] — what the reproduction gate and the
/// latency baseline run: the closed loops, a low/knee/past-knee scan
/// point and one relayed hot point per configuration.
pub fn gate_cells() -> Vec<SatSpec> {
    cells()
        .into_iter()
        .filter(|c| {
            c.mode == "closed"
                || (c.pattern == "scan" && matches!(c.offered_fps, 4 | 14 | 26))
                || (c.pattern == "hot" && c.offered_fps == 12)
        })
        .collect()
}

/// The built world and everything the load loops need to drive it.
struct Bench {
    world: World,
    client: NodeId,
    /// Where requests go: the serving NMS port, or the relay's.
    target_port: PortId,
    /// The segment requests name: the served segment, or its stand-in.
    target_seg: SegmentId,
    /// Client-homed port replies land on.
    reply_port: PortId,
}

/// Builds the serving world for `spec`: a cached segment of
/// [`SEG_PAGES`] distinct-content pages at the server, and for relay
/// cells a stand-in segment on the middle node (created by shipping an
/// IOU, exactly as migration does).
fn build(spec: SatSpec) -> Bench {
    let wire = if spec.optimized {
        WireParams::default().hot_path()
    } else {
        WireParams::default()
    };
    let n = if spec.relay { 3 } else { 2 };
    let (mut world, nodes) = World::fleet(n, CostModel::default(), wire);
    let client = nodes[0];
    let server = *nodes.last().expect("nodes exist");
    if spec.optimized {
        world.fabric.ledger.set_coarse(true);
    }
    let server_nms = world.fabric.nms_port(server).expect("server registered");
    let frames: Vec<Frame> = (0..SEG_PAGES)
        .map(|i| Frame::from_bytes(&i.to_le_bytes()))
        .collect();
    let seg = world.segs.create(server_nms, SEG_PAGES);
    world.segs.add_refs(seg, SEG_PAGES).expect("fresh segment");
    world
        .fabric
        .install_cache(server, seg, frames)
        .expect("server registered");
    let reply_port = world.ports.allocate(client);
    let (target_port, target_seg) = if spec.relay {
        let relay = nodes[1];
        // Ship an IOU for the whole segment to a scratch port on the
        // relay; the fabric's receive path creates the stand-in segment
        // and forward entry, and rewrites the item to name the stand-in.
        let scratch = world.ports.allocate(relay);
        let iou = Message::new(MsgKind::User(0x5A7), scratch)
            .push(MsgItem::Iou {
                base_page: 0,
                seg,
                seg_offset: 0,
                pages: SEG_PAGES,
            })
            .with_no_ious(true);
        world.send_from(server, iou).expect("iou delivery");
        let delivered = world
            .ports
            .dequeue(scratch)
            .expect("scratch port exists")
            .expect("iou delivered");
        let stand_in = match delivered.items.first() {
            Some(MsgItem::Iou { seg, .. }) => *seg,
            other => panic!("expected a rewritten IOU, got {other:?}"),
        };
        let relay_nms = world.fabric.nms_port(relay).expect("relay registered");
        (relay_nms, stand_in)
    } else {
        (server_nms, seg)
    };
    Bench {
        world,
        client,
        target_port,
        target_seg,
        reply_port,
    }
}

/// The page each request faults on, by request index.
fn offsets_for(spec: SatSpec) -> Vec<u64> {
    let mut rng = Pcg32::with_stream(SAT_SEED, 0x10AD);
    (0..spec.requests)
        .map(|i| match spec.pattern {
            "hot" => rng.range(0, HOT_PAGES),
            _ => i % SEG_PAGES,
        })
        .collect()
}

/// Runs one cell.
///
/// # Panics
///
/// Panics on internal simulation errors — a saturation cell has no
/// expected failure mode.
pub fn run_cell(spec: SatSpec) -> SatOutcome {
    serve(spec, |_, _| {})
}

/// [`run_cell`], showing `on_reply` the segment the client asked for and
/// every message it dequeues from its reply port.
fn serve(spec: SatSpec, mut on_reply: impl FnMut(SegmentId, &Message)) -> SatOutcome {
    let mut b = build(spec);
    let offsets = offsets_for(spec);
    let mut hist = LogHistogram::new();
    let t0 = b.world.clock.now();
    let mut served = 0u64;
    let mut last_completion = t0;
    let arrival_span;
    if spec.mode == "closed" {
        // One fault in flight at a time: intrinsic service latency.
        for (i, &offset) in offsets.iter().enumerate() {
            let start = b.world.clock.now();
            let req =
                protocol::imag_read_request(b.target_port, b.reply_port, b.target_seg, offset, 1)
                    .with_seq(SEQ_BASE + i as u64)
                    .with_no_ious(true);
            b.world.send_from(b.client, req).expect("request send");
            b.world.settle().expect("service round");
            let reply = b
                .world
                .ports
                .dequeue(b.reply_port)
                .expect("reply port exists")
                .expect("closed-loop reply arrived");
            on_reply(b.target_seg, &reply);
            match protocol::parse_owned(reply) {
                Ok(ProtocolMsg::ImagReadReply { frames, .. }) => frame_pool::give(frames),
                other => panic!("expected a read reply, got {other:?}"),
            }
            last_completion = b.world.clock.now();
            hist.record_duration(last_completion.since(start));
            served += 1;
        }
        arrival_span = last_completion.since(t0);
    } else {
        // Open loop: arrivals at the offered rate on the virtual clock,
        // regardless of service progress. Requests are injected detached
        // (the generator pays only the local NMS handoff, so it is never
        // the bottleneck); each settle round then drains the backlog and
        // the drained replies complete every outstanding request they
        // cover (a covering reply completes duplicates too — batched
        // replies carry seq 0 and match by range).
        let interval = SimDuration::from_micros(1_000_000 / spec.offered_fps.max(1));
        arrival_span = interval.saturating_mul(spec.requests.saturating_sub(1));
        let arrival = |i: u64| -> SimTime { t0 + interval.saturating_mul(i) };
        let mut next = 0u64;
        let mut outstanding: Vec<(u64, SimTime)> = Vec::new();
        while served < spec.requests {
            while next < spec.requests && arrival(next) <= b.world.clock.now() {
                let offset = offsets[next as usize];
                let req = protocol::imag_read_request(
                    b.target_port,
                    b.reply_port,
                    b.target_seg,
                    offset,
                    1,
                )
                .with_seq(SEQ_BASE + next)
                .with_no_ious(true);
                b.world
                    .fabric
                    .send_detached(
                        &mut b.world.clock,
                        &mut b.world.ports,
                        &mut b.world.segs,
                        b.client,
                        req,
                    )
                    .expect("request injection");
                outstanding.push((offset, arrival(next)));
                next += 1;
            }
            if outstanding.is_empty() {
                // Idle: jump to the next arrival.
                let at = arrival(next);
                let now = b.world.clock.now();
                if at > now {
                    b.world.clock.advance(at.since(now));
                }
                continue;
            }
            // Each round completes every fault it finds outstanding, so
            // outstanding faults were injected since the last round: a
            // round that serves nothing lost them, and waiting would spin.
            let processed = b.world.settle().expect("service round");
            assert!(processed > 0, "{}: faults lost", spec.label());
            while let Some(msg) = b.world.ports.dequeue(b.reply_port).expect("reply port") {
                on_reply(b.target_seg, &msg);
                let Ok(ProtocolMsg::ImagReadReply {
                    seg: rseg,
                    offset: ro,
                    frames,
                    ..
                }) = protocol::parse_owned(msg)
                else {
                    panic!("unexpected message on the reply port");
                };
                let n = frames.len() as u64;
                frame_pool::give(frames);
                let now = b.world.clock.now();
                outstanding.retain(|&(o, at)| {
                    let covered = rseg == b.target_seg && o >= ro && o < ro + n;
                    if covered {
                        hist.record_duration(now.since(at));
                        served += 1;
                        last_completion = now;
                    }
                    !covered
                });
            }
        }
    }
    let stats = b.world.fabric.stats();
    SatOutcome {
        spec,
        served,
        offered_fps: if spec.mode == "closed" {
            served as f64 / arrival_span.as_secs_f64().max(f64::MIN_POSITIVE)
        } else {
            spec.offered_fps as f64
        },
        achieved_fps: served as f64
            / last_completion
                .since(t0)
                .as_secs_f64()
                .max(f64::MIN_POSITIVE),
        p50_us: hist.p50(),
        p95_us: hist.p95(),
        p99_us: hist.p99(),
        batched_replies: stats.batched_replies,
        batched_pages: stats.batched_pages,
        coalesced: stats.coalesced_requests,
        wire_bytes: b.world.fabric.ledger.total(),
    }
}

/// The sweep: every cell of [`cells`] fanned across the pool; its table
/// is a section of `all`, its CSV `results/saturation.csv`.
pub static STUDY: Study<SatSpec, SatOutcome> = Study {
    title: |_| {
        "Saturation study (ours): remote COR fault service under load\n\
         (closed loop = one fault in flight, the paper's §4.3.3 shape; open\n\
         loop = fixed arrival rate on the virtual clock; `opt` runs batched\n\
         multi-page replies + in-flight coalescing + coarse stats, all\n\
         default-off knobs that leave the paper tables byte-identical)"
            .to_string()
    },
    cells,
    run: |_, pool, cells| fan_out(pool, cells, run_cell),
    columns: &[
        Column::same("cell", "cell", |o| o.spec.label()),
        Column::csv("mode", |o| o.spec.mode.to_string()),
        Column::csv("pattern", |o| o.spec.pattern.to_string()),
        Column::csv("relay", |o| o.spec.relay.to_string()),
        Column::both(
            "opt",
            |o| if o.spec.optimized { "yes" } else { "no" }.to_string(),
            "optimized",
            |o| o.spec.optimized.to_string(),
        ),
        Column::csv("requests", |o| o.spec.requests.to_string()),
        Column::csv("served", |o| o.served.to_string()),
        Column::both(
            "offered/s",
            |o| format!("{:.2}", o.offered_fps),
            "offered_fps",
            |o| format!("{:.3}", o.offered_fps),
        ),
        Column::both(
            "achieved/s",
            |o| format!("{:.2}", o.achieved_fps),
            "achieved_fps",
            |o| format!("{:.3}", o.achieved_fps),
        ),
        Column::both("p50 ms", |o| millis(o.p50_us), "p50_us", |o| o.p50_us.to_string()),
        Column::both("p95 ms", |o| millis(o.p95_us), "p95_us", |o| o.p95_us.to_string()),
        Column::both("p99 ms", |o| millis(o.p99_us), "p99_us", |o| o.p99_us.to_string()),
        Column::same("batches", "batched_replies", |o| o.batched_replies.to_string()),
        Column::csv("batched_pages", |o| o.batched_pages.to_string()),
        Column::same("coalesced", "coalesced", |o| o.coalesced.to_string()),
        Column::both("wire bytes", |o| commas(o.wire_bytes), "wire_bytes", |o| {
            o.wire_bytes.to_string()
        }),
    ],
};

/// Renders outcomes as CSV (the benchmark digests slices of the sweep
/// with it).
pub fn csv_for(outcomes: &[SatOutcome]) -> String {
    STUDY.csv(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(
        mode: &'static str,
        pattern: &'static str,
        relay: bool,
        optimized: bool,
        offered_fps: u64,
    ) -> SatSpec {
        SatSpec {
            mode,
            pattern,
            relay,
            optimized,
            offered_fps,
            requests: if mode == "closed" { 32 } else { 96 },
        }
    }

    #[test]
    fn closed_loop_serves_every_fault_without_queueing() {
        // Its p50 against the paper's §4.3.3 fault cost is a gate claim.
        let o = run_cell(cell("closed", "scan", false, false, 0));
        assert_eq!(o.served, 32);
        assert_eq!(o.p50_us, o.p99_us, "no queueing in a closed loop");
    }

    #[test]
    fn low_load_keeps_up_and_overload_does_not() {
        let low = run_cell(cell("open", "scan", false, false, 4));
        assert_eq!(low.served, 96);
        assert!(
            low.achieved_fps >= 0.95 * low.offered_fps,
            "low load must keep up: {} vs {}",
            low.achieved_fps,
            low.offered_fps
        );
        let over = run_cell(cell("open", "scan", false, false, 34));
        assert!(
            over.achieved_fps < 0.9 * over.offered_fps,
            "past the knee the server cannot keep up: {} vs {}",
            over.achieved_fps,
            over.offered_fps
        );
        assert!(over.p99_us > low.p99_us, "queueing fattens the tail");
    }

    #[test]
    fn batching_raises_the_scan_capacity() {
        let base = run_cell(cell("open", "scan", false, false, 34));
        let opt = run_cell(cell("open", "scan", false, true, 34));
        assert!(opt.batched_replies > 0, "overload backlogs must batch");
        assert!(base.batched_replies == 0 && base.coalesced == 0);
        assert!(
            opt.achieved_fps >= 1.15 * base.achieved_fps,
            "batching must lift saturated throughput ≥15%: {} vs {}",
            opt.achieved_fps,
            base.achieved_fps
        );
    }

    /// Every cell is judged by the bytes it serves: each reply the client
    /// dequeues names the segment it asked for and carries, page for
    /// page, what the server cached at those offsets.
    #[test]
    fn every_reply_carries_the_pages_cached_at_its_offsets() {
        for spec in cells() {
            let mut pages = 0u64;
            serve(spec, |asked, reply| {
                let Some(ProtocolMsg::ImagReadReply {
                    seg,
                    offset,
                    frames,
                    ..
                }) = protocol::parse(reply)
                else {
                    panic!("{}: not a read reply: {reply:?}", spec.label());
                };
                assert_eq!(seg, asked, "{}: reply names another segment", spec.label());
                for (i, frame) in (offset..).zip(&frames) {
                    let cached = Frame::from_bytes(&i.to_le_bytes());
                    assert!(frame.same_contents(&cached), "{}: page {i}", spec.label());
                }
                pages += frames.len() as u64;
            });
            assert!(pages > 0, "{}: no reply checked", spec.label());
        }
    }

    /// The committed sweep's unoptimized scan ladder keeps up at its
    /// lowest offered load, and its p99 never falls from one rung to the
    /// next: queueing only ever fattens the tail.
    #[test]
    fn scan_ladder_keeps_up_at_low_load_and_its_tail_never_shrinks() {
        let ladder: Vec<SatOutcome> = cells()
            .into_iter()
            .filter(|c| c.mode == "open" && c.pattern == "scan" && !c.optimized)
            .map(run_cell)
            .collect();
        let low = &ladder[0];
        assert_eq!(low.spec.offered_fps, 4, "the ladder starts at low load");
        assert!(low.achieved_fps >= 0.95 * low.offered_fps, "low load fell behind: {low:?}");
        for rung in ladder.windows(2) {
            assert!(rung[1].p99_us >= rung[0].p99_us, "p99 fell up the ladder: {rung:?}");
        }
    }
}
