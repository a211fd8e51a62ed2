//! The per-node NetMsgServer (paper §2.4): the pages it holds, the faults
//! it forwards on stand-ins, and the answers it relays back.
//!
//! In content-centric terms (Mosko, *Process Migration over CCNx*) each
//! [`NmsState`] is a forwarding triad: a Content Store, a Pending Interest
//! Table (`pending`, swept by [`Fabric::sweep_dead_pit_waiters`]) and a
//! FIB (`forward`, walked by [`Fabric::resolve_owed`]). Its Content Store
//! names every page the way every read request does, by `(segment,
//! offset)`: the segments it backs (`cache`) and the segments it holds as a
//! replica home (`replicas`). The service loop that drives them —
//! [`Fabric::serve_nms`] and its handlers — and every other part of
//! [`Fabric`]'s surface that reads NetMsgServer state live here too.

use cor_ipc::message::{Message, MsgItem};
use cor_ipc::port::{PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::page::{frame_pool, Frame};
use cor_mem::space::SegmentId;
use cor_mem::SegmentStore;
use cor_sim::{Clock, IdMap, SimDuration, SimTime, SmallVec};
use cor_trace::{SpanId, TraceEvent};

use crate::error::NetError;
use crate::fabric::Fabric;

/// Largest number of pages a single batched reply may carry
/// ([`WireParams::batch_replies`](crate::WireParams::batch_replies)).
const MAX_BATCH_PAGES: u64 = 32;

/// Where a stand-in segment's pages really come from.
#[derive(Debug, Clone, Copy)]
struct ForwardEntry {
    /// The origin segment at the backing site.
    orig_seg: SegmentId,
    /// Offset of the stand-in's page 0 within the origin segment.
    orig_base: u64,
    /// Pages claimed against the origin (released at stand-in death).
    claim: u64,
}

/// A read request as the service loop carries it: `count` pages of `seg`
/// from `offset`, answered to `reply` echoing `seq`.
#[derive(Debug, Clone, Copy)]
struct ReadRequest {
    seg: SegmentId,
    offset: u64,
    count: u64,
    reply: PortId,
    seq: u64,
}

/// A pending reply relay: a request on a stand-in that was forwarded
/// upstream, whose answer must be renamed back to the stand-in segment
/// before delivery to the original faulter. Its `count` lets a covering
/// (possibly wider) reply carve out exactly the slice this waiter needs.
#[derive(Debug, Clone, Copy)]
struct PendingRelay {
    /// The request as the faulter made it, against the stand-in.
    req: ReadRequest,
    /// When the waiter was parked behind an already-in-flight upstream
    /// fetch (`None` for the waiter whose own request went upstream);
    /// unparking records the interval as a `coalesce-park` span.
    parked_at: Option<SimTime>,
}

impl PendingRelay {
    /// The reply this waiter is owed: `frames` renamed to the stand-in
    /// segment it faulted on, echoing its sequence number.
    fn answer(&self, frames: Vec<Frame>) -> Message {
        let req = &self.req;
        protocol::imag_read_reply(req.reply, req.seg, req.offset, frames)
            .with_seq(req.seq)
            .with_no_ious(true)
    }
}

/// Per-node NetMsgServer state.
#[derive(Debug)]
struct NmsState {
    node: NodeId,
    port: PortId,
    /// The segments this NMS backs, with their page data, by
    /// `(segment, offset)`: every read request names pages that way.
    cache: SegmentStore,
    /// The segments this NMS holds as a replica home, written through at
    /// their page-out ([`Fabric::replicate_backing`]), by `(segment,
    /// offset)` like `cache`.
    replicas: SegmentStore,
    /// Stand-in segments this NMS created for remote imaginary objects.
    forward: IdMap<SegmentId, ForwardEntry>,
    /// Keyed by (origin segment, origin offset) of a forwarded request,
    /// waiters in arrival order, the usual one inline.
    /// With [`WireParams::coalesce`](crate::WireParams::coalesce) off a key
    /// never holds more than one waiter (latest wins, the seed
    /// semantics); with it on, duplicate in-flight requests park here
    /// CCNx-PIT-style and are all answered from the single upstream reply.
    pending: IdMap<(SegmentId, u64), SmallVec<PendingRelay>>,
    /// Message-handling CPU charged to this node. Accounting, not NMS
    /// memory: it survives a crash.
    cpu: SimDuration,
}

impl NmsState {
    fn new(node: NodeId, port: PortId) -> Self {
        NmsState {
            node,
            port,
            cache: SegmentStore::default(),
            replicas: SegmentStore::default(),
            forward: IdMap::default(),
            pending: IdMap::default(),
            cpu: SimDuration::ZERO,
        }
    }

    /// The reply answering `req` straight from the cache, assembled in a
    /// recycled frame vector (contents identical to a fresh `to_vec`).
    /// `Ok(None)` when this NMS does not back the segment at all.
    ///
    /// # Errors
    ///
    /// [`NetError::MissingData`] when the cached segment is too short.
    fn reply_from_cache(&self, req: &ReadRequest) -> Result<Option<Message>, NetError> {
        let Some(cached) = self.cache.range(req.seg, req.offset, req.count) else {
            if !self.cache.holds(req.seg) {
                return Ok(None);
            }
            let (seg, offset) = (req.seg, req.offset);
            return Err(NetError::MissingData { seg, offset });
        };
        let mut frames = frame_pool::take(cached.len());
        frames.extend_from_slice(cached);
        let msg = protocol::imag_read_reply(req.reply, req.seg, req.offset, frames)
            .with_seq(req.seq)
            .with_no_ious(true);
        Ok(Some(msg))
    }

    /// Records `relay` as waiting on `key`. Returns `true` when coalescing
    /// is on and a fetch wide enough to cover it is already in flight for
    /// the same origin page: the waiter is parked (stamped `now`) to
    /// piggyback on that upstream reply, and nothing need be forwarded.
    /// With coalescing off the latest forwarded request replaces any
    /// earlier waiter on the same origin page (the seed semantics).
    fn park(
        &mut self,
        key: (SegmentId, u64),
        mut relay: PendingRelay,
        coalesce: bool,
        now: SimTime,
    ) -> bool {
        let waiters = self.pending.entry(key).or_default();
        if !coalesce {
            waiters.clear();
            waiters.push(relay);
            return false;
        }
        let in_flight = waiters.iter().any(|w| w.req.count >= relay.req.count);
        if in_flight {
            relay.parked_at = Some(now);
        }
        waiters.push(relay);
        in_flight
    }
}

/// Every node's NetMsgServer, in ascending [`NodeId`] order — the one
/// ordered set of registered nodes.
#[derive(Debug, Default)]
pub(crate) struct NmsTable {
    /// Sorted by `node`.
    servers: Vec<NmsState>,
    /// [`Fabric::serve_nms`]'s batch of deferred cache hits, empty between
    /// calls and kept so its capacity is reused.
    batch: Vec<ReadRequest>,
}

impl NmsTable {
    fn index(&self, node: NodeId) -> Result<usize, usize> {
        self.servers.binary_search_by_key(&node, |n| n.node)
    }

    /// `node`'s NetMsgServer; [`NetError::UnknownNode`] if it was never
    /// registered.
    fn get(&self, node: NodeId) -> Result<&NmsState, NetError> {
        let i = self.index(node).map_err(|_| NetError::UnknownNode(node))?;
        Ok(&self.servers[i])
    }

    fn get_mut(&mut self, node: NodeId) -> Result<&mut NmsState, NetError> {
        let i = self.index(node).map_err(|_| NetError::UnknownNode(node))?;
        Ok(&mut self.servers[i])
    }

    /// The registered nodes, ascending.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.servers.iter().map(|n| n.node)
    }

    /// The segments `node` holds as a replica home.
    pub(crate) fn replicas(&self, node: NodeId) -> Option<&SegmentStore> {
        self.get(node).ok().map(|n| &n.replicas)
    }

    /// The segments `node` holds as a replica home, for write-through
    /// and for dropping a dead segment.
    pub(crate) fn replicas_mut(&mut self, node: NodeId) -> Result<&mut SegmentStore, NetError> {
        Ok(&mut self.get_mut(node)?.replicas)
    }

    /// Wipes `node`'s volatile state — a wiped NMS is a fresh NMS on the
    /// same port. Returns `false` if `node` was never registered.
    pub(crate) fn wipe(&mut self, node: NodeId) -> bool {
        let Ok(nms) = self.get_mut(node) else {
            return false;
        };
        *nms = NmsState {
            cpu: nms.cpu,
            ..NmsState::new(node, nms.port)
        };
        true
    }
}

/// The upstream hop of a fetch `node` forwarded for origin segment
/// `oseg`: the segment's backing home. A dead segment or port yields
/// `node` itself — the waiters can never be answered either way.
fn pit_upstream(
    ports: &PortRegistry,
    segs: &SegmentRegistry,
    node: NodeId,
    oseg: SegmentId,
) -> NodeId {
    let home = segs
        .backing_port(oseg)
        .ok()
        .and_then(|p| ports.home(p).ok());
    home.unwrap_or(node)
}

impl Fabric {
    /// Registers `node` with the fabric, starting its NetMsgServer.
    /// Returns the NMS service port.
    pub fn add_node(&mut self, node: NodeId, ports: &mut PortRegistry) -> PortId {
        let port = ports.allocate(node);
        ports.set_served(port, true);
        let fresh = NmsState::new(node, port);
        match self.nms.index(node) {
            Ok(i) => self.nms.servers[i] = fresh,
            Err(i) => self.nms.servers.insert(i, fresh),
        }
        port
    }

    /// The NMS service port of `node`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if the node was never added.
    pub fn nms_port(&self, node: NodeId) -> Result<PortId, NetError> {
        Ok(self.nms.get(node)?.port)
    }

    /// Hands the NMS on `node` the backing data for a segment it is to
    /// serve (used when a caller pre-arranges NMS backing rather than
    /// relying on automatic IOU caching).
    pub fn install_cache(
        &mut self,
        node: NodeId,
        seg: SegmentId,
        frames: Vec<Frame>,
    ) -> Result<(), NetError> {
        let nms = self.nms.get_mut(node)?;
        self.stats.pages_cached += frames.len() as u64;
        nms.cache.insert(seg, frames);
        Ok(())
    }

    /// Bills `cpu` of message handling to `node`.
    pub(crate) fn charge_cpu(&mut self, node: NodeId, cpu: SimDuration) {
        if let Ok(n) = self.nms.get_mut(node) {
            n.cpu += cpu;
        }
        self.stats.cpu_total += cpu;
    }

    /// Message-handling CPU charged to one node.
    pub fn node_cpu(&self, node: NodeId) -> SimDuration {
        self.nms.get(node).map(|n| n.cpu).unwrap_or_default()
    }

    /// Pages currently held in `node`'s NMS cache.
    pub fn cached_pages_live(&self, node: NodeId) -> u64 {
        self.nms.get(node).map_or(0, |n| n.cache.pages())
    }

    /// Live stand-in segments on `node`.
    pub fn standins_live(&self, node: NodeId) -> usize {
        self.nms.get(node).map_or(0, |n| n.forward.len())
    }

    /// Parked pending-interest waiters on `node` (all keys), for tests.
    pub fn pending_waiters(&self, node: NodeId) -> usize {
        let pending = self.nms.get(node).map(|n| &n.pending);
        pending.map_or(0, |p| p.values().map(|w| w.len()).sum())
    }

    /// Copies one cached page (if the NMS cache of `node` holds it) into
    /// `node`'s disk backer. Returns `true` if a page was written.
    pub fn flush_cached_page_to_disk(&mut self, node: NodeId, seg: SegmentId, offset: u64) -> bool {
        let cached = self
            .nms
            .get(node)
            .ok()
            .and_then(|n| n.cache.range(seg, offset, 1));
        let Some([frame]) = cached else {
            return false;
        };
        self.disk_install_page(node, seg, offset, frame.clone());
        true
    }

    /// Outgoing translation: the sending NMS caches every out-of-line page
    /// run of `msg`, becomes its backer, and substitutes an IOU item.
    /// Returns the pages cached.
    pub(crate) fn cache_page_items(
        &mut self,
        clock: &mut Clock,
        segs: &mut SegmentRegistry,
        from: NodeId,
        msg: &mut Message,
    ) -> Result<u64, NetError> {
        let mut cached_total = 0u64;
        let nms_port = self.nms_port(from)?;
        for item in &mut msg.items {
            if let MsgItem::Pages { base_page, frames } = item {
                let pages = frames.len() as u64;
                if pages == 0 {
                    continue;
                }
                let seg = segs.create(nms_port, pages);
                segs.add_refs(seg, pages)?;
                let cached = std::mem::take(frames);
                cached_total += pages;
                // Page-out: the sending NMS becomes these pages' primary
                // home, and writes them through to the segment's replica
                // homes, if any.
                self.replicate_backing(clock, from, seg, &cached)?;
                self.install_cache(from, seg, cached)?;
                *item = MsgItem::Iou {
                    base_page: *base_page,
                    seg,
                    seg_offset: 0,
                    pages,
                };
            }
        }
        Ok(cached_total)
    }

    /// Incoming translation on the receiving NMS `dest`. It creates a
    /// local stand-in segment for every IOU item of `msg` owed from another
    /// node, remembering the forwarding path back to the origin segment.
    pub(crate) fn translate_incoming(
        &mut self,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        dest: NodeId,
        msg: &mut Message,
    ) -> Result<(), NetError> {
        let nms = self.nms.get_mut(dest)?;
        for item in &mut msg.items {
            let MsgItem::Iou {
                seg,
                seg_offset,
                pages,
                ..
            } = item
            else {
                continue;
            };
            let backer_home = ports.home(segs.backing_port(*seg)?)?;
            if backer_home == dest {
                continue; // the data is owed locally; no stand-in needed
            }
            let stand_in = segs.create(nms.port, *pages);
            segs.add_refs(stand_in, *pages)?;
            let entry = ForwardEntry {
                orig_seg: *seg,
                orig_base: *seg_offset,
                claim: *pages,
            };
            nms.forward.insert(stand_in, entry);
            self.stats.standins_created += 1;
            // The item now names the stand-in, from its page 0.
            (*seg, *seg_offset) = (stand_in, 0);
        }
        Ok(())
    }

    /// The lowest-numbered live node above `after` whose NMS queue has
    /// work, with its NMS port. A crashed node is skipped, not
    /// served: whatever was enqueued directly on its port stays queued
    /// (and its port ready), which must not keep [`Fabric::pump`] going.
    pub(crate) fn next_ready_nms(
        &self,
        ports: &PortRegistry,
        after: Option<NodeId>,
    ) -> Option<(NodeId, PortId)> {
        ports
            .ready_ports()
            .filter_map(|port| {
                let node = ports.home(port).ok()?;
                let is_nms = self.nms.get(node).ok()?.port == port;
                (is_nms && Some(node) > after && !self.is_crashed(node)).then_some((node, port))
            })
            .min_by_key(|&(node, _)| node)
    }

    /// Processes every message queued at `node`'s NMS port: serves read
    /// requests from cache, forwards requests on stand-ins toward their
    /// origin, relays renamed replies, and handles segment deaths.
    /// Returns messages the NMS did not understand (none are expected in a
    /// healthy run).
    ///
    /// # Errors
    ///
    /// Port/segment failures, and [`NetError::MissingData`] if a request
    /// names pages the cache does not hold.
    pub fn serve_nms(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
    ) -> Result<Vec<Message>, NetError> {
        let port = self.nms_port(node)?;
        self.fire_due_crashes(clock.now(), ports, None);
        if self.is_crashed(node) {
            // A dead NetMsgServer answers nothing; anything that somehow
            // reached its queue dies with the node.
            while ports.dequeue(port)?.is_some() {
                self.reliability.crash_dropped_messages.incr();
            }
            return Ok(Vec::new());
        }
        let mut unhandled = Vec::new();
        // Batched COR service: cache-hit read requests are deferred into
        // `batch` while the queue drains, then answered in merged
        // contiguous runs. The batch flushes before any message that takes
        // a different path, so relative ordering against relays, replies
        // and deaths is preserved. With `batch_replies` off (the default)
        // the buffer is never used and every request answers immediately,
        // byte-identical to the seed.
        let batching = self.params.batch_replies;
        let mut batch = std::mem::take(&mut self.nms.batch);
        while let Some(msg) = ports.dequeue(port)? {
            clock.advance(self.params.nms_service);
            // Parse by value: relayed replies hand their frames through
            // without cloning the page vector.
            match protocol::parse_owned(msg) {
                Ok(ProtocolMsg::ImagReadRequest {
                    seg,
                    offset,
                    count,
                    reply,
                    seq,
                }) => {
                    let req = ReadRequest {
                        seg,
                        offset,
                        count,
                        reply,
                        seq,
                    };
                    let hit = |n: &NmsState| n.cache.range(seg, offset, count).is_some();
                    if batching && self.nms.get(node).is_ok_and(hit) {
                        batch.push(req);
                    } else {
                        self.flush_batch(clock, ports, segs, node, &mut batch)?;
                        self.handle_read_request(clock, ports, segs, node, req)?;
                    }
                }
                Ok(ProtocolMsg::ImagReadReply {
                    seg,
                    offset,
                    frames,
                    seq,
                }) => {
                    self.flush_batch(clock, ports, segs, node, &mut batch)?;
                    if self.relay_reply(clock, ports, segs, node, (seg, offset), frames)? {
                        continue;
                    }
                    if seq == 0 && self.params.faults.is_none() {
                        return Err(NetError::MissingData { seg, offset });
                    }
                    // A reply with no pending relay is stale: the request
                    // it answers was already satisfied (e.g. a duplicated
                    // or reordered response). Drop it — idempotent
                    // handling.
                    self.reliability.stale_replies.incr();
                    self.note(clock.now(), || TraceEvent::NetStale {
                        seg: seg.0,
                        offset,
                        seq,
                    });
                }
                Ok(ProtocolMsg::ImagSegmentDeath { seg }) => {
                    self.flush_batch(clock, ports, segs, node, &mut batch)?;
                    self.handle_death(clock, ports, segs, node, seg)?;
                }
                Err(msg) => unhandled.push(msg),
            }
        }
        self.flush_batch(clock, ports, segs, node, &mut batch)?;
        self.nms.batch = batch;
        Ok(unhandled)
    }

    /// Answers every deferred cache-hit read request, merging requests for
    /// pages in the same contiguous fragment run (same segment, same reply
    /// port) into one multi-page reply with a single amortized message
    /// cost. A run covering exactly one request answers through the
    /// regular path with that request's sequence number; a multi-request
    /// run answers once with sequence 0 and the covering range, and the
    /// receiver matches outstanding requests by coverage.
    fn flush_batch(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        batch: &mut Vec<ReadRequest>,
    ) -> Result<(), NetError> {
        batch.sort_by_key(|r| (r.seg.0, r.reply.0, r.offset));
        let mut i = 0;
        while i < batch.len() {
            let first = batch[i];
            let run_start = first.offset;
            let mut run_end = run_start + first.count;
            let mut j = i + 1;
            while let Some(next) = batch.get(j) {
                let new_end = run_end.max(next.offset + next.count);
                if next.seg != first.seg
                    || next.reply != first.reply
                    || next.offset > run_end
                    || new_end - run_start > MAX_BATCH_PAGES
                {
                    break;
                }
                run_end = new_end;
                j += 1;
            }
            let members = (j - i) as u64;
            i = j;
            if members == 1 {
                self.handle_read_request(clock, ports, segs, node, first)?;
                continue;
            }
            // The covering run is itself a read request, with sequence 0.
            let pages = run_end - run_start;
            let run = ReadRequest {
                count: pages,
                seq: 0,
                ..first
            };
            let nms = self.nms.get(node)?;
            let reply_msg = nms.reply_from_cache(&run)?.ok_or(NetError::MissingData {
                seg: first.seg,
                offset: run_start,
            })?;
            self.stats.batched_replies += 1;
            self.stats.batched_pages += pages;
            self.note(clock.now(), || TraceEvent::NetBatch {
                node,
                requests: members,
                pages,
            });
            self.send(clock, ports, segs, node, reply_msg)?;
        }
        batch.clear();
        Ok(())
    }

    fn handle_read_request(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        req: ReadRequest,
    ) -> Result<(), NetError> {
        let (seg, offset) = (req.seg, req.offset);
        let coalesce = self.params.coalesce;
        let nms = self.nms.get_mut(node)?;
        if let Some(reply_msg) = nms.reply_from_cache(&req)? {
            self.send(clock, ports, segs, node, reply_msg)?;
            return Ok(());
        }
        let Some(fwd) = nms.forward.get(&seg).copied() else {
            return Err(NetError::MissingData { seg, offset });
        };
        // Forward toward the origin; the reply comes back to us so we
        // can rename it to the stand-in before final delivery. The
        // forwarded request keeps the original sequence number, so the
        // final renamed reply still pairs with the faulter's request.
        let my_port = nms.port;
        let key = (fwd.orig_seg, fwd.orig_base + offset);
        let relay = PendingRelay {
            req,
            parked_at: None,
        };
        if nms.park(key, relay, coalesce, clock.now()) {
            self.stats.coalesced_requests += 1;
            self.note(clock.now(), || TraceEvent::NetCoalesce {
                node,
                seg: key.0 .0,
                offset: key.1,
            });
            return Ok(());
        }
        let backer = segs.backing_port(fwd.orig_seg)?;
        let upstream_req = protocol::imag_read_request(backer, my_port, key.0, key.1, req.count)
            .with_seq(req.seq)
            .with_no_ious(true);
        let sent = self.send(clock, ports, segs, node, upstream_req);
        if let Err(NetError::NodeDown { .. } | NetError::SourceUnreachable { .. }) = sent {
            // The upstream hop is gone (crashed peer or exhausted
            // retries): every waiter parked under this key would hang
            // forever waiting on a reply that cannot come. Unpark
            // them — the faulters' own error/retry ladders take over
            // — and propagate the failure unchanged.
            self.fail_pit_key(clock, ports, segs, node, key, false)?;
        }
        sent.map(|_| ())
    }

    /// Relays an upstream reply carrying `frames` for the origin page
    /// `at` to every parked waiter it covers, each renamed to the waiter's
    /// stand-in, in (origin offset, arrival) order; waiters asking past
    /// the reply stay parked. Returns `false` when no waiter matched. After
    /// a failed send the remaining covered waiters are still unparked, but
    /// not answered.
    fn relay_reply(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        (seg, offset): (SegmentId, u64),
        frames: Vec<Frame>,
    ) -> Result<bool, NetError> {
        let end = offset + frames.len() as u64;
        let mut relayed = false;
        let mut failed = None;
        for o in offset..end {
            let nms = self.nms.get_mut(node)?;
            let Some(mut waiters) = nms.pending.remove(&(seg, o)) else {
                continue;
            };
            let covered = |w: &PendingRelay| o + w.req.count <= end;
            if !waiters.iter().all(covered) {
                let kept = waiters.iter().filter(|w| !covered(w)).copied().collect();
                nms.pending.insert((seg, o), kept);
                waiters.retain(covered);
            }
            relayed |= !waiters.is_empty();
            for relay in waiters.iter() {
                if failed.is_some() {
                    break;
                }
                if let (Some(parked), Some(j)) = (relay.parked_at, &mut self.journal) {
                    // Coalesced waiters spent this interval parked in the
                    // pending-interest table; recorded as a root span
                    // because the parking started before whatever span is
                    // currently open.
                    j.closed_span(
                        parked,
                        clock.now(),
                        "coalesce-park",
                        Some(node),
                        SpanId::NONE,
                    );
                }
                let lo = (o - offset) as usize;
                let hi = lo + relay.req.count as usize;
                let mut sub = frame_pool::take(hi - lo);
                sub.extend_from_slice(&frames[lo..hi]);
                failed = self.send(clock, ports, segs, node, relay.answer(sub)).err();
            }
        }
        if let Some(e) = failed {
            return Err(e);
        }
        frame_pool::give(frames);
        Ok(relayed)
    }

    fn handle_death(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        seg: SegmentId,
    ) -> Result<(), NetError> {
        let nms = self.nms.get_mut(node)?;
        if nms.cache.remove(seg) {
            return Ok(()); // our cached copy is released; nothing further
        }
        if let Some(fwd) = nms.forward.remove(&seg) {
            // The stand-in died: release its claim against the origin.
            self.release_refs(clock, ports, segs, node, fwd.orig_seg, fwd.claim)?;
        }
        Ok(())
    }

    /// Fails the pending-interest key `key` on `node`, whose upstream
    /// fetch cannot be answered: unparks its waiters, counts each as
    /// [`ReliabilityStats::pit_waiters_rerouted`](cor_sim::ReliabilityStats::pit_waiters_rerouted)
    /// (with `try_replicas`, when a live replica holds its pages and the
    /// renamed reply goes out through the retry path) or
    /// [`pit_waiters_failed`](cor_sim::ReliabilityStats::pit_waiters_failed)
    /// (the faulter's empty reply queue pushes it onto the ordinary
    /// recovery ladder), and journals one `NetPitFail`.
    fn fail_pit_key(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
        node: NodeId,
        key: (SegmentId, u64),
        try_replicas: bool,
    ) -> Result<(), NetError> {
        let nms = self.nms.get_mut(node).ok();
        let Some(waiters) = nms.and_then(|nms| nms.pending.remove(&key)) else {
            return Ok(());
        };
        let (oseg, ooff) = key;
        let upstream = pit_upstream(ports, segs, node, oseg);
        let total = waiters.len() as u64;
        let mut rerouted = 0u64;
        for w in waiters {
            let served = try_replicas
                .then(|| self.replica_read(clock, node, upstream, oseg, ooff, w.req.count))
                .flatten();
            let sent =
                served.map(|(_, frames, _)| self.send(clock, ports, segs, node, w.answer(frames)));
            match sent {
                Some(Ok(_)) => {
                    self.reliability.pit_waiters_rerouted.incr();
                    rerouted += 1;
                }
                // No live replica holds the pages, or the waiter's own
                // node died too and there is nothing left to deliver to.
                None
                | Some(Err(NetError::NodeDown { .. } | NetError::SourceUnreachable { .. })) => {
                    self.reliability.pit_waiters_failed.incr();
                }
                Some(Err(e)) => return Err(e),
            }
        }
        self.note(clock.now(), || TraceEvent::NetPitFail {
            node,
            upstream,
            seg: oseg.0,
            offset: ooff,
            waiters: total,
            rerouted,
        });
        Ok(())
    }

    /// Fails or re-routes every pending-interest waiter whose upstream
    /// fetch died with a crashed peer: for each live node, each parked
    /// key (deterministic segment/offset order) whose origin backer's
    /// home is down goes through [`Fabric::fail_pit_key`] with replica
    /// re-routing. Without this sweep a coalesced waiter whose upstream
    /// crashed mid-flight would hang parked forever.
    pub(crate) fn sweep_dead_pit_waiters(
        &mut self,
        clock: &mut Clock,
        ports: &mut PortRegistry,
        segs: &mut SegmentRegistry,
    ) -> Result<(), NetError> {
        // Ascending node order; a crash mid-sweep wipes in place, so the
        // table never changes length under the walk.
        for i in 0..self.nms.servers.len() {
            let nms = &self.nms.servers[i];
            let node = nms.node;
            if self.is_crashed(node) {
                continue;
            }
            let mut keys: Vec<(SegmentId, u64)> = nms.pending.keys().copied().collect();
            keys.sort_unstable_by_key(|&(s, o)| (s.0, o));
            for key in keys {
                let upstream = pit_upstream(ports, segs, node, key.0);
                // A waiter is unanswerable once the upstream lost its
                // volatile state — whether it is still down or already
                // answering the wire again after an amnesiac reboot (the
                // in-flight fetch was purged either way). The one
                // exception: a rebooted node that has since re-cached the
                // segment serves fetches normally again, so its waiters
                // stay parked for the live reply.
                let recached = || {
                    let nms = self.nms.get(upstream);
                    nms.is_ok_and(|n| n.cache.holds(key.0))
                };
                let upstream_answers = !self.is_crashed(upstream)
                    && (!self.lost_volatile_state(upstream) || recached());
                if upstream != node && upstream_answers {
                    continue;
                }
                self.fail_pit_key(clock, ports, segs, node, key, true)?;
            }
        }
        Ok(())
    }

    /// Resolves where the data behind `seg` at page `offset` ultimately
    /// lives, following the NMS stand-in forwarding chain and translating
    /// the offset at each hop: a stand-in's first-hop backer is its local
    /// NetMsgServer, but the pages are really held wherever the chain
    /// ends (an NMS cache or a user-level backer). Returns the terminal
    /// `(node, segment, offset)` — the coordinates the crash-recovery
    /// ladder and the flush-drainer need. The chain may legitimately end
    /// at a crashed node.
    ///
    /// # Errors
    ///
    /// Dead segments or ports along the chain.
    pub fn resolve_owed(
        &self,
        ports: &PortRegistry,
        segs: &SegmentRegistry,
        seg: SegmentId,
        offset: u64,
    ) -> Result<(NodeId, SegmentId, u64), NetError> {
        let mut current = seg;
        let mut off = offset;
        // The chain length is bounded by the number of nodes.
        for _ in 0..=self.nms.servers.len() {
            let port = segs.backing_port(current)?;
            let home = ports.home(port)?;
            let nms = self.nms.get(home).ok().filter(|nms| nms.port == port);
            match nms.and_then(|nms| nms.forward.get(&current)) {
                Some(f) => {
                    off += f.orig_base;
                    current = f.orig_seg;
                }
                // The NMS cache or a user-level backer holds it.
                None => return Ok((home, current, off)),
            }
        }
        Err(NetError::MissingData { seg, offset })
    }
}
