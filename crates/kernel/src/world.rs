//! The simulated testbed: nodes, the pager/scheduler, and the executor.

use std::collections::BTreeMap;

use cor_ipc::message::Message;
use cor_ipc::port::{PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::SegmentRegistry;
use cor_ipc::NodeId;
use cor_mem::page::frame_pool;
#[cfg(test)]
use cor_mem::{space::SegmentId, Fault, PageNum, PageRange, VAddr};
use cor_mem::{AddressSpace, SegmentStore};
use cor_net::{Fabric, SendReport, WireParams};
use cor_sim::{Clock, IdMap, JournalLevel, SimDuration, SimTime};
use cor_trace::{Journal, LogHistogram, MetricsRegistry, SpanId, TraceEvent};

use crate::costs::CostModel;
use crate::error::KernelError;
use crate::node::Node;
use crate::process::{Process, ProcessId};
#[cfg(test)]
use crate::process::RunStatus;
use crate::program::Trace;
#[cfg(test)]
use crate::program::write_pattern;

/// Span-id base of the fabric's journal: the world journal mints ids
/// from 1 and the fabric from `FABRIC_SPAN_BASE + 1`, so a merged export
/// of both journals never sees an id collision.
pub const FABRIC_SPAN_BASE: u64 = 1 << 32;

/// Outcome of running a process (or a slice of its trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecReport {
    /// When execution started.
    pub started_at: SimTime,
    /// Virtual time consumed.
    pub elapsed: SimDuration,
    /// Trace ops executed.
    pub ops_executed: usize,
    /// Whether the process terminated.
    pub finished: bool,
}

/// How a background drain round makes owed pages crash-safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainMode {
    /// Pull owed pages across the wire (an ordinary prefetch fetch),
    /// removing the dependency outright. Costs wire traffic.
    Prefetch,
    /// Copy owed pages from the backing site's volatile cache (or
    /// user-level backer) onto that site's crash-survivable disk backer
    /// ("flush to Sesame"). The pages stay owed, but a crash can no
    /// longer lose them. Costs only disk service at the backer.
    FlushToDisk,
}

/// An opt-in background IOU draining policy: each idle round makes up to
/// `pages_per_round` owed pages crash-safe in the chosen [`DrainMode`],
/// monotonically shrinking [`World::residual_dependencies`]. All drain
/// traffic is ledgered under [`cor_sim::LedgerCategory::Drain`] so the
/// paper's byte categories are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainPolicy {
    /// The draining mechanism.
    pub mode: DrainMode,
    /// Page budget per round (zero disables draining).
    pub pages_per_round: u64,
}

impl DrainPolicy {
    /// A prefetch-mode policy.
    pub fn prefetch(pages_per_round: u64) -> Self {
        DrainPolicy {
            mode: DrainMode::Prefetch,
            pages_per_round,
        }
    }

    /// A flush-to-disk policy.
    pub fn flush(pages_per_round: u64) -> Self {
        DrainPolicy {
            mode: DrainMode::FlushToDisk,
            pages_per_round,
        }
    }
}

pub(crate) struct BackerEntry {
    pub(crate) node: NodeId,
    pub(crate) store: SegmentStore,
}

/// The simulated distributed system.
///
/// Owns the clock, the global port/segment name services, the network
/// [`Fabric`], every [`Node`], and the registered user-level backers. All
/// experiment drivers and the migration machinery operate through this
/// type.
pub struct World {
    /// The virtual clock.
    pub clock: Clock,
    /// The port name service and queues.
    pub ports: PortRegistry,
    /// The imaginary segment table.
    pub segs: SegmentRegistry,
    /// The network.
    pub fabric: Fabric,
    /// Kernel service times.
    pub costs: CostModel,
    /// Pages to prefetch per imaginary fault (the paper studies
    /// 0, 1, 3, 7, 15).
    pub prefetch: u64,
    /// Optional structured event log with causal spans. Install with
    /// [`World::enable_journal`]; recording is skipped entirely when
    /// absent.
    pub journal: Option<Journal>,
    /// Service time of every copy-on-reference fault, at any journal
    /// level: each fault records the interval its `imag-fault` span
    /// covers, so at [`JournalLevel::Full`] this equals the histogram of
    /// those spans' durations, with no journal to keep or scan.
    pub fault_service: LogHistogram,
    pub(crate) nodes: BTreeMap<NodeId, Node>,
    pub(crate) backers: IdMap<PortId, BackerEntry>,
    pub(crate) next_pid: u64,
    pub(crate) next_node: u32,
    /// Monotonic sequence stamp for pager read requests; replies echo it
    /// so stale or duplicated responses can be recognised and dropped.
    pub(crate) next_seq: u64,
}

impl World {
    /// Creates an empty world with the given cost models.
    pub fn new(costs: CostModel, wire: WireParams) -> Self {
        World {
            clock: Clock::new(),
            ports: PortRegistry::new(),
            segs: SegmentRegistry::new(),
            fabric: Fabric::new(wire),
            costs,
            prefetch: 0,
            journal: None,
            fault_service: LogHistogram::new(),
            nodes: BTreeMap::new(),
            backers: IdMap::default(),
            next_pid: 0,
            next_node: 0,
            next_seq: 0,
        }
    }

    /// A two-node world with default parameters — the shape of the paper's
    /// testbed.
    pub fn testbed() -> (World, NodeId, NodeId) {
        let mut w = World::new(CostModel::default(), WireParams::default());
        let a = w.add_node();
        let b = w.add_node();
        (w, a, b)
    }

    /// An `n`-node world: the fleet-scale sibling of [`World::testbed`].
    /// Node ids are sequential from zero, so they index a
    /// [`cor_net::Topology`] of the same size directly. Returns the world
    /// and its node ids in order.
    pub fn fleet(n: u32, costs: CostModel, wire: WireParams) -> (World, Vec<NodeId>) {
        let mut w = World::new(costs, wire);
        let nodes = (0..n).map(|_| w.add_node()).collect();
        (w, nodes)
    }

    /// Installs (or resets) the event journal; subsequent faults, sends
    /// and lifecycle transitions are recorded. The fabric gets its own
    /// journal for wire-level fault-injection events (`net-*` kinds) and
    /// wire spans; its span ids start at [`FABRIC_SPAN_BASE`] so merged
    /// exports of the two journals stay globally unique.
    pub fn enable_journal(&mut self) {
        self.enable_journal_at(JournalLevel::Full);
    }

    /// Installs (or resets) the event journal at a chosen recording level.
    /// At [`JournalLevel::Off`] the journals stay installed but mute:
    /// every `record_with` call returns before the event is even
    /// constructed, so instrumented hot paths cost one branch. At
    /// [`JournalLevel::Summary`] only lifecycle milestones are kept.
    pub fn enable_journal_at(&mut self, level: JournalLevel) {
        self.journal = Some(Journal::with_level_and_base(level, 0));
        self.fabric.journal = Some(Journal::with_level_and_base(level, FABRIC_SPAN_BASE));
    }

    /// The two journals as a named slice for the exporters in
    /// [`cor_trace::export`], world first; empty entries are omitted.
    pub fn journals(&self) -> Vec<(&'static str, &Journal)> {
        let mut js = Vec::new();
        if let Some(j) = &self.journal {
            js.push(("world", j));
        }
        if let Some(j) = &self.fabric.journal {
            js.push(("fabric", j));
        }
        js
    }

    /// Builds a per-node metrics snapshot as of the current instant:
    /// fault and prefetch counters per node, message-handling CPU, the
    /// wire ledger's byte categories and reliability counters on the
    /// global `wire` pseudo-node, and (when journals are installed)
    /// latency histograms for every closed span by name. Rebuildable at
    /// any time; deterministic rendering via
    /// [`MetricsRegistry::render`].
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let now = self.clock.now();
        let mut reg = MetricsRegistry::new();
        for (&id, n) in &self.nodes {
            for p in n.processes.values() {
                let s = &p.stats;
                let pairs = [
                    ("faults.imaginary", s.imag_faults),
                    ("faults.disk", s.disk_faults),
                    ("faults.zero", s.zero_faults),
                    ("prefetch.pages", s.prefetched_pages),
                    ("prefetch.hits", s.prefetch_hits),
                    ("pages.touched", s.touched.len() as u64),
                    ("exec.screen-updates", s.screen_updates),
                ];
                for (name, v) in pairs {
                    if v > 0 {
                        reg.counter_add(Some(id), name, v);
                    }
                }
            }
            let cpu = self.fabric.node_cpu(id);
            if cpu > SimDuration::ZERO {
                reg.counter_add(Some(id), "cpu.msg-handling-us", cpu.as_micros());
            }
        }
        reg.ingest_ledger(&self.fabric.ledger, now);
        reg.ingest_reliability(&self.fabric.reliability);
        if let Some(j) = &self.journal {
            reg.ingest_spans(j, now);
        }
        if let Some(j) = &self.fabric.journal {
            reg.ingest_spans(j, now);
        }
        reg
    }

    /// The next pager request sequence number (monotonic, never zero).
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Records a journal event if a journal is installed. The event is
    /// built lazily so disabled journals cost one branch.
    pub fn note(&mut self, event: impl FnOnce() -> TraceEvent) {
        if let Some(j) = &mut self.journal {
            let at = self.clock.now();
            j.record_with(at, event);
        }
    }

    /// Opens a fine-grained causal span at the current instant (recorded
    /// only at [`JournalLevel::Full`]). Close with [`World::span_exit`];
    /// the returned id is [`SpanId::NONE`] (a no-op to close) when muted.
    pub fn span_enter(&mut self, name: &'static str, node: Option<NodeId>) -> SpanId {
        let id = match &mut self.journal {
            Some(j) => j.span_start(self.clock.now(), name, node),
            None => SpanId::NONE,
        };
        self.sync_trace_parent();
        id
    }

    /// Opens a milestone span (recorded at [`JournalLevel::Summary`] and
    /// above): migration phases and scheduling slices.
    pub fn span_enter_milestone(&mut self, name: &'static str, node: Option<NodeId>) -> SpanId {
        let id = match &mut self.journal {
            Some(j) => j.milestone_span_start(self.clock.now(), name, node),
            None => SpanId::NONE,
        };
        self.sync_trace_parent();
        id
    }

    /// Closes a span opened by [`World::span_enter`] at the current
    /// instant; still-open children close with it.
    pub fn span_exit(&mut self, id: SpanId) {
        if let Some(j) = &mut self.journal {
            j.span_end(self.clock.now(), id);
        }
        self.sync_trace_parent();
    }

    /// Keeps the fabric's cross-journal parent hook pointing at the
    /// world journal's innermost open span: wire spans the fabric opens
    /// while (say) a `core-transfer` or `cor-roundtrip` phase is active
    /// nest under that phase — not under some outer milestone they
    /// time-overlap with siblings of — so child durations never exceed
    /// their parent's and blame decompositions stay exact.
    fn sync_trace_parent(&mut self) {
        let top = self.journal.as_ref().map_or(SpanId::NONE, |j| j.open_top());
        self.fabric.set_trace_parent(top);
    }

    /// Adds a machine (starting its NetMsgServer and pager).
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.fabric.add_node(id, &mut self.ports);
        let pager_port = self.ports.allocate(id);
        self.nodes.insert(id, Node::new(id, pager_port));
        id
    }

    /// Borrows a node.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn node(&self, id: NodeId) -> Result<&Node, KernelError> {
        self.nodes.get(&id).ok_or(KernelError::UnknownNode(id))
    }

    /// Borrows a node mutably.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn node_mut(&mut self, id: NodeId) -> Result<&mut Node, KernelError> {
        self.nodes.get_mut(&id).ok_or(KernelError::UnknownNode(id))
    }

    /// Creates a process on `node` from a prepared space and trace. The
    /// tables a run fills page by page (the touched set, the page table,
    /// the LRU slab) are sized here, once, for the trace's
    /// [`pages`](Trace::pages).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn create_process(
        &mut self,
        node: NodeId,
        name: impl Into<String>,
        mut space: AddressSpace,
        trace: Trace,
    ) -> Result<ProcessId, KernelError> {
        let pid = ProcessId(self.next_pid);
        self.next_pid += 1;
        space.reserve(trace.pages());
        let mut process = Process::new(pid, name, space, trace);
        process.stats.touched.reserve(process.trace.pages());
        self.node_mut(node)?.processes.insert(pid, process);
        Ok(pid)
    }

    /// Borrows a process.
    ///
    /// # Errors
    ///
    /// Unknown node or process.
    pub fn process(&self, node: NodeId, pid: ProcessId) -> Result<&Process, KernelError> {
        self.node(node)?
            .process(pid)
            .ok_or(KernelError::UnknownProcess(pid))
    }

    /// Borrows a process mutably.
    ///
    /// # Errors
    ///
    /// Unknown node or process.
    pub fn process_mut(
        &mut self,
        node: NodeId,
        pid: ProcessId,
    ) -> Result<&mut Process, KernelError> {
        self.node_mut(node)?
            .process_mut(pid)
            .ok_or(KernelError::UnknownProcess(pid))
    }

    /// Removes a process from its node (excision uses this).
    ///
    /// # Errors
    ///
    /// Unknown node or process.
    pub fn remove_process(&mut self, node: NodeId, pid: ProcessId) -> Result<Process, KernelError> {
        self.node_mut(node)?
            .processes
            .remove(&pid)
            .ok_or(KernelError::UnknownProcess(pid))
    }

    /// Installs an existing process structure on `node` (insertion uses
    /// this).
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn install_process(&mut self, node: NodeId, process: Process) -> Result<(), KernelError> {
        self.node_mut(node)?.processes.insert(process.id, process);
        Ok(())
    }

    /// Registers a user-level backer with an empty store, which
    /// [`World::backer_mut`] fills: messages arriving on `port` are served
    /// from it by [`World::settle`]. A backer on a dead port is never
    /// served — nothing can reach its queue, and senders get
    /// [`cor_ipc::port::PortError::Dead`].
    pub fn register_backer(&mut self, port: PortId, node: NodeId) {
        self.ports.set_served(port, true);
        let store = SegmentStore::default();
        self.backers.insert(port, BackerEntry { node, store });
    }

    /// The store of the backer registered on `port`.
    pub fn backer_mut(&mut self, port: PortId) -> Option<&mut SegmentStore> {
        self.backers.get_mut(&port).map(|e| &mut e.store)
    }

    /// Pages currently held by registered user-level backers.
    pub fn backer_pages_held(&self) -> u64 {
        self.backers.values().map(|e| e.store.pages()).sum()
    }

    /// Sends a message on behalf of `node`.
    ///
    /// # Errors
    ///
    /// Network failures.
    pub fn send_from(&mut self, node: NodeId, msg: Message) -> Result<SendReport, KernelError> {
        let kind = msg.kind;
        let report =
            self.fabric
                .send(&mut self.clock, &mut self.ports, &mut self.segs, node, msg)?;
        if report.remote {
            self.note(|| TraceEvent::Send {
                msg: kind,
                from: node,
                wire_bytes: report.wire_bytes,
            });
        }
        Ok(report)
    }

    /// Drives the system to quiescence: pumps every NetMsgServer and
    /// services every registered user-level backer until no queued work
    /// remains. Returns the number of messages processed.
    ///
    /// # Errors
    ///
    /// Network failures or unexpected messages on backing ports.
    pub fn settle(&mut self) -> Result<usize, KernelError> {
        let mut processed = 0;
        loop {
            let pumped = self
                .fabric
                .pump(&mut self.clock, &mut self.ports, &mut self.segs)?;
            let served = self.service_backers()?;
            processed += pumped + served;
            if pumped + served == 0 {
                debug_assert!(
                    self.backers.keys().all(|&p| self.ports.queue_len(p) == 0),
                    "settle went quiescent with a backer queue non-empty"
                );
                return Ok(processed);
            }
        }
    }

    /// One pass over the backers that have queued work, in ascending
    /// [`PortId`] order, draining each completely. A reply that lands on
    /// a higher-numbered backer is served in the same pass; one on a
    /// lower-numbered backer waits for the next [`World::settle`] round.
    pub(crate) fn service_backers(&mut self) -> Result<usize, KernelError> {
        let mut served = 0;
        let mut last = None;
        loop {
            let next = self
                .ports
                .ready_ports()
                .find(|&port| Some(port) > last && self.backers.contains_key(&port));
            let Some(port) = next else {
                return Ok(served);
            };
            while let Some(msg) = self.ports.dequeue(port)? {
                served += 1;
                self.serve_backer_msg(port, &msg)?;
            }
            last = Some(port);
        }
    }

    fn serve_backer_msg(&mut self, port: PortId, msg: &Message) -> Result<(), KernelError> {
        let Some(entry) = self.backers.get_mut(&port) else {
            return Err(KernelError::UnexpectedMessage { port });
        };
        match protocol::parse(msg) {
            Some(ProtocolMsg::ImagReadRequest {
                seg,
                offset,
                count,
                reply,
                seq,
            }) => {
                self.clock.advance(self.costs.backer_service);
                let node = entry.node;
                let stored = entry
                    .store
                    .range(seg, offset, count)
                    .ok_or(KernelError::Net(cor_net::NetError::MissingData {
                        seg,
                        offset,
                    }))?;
                // A pooled buffer: the faulter hands it back with `give`.
                let mut frames = frame_pool::take(stored.len());
                frames.extend_from_slice(stored);
                // Echo the request's sequence number so the faulter can
                // pair the reply with its request.
                let reply_msg = protocol::imag_read_reply(reply, seg, offset, frames)
                    .with_seq(seq)
                    .with_no_ious(true);
                self.send_from(node, reply_msg)?;
                Ok(())
            }
            Some(ProtocolMsg::ImagSegmentDeath { seg }) => {
                entry.store.remove(seg);
                Ok(())
            }
            _ => Err(KernelError::UnexpectedMessage { port }),
        }
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Resident-process count on `node` — the load signal the placement
    /// policies consume.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn node_load(&self, node: NodeId) -> Result<u64, KernelError> {
        Ok(self.node(node)?.processes.len() as u64)
    }

    /// Resident-process counts for every node, in node order.
    pub fn loads(&self) -> BTreeMap<NodeId, u64> {
        self.nodes
            .iter()
            .map(|(&id, n)| (id, n.processes.len() as u64))
            .collect()
    }

    /// The process ids resident on `node`, ascending.
    ///
    /// # Errors
    ///
    /// [`KernelError::UnknownNode`].
    pub fn resident_pids(&self, node: NodeId) -> Result<Vec<ProcessId>, KernelError> {
        Ok(self.node(node)?.processes.keys().copied().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_mem::page::{page_from_bytes, Frame, PAGE_SIZE};

    /// Builds a world where node `b` hosts a process whose pages
    /// `[0, pages)` are owed by a segment cached at node `a`'s NMS.
    fn owed_process(pages: u64) -> (World, NodeId, NodeId, ProcessId, SegmentId) {
        let (mut w, a, b) = World::testbed();
        let nms_a = w.fabric.nms_port(a).unwrap();
        let seg = w.segs.create(nms_a, pages);
        w.segs.add_refs(seg, pages).unwrap();
        w.fabric.install_cache(a, seg, frames(pages)).unwrap();
        let mut space = AddressSpace::new();
        space.map_imaginary(PageRange::new(PageNum(0), PageNum(pages)), seg, 0);
        let mut tb = Trace::builder();
        tb.read(VAddr(0), PAGE_SIZE * pages);
        let trace = tb.terminate();
        let pid = w.create_process(b, "owed", space, trace).unwrap();
        (w, a, b, pid, seg)
    }

    #[test]
    fn zero_fill_and_write_readback() {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 4 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        tb.write(VAddr(100), 1000)
            .compute(SimDuration::from_millis(3));
        let trace = tb.terminate();
        let pid = w.create_process(a, "w", space, trace).unwrap();
        let report = w.run(a, pid).unwrap();
        assert!(report.finished);
        let process = w.process(a, pid).unwrap();
        assert_eq!(process.stats.zero_faults, 3, "pages 0..3 zero-filled");
        assert_eq!(process.stats.compute, SimDuration::from_millis(3));
        // The deterministic pattern landed in memory.
        let mut buf = [0u8; 4];
        process.space.read(VAddr(100), &mut buf).unwrap();
        let expect: Vec<u8> = (0..4).map(|i| write_pattern(VAddr(100 + i), 0)).collect();
        assert_eq!(&buf[..], &expect[..]);
    }

    #[test]
    fn remote_imaginary_fetch_delivers_correct_bytes() {
        let (mut w, _, b, pid, _) = owed_process(3);
        let report = w.run(b, pid).unwrap();
        assert!(report.finished);
        let process = w.process(b, pid).unwrap();
        assert_eq!(process.stats.imag_faults, 3);
        for i in 0..3u64 {
            let mut buf = [0u8; 1];
            process.space.read(PageNum(i).base(), &mut buf).unwrap();
            assert_eq!(buf[0], i as u8 + 1, "page {i} content");
        }
    }

    #[test]
    fn imaginary_fault_cost_is_near_paper_value() {
        let (mut w, _, b, pid, _) = owed_process(1);
        let t0 = w.clock.now();
        w.run(b, pid).unwrap();
        let per_fault = w.clock.now().since(t0).as_secs_f64();
        // Paper §4.3.3: 115 ms (vs 40.8 ms local). Allow modeling slack.
        assert!((0.100..0.130).contains(&per_fault), "got {per_fault}");
        // And the ratio to a disk fault is "roughly 2.8".
        let ratio = per_fault / w.costs.disk_fault().as_secs_f64();
        assert!((2.4..3.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn prefetch_batches_fetches_and_counts_hits() {
        let (mut w, _, b, pid, _) = owed_process(8);
        w.prefetch = 3;
        let report = w.run(b, pid).unwrap();
        assert!(report.finished);
        let process = w.process(b, pid).unwrap();
        assert_eq!(process.stats.imag_faults, 2, "8 pages / 4 per fetch");
        assert_eq!(process.stats.prefetched_pages, 6);
        assert_eq!(process.stats.prefetch_hits, 6, "sequential scan hits all");
        assert_eq!(process.stats.prefetch_hit_ratio(), Some(1.0));
    }

    #[test]
    fn prefetch_never_crosses_segment_end() {
        let (mut w, _, b, pid, _) = owed_process(5);
        w.prefetch = 15;
        w.run(b, pid).unwrap();
        let process = w.process(b, pid).unwrap();
        assert_eq!(process.stats.imag_faults, 1);
        assert_eq!(process.stats.prefetched_pages, 4, "clipped at segment end");
    }

    #[test]
    fn segments_die_after_full_consumption() {
        let (mut w, a, b, pid, _) = owed_process(4);
        w.run(b, pid).unwrap();
        assert_eq!(w.segs.live(), 0, "stand-in and origin both dead");
        assert_eq!(w.fabric.cached_pages_live(a), 0);
        assert_eq!(w.fabric.standins_live(b), 0);
    }

    #[test]
    fn unconsumed_owed_pages_die_at_termination() {
        let (mut w, a, b, _, seg) = owed_process(6);
        // A second process variant: touch only page 0, then terminate.
        let mut space = AddressSpace::new();
        space.map_imaginary(PageRange::new(PageNum(0), PageNum(6)), seg, 0);
        // Transfer the refs: the original mapping in owed_process also holds
        // refs, so add for this second mapping.
        w.segs.add_refs(seg, 6).unwrap();
        let mut tb = Trace::builder();
        tb.read(VAddr(0), 10);
        let pid2 = w
            .create_process(b, "partial", space, tb.terminate())
            .unwrap();
        w.run(b, pid2).unwrap();
        // pid2's 5 untouched pages were released at termination; the
        // original mapping from owed_process still holds 6 refs, so the
        // segment survives.
        assert!(w.segs.get(seg).is_some());
        assert_eq!(w.segs.get(seg).unwrap().outstanding, 6);
        assert!(w.fabric.cached_pages_live(a) > 0);
    }

    #[test]
    fn user_level_backer_serves_faults() {
        let (mut w, a, b) = World::testbed();
        let backing_port = w.ports.allocate(a);
        let seg = w.segs.create(backing_port, 2);
        w.segs.add_refs(seg, 2).unwrap();
        w.register_backer(backing_port, a);
        w.backer_mut(backing_port).unwrap().insert(
            seg,
            vec![
                Frame::new(page_from_bytes(b"alpha")),
                Frame::new(page_from_bytes(b"beta")),
            ],
        );
        let mut space = AddressSpace::new();
        space.map_imaginary(PageRange::new(PageNum(0), PageNum(2)), seg, 0);
        let mut tb = Trace::builder();
        tb.read(VAddr(0), 2 * PAGE_SIZE);
        let pid = w
            .create_process(b, "userback", space, tb.terminate())
            .unwrap();
        w.run(b, pid).unwrap();
        let process = w.process(b, pid).unwrap();
        let mut buf = [0u8; 5];
        process.space.read(VAddr(0), &mut buf).unwrap();
        assert_eq!(&buf, b"alpha");
        process
            .space
            .read(PageNum(1).base(), &mut buf[..4])
            .unwrap();
        assert_eq!(&buf[..4], b"beta");
        // Death reached the store.
        assert_eq!(w.backer_pages_held(), 0);
    }

    #[test]
    fn settle_serves_the_netmsgservers_before_the_backers() {
        let (mut w, a, b) = World::testbed();
        let nms_a = w.fabric.nms_port(a).unwrap();
        let cached = w.segs.create(nms_a, 1);
        w.fabric.install_cache(a, cached, frames(1)).unwrap();
        let backing = w.ports.allocate(a);
        let owned = w.segs.create(backing, 1);
        w.register_backer(backing, a);
        w.backer_mut(backing).unwrap().insert(owned, frames(1));
        // Work waits on both kinds of server when settle starts.
        let reply = w.ports.allocate(b);
        for (port, seg) in [(backing, owned), (nms_a, cached)] {
            let req = protocol::imag_read_request(port, reply, seg, 0, 1);
            w.ports.enqueue(port, req).unwrap();
        }
        w.settle().unwrap();
        let mut served = Vec::new();
        while let Some(m) = w.ports.dequeue(reply).unwrap() {
            if let Some(ProtocolMsg::ImagReadReply { seg, .. }) = protocol::parse(&m) {
                served.push(seg);
            }
        }
        assert_eq!(served, [cached, owned], "the pump round runs first");
    }

    #[test]
    fn addressing_violation_is_fatal() {
        let (mut w, a, _) = World::testbed();
        let mut tb = Trace::builder();
        tb.read(VAddr(0x5000), 1);
        let pid = w
            .create_process(a, "bad", AddressSpace::new(), tb.terminate())
            .unwrap();
        match w.run(a, pid) {
            Err(KernelError::AddressingViolation { pid: p, .. }) => assert_eq!(p, pid),
            other => panic!("expected AddressingViolation, got {other:?}"),
        }
    }

    #[test]
    fn partial_run_resumes_where_it_stopped() {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 10 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        for i in 0..10u64 {
            tb.write(PageNum(i).base(), 8);
        }
        let trace = tb.terminate();
        let pid = w.create_process(a, "partial", space, trace).unwrap();
        let r1 = w.run_for(a, pid, 4).unwrap();
        assert!(!r1.finished);
        assert_eq!(r1.ops_executed, 4);
        assert_eq!(w.process(a, pid).unwrap().pcb.status, RunStatus::Ready);
        let r2 = w.run(a, pid).unwrap();
        assert!(r2.finished);
        assert_eq!(r2.ops_executed, 7, "6 writes + terminate");
        assert_eq!(w.process(a, pid).unwrap().stats.touched.len(), 10);
    }

    #[test]
    fn checksum_is_deterministic_and_content_sensitive() {
        let run_once = |tweak: bool| {
            let (mut w, a, _) = World::testbed();
            let mut space = AddressSpace::new();
            space.validate(VAddr(0), 2 * PAGE_SIZE).unwrap();
            let mut tb = Trace::builder();
            tb.write(VAddr(0), 64);
            if tweak {
                tb.write(VAddr(64), 1);
            }
            let pid = w.create_process(a, "ck", space, tb.terminate()).unwrap();
            w.run(a, pid).unwrap();
            w.touched_checksum(a, pid).unwrap()
        };
        assert_eq!(run_once(false), run_once(false));
        assert_ne!(run_once(false), run_once(true));
    }

    #[test]
    fn kernel_peek_refuses_imag_mem_instead_of_deadlocking() {
        let (mut w, _, b, pid, _) = owed_process(3);
        // Kernel-context read of an owed page: refused via the AMap check.
        match w.kernel_peek(b, pid, VAddr(0), 16) {
            Err(KernelError::WouldDeadlock { pid: p, .. }) => assert_eq!(p, pid),
            other => panic!("expected WouldDeadlock, got {other:?}"),
        }
        // After the process itself fetches the page, the peek is safe.
        w.run_for(b, pid, 1).unwrap();
        let bytes = w.kernel_peek(b, pid, VAddr(0), 16).unwrap();
        assert_eq!(bytes[0], 1, "cache content for page 0");
        // Unvalidated memory is an addressing error, not a deadlock.
        match w.kernel_peek(b, pid, VAddr(0x100000), 4) {
            Err(KernelError::AddressingViolation { .. }) => {}
            other => panic!("expected AddressingViolation, got {other:?}"),
        }
    }

    #[test]
    fn kernel_peek_services_safe_faults_inline() {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 2 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        tb.write(VAddr(0), 8);
        let pid = w.create_process(a, "peek", space, tb.terminate()).unwrap();
        // RealZero: peek zero-fills and reads zeros.
        let bytes = w.kernel_peek(a, pid, PageNum(1).base(), 8).unwrap();
        assert_eq!(bytes, vec![0u8; 8]);
    }

    #[test]
    fn fetched_imaginary_pages_page_out_to_the_local_disk() {
        // Paper §2.2: "page-outs for imaginary data are performed to the
        // local disk at the site that touched the page" — a fetched page
        // that gets evicted re-faults from the *local* disk, not the
        // network.
        let (mut w, _a, b, pid, _) = owed_process(4);
        w.process_mut(b, pid)
            .unwrap()
            .space
            .set_frame_budget(Some(2));
        let r = w.run(b, pid).unwrap();
        assert!(r.finished);
        let remote_before = w.fabric.stats().msgs_remote;
        // Re-touch page 0: it was fetched, then evicted by the budget.
        // Re-run a fresh read over the same pages via a second process
        // sharing nothing — instead, directly check the fault kind.
        let process = w.process_mut(b, pid).unwrap();
        match process.space.check_read(PageNum(0)) {
            Err(Fault::DiskIn { .. }) => {}
            other => panic!("expected DiskIn from local disk, got {other:?}"),
        }
        // Servicing it needs no network traffic.
        w.ensure_ready(b, pid, PageNum(0), false).unwrap();
        assert_eq!(w.fabric.stats().msgs_remote, remote_before);
        assert_eq!(w.process(b, pid).unwrap().stats.disk_faults, 1);
    }

    #[test]
    fn fault_support_traffic_lands_in_the_right_category() {
        let (mut w, _, b, pid, _) = owed_process(2);
        w.run(b, pid).unwrap();
        use cor_sim::LedgerCategory;
        let fs = w.fabric.ledger.total_for(LedgerCategory::FaultSupport);
        let bulk = w.fabric.ledger.total_for(LedgerCategory::Bulk);
        assert!(fs > 2 * PAGE_SIZE, "replies carry pages: {fs}");
        assert_eq!(bulk, 0, "no bulk transfer in this scenario");
    }

    #[test]
    fn residual_dependencies_shrink_monotonically_under_prefetch_drain() {
        let (mut w, a, b, pid, _) = owed_process(6);
        let deps = w.residual_dependencies(b, pid).unwrap();
        assert_eq!(deps.get(&a), Some(&6), "all six pages owed by a");
        let drained = w.drain_round(b, pid, DrainPolicy::prefetch(2)).unwrap();
        assert_eq!(drained, 2);
        assert_eq!(w.residual_dependencies(b, pid).unwrap().get(&a), Some(&4));
        while w.drain_round(b, pid, DrainPolicy::prefetch(2)).unwrap() > 0 {}
        assert!(w.residual_dependencies(b, pid).unwrap().is_empty());
        assert_eq!(w.fabric.reliability.drained_pages.get(), 6);
        // Drain traffic is its own ledger category.
        use cor_sim::LedgerCategory;
        assert!(w.fabric.ledger.total_for(LedgerCategory::Drain) > 6 * PAGE_SIZE);
    }

    #[test]
    fn flush_drain_then_crash_recovers_exact_bytes_from_disk() {
        let (mut w, a, b, pid, _) = owed_process(4);
        let expected = owed_expected(&w, b, pid);
        while w.drain_round(b, pid, DrainPolicy::flush(2)).unwrap() > 0 {}
        assert!(
            w.residual_dependencies(b, pid).unwrap().is_empty(),
            "flushed pages are crash-safe, so no residual dependency remains"
        );
        assert_eq!(w.fabric.disk_pages(a), 4);
        let now = w.clock.now();
        w.fabric.crash_node(now, &mut w.ports, a, false);
        let r = w.run(b, pid).unwrap();
        assert!(r.finished);
        assert_eq!(w.touched_checksum(b, pid).unwrap(), expected);
        assert_eq!(w.fabric.reliability.pages_recovered.get(), 4);
        assert_eq!(w.fabric.reliability.pages_lost.get(), 0);
    }

    #[test]
    fn a_disk_salvage_maps_in_and_counts_its_prefetch_like_any_fetch() {
        let (mut w, a, b, pid, _) = owed_process(4);
        let expected = owed_expected(&w, b, pid);
        w.prefetch = 3;
        while w.drain_round(b, pid, DrainPolicy::flush(4)).unwrap() > 0 {}
        let now = w.clock.now();
        w.fabric.crash_node(now, &mut w.ports, a, false);
        w.enable_journal();
        w.run(b, pid).unwrap();
        assert_eq!(w.process(b, pid).unwrap().stats.prefetched_pages, 3);
        let spans = w.journal.as_ref().unwrap().spans();
        let faults: Vec<_> = spans.iter().filter(|s| s.name == "imag-fault").collect();
        assert_eq!(faults.len(), 1, "one fault salvages all four pages");
        let map_ins = spans
            .iter()
            .filter(|s| s.name == "map-in" && s.parent == faults[0].id && s.end.is_some());
        assert_eq!(map_ins.count(), 1);
        assert_eq!(w.touched_checksum(b, pid).unwrap(), expected);
    }

    #[test]
    fn crash_without_drain_orphans_the_process_cleanly() {
        let (mut w, a, b, pid, _) = owed_process(5);
        let now = w.clock.now();
        w.fabric.crash_node(now, &mut w.ports, a, false);
        match w.run(b, pid) {
            Err(KernelError::OrphanedProcess {
                pid: p,
                node,
                lost_pages,
            }) => {
                assert_eq!(p, pid);
                assert_eq!(node, a);
                assert_eq!(lost_pages, 5, "every owed page is gone");
            }
            other => panic!("expected OrphanedProcess, got {other:?}"),
        }
        // Clean termination: status updated, references released, and the
        // world still settles.
        assert_eq!(w.process(b, pid).unwrap().pcb.status, RunStatus::Terminated);
        assert_eq!(w.fabric.reliability.pages_lost.get(), 5);
        assert!(w.fabric.reliability.crash_fast_fails.get() >= 1);
        w.settle().unwrap();
    }

    #[test]
    fn partial_drain_recovers_the_flushed_prefix_then_orphans() {
        let (mut w, a, b, pid, _) = owed_process(5);
        // Flush only pages 0 and 1, then lose node a.
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(2)).unwrap(), 2);
        let now = w.clock.now();
        w.fabric.crash_node(now, &mut w.ports, a, false);
        match w.run(b, pid) {
            Err(KernelError::OrphanedProcess { lost_pages, .. }) => {
                assert_eq!(lost_pages, 3, "unflushed tail is lost");
            }
            other => panic!("expected OrphanedProcess, got {other:?}"),
        }
        assert_eq!(w.fabric.reliability.pages_recovered.get(), 2);
        assert_eq!(w.fabric.reliability.pages_lost.get(), 3);
    }

    /// The memory an [`owed_process`]'s trace predicts over the cache
    /// contents of [`frames`].
    fn owed_expected(w: &World, node: NodeId, pid: ProcessId) -> u64 {
        let trace = &w.process(node, pid).unwrap().trace;
        trace.expected_checksum_from(0, |page, out| out[0] = page.0 as u8 + 1)
    }

    fn frames(pages: u64) -> Vec<Frame> {
        (0..pages)
            .map(|i| Frame::new(page_from_bytes(&[i as u8 + 1])))
            .collect()
    }

    #[test]
    fn the_drain_cursor_passes_pages_only_once_they_are_on_the_backers_disk() {
        let (mut w, a, b, pid, _) = owed_process(6);
        let cursor = |w: &World| w.process(b, pid).unwrap().drain_cursor;
        // The round that flushes a page finds it owed; the next one walks
        // over it, now on a's disk, and resumes behind it for good.
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(2)).unwrap(), 2);
        assert_eq!(cursor(&w), PageNum(0));
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(2)).unwrap(), 2);
        assert_eq!(cursor(&w), PageNum(2));
        // Reading the cursor does not move it.
        assert_eq!(w.residual_dependencies(b, pid).unwrap().get(&a), Some(&2));
        assert_eq!(cursor(&w), PageNum(2));
        // A fetched page is settled too: prefetch draining resumes there.
        assert_eq!(w.drain_round(b, pid, DrainPolicy::prefetch(1)).unwrap(), 1);
        assert_eq!(w.drain_round(b, pid, DrainPolicy::prefetch(1)).unwrap(), 1);
        assert_eq!(cursor(&w), PageNum(5));
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(2)).unwrap(), 0);
        assert_eq!(cursor(&w), PageNum(6));
    }

    #[test]
    fn a_page_its_backer_has_not_cached_stops_the_cursor_until_it_is_flushed() {
        let (mut w, a, b, pid, seg) = owed_process(4);
        // a's NMS holds only the first half of the segment.
        w.fabric.install_cache(a, seg, frames(2)).unwrap();
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(8)).unwrap(), 2);
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(8)).unwrap(), 0);
        assert_eq!(w.process(b, pid).unwrap().drain_cursor, PageNum(2));
        assert_eq!(w.residual_dependencies(b, pid).unwrap().get(&a), Some(&2));
        // Once the rest is cached, the same pages are found and flushed.
        w.fabric.install_cache(a, seg, frames(4)).unwrap();
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(8)).unwrap(), 2);
        assert!(w.residual_dependencies(b, pid).unwrap().is_empty());
    }

    #[test]
    fn a_crashed_backer_stops_the_cursor_and_its_reboot_is_rescanned() {
        let (mut w, a, b, pid, seg) = owed_process(4);
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(1)).unwrap(), 1);
        // a crashes and reboots amnesiac: nothing is left to flush, and
        // the three unflushed pages stay owed round after round.
        let now = w.clock.now();
        w.fabric.crash_node(now, &mut w.ports, a, true);
        for _ in 0..2 {
            assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(8)).unwrap(), 0);
            assert_eq!(w.process(b, pid).unwrap().drain_cursor, PageNum(1));
            assert_eq!(w.residual_dependencies(b, pid).unwrap().get(&a), Some(&3));
        }
        // The rebooted NMS is handed the segment again: the scan, which
        // never passed those pages, flushes them.
        w.fabric.install_cache(a, seg, frames(4)).unwrap();
        assert_eq!(w.drain_round(b, pid, DrainPolicy::flush(8)).unwrap(), 3);
        assert!(w.residual_dependencies(b, pid).unwrap().is_empty());
    }

    #[test]
    fn drain_round_is_a_noop_for_local_and_exhausted_dependencies() {
        let (mut w, a, _) = World::testbed();
        let mut space = AddressSpace::new();
        space.validate(VAddr(0), 2 * PAGE_SIZE).unwrap();
        let mut tb = Trace::builder();
        tb.write(VAddr(0), 8);
        let pid = w.create_process(a, "local", space, tb.terminate()).unwrap();
        // Purely local process: nothing to drain in either mode.
        assert_eq!(w.drain_round(a, pid, DrainPolicy::prefetch(4)).unwrap(), 0);
        assert_eq!(w.drain_round(a, pid, DrainPolicy::flush(4)).unwrap(), 0);
        assert_eq!(w.drain_round(a, pid, DrainPolicy::flush(0)).unwrap(), 0);
        assert_eq!(w.fabric.reliability.drained_pages.get(), 0);
    }
}
