//! The typed event vocabulary of the tracing layer.
//!
//! One variant per thing the simulated system can journal: migration
//! phases, the fault lifecycle, wire-level sends and injected faults,
//! background draining, and crash recovery. Every variant carries its
//! structured fields (`Copy` scalars only — recording an event never
//! allocates).
//!
//! Each event is written once, as one row of the `events!` table below:
//! its doc, name and fields, its kind tag, its milestone flag, the field
//! that owns it, and its detail format. The enum, [`TraceEvent::kind`],
//! [`TraceEvent::is_milestone`], [`TraceEvent::node`], the
//! [`Display`](std::fmt::Display) detail string and the JSON args of
//! [`TraceEvent::json_args`] are all generated from that row, so adding
//! an event is adding a row. The detail strings are the ones the stringly
//! `(instant, kind, String)` journal used to format, byte for byte; the
//! JSON keys are the field names.

use std::fmt;

use cor_ipc::{MsgKind, NodeId};
use cor_sim::SimDuration;

/// How a field type is written as a JSON value.
trait Json {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl Json for u64 {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Json for u32 {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl Json for bool {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A node is its index.
impl Json for NodeId {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A message kind is its quoted `Debug` name.
impl Json for MsgKind {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{self:?}\"")
    }
}

/// A duration is whole microseconds.
impl Json for SimDuration {
    fn json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_micros())
    }
}

/// The structured fields of one event as a JSON object body.
struct JsonArgs<'a>(&'a TraceEvent);

/// One row per event:
///
/// ```text
/// /// doc
/// Name["kind", milestone, owner] { /// doc
///                                  field: Type, ... } => "detail {field}", extra args;
/// ```
///
/// `owner` is an expression over the fields (`Some(node)`, `None`); the
/// detail is a format string that captures the fields by name, with
/// trailing arguments for text that depends on a field.
macro_rules! events {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident[$kind:literal, $milestone:literal, $owner:expr] {
            $($(#[doc = $field_doc:literal])* $field:ident: $ty:ty,)*
        } => $detail:literal $(, $arg:expr)*;
    )*) => {
        /// A structured journal event.
        ///
        /// [`TraceEvent::kind`] returns the historical short tag
        /// (`"fault"`, `"send"`, `"net-drop"`, ...) used by
        /// [`Journal::of_kind`](crate::Journal::of_kind);
        /// [`TraceEvent::is_milestone`] classifies events for the
        /// [`JournalLevel::Summary`](cor_sim::JournalLevel::Summary) gate.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceEvent {
            $(
                #[doc = concat!("`", $kind, "` —")]
                $(#[doc = $doc])*
                $variant {
                    $($(#[doc = $field_doc])* $field: $ty,)*
                },
            )*
        }

        impl TraceEvent {
            /// The historical short category tag, stable across the typed
            /// refactor: `of_kind("fault")` selects exactly the events the
            /// stringly journal filed under `"fault"`.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $kind,)*
                }
            }

            /// Whether this event is a lifecycle milestone (recorded at
            /// [`JournalLevel::Summary`](cor_sim::JournalLevel::Summary))
            /// rather than a per-page or per-message detail (recorded only
            /// at [`JournalLevel::Full`](cor_sim::JournalLevel::Full)).
            pub fn is_milestone(&self) -> bool {
                match self {
                    $(TraceEvent::$variant { .. } => $milestone,)*
                }
            }

            /// The node this event is best attributed to, for per-node
            /// trace tracks. Wire events go to the *sender* (where the
            /// cost was paid); `net-stale` has no single owner and returns
            /// `None`.
            #[allow(unused_variables)]
            pub fn node(&self) -> Option<NodeId> {
                match *self {
                    $(TraceEvent::$variant { $($field,)* } => $owner,)*
                }
            }
        }

        impl fmt::Display for TraceEvent {
            /// Renders the historical detail string, byte-for-byte.
            #[allow(unused_variables)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match *self {
                    $(TraceEvent::$variant { $($field,)* } => write!(f, $detail $(, $arg)*),)*
                }
            }
        }

        impl fmt::Display for JsonArgs<'_> {
            #[allow(unused_assignments)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self.0 {
                    $(TraceEvent::$variant { $($field,)* } => {
                        let mut sep = "";
                        $(
                            f.write_str(sep)?;
                            f.write_str(concat!("\"", stringify!($field), "\":"))?;
                            $field.json(f)?;
                            sep = ",";
                        )*
                        Ok(())
                    })*
                }
            }
        }
    };
}

events! {
    /// ExciseProcess packaged a process for departure.
    Excised["migrate", true, Some(node)] {
        /// The process.
        pid: u64,
        /// The source node.
        node: NodeId,
        /// Materialized (RealMem) pages at excision time.
        real_pages: u64,
        /// Pages in the resident set.
        resident_pages: u64,
    } => "excised pid{pid} from {node}: {real_pages} real pages ({resident_pages} resident)";

    /// InsertProcess reconstructed a process at the destination.
    Inserted["migrate", true, Some(node)] {
        /// The process.
        pid: u64,
        /// The destination node.
        node: NodeId,
        /// Pages whose bytes travelled in the RIMAS message.
        carried_pages: u64,
        /// Pages left owed as IOUs.
        owed_pages: u64,
    } => "inserted pid{pid} on {node}: {carried_pages} carried, {owed_pages} owed";

    /// A zero-fill fault serviced locally.
    FillZero["fault", false, Some(node)] {
        /// The faulting process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The faulting page.
        page: u64,
    } => "FillZero pid{pid} page {page}";

    /// A local disk page-in.
    DiskIn["fault", false, Some(node)] {
        /// The faulting process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The faulting page.
        page: u64,
    } => "DiskIn pid{pid} page {page}";

    /// A copy-on-reference (imaginary) fault: the full IPC round trip to
    /// the backing site, prefetch included.
    Imaginary["fault", false, Some(node)] {
        /// The faulting process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The faulting page.
        page: u64,
        /// The imaginary segment that owed the page.
        seg: u64,
        /// Extra pages installed beyond the faulting one.
        prefetched: u64,
        /// Total fault service time (dispatch to installed).
        service_us: SimDuration,
    } => "Imaginary pid{pid} page {page} seg {seg} +{prefetched} prefetched ({service_us})";

    /// The pager dropped a reply it was not waiting for.
    StaleReply["stale-reply", false, Some(node)] {
        /// The waiting process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The segment the pager is waiting on.
        seg: u64,
        /// The awaited page offset within the segment.
        offset: u64,
        /// The awaited request sequence number.
        seq: u64,
    } => "pid{pid} dropped stale pager message while waiting for seg {seg} page {offset} seq {seq}";

    /// A remote message left a node.
    Send["send", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sending node.
        from: NodeId,
        /// Bytes on the wire, headers and fragmentation included.
        wire_bytes: u64,
    } => "{msg:?} from {from}: {wire_bytes} wire bytes";

    /// Prefetch-mode background draining pulled owed pages across the
    /// wire.
    DrainPrefetch["drain", true, Some(node)] {
        /// The dependent process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// Pages installed this round.
        pages: u64,
        /// The segment drained from.
        seg: u64,
        /// The first drained page's offset within the segment.
        offset: u64,
    } => "pid{pid} prefetch-drained {pages} pages of seg {seg} from page {offset}";

    /// Flush-mode draining wrote an owed page to the backing site's
    /// crash-survivable disk.
    DrainFlush["drain", true, Some(node)] {
        /// The dependent process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The segment the page belongs to.
        seg: u64,
        /// The page's offset within the segment.
        offset: u64,
        /// The backing node whose disk now holds the page.
        backer: NodeId,
    } => "pid{pid} flushed seg {seg} page {offset} to {backer}'s disk";

    /// Crash recovery read owed pages back from a dead node's disk
    /// backer.
    Recover["recover", true, Some(node)] {
        /// The dependent process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// Pages recovered.
        pages: u64,
        /// The segment they belong to.
        seg: u64,
        /// The crashed backing node.
        dead: NodeId,
    } => "pid{pid} recovered {pages} pages of seg {seg} from {dead}'s disk";

    /// A crash made owed pages unrecoverable; the process is terminated
    /// cleanly.
    Orphan["orphan", true, Some(node)] {
        /// The orphaned process.
        pid: u64,
        /// The node it ran on.
        node: NodeId,
        /// The crashed node holding the lost pages.
        dead: NodeId,
        /// Owed pages no recovery rung could produce.
        lost: u64,
    } => "pid{pid} orphaned: {dead} crashed holding {lost} unrecoverable pages";

    /// A scheduling slice ran (possibly to termination).
    Exec["exec", true, Some(node)] {
        /// The process.
        pid: u64,
        /// The node it ran on.
        node: NodeId,
        /// Trace ops executed this slice.
        ops: u64,
        /// Whether the process terminated.
        finished: bool,
    } => "pid{pid} ran {ops} ops on {node}{}", if finished { ", terminated" } else { "" };

    /// Fault injection destroyed a transmission attempt.
    NetDrop["net-drop", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Which attempt was lost (1-based).
        attempt: u32,
    } => "{msg:?} {from}->{to} attempt {attempt} lost";

    /// The retry budget ran out; the send was abandoned.
    NetUnreachable["net-unreachable", true, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Attempts made before giving up.
        attempts: u32,
    } => "{msg:?} {from}->{to} abandoned after {attempts} attempts";

    /// Injected delivery delay.
    NetJitter["net-jitter", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The injected extra latency in microseconds.
        delay_us: u64,
    } => "{msg:?} {from}->{to} delayed {delay_us}us";

    /// An injected duplicate was billed and dropped by the link layer.
    NetDup["net-dup", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The duplicated link sequence number.
        seq: u64,
    } => "{msg:?} {from}->{to} duplicate seq {seq} suppressed";

    /// A delivery was held in limbo so later traffic overtakes it.
    NetReorder["net-reorder", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
    } => "{msg:?} {from}->{to} held in limbo";

    /// A reply arrived with no pending relay (its request was already
    /// satisfied).
    NetStale["net-stale", false, None] {
        /// The segment the reply answered for.
        seg: u64,
        /// The reply's page offset.
        offset: u64,
        /// The reply's echoed sequence number.
        seq: u64,
    } => "reply for seg {seg} page {offset} seq {seq} had no pending relay";

    /// A segment death notice had no living receiver.
    NetDeathLost["net-death-lost", true, Some(to)] {
        /// The dying segment.
        seg: u64,
        /// The (down) node the notice was headed to.
        to: NodeId,
    } => "death notice for seg {seg} suppressed: {to} is down";

    /// A node crashed, losing its volatile NetMsgServer state (and
    /// possibly rebooting amnesiac).
    NetCrash["net-crash", true, Some(node)] {
        /// The crashed node.
        node: NodeId,
        /// Whether it immediately answers the wire again.
        amnesiac: bool,
        /// In-flight messages lost with it.
        dropped: u64,
    } => "{node} {} ({dropped} in-flight messages lost)",
        if amnesiac { "crashed and rebooted amnesiac" } else { "crashed" };

    /// A send fast-failed against a peer already known dead.
    NetNodeDown["net-node-down", true, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// The dead receiver.
        to: NodeId,
    } => "{msg:?} {from}->{to} aborted: peer is down";

    /// A routed topology carried a delivery over more than one hop
    /// (single-hop deliveries are not journaled: they match the
    /// point-to-point wire exactly).
    NetRoute["net-route", false, Some(from)] {
        /// Message discriminator.
        msg: MsgKind,
        /// Sender.
        from: NodeId,
        /// Final receiver.
        to: NodeId,
        /// Links traversed end to end.
        hops: u32,
    } => "{msg:?} {from}->{to} routed over {hops} hops";

    /// A NetMsgServer answered several queued read requests for the same
    /// fragment run with one multi-page reply (opt-in batched COR
    /// service).
    NetBatch["net-batch", false, Some(node)] {
        /// The serving node.
        node: NodeId,
        /// Requests merged into the reply.
        requests: u64,
        /// Pages the merged reply carried.
        pages: u64,
    } => "{node} merged {requests} read requests into one {pages}-page reply";

    /// A read request for a page already being fetched upstream
    /// piggybacked on the in-flight request instead of re-sending (opt-in
    /// PIT-style coalescing).
    NetCoalesce["net-coalesce", false, Some(node)] {
        /// The relaying node whose pending-interest table absorbed it.
        node: NodeId,
        /// The origin segment being fetched.
        seg: u64,
        /// The origin page offset.
        offset: u64,
    } => "{node} coalesced request for seg {seg} page {offset} onto in-flight fetch";

    /// The replication layer write-through installed a segment's page
    /// backing on a replica node at page-out time.
    NetReplicate["net-replicate", false, Some(node)] {
        /// The primary home the pages were paged out to.
        node: NodeId,
        /// The replica that now also holds them.
        replica: NodeId,
        /// Pages installed.
        pages: u64,
    } => "{node} replicated {pages} pages to {replica}";

    /// The primary page home was down, and a COR fetch was served from a
    /// surviving replica home instead of draining or terminating.
    Failover["failover", true, Some(node)] {
        /// The faulting process.
        pid: u64,
        /// The node it runs on.
        node: NodeId,
        /// The down primary home.
        dead: NodeId,
        /// The replica promoted to serve the read.
        replica: NodeId,
        /// Pages installed from the replica.
        pages: u64,
        /// The faulted segment.
        seg: u64,
    } => "pid{pid} on {node} failed over to {replica}: {pages} pages of seg {seg} ({dead} down)";

    /// A load/locality placement policy excluded a candidate node because
    /// it is currently down under a crash plan.
    PlacementSkip["placement-skip", false, Some(source)] {
        /// The excluded (down) candidate.
        node: NodeId,
        /// The node placing the work.
        source: NodeId,
    } => "{source} placement skipped {node}: node is down";

    /// Parked pending-interest waiters whose upstream fetch died with a
    /// crashed peer were unparked: re-routed through a live replica where
    /// possible, failed onto the faulters' recovery ladders otherwise.
    NetPitFail["net-pit-fail", false, Some(node)] {
        /// The relaying node whose pending-interest table was drained.
        node: NodeId,
        /// The dead upstream the in-flight fetch was headed to.
        upstream: NodeId,
        /// The origin segment being fetched.
        seg: u64,
        /// The origin page offset.
        offset: u64,
        /// Waiters that were parked under the key.
        waiters: u64,
        /// How many of them a live replica answered.
        rerouted: u64,
    } => "{node} unparked {waiters} waiters for seg {seg} page {offset} ({upstream} down, {rerouted} rerouted)";
}

impl TraceEvent {
    /// The structured fields as a JSON object body (no braces), keyed by
    /// field name in declaration order, e.g. `"pid":3,"node":1,"page":17`.
    /// Nodes are their index, message kinds their quoted `Debug` name,
    /// durations whole microseconds.
    pub fn json_args(&self) -> impl fmt::Display + '_ {
        JsonArgs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_historical_strings() {
        let e = TraceEvent::FillZero {
            pid: 3,
            node: NodeId(1),
            page: 17,
        };
        assert_eq!(e.to_string(), "FillZero pid3 page 17");
        assert_eq!(e.kind(), "fault");
        assert_eq!(
            e.json_args().to_string(),
            "\"pid\":3,\"node\":1,\"page\":17"
        );
        let e = TraceEvent::Send {
            msg: MsgKind::Rimas,
            from: NodeId(0),
            wire_bytes: 512,
        };
        assert_eq!(e.to_string(), "Rimas from node0: 512 wire bytes");
        let e = TraceEvent::NetDrop {
            msg: MsgKind::User(7),
            from: NodeId(0),
            to: NodeId(1),
            attempt: 2,
        };
        assert_eq!(e.to_string(), "User(7) node0->node1 attempt 2 lost");
        let e = TraceEvent::NetCrash {
            node: NodeId(1),
            amnesiac: true,
            dropped: 4,
        };
        assert_eq!(
            e.to_string(),
            "node1 crashed and rebooted amnesiac (4 in-flight messages lost)"
        );
    }

    #[test]
    fn milestone_classification() {
        assert!(TraceEvent::Exec {
            pid: 0,
            node: NodeId(0),
            ops: 1,
            finished: true
        }
        .is_milestone());
        assert!(!TraceEvent::FillZero {
            pid: 0,
            node: NodeId(0),
            page: 0
        }
        .is_milestone());
        assert!(!TraceEvent::Send {
            msg: MsgKind::Core,
            from: NodeId(0),
            wire_bytes: 1
        }
        .is_milestone());
    }
}
