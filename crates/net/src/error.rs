//! Error type for the network fabric.

use std::fmt;

use cor_ipc::port::PortError;
use cor_ipc::segment::SegmentError;
use cor_ipc::NodeId;
use cor_mem::space::SegmentId;

/// Errors from fabric operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A port operation failed.
    Port(PortError),
    /// A segment operation failed.
    Segment(SegmentError),
    /// A node was addressed that was never added to the fabric.
    UnknownNode(NodeId),
    /// A read request arrived for data the backer does not hold.
    MissingData {
        /// The segment named in the request.
        seg: SegmentId,
        /// The requested page offset.
        offset: u64,
    },
    /// Every transmission attempt within the retry budget was lost: the
    /// destination (for copy-on-reference traffic, usually the residual
    /// source node the migrated process still depends on) is unreachable.
    SourceUnreachable {
        /// The sending node.
        from: NodeId,
        /// The node that never acknowledged.
        to: NodeId,
        /// Transmission attempts made before giving up.
        attempts: u32,
    },
    /// The destination node is marked crashed: the send fails fast with no
    /// transmission attempts and no retransmit backoff — there is no point
    /// retrying against a known-dead peer.
    NodeDown {
        /// The sending node.
        from: NodeId,
        /// The crashed destination node.
        to: NodeId,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Port(e) => write!(f, "port error: {e}"),
            NetError::Segment(e) => write!(f, "segment error: {e}"),
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::MissingData { seg, offset } => {
                write!(
                    f,
                    "backer holds no data for segment {} page {offset}",
                    seg.0
                )
            }
            NetError::SourceUnreachable { from, to, attempts } => {
                write!(
                    f,
                    "node {to} unreachable from {from} after {attempts} attempts"
                )
            }
            NetError::NodeDown { from, to } => {
                write!(f, "node {to} is down (crashed); send from {from} aborted")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<PortError> for NetError {
    fn from(e: PortError) -> Self {
        NetError::Port(e)
    }
}

impl From<SegmentError> for NetError {
    fn from(e: SegmentError) -> Self {
        NetError::Segment(e)
    }
}
