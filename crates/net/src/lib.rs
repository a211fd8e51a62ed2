//! Network substrate and the NetMsgServer (paper §2.4).
//!
//! Accent extends ports and imaginary segments across machine boundaries
//! with a user-level *NetMsgServer* (NMS) on every host. This crate
//! implements that machinery over a modeled wire:
//!
//! * [`WireParams`] — the calibrated 1987 link model: per-byte, per-run and
//!   per-message latencies, fragmentation overhead, port-right translation
//!   cost, and per-node message-handling CPU rates (the quantity Figure 4-4
//!   of the paper reports).
//! * [`Fabric`] — the distributed-system data path. Sending a message to a
//!   port homed on another node runs the full NMS pipeline:
//!
//!   1. **Outgoing translation.** Unless the message's `NoIOUs` bit is set,
//!      the sending NMS *caches* out-of-line page runs locally, becomes
//!      their backer, and substitutes IOU items — this is how a logical
//!      (copy-on-reference) transfer happens "on its own initiative".
//!   2. **Transmission.** The message is fragmented and its bytes, runs and
//!      protocol overhead are charged to the virtual clock and recorded in
//!      a categorized [`cor_sim::Ledger`].
//!   3. **Incoming translation.** The receiving NMS creates local
//!      *stand-in* imaginary segments for every IOU item and remembers the
//!      forwarding path back to the origin segment, so that faults on the
//!      stand-in are transparently channeled to the correct backing site.
//!      Port rights are translated at a fixed per-right cost (which is why
//!      the paper's *Core* context message takes ≈1 s in all cases).
//!
//! * Segment **death** flows backwards through the same tables: when the
//!   last reference to a stand-in dies, its claims against the origin
//!   segment are released, cache entries are dropped, and
//!   `ImaginarySegmentDeath` notices propagate to the original backer.
//!
//! * **Unreliable wires.** An optional, fully deterministic fault-injection
//!   layer ([`FaultPlan`] on [`WireParams`]) drops, duplicates, delays and
//!   reorders remote deliveries per directed link, driven by a seeded
//!   `cor-sim` RNG. The link layer recovers with sequence numbers and
//!   timeout-driven exponential-backoff retransmission, and bills and
//!   drops every duplicate itself; a message that exhausts its retry budget
//!   surfaces as [`NetError::SourceUnreachable`]. Every injected fault is
//!   journaled and counted in [`cor_sim::ReliabilityStats`], and
//!   retransmitted bytes land in their own ledger category so lossless
//!   runs reproduce lossless byte counts exactly.
//!
//! * **Node crashes.** A [`CrashPlan`] on [`WireParams`] (the whole-node
//!   sibling of [`FaultPlan`]) kills named nodes at chosen virtual times
//!   or message counts, with optional amnesiac reboot. A crashed node
//!   loses every in-flight message and its volatile NMS state; sends
//!   toward it fail *fast* with [`NetError::NodeDown`] — no retransmit
//!   backoff against a known-dead peer. Pages flushed to a node's
//!   crash-survivable disk backer ([`Fabric::disk_install_page`]) outlive
//!   the crash and serve the kernel's post-crash recovery reads.

//!
//! * **Routed topologies.** A [`Topology`] on [`WireParams`] generalizes
//!   the point-to-point wire into an N-node interconnect (full mesh,
//!   ring, 2D torus) with deterministic multi-hop routing, per-hop
//!   store-and-forward latency, per-link queueing, and a per-link byte
//!   table ([`Fabric::link_stats`]). `None` (the default) keeps the
//!   original pairwise wire byte-identical. See `docs/TOPOLOGY.md`.

#![deny(missing_docs)]
#![warn(clippy::too_many_lines)]

mod crash;
pub mod error;
pub mod fabric;
mod nms;
pub mod params;
mod reliability;
mod replica;
mod route;
pub mod topology;

pub use error::NetError;
pub use fabric::{Fabric, FabricStats, SendReport};
pub use params::{
    CrashEvent, CrashPlan, CrashTrigger, FaultPlan, LinkFaults, ReplicationMode,
    ReplicationParams, WireParams,
};
pub use topology::{link_table, LinkStats, Topology, TopologyKind};
