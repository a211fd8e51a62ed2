//! Routed interconnect topologies for N-node fabrics.
//!
//! The seed-era fabric models one perfect point-to-point wire between any
//! two nodes. Installing a [`Topology`] on
//! [`WireParams::topology`](crate::WireParams::topology) generalizes that
//! into a *routed* interconnect: every remote delivery follows a
//! deterministic multi-hop route, each hop beyond the first adds
//! store-and-forward latency, each traversed link bills the message's
//! bytes to its own per-link table, and a link still busy with earlier
//! traffic queues the delivery behind it.
//!
//! Three shapes are modeled (in the style of port-pair interconnect
//! simulators):
//!
//! * **Full mesh** — every pair is one hop; the topology adds per-link
//!   accounting and queueing but no extra latency.
//! * **Ring** — nodes in a cycle; traffic takes the shorter direction.
//! * **2D torus** — a `rows × cols` grid with wraparound links and
//!   dimension-order (X then Y) routing; each axis takes the shorter way
//!   around.
//!
//! Routing is deterministic end to end. Where two routes tie (the
//! antipodal node of an even ring, the half-way wrap of an even torus
//! axis), the direction is chosen by a seeded draw keyed on the node pair
//! — the same pair always routes the same way within a run, and two runs
//! with the same seed produce byte-identical routes, link tables and
//! latencies. See `docs/TOPOLOGY.md` for the model and its guarantees.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cor_ipc::NodeId;
use cor_sim::{Pcg32, SimDuration};

use crate::NetError;

/// Dedicated PCG stream for route tie-breaking, disjoint from the fault
/// and crash streams so installing a topology never perturbs an existing
/// plan's draws.
pub(crate) const ROUTE_STREAM: u64 = 0x707E;

/// The shape of a routed interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Every node pair is directly linked (one hop).
    FullMesh,
    /// Nodes form a cycle; routes take the shorter direction.
    Ring,
    /// A `rows × cols` grid with wraparound links on both axes.
    Torus2d {
        /// Columns per row (row-major node numbering).
        cols: u32,
    },
}

/// A routed interconnect over nodes `node0 .. node(N-1)`.
///
/// Node identifiers index the topology directly: [`NodeId`] `i` sits at
/// ring position `i`, or grid position `(i / cols, i % cols)` on a
/// torus. Worlds built with sequential [`NodeId`]s (the default) fit
/// with no mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    /// The interconnect shape.
    pub kind: TopologyKind,
    /// Number of nodes the topology spans.
    pub nodes: u32,
    /// Extra store-and-forward latency per hop beyond the first: the
    /// intermediate NetMsgServer receiving and re-emitting the message.
    pub hop_latency: SimDuration,
    /// Seed for route tie-breaking draws (equal-length route choices).
    pub seed: u64,
}

/// The walk behind [`Topology::route`]: yields each node the route
/// reaches, columns (X) first, then rows (Y).
#[derive(Debug)]
pub(crate) struct Hops {
    cols: u32,
    rows: u32,
    r: u32,
    c: u32,
    tr: u32,
    tc: u32,
    cstep: u32,
    rstep: u32,
}

impl Iterator for Hops {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.c != self.tc {
            self.c = (self.c + self.cstep) % self.cols;
        } else if self.r != self.tr {
            self.r = (self.r + self.rstep) % self.rows;
        } else {
            return None;
        }
        Some(NodeId(self.r * self.cols + self.c))
    }
}

impl Topology {
    /// A full mesh over `n` nodes.
    pub fn full_mesh(n: u32) -> Self {
        Topology {
            kind: TopologyKind::FullMesh,
            nodes: n,
            hop_latency: SimDuration::from_millis(2),
            seed: 0,
        }
    }

    /// A ring over `n` nodes.
    pub fn ring(n: u32) -> Self {
        Topology {
            kind: TopologyKind::Ring,
            nodes: n,
            ..Topology::full_mesh(n)
        }
    }

    /// A `rows × cols` 2D torus (wraparound on both axes).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn torus(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "torus dimensions must be non-zero");
        Topology {
            kind: TopologyKind::Torus2d { cols },
            nodes: rows * cols,
            ..Topology::full_mesh(rows * cols)
        }
    }

    /// Builder-style: sets the tie-breaking seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A short display name for tables (`full-mesh`, `ring`, `torus`).
    pub fn name(&self) -> &'static str {
        match self.kind {
            TopologyKind::FullMesh => "full-mesh",
            TopologyKind::Ring => "ring",
            TopologyKind::Torus2d { .. } => "torus",
        }
    }

    /// Whether `node` lies inside the topology.
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < self.nodes
    }

    fn check(&self, node: NodeId) -> Result<(), NetError> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(NetError::UnknownNode(node))
        }
    }

    /// Deterministic tie-break for two equal-length route choices on the
    /// pair `from → to`: `true` picks the "forward" (increasing-index)
    /// direction. Keyed on the seed and the pair only, so every message
    /// on the pair routes identically.
    fn tie_forward(&self, axis: u64, from: NodeId, to: NodeId) -> bool {
        let pair = ((from.0 as u64) << 32) | to.0 as u64;
        let mut rng = Pcg32::with_stream(
            self.seed ^ pair.wrapping_mul(0x9E37_79B9) ^ axis.wrapping_mul(0xA5A5),
            ROUTE_STREAM,
        );
        rng.chance(0.5)
    }

    /// The step (+1 or −1 modulo `n`) from `cur` toward `target` along one
    /// wraparound axis of `n` positions, taking the shorter way (seeded
    /// tie-break half-way around).
    fn wrap_step(&self, n: u32, cur: u32, target: u32, axis: u64, from: NodeId, to: NodeId) -> u32 {
        let fwd = (target + n - cur) % n;
        let bwd = n - fwd;
        let forward = match fwd.cmp(&bwd) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.tie_forward(axis, from, to),
        };
        if forward {
            1
        } else {
            n - 1
        }
    }

    /// The nodes the deterministic route visits after `from`, ending at
    /// `to` (nothing when `from == to`), without allocating. Every shape
    /// is a walk on a `rows × cols` grid, columns first: a ring is one
    /// row, a full mesh one row crossed in a single stride.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if either endpoint lies outside the
    /// topology.
    pub(crate) fn hops(&self, from: NodeId, to: NodeId) -> Result<Hops, NetError> {
        self.check(from)?;
        self.check(to)?;
        let cols = match self.kind {
            TopologyKind::FullMesh | TopologyKind::Ring => self.nodes,
            TopologyKind::Torus2d { cols } => cols,
        };
        let rows = self.nodes / cols;
        let (r, c) = (from.0 / cols, from.0 % cols);
        let (tr, tc) = (to.0 / cols, to.0 % cols);
        let (cstep, rstep) = match self.kind {
            TopologyKind::FullMesh => ((tc + cols - c) % cols, 0),
            TopologyKind::Ring => (self.wrap_step(cols, c, tc, 0, from, to), 0),
            TopologyKind::Torus2d { .. } => (
                self.wrap_step(cols, c, tc, 1, from, to),
                self.wrap_step(rows, r, tr, 2, from, to),
            ),
        };
        Ok(Hops {
            cols,
            rows,
            r,
            c,
            tr,
            tc,
            cstep,
            rstep,
        })
    }

    /// The deterministic route from `from` to `to` as a list of directed
    /// links; empty when `from == to`.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownNode`] if either endpoint lies outside the
    /// topology.
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<Vec<(NodeId, NodeId)>, NetError> {
        let mut prev = from;
        Ok(self
            .hops(from, to)?
            .map(|next| (std::mem::replace(&mut prev, next), next))
            .collect())
    }

    /// Hop count of the deterministic route (`0` when `from == to`).
    ///
    /// # Errors
    ///
    /// As for [`Topology::route`].
    pub fn distance(&self, from: NodeId, to: NodeId) -> Result<u32, NetError> {
        self.check(from)?;
        self.check(to)?;
        if from == to {
            return Ok(0);
        }
        Ok(match self.kind {
            TopologyKind::FullMesh => 1,
            TopologyKind::Ring => {
                let n = self.nodes;
                let fwd = (to.0 + n - from.0) % n;
                fwd.min(n - fwd)
            }
            TopologyKind::Torus2d { cols } => {
                let rows = self.nodes / cols;
                let (fr, fc) = (from.0 / cols, from.0 % cols);
                let (tr, tc) = (to.0 / cols, to.0 % cols);
                let dc = (tc + cols - fc) % cols;
                let dr = (tr + rows - fr) % rows;
                dc.min(cols - dc) + dr.min(rows - dr)
            }
        })
    }
}

/// Per-directed-link traffic accounting, maintained by the fabric
/// whenever a [`Topology`] is installed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages that traversed this link (every hop of every route).
    pub msgs: u64,
    /// Wire bytes carried over this link.
    pub bytes: u64,
    /// Total time deliveries waited for this link to free up.
    pub queue_wait: SimDuration,
}

/// Renders a deterministic per-link traffic table (one row per directed
/// link, in `(from, to)` order).
pub fn link_table(links: &BTreeMap<(NodeId, NodeId), LinkStats>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<16} {:>10} {:>14} {:>14}", "link", "msgs", "bytes", "queued-us");
    for ((from, to), s) in links {
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>14} {:>14}",
            format!("{from}->{to}"),
            s.msgs,
            s.bytes,
            s.queue_wait.as_micros()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn links_valid(t: &Topology, route: &[(NodeId, NodeId)], from: NodeId, to: NodeId) {
        assert_eq!(route.first().unwrap().0, from);
        assert_eq!(route.last().unwrap().1, to);
        for w in route.windows(2) {
            assert_eq!(w[0].1, w[1].0, "route is contiguous");
        }
        for &(a, b) in route {
            assert_eq!(t.distance(a, b).unwrap(), 1, "{a}->{b} is a physical link");
        }
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let t = Topology::full_mesh(8);
        let r = t.route(NodeId(2), NodeId(7)).unwrap();
        assert_eq!(r, vec![(NodeId(2), NodeId(7))]);
        assert_eq!(t.distance(NodeId(2), NodeId(7)).unwrap(), 1);
    }

    #[test]
    fn same_node_routes_empty() {
        for t in [Topology::full_mesh(4), Topology::ring(4), Topology::torus(2, 2)] {
            assert!(t.route(NodeId(1), NodeId(1)).unwrap().is_empty());
            assert_eq!(t.distance(NodeId(1), NodeId(1)).unwrap(), 0);
        }
    }

    #[test]
    fn ring_takes_the_shorter_way() {
        let t = Topology::ring(8);
        let r = t.route(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(r.len(), 2);
        links_valid(&t, &r, NodeId(0), NodeId(2));
        let r = t.route(NodeId(0), NodeId(6)).unwrap();
        assert_eq!(r.len(), 2, "wraps backward: 0 -> 7 -> 6");
        assert_eq!(r[0], (NodeId(0), NodeId(7)));
        assert_eq!(t.distance(NodeId(0), NodeId(6)).unwrap(), 2);
    }

    #[test]
    fn ring_antipode_tie_is_deterministic() {
        let t = Topology::ring(8).with_seed(11);
        let a = t.route(NodeId(0), NodeId(4)).unwrap();
        let b = t.route(NodeId(0), NodeId(4)).unwrap();
        assert_eq!(a, b, "same pair, same route");
        assert_eq!(a.len(), 4);
        let t2 = Topology::ring(8).with_seed(11);
        assert_eq!(t2.route(NodeId(0), NodeId(4)).unwrap(), a, "same seed, same route");
    }

    #[test]
    fn torus_wraps_the_shorter_axis() {
        let t = Topology::torus(4, 4);
        // node0 = (0,0) to node3 = (0,3): one wraparound hop, not three.
        let r = t.route(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(r, vec![(NodeId(0), NodeId(3))]);
        assert_eq!(t.distance(NodeId(0), NodeId(3)).unwrap(), 1);
        // (0,0) to (2,2): ties on both axes, still a shortest path.
        let r = t.route(NodeId(0), NodeId(10)).unwrap();
        assert_eq!(r.len(), 4);
        links_valid(&t, &r, NodeId(0), NodeId(10));
    }

    #[test]
    fn routes_match_distance_everywhere() {
        for t in [
            Topology::full_mesh(9),
            Topology::ring(9),
            Topology::torus(3, 3),
        ] {
            for a in 0..t.nodes {
                for b in 0..t.nodes {
                    let (a, b) = (NodeId(a), NodeId(b));
                    let route = t.route(a, b).unwrap();
                    assert_eq!(
                        route.len() as u32,
                        t.distance(a, b).unwrap(),
                        "{} {a}->{b}",
                        t.name()
                    );
                    if a != b {
                        links_valid(&t, &route, a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_nodes_are_typed_errors() {
        let t = Topology::torus(2, 2);
        assert!(matches!(
            t.route(NodeId(0), NodeId(9)),
            Err(NetError::UnknownNode(NodeId(9)))
        ));
        assert!(matches!(
            t.distance(NodeId(9), NodeId(0)),
            Err(NetError::UnknownNode(NodeId(9)))
        ));
    }

    #[test]
    fn link_table_renders_deterministically() {
        let mut links = BTreeMap::new();
        links.insert(
            (NodeId(1), NodeId(0)),
            LinkStats { msgs: 2, bytes: 1024, queue_wait: SimDuration::ZERO },
        );
        links.insert(
            (NodeId(0), NodeId(1)),
            LinkStats { msgs: 1, bytes: 512, queue_wait: SimDuration::from_micros(7) },
        );
        let s = link_table(&links);
        let first = s.find("node0->node1").unwrap();
        let second = s.find("node1->node0").unwrap();
        assert!(first < second, "sorted by (from, to)");
        assert!(s.contains("512"));
    }
}
