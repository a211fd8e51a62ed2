//! The node/kernel model: processes, the pager/scheduler, and the world.
//!
//! This crate assembles the substrates (`cor-mem`, `cor-ipc`, `cor-net`)
//! into a runnable simulated distributed system:
//!
//! * [`costs::CostModel`] — every kernel-side service time, calibrated from
//!   the paper (40.8 ms local disk fault, ≈115 ms remote imaginary fault,
//!   the excision/insertion cost structure of Table 4-4; derivations in
//!   DESIGN.md §5).
//! * [`program`] — processes are driven by deterministic traces of
//!   [`program::Op`]s (touch memory, compute, update the screen,
//!   terminate). Write-touches store deterministic values so that trials
//!   can verify, byte for byte, that migration moved the right data.
//! * [`process::Process`] — the five Accent context components of §3.1:
//!   microengine state, kernel stack, PCB, port rights, address space.
//! * [`World`] — the simulated testbed: a set of [`node::Node`]s joined by
//!   a [`cor_net::Fabric`], a global clock, and the **Pager/Scheduler**
//!   fault loop ([`World::touch`]) that services FillZero faults by zero
//!   filling, disk faults from the local disk, and imaginary faults by a
//!   full IPC round trip to the segment's backing port — with optional
//!   prefetch of adjacent pages, the paper's key tunable.
//!
//! User-level backers (like the MigrationManager when it actively manages
//! an excised address space) are [`cor_mem::SegmentStore`]s the world
//! holds by backing port; [`World::backer_mut`] fills one.
//!
//! **Crash tolerance.** [`World::residual_dependencies`] names the nodes
//! a migrated process still owes pages from (through multi-hop stand-in
//! chains); [`World::drain_round`] shrinks that set in the background
//! under a [`DrainPolicy`] (wire prefetch or flush-to-disk); and when a
//! dependency *does* crash, the imaginary-fault path climbs a recovery
//! ladder — the crashed node's crash-survivable disk backer first, then
//! clean orphan termination surfacing
//! [`KernelError::OrphanedProcess`] — never a panic or a hang.

pub mod costs;
pub mod error;
pub mod node;
pub mod exec;
pub mod pager;
pub mod placement;
pub mod process;
pub mod program;
pub mod recovery;
pub mod world;

pub use costs::CostModel;
pub use error::KernelError;
pub use node::Node;
pub use placement::{LeastLoaded, LocalityAware, Placement, PlacementCtx, RoundRobin};
pub use process::{ExecStats, Pcb, Process, ProcessId, RunStatus};
pub use program::{Op, Trace};
pub use world::{DrainMode, DrainPolicy, ExecReport, World, FABRIC_SPAN_BASE};
