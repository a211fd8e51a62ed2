//! Copy-on-reference process migration (the paper's contribution, §3).
//!
//! This crate implements the SPICE migration facility on top of the
//! substrates:
//!
//! * [`excise::excise_process`] — the `ExciseProcess` kernel trap: removes
//!   a process's complete context from its host and delivers it as two
//!   self-contained IPC messages. The **Core** message carries the
//!   microengine state, kernel stack, PCB, port rights, and an AMap of the
//!   whole address space; the **RIMAS** message carries the Real and
//!   Imaginary portions of the address space collapsed into a contiguous
//!   area. The resident pages are *memory-mapped* (copy-on-write frame
//!   shares), not copied.
//! * [`insert::insert_process`] — the counterpart: reconstructs the
//!   process at the destination from the two context messages alone,
//!   relocating its receive rights and rebuilding its address space from
//!   the AMap plus the (physical or owed) RIMAS contents.
//! * [`manager::MigrationManager`] — the per-node user-level server that
//!   executes migrations under a chosen [`strategy::Strategy`]:
//!
//!   | Strategy | RIMAS packaging |
//!   |---|---|
//!   | `PureCopy` | `NoIOUs` set: every real page crosses the wire now |
//!   | `PureIou`  | `NoIOUs` clear: the source NetMsgServer caches the pages and passes IOUs; pages cross on reference |
//!   | `ResidentSet` | the manager ships the resident set physically, actively manages the rest itself (its own imaginary segment + page store) |
//!   | `PreCopy` | V-system style iterative pre-copying (our ablation; paper §5 discusses Theimer's design) |
//!
//! * [`report::MigrationReport`] — per-phase timings, byte and message
//!   accounting: everything Tables 4-4/4-5 and Figures 4-1 through 4-5
//!   need.

//!
//! * [`drain::Drainer`] — background residual-dependency draining: between
//!   foreground slices, owed pages are prefetched across the wire or
//!   flushed to the source's crash-survivable disk backer, shrinking the
//!   window in which a source crash orphans the migrated process.

pub mod context;
pub mod drain;
pub mod excise;
pub mod insert;
pub mod manager;
pub mod report;
pub mod strategy;

pub use context::ExcisedProcess;
pub use drain::{DrainReport, Drainer};
pub use excise::excise_process;
pub use insert::insert_process;
pub use manager::MigrationManager;
pub use report::{MigrationReport, PhaseTimings};
pub use strategy::Strategy;
