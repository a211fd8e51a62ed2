//! Deterministic simulation substrate for the copy-on-reference migration
//! testbed.
//!
//! This crate provides the building blocks every other crate in the
//! workspace relies on:
//!
//! * [`SimTime`] and [`SimDuration`] — a microsecond-resolution virtual
//!   timeline. Nothing in the workspace ever reads the wall clock; all
//!   elapsed-time results in the experiments are sums of modeled service
//!   times on this timeline.
//! * [`Clock`] — a monotone cursor over the timeline shared by a simulated
//!   world.
//! * [`Pcg32`] — a small, fully deterministic pseudo-random generator
//!   (PCG-XSH-RR 64/32). Workload generators seed one of these so that a
//!   given seed always produces the identical trace, byte-for-byte.
//! * [`metrics`] — counters, byte ledgers with category tags and a
//!   time-binned view (used to regenerate Figure 4-5 of the paper), and
//!   the unreliable-wire counters. Latency histograms live in `cor-trace`.
//! * [`IdMap`] / [`IdSet`] — hash tables for keys the simulator minted
//!   itself (ids, page numbers, links), over the one-multiply
//!   [`idhash::IdHasher`].
//! * [`LruList`] — least-recently-used order in one slab, O(1) per
//!   operation; [`SmallVec`] — a vector holding up to two elements inline.
//!   The remote-fault path is built from these so it does not allocate.
//! * [`JournalLevel`] — the verbosity knob for the typed journal (the
//!   journal itself lives in the `cor-trace` crate, above the substrate).
//!
//! # Examples
//!
//! ```
//! use cor_sim::{Clock, SimDuration};
//!
//! let mut clock = Clock::new();
//! clock.advance(SimDuration::from_millis(115));
//! assert_eq!(clock.now().as_micros(), 115_000);
//! ```

pub mod clock;
pub mod idhash;
pub mod journal;
pub mod lru;
pub mod metrics;
pub mod rng;
pub mod small_vec;
pub mod time;

pub use clock::Clock;
pub use idhash::{IdMap, IdSet};
pub use journal::JournalLevel;
pub use lru::LruList;
pub use metrics::{Counter, Ledger, LedgerCategory, ReliabilityStats};
pub use rng::Pcg32;
pub use small_vec::SmallVec;
pub use time::{SimDuration, SimTime};
