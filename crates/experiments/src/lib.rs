//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! The [`runner`] executes migration trials — one per (representative ×
//! strategy × prefetch) cell — on a fresh two-node testbed world each
//! time, and the [`tables`]/[`figures`]/[`summary`] modules format the
//! results next to the paper's published numbers.
//!
//! Which function regenerates which paper artifact, under which
//! subcommand, and what pins its output is one table:
//! [`commands::COMMANDS`].
//!
//! Each "ours" study — `survivability`, `replication`, `fleet`,
//! `saturation`, `loss` — is one [`study::Study`]: its cells, how they
//! run, and one column list that renders both its text table and its
//! CSV. The two crash sweeps share one crash cell (`crash.rs`).

pub mod check;
pub mod commands;
pub mod figures;
pub mod fleet;
pub mod latency;
pub mod loss;
pub mod render;
pub mod replication;
pub mod runner;
pub mod saturation;
pub mod study;
pub mod summary;
pub mod survivability;
pub mod tables;
pub mod trace;
mod crash;

pub use runner::{Matrix, Trial};

/// The prefetch values the paper studies (§4.3.3).
pub const PREFETCHES: [u64; 5] = [0, 1, 3, 7, 15];
