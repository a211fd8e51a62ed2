//! Traced trials: one migration + remote execution with the typed
//! journal enabled, exported as Chrome/Perfetto `trace.json`, JSONL, or a
//! per-node metrics report.
//!
//! This is the observability companion to [`crate::runner`]: the same
//! fixed-seed deterministic trial, but instead of reducing to scalar
//! measurements it keeps the full causal record — every span from
//! `migration` down to individual `xmit-attempt`s — and renders it for
//! offline analysis. Load the Perfetto output at <https://ui.perfetto.dev>
//! (virtual time, one track per node).

use cor_kernel::World;
use cor_migrate::{MigrationManager, Strategy};
use cor_sim::JournalLevel;
use cor_trace::{MetricsRegistry, Profile};
use cor_workloads::Workload;

/// Writes `doc`, exported from `trial`, to a `--trace-out` path, then
/// describes the trial and the file on stderr.
///
/// # Errors
///
/// A one-line message naming the path when it cannot be written.
pub fn write_trace_out(path: &str, trial: &TracedTrial, doc: &str) -> Result<(), String> {
    std::fs::write(path, doc).map_err(|e| format!("cannot write --trace-out {path}: {e}"))?;
    eprintln!("{}\nwrote {path}", trial.describe());
    Ok(())
}

/// A completed traced trial: the world is kept alive so its journals and
/// ledgers can be exported in any format.
pub struct TracedTrial {
    /// The simulated world, post-trial (journals, ledger, stats intact).
    pub world: World,
    /// Workload name.
    pub workload: &'static str,
    /// Imaginary faults the process took at the remote site.
    pub imag_faults: u64,
    /// Remote execution ops.
    pub ops: u64,
}

/// Runs one pure-IOU (pf=1) migration trial of `workload` with the typed
/// journal enabled at `level`, on the default 1987-calibrated testbed.
/// Deterministic: same workload + level → byte-identical journals.
///
/// # Panics
///
/// Panics if the simulation reports an internal error (trials are
/// deterministic, so this indicates a bug).
pub fn traced_trial(workload: &Workload, level: JournalLevel) -> TracedTrial {
    let (mut world, a, b) = World::testbed();
    world.enable_journal_at(level);
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = workload.build(&mut world, a).expect("workload build");
    src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 1 })
        .expect("migration");
    let exec = world.run(b, pid).expect("remote execution");
    let imag_faults = world.process(b, pid).expect("process").stats.imag_faults;
    TracedTrial {
        world,
        workload: workload.name(),
        imag_faults,
        ops: exec.ops_executed as u64,
    }
}

impl TracedTrial {
    /// The trial's journals rendered as a Chrome/Perfetto `trace.json`
    /// document (virtual-time microseconds; one process track per node).
    pub fn perfetto(&self) -> String {
        let end_us = self.world.clock.now().as_micros();
        cor_trace::export::perfetto(&self.world.journals(), end_us)
    }

    /// The trial's journals as JSON Lines (one span or event per line).
    pub fn jsonl(&self) -> String {
        cor_trace::export::jsonl(&self.world.journals())
    }

    /// The per-node metrics registry at trial end.
    pub fn metrics(&self) -> MetricsRegistry {
        self.world.metrics_registry()
    }

    /// The trial's critical-path profile: every closed span's duration
    /// decomposed into exact blame buckets (integer virtual time).
    pub fn profile(&self) -> Profile {
        Profile::from_journals(&self.world.journals())
    }

    /// Per-link queue-wait totals in microseconds, for the link rows of
    /// the blame CSV.
    pub fn link_waits(&self) -> crate::fleet::LinkWaits {
        crate::fleet::link_waits(&self.world)
    }

    /// A short human summary for stderr alongside an export.
    pub fn describe(&self) -> String {
        let journals = self.world.journals();
        let events: usize = journals.iter().map(|(_, j)| j.len()).sum();
        let spans: usize = journals.iter().map(|(_, j)| j.spans().len()).sum();
        format!(
            "{}: {} events, {} spans, {} imaginary faults, end at {}",
            self.workload,
            events,
            spans,
            self.imag_faults,
            self.world.clock.now()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_trial_produces_spans_and_events() {
        let w = cor_workloads::minprog::workload();
        let t = traced_trial(&w, JournalLevel::Full);
        let journals = t.world.journals();
        assert_eq!(journals.len(), 2);
        let (name, world_j) = journals[0];
        assert_eq!(name, "world");
        assert!(!world_j.is_empty());
        assert!(!world_j.spans().is_empty());
        // The trial's imaginary-fault counter matches the journal's
        // imag-fault span count (the acceptance criterion).
        let fault_spans = world_j
            .spans()
            .iter()
            .filter(|s| s.name == "imag-fault")
            .count() as u64;
        assert_eq!(fault_spans, t.imag_faults);
    }

    #[test]
    fn summary_level_keeps_only_milestones() {
        let w = cor_workloads::minprog::workload();
        let full = traced_trial(&w, JournalLevel::Full);
        let summary = traced_trial(&w, JournalLevel::Summary);
        let count = |t: &TracedTrial| t.world.journals().iter().map(|(_, j)| j.len()).sum::<usize>();
        assert!(count(&summary) < count(&full) / 4);
        // Milestone spans survive.
        let names: Vec<&str> = summary.world.journals()[0]
            .1
            .spans()
            .iter()
            .map(|s| s.name)
            .collect();
        assert!(names.contains(&"migration"));
        assert!(names.contains(&"exec"));
        assert!(!names.contains(&"imag-fault"));
    }

    #[test]
    fn trial_is_deterministic() {
        let w = cor_workloads::minprog::workload();
        let a = traced_trial(&w, JournalLevel::Full);
        let b = traced_trial(&w, JournalLevel::Full);
        assert_eq!(a.jsonl(), b.jsonl());
        assert_eq!(a.perfetto(), b.perfetto());
    }
}
