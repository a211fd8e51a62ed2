//! Trial execution: one migration + remote execution per matrix cell.

use std::sync::{Arc, OnceLock};

use cor_kernel::World;
use cor_migrate::{MigrationManager, MigrationReport, Strategy};
use cor_sim::{IdMap, Ledger, LedgerCategory, ReliabilityStats, SimDuration, SimTime};
use cor_workloads::{ProcessImage, Workload};

use crate::PREFETCHES;

/// The complete measurement record of one trial.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Representative name.
    pub workload: String,
    /// Strategy under test.
    pub strategy: Strategy,
    /// The migration-phase report.
    pub migration: MigrationReport,
    /// Remote execution time (first instruction at the new host to
    /// termination) — the Figure 4-1 quantity.
    pub exec_elapsed: SimDuration,
    /// Total wire bytes for the whole trial (Figure 4-3).
    pub total_bytes: u64,
    /// Wire bytes in the bulk category.
    pub bulk_bytes: u64,
    /// Wire bytes in support of imaginary faults.
    pub fault_bytes: u64,
    /// Message-handling CPU summed over both nodes (Figure 4-4).
    pub msg_cpu: SimDuration,
    /// Messages sent (local + remote).
    pub msgs: u64,
    /// Imaginary faults taken remotely.
    pub imag_faults: u64,
    /// Local disk faults taken remotely.
    pub disk_faults: u64,
    /// Zero-fill faults taken remotely.
    pub zero_faults: u64,
    /// Prefetch hit ratio, when anything was prefetched.
    pub prefetch_hit_ratio: Option<f64>,
    /// Distinct RealMem pages the process touched at the new site.
    pub touched_real_pages: u64,
    /// RealMem pages at migration time.
    pub real_pages: u64,
    /// Total validated pages.
    pub total_pages: u64,
    /// |resident set ∪ remotely-touched real pages| — the Table 4-3
    /// resident-set column numerator.
    pub rs_union_pages: u64,
    /// Wire bytes spent on retransmissions and injected duplicates (zero
    /// on a lossless wire).
    pub retransmit_bytes: u64,
    /// Fault-injection and recovery counters for the whole trial.
    pub reliability: ReliabilityStats,
    /// The full categorized wire ledger (Figure 4-5 time series).
    pub ledger: Ledger,
    /// Trial end time.
    pub end_time: SimTime,
}

impl Trial {
    /// Transfer + remote execution, the Figure 4-2 end-to-end quantity.
    pub fn end_to_end(&self) -> SimDuration {
        self.migration.timings.rimas_transfer + self.exec_elapsed
    }

    /// The CSV column names matching [`Trial::csv_row`].
    pub fn csv_header() -> &'static str {
        "workload,strategy,prefetch,excise_s,core_xfer_s,rimas_xfer_s,insert_s,\
         exec_s,end_to_end_s,wire_bytes,bulk_bytes,fault_bytes,msg_cpu_s,msgs,\
         imag_faults,disk_faults,zero_faults,prefetch_hit_ratio,\
         touched_real_pages,real_pages,carried_pages,owed_pages"
    }

    /// One machine-readable record of this trial.
    pub fn csv_row(&self) -> String {
        let t = &self.migration.timings;
        format!(
            "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{},{},{},{:.4},{},{},{},{},{},{},{},{},{}",
            self.workload,
            self.strategy.family(),
            self.strategy.prefetch(),
            t.excise_total.as_secs_f64(),
            t.core_transfer.as_secs_f64(),
            t.rimas_transfer.as_secs_f64(),
            t.insert_total.as_secs_f64(),
            self.exec_elapsed.as_secs_f64(),
            self.end_to_end().as_secs_f64(),
            self.total_bytes,
            self.bulk_bytes,
            self.fault_bytes,
            self.msg_cpu.as_secs_f64(),
            self.msgs,
            self.imag_faults,
            self.disk_faults,
            self.zero_faults,
            self.prefetch_hit_ratio.map_or(String::new(), |h| format!("{h:.3}")),
            self.touched_real_pages,
            self.real_pages,
            self.migration.carried_pages,
            self.migration.owed_pages,
        )
    }
}

/// Renders the complete paper matrix (7 representatives × 11 strategy
/// cells) as CSV for downstream analysis. Missing cells are computed in
/// parallel on the matrix's pool; rendering is serial and in cell order,
/// so the output is byte-identical at any thread count.
pub fn matrix_csv(matrix: &mut Matrix, workloads: &[Workload]) -> String {
    matrix.prefill(workloads, &Matrix::paper_strategies());
    let mut out = String::from(Trial::csv_header());
    out.push('\n');
    for w in workloads {
        for s in Matrix::paper_strategies() {
            out.push_str(&matrix.trial(w, s).csv_row());
            out.push('\n');
        }
    }
    out
}

/// Runs one trial of `workload` under `strategy` on a fresh testbed with
/// the default (1987-calibrated) cost models.
///
/// # Panics
///
/// Panics if the simulation reports an internal error — trials are
/// deterministic, so this indicates a bug, not an environmental failure.
pub fn run_trial(workload: &Workload, strategy: Strategy) -> Trial {
    run_trial_with(
        workload,
        strategy,
        cor_kernel::CostModel::default(),
        cor_net::WireParams::default(),
    )
}

/// Runs one trial under explicit cost models (used by the modern-hardware
/// what-if study). Builds the workload's image for this one trial; sweeps
/// over one workload build it once and call [`run_trial_on`] per cell.
///
/// # Panics
///
/// As for [`run_trial`].
pub fn run_trial_with(
    workload: &Workload,
    strategy: Strategy,
    costs: cor_kernel::CostModel,
    wire: cor_net::WireParams,
) -> Trial {
    let image = workload.image().expect("workload build");
    run_trial_on(&image, strategy, costs, wire)
}

/// Runs one trial on a fork of `image`.
///
/// # Panics
///
/// As for [`run_trial`].
pub fn run_trial_on(
    image: &ProcessImage<'_>,
    strategy: Strategy,
    costs: cor_kernel::CostModel,
    wire: cor_net::WireParams,
) -> Trial {
    run_trial_inner(image, strategy, costs, wire).0
}

/// [`run_trial_on`], also returning the world the trial ran in, its
/// process still at the destination, for an oracle to judge.
pub(crate) fn run_trial_inner(
    image: &ProcessImage<'_>,
    strategy: Strategy,
    costs: cor_kernel::CostModel,
    wire: cor_net::WireParams,
) -> (Trial, World) {
    let mut world = World::new(costs, wire);
    let a = world.add_node();
    let b = world.add_node();
    let src = MigrationManager::new(&mut world, a);
    let dst = MigrationManager::new(&mut world, b);
    let pid = image.fork(&mut world, a).expect("workload build");
    let migration = src
        .migrate_to(&mut world, &dst, pid, strategy)
        .expect("migration");
    let exec = world.run(b, pid).expect("remote execution");
    let stats = &world.process(b, pid).expect("process").stats;
    // What was real and what was resident at migration time is a fact of
    // the image, the same for every strategy cell.
    let before = image.space();
    let (mut touched_real_pages, mut rs_union_pages) = (0, before.resident_pages());
    for was_resident in stats.touched.iter().filter_map(|&p| before.residency(p)) {
        touched_real_pages += 1;
        rs_union_pages += u64::from(!was_resident);
    }
    let fabric_stats = world.fabric.stats();
    let trial = Trial {
        workload: image.name().to_string(),
        strategy,
        migration,
        exec_elapsed: exec.elapsed,
        total_bytes: world.fabric.ledger.total(),
        bulk_bytes: world.fabric.ledger.total_for(LedgerCategory::Bulk),
        fault_bytes: world.fabric.ledger.total_for(LedgerCategory::FaultSupport),
        msg_cpu: fabric_stats.cpu_total,
        msgs: fabric_stats.msgs_total,
        imag_faults: stats.imag_faults,
        disk_faults: stats.disk_faults,
        zero_faults: stats.zero_faults,
        prefetch_hit_ratio: stats.prefetch_hit_ratio(),
        touched_real_pages,
        real_pages: before.real_pages(),
        total_pages: before.total_pages(),
        rs_union_pages,
        retransmit_bytes: world.fabric.ledger.total_for(LedgerCategory::Retransmit),
        reliability: world.fabric.reliability.clone(),
        ledger: world.fabric.ledger.clone(),
        end_time: world.clock.now(),
    };
    (trial, world)
}

/// The full experiment matrix: every representative under pure-copy and
/// under pure-IOU / resident-set at each studied prefetch value, computed
/// lazily and cached.
///
/// Each cell is an independent simulation on its own [`World`], so missing
/// cells can be computed concurrently ([`Matrix::prefill`]) on a
/// [`cor_pool::Pool`]; the cache is keyed by `(&'static str, Strategy)` —
/// both `Copy` — so a cache hit allocates nothing.
pub struct Matrix {
    cache: IdMap<(&'static str, Strategy), Trial>,
    pool: cor_pool::Pool,
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::new()
    }
}

impl Matrix {
    /// Creates an empty (lazy) matrix that computes cells serially.
    pub fn new() -> Self {
        Matrix::with_pool(cor_pool::Pool::serial())
    }

    /// Creates an empty matrix whose [`Matrix::prefill`] fans missing
    /// cells across `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Matrix::with_pool(cor_pool::Pool::new(threads))
    }

    /// Creates an empty matrix backed by an explicit pool.
    pub fn with_pool(pool: cor_pool::Pool) -> Self {
        Matrix {
            cache: IdMap::default(),
            pool,
        }
    }

    /// The pool backing this matrix (pools are `Copy`: a thread budget,
    /// not live workers).
    pub fn pool(&self) -> cor_pool::Pool {
        self.pool
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether no cell has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Returns the trial for `(workload, strategy)`, running it on first
    /// use. The lookup key is built from borrowed data — a hit performs no
    /// allocation.
    pub fn trial(&mut self, workload: &Workload, strategy: Strategy) -> &Trial {
        self.cache
            .entry((workload.name(), strategy))
            .or_insert_with(|| run_trial(workload, strategy))
    }

    /// Computes every missing `(workload, strategy)` cell, fanning the
    /// independent trials across the matrix's pool. The cells of one
    /// workload are forks of one process image, which the first of them to
    /// run builds and the last one drops — so a serial fill, which runs
    /// workload-major, holds one image at a time, and a pooled fill as many
    /// as its workers straddle. Results are inserted in deterministic cell
    /// order (workload-major), so the cache — and everything rendered from
    /// it — is identical to a serial fill.
    pub fn prefill(&mut self, workloads: &[Workload], strategies: &[Strategy]) {
        let mut missing = Vec::new();
        let mut jobs = Vec::new();
        for w in workloads {
            let image = Arc::new(OnceLock::new());
            for &s in strategies {
                if self.cache.contains_key(&(w.name(), s)) {
                    continue;
                }
                let image = Arc::clone(&image);
                missing.push((w.name(), s));
                jobs.push(move || {
                    run_trial_on(
                        image.get_or_init(|| w.image().expect("workload build")),
                        s,
                        cor_kernel::CostModel::default(),
                        cor_net::WireParams::default(),
                    )
                });
            }
        }
        let trials = self.pool.run(jobs);
        for (cell, trial) in missing.into_iter().zip(trials) {
            self.cache.insert(cell, trial);
        }
    }

    /// All strategies of the paper's matrix for one workload: pure-copy,
    /// then pure-IOU at each prefetch, then resident-set at each prefetch.
    pub fn paper_strategies() -> Vec<Strategy> {
        let mut v = vec![Strategy::PureCopy];
        v.extend(
            PREFETCHES
                .iter()
                .map(|&p| Strategy::PureIou { prefetch: p }),
        );
        v.extend(
            PREFETCHES
                .iter()
                .map(|&p| Strategy::ResidentSet { prefetch: p }),
        );
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minprog_trial_sanity() {
        let w = cor_workloads::minprog::workload();
        let t = run_trial(&w, Strategy::PureIou { prefetch: 0 });
        assert_eq!(t.real_pages, 278);
        assert_eq!(t.touched_real_pages, 24);
        assert_eq!(t.imag_faults, 24);
        assert!(t.total_bytes > 24 * 512);
    }

    #[test]
    fn matrix_caches_trials() {
        let mut m = Matrix::new();
        let w = cor_workloads::minprog::workload();
        let a = m.trial(&w, Strategy::PureCopy).end_time;
        let b = m.trial(&w, Strategy::PureCopy).end_time;
        assert_eq!(a, b);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn prefill_skips_cached_cells_and_fills_the_rest() {
        let w = vec![cor_workloads::minprog::workload()];
        let strategies = [Strategy::PureCopy, Strategy::PureIou { prefetch: 0 }];
        let mut m = Matrix::with_threads(2);
        let first = m.trial(&w[0], Strategy::PureCopy).end_time;
        m.prefill(&w, &strategies);
        assert_eq!(m.len(), 2);
        // The cached cell was not recomputed (same end_time instance).
        assert_eq!(m.trial(&w[0], Strategy::PureCopy).end_time, first);
    }

    #[test]
    fn csv_rows_are_complete_and_parseable() {
        let w = cor_workloads::minprog::workload();
        let t = run_trial(&w, Strategy::PureIou { prefetch: 1 });
        let header_cols = Trial::csv_header().split(',').count();
        let row = t.csv_row();
        assert_eq!(row.split(',').count(), header_cols, "{row}");
        assert!(row.starts_with("Minprog,pure-iou,1,"));
        // Numeric fields parse.
        let cols: Vec<&str> = row.split(',').collect();
        assert!(cols[8].parse::<f64>().is_ok(), "end_to_end: {}", cols[8]);
        assert!(cols[9].parse::<u64>().is_ok(), "wire_bytes: {}", cols[9]);
    }

    #[test]
    fn paper_strategy_matrix_shape() {
        let s = Matrix::paper_strategies();
        assert_eq!(s.len(), 11);
        assert!(matches!(s[0], Strategy::PureCopy));
    }
}
