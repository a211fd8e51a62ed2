//! A generic synthetic-workload builder.
//!
//! The seven representatives pin down the paper's evaluation; this builder
//! generates *families* of processes around them, for sensitivity studies
//! and property tests: choose how much memory is real, how scattered it
//! is, how much of it the remote phase touches and with what locality, and
//! how compute-bound the process is.
//!
//! # Examples
//!
//! ```
//! use cor_workloads::synth::SynthSpec;
//! use cor_kernel::World;
//!
//! let w = SynthSpec {
//!     name: "half-local",
//!     seed: 7,
//!     real_pages: 400,
//!     realzero_pages: 600,
//!     runs: 16,
//!     resident_pages: 100,
//!     touched_fraction: 0.5,
//!     locality: 0.8,
//!     compute_ms: 5_000,
//!     write_fraction: 0.3,
//! }
//! .build();
//! let (mut world, a, _) = World::testbed();
//! let pid = w.build(&mut world, a).unwrap();
//! let st = world.process(a, pid).unwrap().space.stats();
//! assert_eq!(st.real_bytes, 400 * 512);
//! ```

use cor_mem::{PageNum, PageRange};
use cor_sim::{IdSet, Pcg32, SimDuration};

use crate::paper::PaperRow;
use crate::spec::{assemble_trace, scattered_runs, Blueprint, TouchEvent, Workload};

/// Parameters of a synthetic process.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Process name.
    pub name: &'static str,
    /// Determinism seed.
    pub seed: u64,
    /// Materialized (RealMem) pages.
    pub real_pages: u64,
    /// Allocated-but-untouched pages.
    pub realzero_pages: u64,
    /// Number of discontiguous runs the real pages form (1 = one block;
    /// more runs = a more fragmented, Lisp-like space).
    pub runs: u64,
    /// Frame budget = resident set size, in pages.
    pub resident_pages: u64,
    /// Fraction of the real pages the remote phase touches (0, 1].
    pub touched_fraction: f64,
    /// Access locality in [0, 1]: the probability that the next touch
    /// continues sequentially from the previous one. 1.0 scans like
    /// Pasmac; 0.0 hops like Lisp.
    pub locality: f64,
    /// Total modeled computation, milliseconds.
    pub compute_ms: u64,
    /// Fraction of touches that write.
    pub write_fraction: f64,
}

impl SynthSpec {
    /// Materializes the spec as a [`Workload`]. The `paper` row is filled
    /// with this spec's own derived quantities so harness code can treat
    /// synthetic and representative workloads uniformly.
    ///
    /// # Panics
    ///
    /// Panics on degenerate parameters (zero pages, zero runs, fractions
    /// outside range).
    pub fn build(&self) -> Workload {
        assert!(self.real_pages > 0 && self.runs > 0, "degenerate spec");
        assert!(self.runs <= self.real_pages, "more runs than pages");
        assert!(
            (0.0..=1.0).contains(&self.touched_fraction)
                && (0.0..=1.0).contains(&self.locality)
                && (0.0..=1.0).contains(&self.write_fraction),
            "fractions must lie in [0, 1]"
        );
        assert!(self.resident_pages > 0, "need at least one frame");
        let mut rng = Pcg32::new(self.seed);
        // Lay the real pages out in `runs` runs inside a region about 4x
        // as large, then validate enough extra space for the zero pages.
        let spread = (self.real_pages * 4).max(self.real_pages + self.runs * 2);
        let region = PageRange::new(PageNum(0), PageNum(spread));
        let runs = scattered_runs(&mut rng, region, self.real_pages, self.runs);
        let zero_base = spread;
        // Validate exactly the real runs plus a separate zero region, so
        // the composition matches the spec to the byte.
        let mut regions = runs.clone();
        regions.push(PageRange::new(
            PageNum(zero_base),
            PageNum(zero_base + self.realzero_pages),
        ));
        // Install in shuffled run order so the resident tail is the last
        // runs touched.
        let mut order: Vec<usize> = (0..runs.len()).collect();
        rng.shuffle(&mut order);
        let install_order: Vec<PageNum> = order.iter().flat_map(|&i| runs[i].iter()).collect();

        // Touched set: a locality-driven walk over the real pages.
        let all_pages: Vec<PageNum> = runs.iter().flat_map(|r| r.iter()).collect();
        let want = ((self.real_pages as f64 * self.touched_fraction).round() as usize)
            .clamp(1, all_pages.len());
        let mut touched: Vec<PageNum> = Vec::with_capacity(want);
        let mut seen = IdSet::default();
        let mut cursor = rng.below(all_pages.len() as u32) as usize;
        while touched.len() < want {
            if seen.insert(all_pages[cursor]) {
                touched.push(all_pages[cursor]);
            }
            cursor = if rng.chance(self.locality) {
                (cursor + 1) % all_pages.len()
            } else {
                rng.below(all_pages.len() as u32) as usize
            };
        }
        let events: Vec<TouchEvent> = touched
            .into_iter()
            .map(|page| TouchEvent {
                page,
                write: rng.chance(self.write_fraction),
            })
            .collect();
        let trace = assemble_trace(&events, SimDuration::from_millis(self.compute_ms), 0);

        let real = self.real_pages * cor_mem::PAGE_SIZE;
        let realz = self.realzero_pages * cor_mem::PAGE_SIZE;
        Workload {
            paper: PaperRow {
                name: self.name,
                real,
                realz,
                total: real + realz,
                rs: self.resident_pages.min(self.real_pages) * cor_mem::PAGE_SIZE,
                iou_pct_real: None,
                iou_pct_total: None,
                rs_pct_real: None,
                rs_pct_total: None,
                excise_amap_s: 0.0,
                excise_rimas_s: 0.0,
                excise_total_s: 0.0,
                xfer_iou_s: 0.0,
                xfer_rs_s: 0.0,
                xfer_copy_s: 0.0,
            },
            blueprint: Blueprint {
                name: self.name,
                seed: self.seed,
                frame_budget: self.resident_pages as usize,
                regions,
                on_disk: Vec::new(),
                install_order,
                trace,
                send_rights: 24,
                recv_ports: 3,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cor_kernel::World;
    use cor_migrate::{MigrationManager, Strategy};

    fn spec() -> SynthSpec {
        SynthSpec {
            name: "synth",
            seed: 11,
            real_pages: 200,
            realzero_pages: 300,
            runs: 10,
            resident_pages: 60,
            touched_fraction: 0.4,
            locality: 0.7,
            compute_ms: 2_000,
            write_fraction: 0.25,
        }
    }

    #[test]
    fn composition_matches_spec() {
        let w = spec().build();
        let (mut world, a, _) = World::testbed();
        let pid = w.build(&mut world, a).unwrap();
        let st = world.process(a, pid).unwrap().space.stats();
        assert_eq!(st.real_bytes, 200 * 512);
        assert_eq!(st.realzero_bytes, 300 * 512);
        assert_eq!(st.resident_bytes, 60 * 512);
    }

    #[test]
    fn touched_fraction_is_respected() {
        let w = spec().build();
        let (mut world, a, b) = World::testbed();
        let src = MigrationManager::new(&mut world, a);
        let dst = MigrationManager::new(&mut world, b);
        let pid = w.build(&mut world, a).unwrap();
        src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 0 })
            .unwrap();
        world.run(b, pid).unwrap();
        let faults = world.process(b, pid).unwrap().stats.imag_faults;
        assert_eq!(faults, 80, "0.4 * 200 pages fetched on reference");
    }

    #[test]
    fn locality_controls_prefetch_payoff() {
        let faults_with = |locality: f64| {
            let mut s = spec();
            s.locality = locality;
            let w = s.build();
            let (mut world, a, b) = World::testbed();
            let src = MigrationManager::new(&mut world, a);
            let dst = MigrationManager::new(&mut world, b);
            let pid = w.build(&mut world, a).unwrap();
            src.migrate_to(&mut world, &dst, pid, Strategy::PureIou { prefetch: 3 })
                .unwrap();
            world.run(b, pid).unwrap();
            world.process(b, pid).unwrap().stats.imag_faults
        };
        let sequential = faults_with(1.0);
        let random = faults_with(0.0);
        assert!(
            sequential * 2 < random,
            "sequential {sequential} vs random {random}: prefetch must batch the scan"
        );
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_pages_rejected() {
        let mut s = spec();
        s.real_pages = 0;
        s.build();
    }
}
