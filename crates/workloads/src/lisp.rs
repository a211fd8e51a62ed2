//! The SPICE Lisp representatives (paper §4.1).
//!
//! Lisp processes validate their entire 4 GB address space at birth
//! (Table 4-1: 99.9% RealZeroMem) yet materialize only ~2.2 MB: an 800-page
//! system/code area plus a garbage-collected heap scattered across 600
//! discontiguous runs. The resident set (372 pages) is a set of *isolated*
//! recently-used pages spread over the heap — which is exactly why
//! resident-set shipment is slow for Lisp (many discontiguous runs on the
//! wire) and why prefetch does not pay: a faulted page's address neighbor
//! is rarely part of the working set ("hit ratios on these extra Lisp
//! pages dropped from around 40% to 20% as prefetch increased", §4.3.3).
//!
//! * **Lisp-T** evaluates `T` and exits: 129 touched pages, ~1.5 s of
//!   interpreter work.
//! * **Lisp-Del** loads Rex Dwyer's Delaunay triangulation package and
//!   runs it with graphics: 709 touched pages (16.5% of RealMem,
//!   Table 4-3), a 55 s compute budget, and one screen update per second
//!   of triangulation.
//!
//! Untabulated knobs: compute budgets above; touch clustering (a fraction
//! of touch clusters are adjacent pairs, the rest isolated singles) fitted
//! to the published prefetch hit ratios.

use cor_mem::{PageNum, PageRange};
use cor_sim::{IdSet, Pcg32, SimDuration};

use crate::paper::ROWS;
use crate::spec::{assemble_trace, scattered_runs, Blueprint, TouchEvent, Workload};

const TOTAL_PAGES: u64 = 8_258_065; // 4,228,129,280 bytes
const CODE_PAGES: u64 = 800;
const HEAP_REGION: PageRange = PageRange {
    start: PageNum(10_000),
    end: PageNum(2_000_000),
};
const HEAP_RUNS: u64 = 600;
const RS_PAGES: u64 = 372;

struct LispParams {
    name: &'static str,
    seed: u64,
    heap_pages: u64, // real pages beyond the code area
    touched_tail: u64,
    touched_cold: u64,
    compute: SimDuration,
    screens: u64,
    write_frac: f64,
}

/// Picks `count` pages from `runs` as scattered clusters: isolated singles
/// or adjacent pairs (probability `pair_frac`), separated by untouched
/// gaps, skipping `exclude`d pages. Returns the clusters.
fn pick_scattered(
    rng: &mut Pcg32,
    runs: &[PageRange],
    count: u64,
    pair_frac: f64,
    exclude: &IdSet<PageNum>,
) -> Vec<Vec<PageNum>> {
    let mut order: Vec<usize> = (0..runs.len()).collect();
    rng.shuffle(&mut order);
    let mut clusters = Vec::new();
    let mut picked = 0u64;
    // Repeated sweeps with growing permissiveness, in case one pass over
    // the runs cannot satisfy `count` with gaps intact.
    for sweep in 0..3 {
        for &ri in &order {
            if picked >= count {
                return clusters;
            }
            let run = runs[ri];
            let mut cursor = run.start.0;
            while cursor < run.end.0 && picked < count {
                let page = PageNum(cursor);
                if exclude.contains(&page) || clusters.iter().flatten().any(|p| *p == page) {
                    cursor += 1;
                    continue;
                }
                let mut cluster = vec![page];
                picked += 1;
                let next = PageNum(cursor + 1);
                if picked < count
                    && rng.chance(pair_frac)
                    && run.contains(next)
                    && !exclude.contains(&next)
                {
                    cluster.push(next);
                    picked += 1;
                    cursor += 1;
                }
                clusters.push(cluster);
                // Leave an untouched gap so clusters stay isolated.
                cursor += if sweep == 0 { 2 + rng.range(0, 3) } else { 2 };
            }
        }
        if picked >= count {
            break;
        }
    }
    assert!(picked >= count, "pool too small: {picked} < {count}");
    clusters
}

fn build(params: LispParams, paper_idx: usize) -> Workload {
    let mut rng = Pcg32::new(params.seed);
    let heap_runs = scattered_runs(&mut rng, HEAP_REGION, params.heap_pages, HEAP_RUNS);

    // The resident set: RS_PAGES scattered picks (30% pairs) across the
    // heap — the isolated recently-used pages of a GC'd heap.
    let tail_clusters = pick_scattered(&mut rng, &heap_runs, RS_PAGES, 0.3, &IdSet::default());
    let tail: Vec<PageNum> = tail_clusters.iter().flatten().copied().collect();
    let tail_set: IdSet<PageNum> = tail.iter().copied().collect();

    // Install order: code, then heap (minus the tail) run by run in
    // shuffled order, then the tail — so the LRU keeps exactly the tail.
    let mut install_order: Vec<PageNum> = (0..CODE_PAGES).map(PageNum).collect();
    let mut run_order: Vec<usize> = (0..heap_runs.len()).collect();
    rng.shuffle(&mut run_order);
    for &ri in &run_order {
        for page in heap_runs[ri].iter() {
            if !tail_set.contains(&page) {
                install_order.push(page);
            }
        }
    }
    let mut tail_shuffled = tail.clone();
    rng.shuffle(&mut tail_shuffled);
    install_order.extend(tail_shuffled.iter().copied());

    // Touched set: a sample of the tail (in cluster units, so adjacent
    // pairs survive sampling and prefetch-1 keeps its ~40% hit ratio)
    // plus cold scattered clusters.
    let mut tail_order: Vec<usize> = (0..tail_clusters.len()).collect();
    rng.shuffle(&mut tail_order);
    let mut clusters: Vec<Vec<PageNum>> = Vec::new();
    let mut sampled = 0u64;
    for &ci in &tail_order {
        if sampled >= params.touched_tail {
            break;
        }
        let cluster = &tail_clusters[ci];
        let take = cluster.len().min((params.touched_tail - sampled) as usize);
        clusters.push(cluster[..take].to_vec());
        sampled += take as u64;
    }
    if params.touched_cold > 0 {
        clusters.extend(pick_scattered(
            &mut rng,
            &heap_runs,
            params.touched_cold,
            0.5,
            &tail_set,
        ));
    }
    rng.shuffle(&mut clusters);
    let events: Vec<TouchEvent> = clusters
        .iter()
        .flatten()
        .map(|&page| TouchEvent {
            page,
            write: rng.chance(params.write_frac),
        })
        .collect();
    let trace = assemble_trace(&events, params.compute, params.screens);

    Workload {
        paper: ROWS[paper_idx],
        blueprint: Blueprint {
            name: params.name,
            seed: params.seed,
            frame_budget: RS_PAGES as usize,
            regions: vec![PageRange::new(PageNum(0), PageNum(TOTAL_PAGES))],
            on_disk: Vec::new(),
            install_order,
            trace,
            send_rights: 34,
            recv_ports: 5,
        },
    }
}

/// Builds Lisp-T: migrate, evaluate `T`, exit.
pub fn lisp_t() -> Workload {
    build(
        LispParams {
            name: "Lisp-T",
            seed: 0x4c49_5350,
            heap_pages: 4303 - CODE_PAGES,
            touched_tail: 116,
            touched_cold: 13,
            compute: SimDuration::from_millis(1_500),
            screens: 0,
            write_frac: 0.2,
        },
        1,
    )
}

/// Builds Lisp-Del: migrate, then Delaunay-triangulate with graphics.
pub fn lisp_del() -> Workload {
    build(
        LispParams {
            name: "Lisp-Del",
            seed: 0x4c44_454c,
            heap_pages: 4297 - CODE_PAGES,
            touched_tail: 333,
            touched_cold: 376,
            compute: SimDuration::from_secs(55),
            screens: 60,
            write_frac: 0.4,
        },
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use cor_kernel::program::Op;
    use cor_kernel::World;

    #[test]
    fn lisp_touch_counts_match_table_4_3() {
        let t = lisp_t();
        let del = lisp_del();
        let distinct = |w: &Workload| {
            w.blueprint
                .trace
                .ops()
                .iter()
                .filter_map(|op| match op {
                    Op::Touch { addr, .. } => Some(addr.page()),
                    _ => None,
                })
                .collect::<HashSet<_>>()
                .len() as u64
        };
        assert_eq!(distinct(&t), 129);
        // 709 touched of 4297 real = 16.5% (Table 4-3).
        assert_eq!(distinct(&del), 709);
        assert!((709.0_f64 / 4297.0 - 0.165).abs() < 0.001);
    }

    #[test]
    fn resident_set_is_scattered() {
        let w = lisp_t();
        let (mut world, a, _) = World::testbed();
        let pid = w.build(&mut world, a).unwrap();
        let resident = world.process(a, pid).unwrap().space.resident_pages();
        assert_eq!(resident.len(), 372);
        // Count maximal address-contiguous runs: scattering means many.
        let mut runs = 1;
        for w in resident.windows(2) {
            if w[1].0 != w[0].0 + 1 {
                runs += 1;
            }
        }
        assert!(runs > 200, "resident set too contiguous: {runs} runs");
    }

    #[test]
    fn sparse_validation_is_cheap() {
        // Building a 4 GB-validated process must not materialize 8M pages.
        let w = lisp_t();
        let (mut world, a, _) = World::testbed();
        let pid = w.build(&mut world, a).unwrap();
        let process = world.process(a, pid).unwrap();
        assert_eq!(process.space.stats().total_bytes(), 4_228_129_280);
        assert!(process.space.map_complexity() < 5_000);
    }

    #[test]
    fn touched_clusters_are_mostly_isolated() {
        // Prefetch hostility: most touched pages must not have a touched
        // address-successor.
        let w = lisp_del();
        let touched: HashSet<u64> = w
            .blueprint
            .trace
            .ops()
            .iter()
            .filter_map(|op| match op {
                Op::Touch { addr, .. } => Some(addr.page().0),
                _ => None,
            })
            .collect();
        let with_successor = touched
            .iter()
            .filter(|&&p| touched.contains(&(p + 1)))
            .count();
        let frac = with_successor as f64 / touched.len() as f64;
        assert!(frac < 0.5, "too much locality for Lisp: {frac}");
    }
}
