//! The zero-copy pipeline's allocation guarantee: a sparse workload
//! performs O(pages touched) frame allocations, never O(address space).
//!
//! The Lisp workloads validate a ~4 GB heap (over 8 million pages) but
//! materialize only a few thousand; before the zero-copy pipeline,
//! transfer and fault paths allocated fresh 512-byte frames at every
//! hop. These tests pin the allocation count to the touched set with
//! generous headroom, so any reintroduced per-page copy fails loudly.
//! The counters are thread-local (`cor-mem`'s `alloc-stats` feature), so
//! each test must run its whole trial on its own thread — which is
//! exactly what libtest does.

use cor_experiments::runner;
use cor_mem::page::alloc_stats;
use cor_migrate::Strategy;

/// Runs one full trial (build, migrate, remote run) and returns the
/// number of frame allocations it performed.
fn allocs_for(workload: &str, strategy: Strategy) -> (u64, u64) {
    let w = cor_workloads::by_name(workload).expect("workload exists");
    alloc_stats::reset();
    let trial = runner::run_trial(&w, strategy);
    (alloc_stats::frame_allocs(), trial.total_pages)
}

#[test]
fn sparse_lisp_allocates_o_pages_touched() {
    let (allocs, total_pages) = allocs_for("Lisp-T", Strategy::PureIou { prefetch: 1 });
    // The address space is over 8M pages; the touched set is ~4,300.
    assert!(
        total_pages > 8_000_000,
        "Lisp-T should validate a 4 GB heap, got {total_pages} pages"
    );
    // The zero-copy pipeline allocates only for pages with real content
    // or diverged writes — measured 4,332 — so 8,192 gives ~2x headroom
    // for legitimate drift while failing loudly if anything starts
    // allocating per *validated* page again.
    assert!(
        allocs <= 8_192,
        "sparse trial allocated {allocs} frames — O(address space), not O(touched)"
    );
}

#[test]
fn pure_copy_allocates_no_more_than_iou() {
    // Pure-copy ships every materialized page up front but must still
    // allocate O(touched): the wire shares frames instead of copying.
    let (copy_allocs, _) = allocs_for("Lisp-T", Strategy::PureCopy);
    assert!(
        copy_allocs < 15_000,
        "pure-copy trial allocated {copy_allocs} frames"
    );
}

#[test]
fn forks_of_one_image_allocate_o_pages_written() {
    // `frame_allocs` counts page-sized host buffers. Thawing an image
    // allocates none (its frames point into the one arena), and the first
    // write to an image-backed page — the host-level divergence copy — is
    // counted, so a whole strategy sweep on one Lisp-T image costs what
    // its cells write and receive, not eleven 4,300-page rebuilds.
    let w = cor_workloads::by_name("Lisp-T").expect("workload exists");
    let image = w.image().expect("workload build");
    let strategies = runner::Matrix::paper_strategies();
    alloc_stats::reset();
    let mut touched = 0;
    for &s in &strategies {
        let t = runner::run_trial_on(
            &image,
            s,
            cor_kernel::CostModel::default(),
            cor_net::WireParams::default(),
        );
        touched += t.touched_real_pages + t.zero_faults;
    }
    let allocs = alloc_stats::frame_allocs();
    // Measured: 319 allocations for 1,419 page touches (most are reads).
    assert!(
        allocs <= touched,
        "{allocs} frame allocs for {touched} pages touched in 11 forks"
    );
    assert!(
        allocs < image.space().real_pages() / 4,
        "{allocs} frame allocs: a fork is rebuilding pages again"
    );
}

#[test]
fn zero_fill_faults_do_not_allocate() {
    // A run that only zero-fills must clone the interned zero frame, not
    // allocate: compare allocations against an identical trial and the
    // same trial again — counts are deterministic per thread.
    let first = allocs_for("Minprog", Strategy::PureIou { prefetch: 0 });
    let second = allocs_for("Minprog", Strategy::PureIou { prefetch: 0 });
    assert_eq!(first, second, "alloc counts are deterministic");
}

/// Frame allocations of one saturation cell (its own setup included).
fn sat_allocs(spec: cor_experiments::saturation::SatSpec) -> u64 {
    alloc_stats::reset();
    let o = cor_experiments::saturation::run_cell(spec);
    assert_eq!(o.served, spec.requests, "every fault completed");
    alloc_stats::frame_allocs()
}

fn sat_spec(relay: bool, optimized: bool) -> cor_experiments::saturation::SatSpec {
    cor_experiments::saturation::SatSpec {
        mode: "open",
        pattern: if relay { "hot" } else { "scan" },
        relay,
        optimized,
        offered_fps: if relay { 12 } else { 26 },
        requests: 192,
    }
}

#[test]
fn batched_reply_path_is_allocation_free() {
    // A saturated open-loop cell allocates frames only in its setup (the
    // 64 distinct-content cache pages); the batched reply hot path
    // reference-counts cache frames into pooled vectors and must not
    // allocate per served fault. The unbatched cell bounds the same.
    for optimized in [false, true] {
        let allocs = sat_allocs(sat_spec(false, optimized));
        assert!(
            allocs < 100,
            "optimized={optimized}: {allocs} frame allocs for 192 served \
             faults — the reply path is copying pages again"
        );
    }
}

#[test]
fn coalesced_relay_path_is_allocation_free() {
    // The relayed hot-set cell adds the forward/rename path and (when
    // optimized) pending-interest coalescing; renamed replies slice the
    // upstream reply by reference, so the bound is the same as direct
    // service.
    for optimized in [false, true] {
        let allocs = sat_allocs(sat_spec(true, optimized));
        assert!(
            allocs < 100,
            "optimized={optimized}: {allocs} frame allocs on the relay \
             path — renamed replies are copying pages again"
        );
    }
}

#[test]
fn profile_analysis_allocates_no_frames() {
    // Profile analysis is pure arithmetic over the journals: building the
    // blame decomposition, walking every critical path, and rendering the
    // CSV / folded-stack / JSONL exports must never touch the frame pool.
    // A profiler that clones page frames to attribute latency would
    // perturb the very allocation budget it reports on.
    use cor_experiments::trace::traced_trial;
    use cor_sim::JournalLevel;

    let w = cor_workloads::by_name("Lisp-T").expect("workload exists");
    let t = traced_trial(&w, JournalLevel::Full);
    alloc_stats::reset();
    let p = t.profile();
    assert!(p.sums_exactly());
    let paths: u64 = p.roots().map(|r| p.critical_path(r).total_us).sum();
    assert!(paths > 0, "critical paths must attribute real time");
    let links = t.link_waits();
    let rendered = p.blame_csv(&links).len() + p.folded().len() + p.jsonl().len();
    assert!(rendered > 0);
    assert_eq!(
        alloc_stats::frame_allocs(),
        0,
        "profile analysis touched the frame pool"
    );
}
