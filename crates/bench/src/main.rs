//! The `cor-bench` runner: real wall-clock measurement of the experiment
//! engine, emitted as machine-readable JSON.
//!
//! ```text
//! cor-bench [--threads N] [--baseline] [--quick] [--label NAME] [--out PATH]
//!           [--saturation base|optimized] [--profiler-overhead] [--latency]
//! ```
//!
//! Runs the paper matrix (every representative under every studied
//! strategy; `--quick` restricts to the sparse-workload smoke set) on `N`
//! worker threads, timing each cell and the whole run with the OS
//! monotonic clock. Results are *appended* as a labelled entry to the
//! repo-root `BENCH_wallclock.json` (or `PATH`), so the committed file is
//! a perf trajectory: the first entry is the `main` baseline, later
//! entries are PRs' after-numbers. Each entry records per-cell wall-clock,
//! whole-matrix wall-clock, the summed sparse (Lisp) sweep, the thread
//! count, and a peak-RSS proxy (`VmHWM` from `/proc/self/status` where
//! available). With `--baseline`, an *untimed warmup pass* runs first
//! (so neither configuration pays cold-start costs), then the serial
//! reference and the pooled run are timed in the same process; the entry
//! gains the measured speedup plus a byte-identity check of the serial
//! and pooled CSV renderings.
//!
//! With `--saturation base|optimized`, the entry additionally records the
//! saturation study's headline numbers for that hot-path configuration
//! (closed-loop p50, peak served faults/sec over the offered-load ladder,
//! p99 at the ~80%-of-baseline-capacity point, relay coalescing count,
//! and the sweep's wall-clock), so the committed trajectory carries
//! before/after saturation entries.
//!
//! Built with `--features alloc-stats`, the entry also records the frame
//! allocations of one sparse-workload trial and the process exits
//! non-zero if they exceed [`SPARSE_ALLOC_BUDGET`] — the regression gate
//! for the zero-copy page pipeline (allocations must scale with pages
//! *touched*, never with the 4 GB address-space size).
//!
//! With `--profiler-overhead`, the entry records the wall-clock delta of
//! the serial matrix with the full typed journal on vs off (both passes
//! warm, outputs asserted identical) — the measured cost of the
//! observability layer itself.
//!
//! With `--latency`, nothing is timed at all: the run captures the
//! *deterministic* latency baseline — blame-bucket totals and fault-span
//! percentiles in integer virtual time for the fixed-seed matrix, fleet,
//! and saturation runs — and writes it to the repo-root
//! `LATENCY_baseline.json` (or `--out PATH`). CI regenerates the capture
//! and diffs it against the committed file; exact match required.
//!
//! Trials run with the typed journal disabled (`COR_JOURNAL=off`) unless
//! the caller sets the variable explicitly, so wall-clock numbers measure
//! the engine rather than the observability layer.

use std::time::Instant;

use cor_experiments::runner::{self, Matrix};
use cor_pool::Pool;

/// Frame-allocation ceiling for one sparse trial (Lisp-T under pure-IOU
/// prefetch=1, build + migrate + remote run). The workload validates
/// 8,258,065 pages but the zero-copy pipeline allocates only for pages
/// with real content or diverged writes — measured 4,332 — so 8,192
/// gives ~2x headroom for legitimate drift while failing loudly if
/// anything starts allocating per *validated* page again.
#[cfg(feature = "alloc-stats")]
const SPARSE_ALLOC_BUDGET: u64 = 8_192;

/// The workload whose allocations the `alloc-stats` gate measures.
const SPARSE_GATE_WORKLOAD: &str = "Lisp-T";

/// Frame-allocation ceiling for one saturated open-loop cell (256 faults
/// against a 64-page cache, optimized hot path). Setup allocates the 64
/// distinct-content cache pages; the batched/coalesced reply path itself
/// must be allocation-free (pooled reply vectors, reference-counted
/// frames), so 128 gives setup plus headroom while failing loudly if the
/// hot path starts copying pages again.
#[cfg(feature = "alloc-stats")]
const SATURATION_ALLOC_BUDGET: u64 = 128;

/// Peak resident set size in kilobytes, read from the kernel's `VmHWM`
/// accounting. `None` off Linux or when the proc file is unreadable.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The repo-root report path, resolved from this crate's manifest so the
/// default lands in the same place no matter the working directory.
fn default_out() -> String {
    format!("{}/../../BENCH_wallclock.json", env!("CARGO_MANIFEST_DIR"))
}

/// The repo-root latency-baseline path (`--latency` mode).
fn default_latency_out() -> String {
    format!("{}/../../LATENCY_baseline.json", env!("CARGO_MANIFEST_DIR"))
}

/// Renders one blame-bucket array as a JSON object keyed by bucket name.
fn json_blame(blame: &[u64; cor_trace::BUCKET_COUNT]) -> String {
    let fields: Vec<String> = cor_trace::BlameBucket::ALL
        .iter()
        .map(|b| format!("\"{}\": {}", b.name(), blame[b.index()]))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Captures the committed latency baseline: headline blame-bucket totals
/// and fault-span percentiles for the fixed-seed matrix trials, the
/// fleet blame cell, and the saturation gate cells. Every number is an
/// *integer in virtual time* (µs, counts, bytes) — no wall-clock, no
/// floats — so a fresh run on any machine, at any thread count,
/// reproduces the file byte for byte. CI diffs a fresh
/// capture against the committed `LATENCY_baseline.json`; any drift is a
/// latency regression (or an intentional change that must regenerate the
/// baseline).
fn latency_baseline(threads: usize) -> String {
    use cor_experiments::{fleet, saturation, trace};
    let mut out = String::from("{\n  \"schema\": 1,\n  \"unit\": \"virtual-time us\",\n");

    // Matrix: the standard pure-IOU traced trial per paper workload.
    out.push_str("  \"matrix\": [\n");
    let workloads = cor_workloads::all();
    for (i, w) in workloads.iter().enumerate() {
        let t = trace::traced_trial(w, cor_sim::JournalLevel::Full);
        let p = t.profile();
        assert!(p.sums_exactly(), "{}: blame must sum exactly", w.name());
        let h = p.histogram("imag-fault");
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"total_us\": {}, \"blame\": {}, \
             \"fault_spans\": {}, \"fault_p50_us\": {}, \"fault_p99_us\": {}, \
             \"fault_max_us\": {}}}{}\n",
            w.name(),
            p.total_us(),
            json_blame(&p.total_blame()),
            h.count(),
            h.p50(),
            h.p99(),
            h.max(),
            if i + 1 < workloads.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    // Fleet: the fixed blame cell (16-node ring, low storm).
    let spec = fleet::blame_cell_spec();
    let (outcome, profile, links) = fleet::run_cell_profiled(spec);
    assert!(profile.sums_exactly(), "fleet blame must sum exactly");
    let link_wait_us: u64 = links.iter().map(|&(_, w)| w).sum();
    out.push_str(&format!(
        "  \"fleet\": {{\"cell\": \"{}/{}/{}/{}\", \"total_us\": {}, \"blame\": {}, \
         \"storm_elapsed_us\": {}, \"migrations\": {}, \"faults\": {}, \
         \"fault_p50_us\": {}, \"fault_p99_us\": {}, \"link_wait_us\": {}}},\n",
        spec.nodes,
        spec.topology,
        spec.placement,
        spec.storm.name,
        profile.total_us(),
        json_blame(&profile.total_blame()),
        outcome.storm_elapsed.as_micros(),
        outcome.migrations,
        outcome.faults,
        outcome.fault_p50_us,
        outcome.fault_p99_us,
        link_wait_us,
    ));

    // Saturation: the gate cells' virtual-time service percentiles.
    let sat = saturation::saturation_outcomes_for(saturation::gate_cells(), &Pool::new(threads));
    out.push_str("  \"saturation\": [\n");
    for (i, o) in sat.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cell\": \"{}\", \"optimized\": {}, \"served\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"coalesced\": {}, \"wire_bytes\": {}}}{}\n",
            o.spec.label(),
            o.spec.optimized,
            o.served,
            o.p50_us,
            o.p99_us,
            o.coalesced,
            o.wire_bytes,
            if i + 1 < sat.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

struct CellTiming {
    workload: &'static str,
    strategy: String,
    wallclock_s: f64,
}

/// Times every cell of the paper matrix on `threads` workers. Returns the
/// per-cell timings (in deterministic cell order) and the whole-matrix
/// wall-clock seconds.
fn time_matrix(workloads: &[cor_workloads::Workload], threads: usize) -> (Vec<CellTiming>, f64) {
    let strategies = Matrix::paper_strategies();
    let cells: Vec<(usize, cor_migrate::Strategy)> = workloads
        .iter()
        .enumerate()
        .flat_map(|(i, _)| strategies.iter().map(move |&s| (i, s)))
        .collect();
    let pool = Pool::new(threads);
    let t0 = Instant::now();
    let jobs: Vec<_> = cells
        .iter()
        .map(|&(i, s)| {
            let w = &workloads[i];
            move || {
                let c0 = Instant::now();
                let trial = runner::run_trial(w, s);
                (c0.elapsed().as_secs_f64(), trial.total_bytes)
            }
        })
        .collect();
    let results = pool.run(jobs);
    let total = t0.elapsed().as_secs_f64();
    let timings = cells
        .iter()
        .zip(&results)
        .map(|(&(i, s), &(secs, _))| CellTiming {
            workload: workloads[i].name(),
            strategy: s.to_string(),
            wallclock_s: secs,
        })
        .collect();
    (timings, total)
}

/// Measures frame allocations of one inline sparse trial and enforces
/// [`SPARSE_ALLOC_BUDGET`]. Returns the measured count.
#[cfg(feature = "alloc-stats")]
fn sparse_alloc_gate(workloads: &[cor_workloads::Workload]) -> u64 {
    use cor_mem::page::alloc_stats;
    let w = workloads
        .iter()
        .find(|w| w.name() == SPARSE_GATE_WORKLOAD)
        .expect("sparse gate workload present");
    alloc_stats::reset();
    let trial = runner::run_trial(w, cor_migrate::Strategy::PureIou { prefetch: 1 });
    let allocs = alloc_stats::frame_allocs();
    eprintln!(
        "alloc gate: {} frame allocs for {} ({} validated pages, budget {})",
        allocs,
        SPARSE_GATE_WORKLOAD,
        trial.total_pages,
        SPARSE_ALLOC_BUDGET
    );
    if allocs > SPARSE_ALLOC_BUDGET {
        eprintln!(
            "FRAME-ALLOC REGRESSION: {allocs} > {SPARSE_ALLOC_BUDGET} — \
             the page pipeline is copying again"
        );
        std::process::exit(1);
    }
    allocs
}

/// Headline numbers from one saturation-sweep configuration.
struct SaturationSummary {
    mode: String,
    closed_p50_us: u64,
    peak_achieved_fps: f64,
    p99_at_80pct_us: u64,
    coalesced_hot_relay: u64,
    batched_replies: u64,
    wallclock_s: f64,
}

/// Runs the saturation study's full ladder for one configuration
/// (`optimized` = batched replies + coalescing + coarse stats) and
/// distills the headline numbers. The ~80% load point is the scan ladder
/// cell at 20 offered faults/sec — 80% of the *optimized* capacity
/// (~25.9/s on the default wire), so before/after entries compare the
/// same absolute operating point; the unoptimized server is past its
/// knee there, which is exactly the tail the hot path buys back.
fn run_saturation(optimized: bool, threads: usize) -> SaturationSummary {
    use cor_experiments::saturation;
    let specs: Vec<_> = saturation::cells()
        .into_iter()
        .filter(|c| c.optimized == optimized)
        .collect();
    let t0 = Instant::now();
    let outcomes = saturation::saturation_outcomes_for(specs, &Pool::new(threads));
    let wallclock_s = t0.elapsed().as_secs_f64();
    let scan = |fps: u64| {
        outcomes
            .iter()
            .find(|o| o.spec.pattern == "scan" && o.spec.offered_fps == fps)
            .expect("scan ladder cell present")
    };
    let closed = outcomes
        .iter()
        .find(|o| o.spec.mode == "closed")
        .expect("closed-loop cell present");
    SaturationSummary {
        mode: if optimized { "optimized" } else { "base" }.into(),
        closed_p50_us: closed.p50_us,
        peak_achieved_fps: outcomes
            .iter()
            .filter(|o| o.spec.pattern == "scan")
            .map(|o| o.achieved_fps)
            .fold(0.0, f64::max),
        p99_at_80pct_us: scan(20).p99_us,
        coalesced_hot_relay: outcomes
            .iter()
            .filter(|o| o.spec.relay)
            .map(|o| o.coalesced)
            .sum(),
        batched_replies: outcomes.iter().map(|o| o.batched_replies).sum(),
        wallclock_s,
    }
}

/// Measures frame allocations of one saturated optimized open-loop cell
/// and enforces [`SATURATION_ALLOC_BUDGET`]: the batched/coalesced reply
/// path must not allocate beyond the cell's own setup.
#[cfg(feature = "alloc-stats")]
fn saturation_alloc_gate() -> u64 {
    use cor_experiments::saturation::{run_cell, SatSpec};
    use cor_mem::page::alloc_stats;
    alloc_stats::reset();
    let o = run_cell(SatSpec {
        mode: "open",
        pattern: "scan",
        relay: false,
        optimized: true,
        offered_fps: 26,
        requests: 256,
    });
    let allocs = alloc_stats::frame_allocs();
    eprintln!(
        "saturation alloc gate: {} frame allocs for {} batched faults (budget {})",
        allocs, o.served, SATURATION_ALLOC_BUDGET
    );
    if allocs > SATURATION_ALLOC_BUDGET {
        eprintln!(
            "FRAME-ALLOC REGRESSION: {allocs} > {SATURATION_ALLOC_BUDGET} — \
             the batched/coalesced reply path is copying pages again"
        );
        std::process::exit(1);
    }
    allocs
}

/// Physical parallelism of the bench host; `matrix_speedup` is only
/// meaningful when this covers the thread count.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".into()
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map_or("null".into(), |n| n.to_string())
}

/// Renders one trajectory entry as a JSON object (four-space indented to
/// sit inside the `entries` array).
#[allow(clippy::too_many_arguments)]
fn render_entry(
    label: &str,
    threads: usize,
    quick: bool,
    warmed_up: bool,
    matrix_s: f64,
    serial: Option<f64>,
    sparse_s: f64,
    frame_allocs_sparse: Option<u64>,
    saturation: Option<&SaturationSummary>,
    profiler_overhead: Option<(f64, f64)>,
    cells: &[CellTiming],
) -> String {
    let mut e = String::from("    {\n");
    e.push_str(&format!("      \"label\": \"{label}\",\n"));
    e.push_str(&format!("      \"threads\": {threads},\n"));
    e.push_str(&format!("      \"host_cores\": {},\n", host_cores()));
    e.push_str(&format!("      \"quick\": {quick},\n"));
    e.push_str(&format!("      \"warmup\": {warmed_up},\n"));
    e.push_str(&format!(
        "      \"matrix_wallclock_s\": {},\n",
        json_f64(matrix_s)
    ));
    // `matrix_speedup` is inter-cell scaling: independent matrix cells
    // fanned across the pool.
    match serial {
        Some(s) => e.push_str(&format!(
            "      \"serial_wallclock_s\": {},\n      \"matrix_speedup\": {},\n",
            json_f64(s),
            json_f64(s / matrix_s)
        )),
        None => {
            e.push_str("      \"serial_wallclock_s\": null,\n      \"matrix_speedup\": null,\n")
        }
    }
    e.push_str(&format!(
        "      \"sparse_sweep_wallclock_s\": {},\n",
        json_f64(sparse_s)
    ));
    e.push_str(&format!(
        "      \"frame_allocs_sparse\": {},\n",
        json_opt_u64(frame_allocs_sparse)
    ));
    e.push_str(&format!(
        "      \"peak_rss_kb\": {},\n",
        json_opt_u64(peak_rss_kb())
    ));
    if let Some(s) = saturation {
        e.push_str(&format!(
            "      \"saturation\": {{\"mode\": \"{}\", \"closed_loop_p50_us\": {}, \
             \"peak_achieved_fps\": {}, \"p99_at_80pct_us\": {}, \
             \"coalesced_hot_relay\": {}, \"batched_replies\": {}, \
             \"wallclock_s\": {}}},\n",
            s.mode,
            s.closed_p50_us,
            json_f64(s.peak_achieved_fps),
            s.p99_at_80pct_us,
            s.coalesced_hot_relay,
            s.batched_replies,
            json_f64(s.wallclock_s),
        ));
    }
    if let Some((off_s, on_s)) = profiler_overhead {
        e.push_str(&format!(
            "      \"profiler_overhead\": {{\"trace_off_s\": {}, \"trace_on_s\": {}, \
             \"overhead_ratio\": {}, \"csv_identical\": true}},\n",
            json_f64(off_s),
            json_f64(on_s),
            json_f64(on_s / off_s),
        ));
    }
    e.push_str("      \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        e.push_str(&format!(
            "        {{\"workload\": \"{}\", \"strategy\": \"{}\", \"wallclock_s\": {}}}{}\n",
            c.workload,
            c.strategy,
            json_f64(c.wallclock_s),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    e.push_str("      ]\n    }");
    e
}

/// Appends `entry` to the trajectory file at `out`, creating it when
/// absent. The file format is fixed (`"entries": [...]` closed by
/// `\n  ]\n}\n`), so splicing before the array's closing bracket is exact,
/// not heuristic; an unrecognisable file is an error, never overwritten.
fn write_report(out: &str, entry: &str) -> Result<(), String> {
    const HEAD: &str = "{\n  \"schema\": 2,\n  \"entries\": [\n";
    const TAIL: &str = "\n  ]\n}\n";
    let body = match std::fs::read_to_string(out) {
        Ok(existing) => {
            if !existing.starts_with(HEAD) {
                return Err(format!("{out} is not a cor-bench trajectory file"));
            }
            let stripped = existing
                .strip_suffix(TAIL)
                .ok_or_else(|| format!("{out} is truncated or hand-edited"))?;
            format!("{stripped},\n{entry}{TAIL}")
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            format!("{HEAD}{entry}{TAIL}")
        }
        Err(e) => return Err(format!("cannot read {out}: {e}")),
    };
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))
}

fn main() {
    // Wall-clock benches measure the engine, not the observer: default the
    // typed journal off unless the caller explicitly set COR_JOURNAL.
    if std::env::var_os("COR_JOURNAL").is_none() {
        std::env::set_var("COR_JOURNAL", "off");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads: Option<usize> = None;
    let mut baseline = false;
    let mut quick = false;
    let mut label = String::from("HEAD");
    let mut out = default_out();
    let mut saturation_mode: Option<bool> = None;
    let mut latency_mode = false;
    let mut profiler_overhead_flag = false;
    let mut out_explicit = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0);
                if threads.is_none() {
                    eprintln!("--threads requires a positive integer");
                    std::process::exit(2);
                }
                i += 2;
            }
            "--baseline" => {
                baseline = true;
                i += 1;
            }
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--label" => {
                let Some(l) = args.get(i + 1) else {
                    eprintln!("--label requires a name");
                    std::process::exit(2);
                };
                label = l.clone();
                i += 2;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                };
                out = path.clone();
                out_explicit = true;
                i += 2;
            }
            "--latency" => {
                latency_mode = true;
                i += 1;
            }
            "--profiler-overhead" => {
                profiler_overhead_flag = true;
                i += 1;
            }
            "--saturation" => {
                match args.get(i + 1).map(String::as_str) {
                    Some("base") => saturation_mode = Some(false),
                    Some("optimized") => saturation_mode = Some(true),
                    _ => {
                        eprintln!("--saturation requires `base` or `optimized`");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: cor-bench [--threads N] [--baseline] [--quick] \
                     [--label NAME] [--out PATH] [--saturation base|optimized] \
                     [--profiler-overhead] [--latency]"
                );
                std::process::exit(2);
            }
        }
    }
    let threads = threads.unwrap_or_else(|| Pool::from_env().threads());

    // `--latency` is a standalone capture: write (or overwrite) the
    // deterministic virtual-time baseline and exit. CI diffs a fresh
    // capture against the committed file — exact match required.
    if latency_mode {
        let path = if out_explicit {
            out
        } else {
            default_latency_out()
        };
        let doc = latency_baseline(threads);
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote latency baseline to {path}");
        return;
    }

    let mut workloads = cor_workloads::all();
    if quick {
        // The sparse smoke set: the zero-copy pipeline's target workloads
        // plus the smallest representative as a non-sparse control.
        workloads.retain(|w| w.name().starts_with("Lisp") || w.name() == "Minprog");
    }

    // Optional serial reference. An untimed warmup pass runs first so the
    // serial and pooled measurements below both start warm (allocator,
    // page cache, branch predictors) — comparing a cold serial run
    // against a warm pooled one is how a same-machine "speedup" can read
    // below 1.0.
    let warmed_up = baseline;
    if baseline {
        let _ = runner::matrix_csv(&mut Matrix::new(), &workloads);
    }
    let serial = baseline.then(|| {
        let t0 = Instant::now();
        let csv = runner::matrix_csv(&mut Matrix::new(), &workloads);
        (t0.elapsed().as_secs_f64(), csv)
    });

    let (cells, matrix_s) = time_matrix(&workloads, threads);
    let sparse_s: f64 = cells
        .iter()
        .filter(|c| c.workload.starts_with("Lisp"))
        .map(|c| c.wallclock_s)
        .sum();

    if let Some((serial_s, serial_csv)) = &serial {
        let pooled_csv = runner::matrix_csv(&mut Matrix::with_threads(threads), &workloads);
        assert_eq!(
            serial_csv, &pooled_csv,
            "pooled matrix CSV must be byte-identical to serial"
        );
        eprintln!(
            "serial {serial_s:.2}s, {threads} threads {matrix_s:.2}s, speedup {:.2}x, output identical",
            serial_s / matrix_s
        );
    } else {
        eprintln!("{threads} threads: matrix in {matrix_s:.2}s (sparse sweep {sparse_s:.3}s)");
    }

    #[cfg(feature = "alloc-stats")]
    let frame_allocs_sparse = Some(sparse_alloc_gate(&workloads));
    #[cfg(not(feature = "alloc-stats"))]
    let frame_allocs_sparse = None;
    let _ = SPARSE_GATE_WORKLOAD;

    let saturation = saturation_mode.map(|optimized| {
        #[cfg(feature = "alloc-stats")]
        if optimized {
            saturation_alloc_gate();
        }
        let s = run_saturation(optimized, threads);
        eprintln!(
            "saturation ({}): closed p50 {:.1}ms, peak {:.2} faults/s, \
             p99@80% {:.1}ms, coalesced {}, in {:.2}s",
            s.mode,
            s.closed_p50_us as f64 / 1_000.0,
            s.peak_achieved_fps,
            s.p99_at_80pct_us as f64 / 1_000.0,
            s.coalesced_hot_relay,
            s.wallclock_s
        );
        s
    });

    // `--profiler-overhead`: wall-clock delta of the serial matrix with
    // the full typed journal on vs off, both passes warm and in-process.
    // The journal is a pure observer, so the CSVs must stay identical —
    // only the wall-clock may move.
    let profiler_overhead = profiler_overhead_flag.then(|| {
        std::env::set_var("COR_JOURNAL", "full");
        let _ = runner::matrix_csv(&mut Matrix::new(), &workloads);
        std::env::set_var("COR_JOURNAL", "off");
        let t0 = Instant::now();
        let off_csv = runner::matrix_csv(&mut Matrix::new(), &workloads);
        let trace_off_s = t0.elapsed().as_secs_f64();
        std::env::set_var("COR_JOURNAL", "full");
        let t0 = Instant::now();
        let on_csv = runner::matrix_csv(&mut Matrix::new(), &workloads);
        let trace_on_s = t0.elapsed().as_secs_f64();
        std::env::set_var("COR_JOURNAL", "off");
        assert_eq!(
            off_csv, on_csv,
            "the journal is a pure observer: matrix CSV must not change"
        );
        eprintln!(
            "profiler overhead: trace-off {trace_off_s:.2}s, trace-on {trace_on_s:.2}s \
             ({:+.1}%), output identical",
            100.0 * (trace_on_s / trace_off_s - 1.0)
        );
        (trace_off_s, trace_on_s)
    });

    let entry = render_entry(
        &label,
        threads,
        quick,
        warmed_up,
        matrix_s,
        serial.as_ref().map(|(s, _)| *s),
        sparse_s,
        frame_allocs_sparse,
        saturation.as_ref(),
        profiler_overhead,
        &cells,
    );
    if let Err(e) = write_report(&out, &entry) {
        eprintln!("{e}");
        std::process::exit(1);
    }
    eprintln!("appended entry \"{label}\" to {out}");
}
