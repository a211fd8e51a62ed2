//! The deterministic latency baseline behind the `LATENCY_baseline.json`
//! CI gate (`experiments latency`). Nothing here is timed.

use cor_pool::Pool;

use crate::{fleet, saturation, trace};

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
/// baseline with `experiments latency > LATENCY_baseline.json`).
pub fn latency_baseline(pool: &Pool) -> String {
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
    let sat = saturation::STUDY.run(&workloads, pool, saturation::gate_cells());
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
