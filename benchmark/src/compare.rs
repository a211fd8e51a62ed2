//! `benchmark compare A.json B.json`: the before/after table every later
//! performance claim is made with, and the check that two runs of the same
//! code agree within the benchmark's own bounds.

use crate::json::{self, Value};
use crate::metrics::{self, Better, Kind};
use crate::stats::Estimate;
use crate::workloads::SPECS;

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs' spread is wider than the bound and their samples overlap:
    /// neither "unchanged" nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much B is worse than A, as a share of A (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    let change = if a == 0.0 {
        f64::INFINITY.copysign(b - a)
    } else {
        (b - a) / a.abs()
    };
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn overlap(a: &Estimate, b: &Estimate) -> bool {
    let range = |e: &Estimate| {
        let lo = e.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = e.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    let ((alo, ahi), (blo, bhi)) = (range(a), range(b));
    alo <= bhi && blo <= ahi
}

/// Judges B against A.
///
/// Exact metrics must be equal to be `same`. Others are `unresolved` when
/// either run's interquartile spread exceeds the bound and the two runs'
/// samples overlap; otherwise `worse` / `better` when the medians differ by
/// more than the bound, else `same`.
pub fn verdict(kind: Kind, better: Better, bound: f64, a: &Estimate, b: &Estimate) -> Verdict {
    let delta = worse_by(better, a.value, b.value);
    if kind == Kind::Exact {
        return match delta {
            d if d > 0.0 => Verdict::Worse,
            d if d < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    // Two counted passes are too few for quartiles to mean anything; the
    // heap metrics are judged on their means alone.
    if kind == Kind::Host && a.spread().max(b.spread()) > bound && overlap(a, b) {
        return Verdict::Unresolved;
    }
    if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn estimate_of(metric: &Value) -> Option<Estimate> {
    let value = metric.get("value")?.as_f64()?;
    let samples: Vec<f64> = match metric.get("samples").and_then(Value::as_arr) {
        Some(items) => items.iter().filter_map(Value::as_f64).collect(),
        None => vec![value],
    };
    Some(Estimate {
        value,
        q1: metric.get("q1").and_then(Value::as_f64).unwrap_or(value),
        q3: metric.get("q3").and_then(Value::as_f64).unwrap_or(value),
        samples: if samples.is_empty() {
            vec![value]
        } else {
            samples
        },
    })
}

struct Row {
    workload: String,
    metric: String,
    unit: String,
    a: Estimate,
    b: Estimate,
    delta: f64,
    bound: f64,
    verdict: Verdict,
}

fn rows<'a>(a: &'a Value, b: &'a Value) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in SPECS.iter().map(|s| s.name) {
        let metric = |doc: &'a Value, part: &str, name: &str| -> Option<&'a Value> {
            doc.get("workloads")?.get(workload)?.get(part)?.get(name)
        };
        let mut push = |part: &str, name: &str, kind: Kind, better: Better, bound: f64| {
            let (Some(ma), Some(mb)) = (metric(a, part, name), metric(b, part, name)) else {
                return;
            };
            let (Some(ea), Some(eb)) = (estimate_of(ma), estimate_of(mb)) else {
                return;
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: name.to_string(),
                unit: ma
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                delta: worse_by(better, ea.value, eb.value),
                verdict: verdict(kind, better, bound, &ea, &eb),
                a: ea,
                b: eb,
                bound,
            });
        };
        for m in &metrics::END_TO_END {
            push("end_to_end", m.name, m.kind, m.better, m.bound);
        }
        // Group C repeats exactly, like the modelled metrics; each count is
        // compared on the workload it is read on.
        for (name, _, better, on) in metrics::COUNTS {
            if on == workload || on == metrics::EVERY_WORKLOAD {
                push("per_layer", name, Kind::Exact, better, 0.0);
            }
        }
    }
    out
}

/// Why two reports cannot be compared, if they cannot.
fn incomparable(a: &Value, b: &Value) -> Option<String> {
    for (doc, which) in [(a, "A"), (b, "B")] {
        if doc.get("tool").and_then(Value::as_str) != Some("cor-benchmark") {
            return Some(format!("{which} is not a cor-benchmark report"));
        }
    }
    for key in ["quick", "mode", "seconds", "rounds"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va != vb {
            return Some(format!(
                "refusing to mix runs: {key} is {} in A and {} in B",
                va.map_or("absent".into(), Value::compact),
                vb.map_or("absent".into(), Value::compact),
            ));
        }
    }
    None
}

fn render(rows: &[Row], a: &Value, b: &Value) -> String {
    let mut out = String::new();
    let seed = |d: &Value| d.get("seed").map_or("?".into(), Value::compact);
    out.push_str(&format!(
        "A: seed {}  B: seed {}  mode {}  quick {}\n",
        seed(a),
        seed(b),
        a.get("mode").map_or("?".into(), Value::compact),
        a.get("quick").map_or("?".into(), Value::compact),
    ));
    out.push_str(&format!(
        "{:<18} {:<42} {:>14} {:>25} {:>14} {:>25} {:>9} {:>6}  {}\n",
        "workload",
        "metric",
        "A median",
        "A [q1, q3] n",
        "B median",
        "B [q1, q3] n",
        "B worse",
        "bound",
        "verdict"
    ));
    let spread = |e: &Estimate| format!("[{:.5}, {:.5}] {}", e.q1, e.q3, e.samples.len());
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:<42} {:>14} {:>25} {:>14} {:>25} {:>+8.2}% {:>5.1}%  {}\n",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            format!("{:.5}", r.a.value),
            spread(&r.a),
            format!("{:.5}", r.b.value),
            spread(&r.b),
            100.0 * r.delta,
            100.0 * r.bound,
            r.verdict.as_str(),
        ));
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} rows: {} same, {} better, {} worse, {} unresolved\n",
        rows.len(),
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
    ));
    out
}

/// Compares two report files; returns the table and the exit code
/// (0 agree, 1 something got worse, 2 the reports cannot be compared).
pub fn run(path_a: &str, path_b: &str) -> (String, u8) {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return (format!("{e}\n"), 2),
    };
    if let Some(why) = incomparable(&a, &b) {
        return (format!("{why}\n"), 2);
    }
    let rows = rows(&a, &b);
    if rows.is_empty() {
        return ("the two reports share no workload\n".to_string(), 2);
    }
    let worse = rows.iter().any(|r| r.verdict == Verdict::Worse);
    (render(&rows, &a, &b), u8::from(worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(samples: &[f64]) -> Estimate {
        Estimate::of(samples.to_vec())
    }

    #[test]
    fn exact_metrics_must_be_equal_to_be_same() {
        let v = |a, b, better| {
            verdict(
                Kind::Exact,
                better,
                0.0,
                &Estimate::exact(a),
                &Estimate::exact(b),
            )
        };
        assert_eq!(v(109.576, 109.576, Better::Lower), Verdict::Same);
        assert_eq!(v(109.576, 109.577, Better::Lower), Verdict::Worse);
        assert_eq!(v(109.576, 109.575, Better::Lower), Verdict::Better);
        assert_eq!(v(13.6, 25.9, Better::Higher), Verdict::Better);
        assert_eq!(v(25.9, 13.6, Better::Higher), Verdict::Worse);
        assert_eq!(v(0.0, 0.0, Better::Lower), Verdict::Same);
        assert_eq!(v(0.0, 0.5, Better::Lower), Verdict::Worse);
    }

    #[test]
    fn tight_host_runs_resolve_against_the_bound() {
        let a = host(&[100.0, 100.5, 101.0, 100.2]);
        let same = host(&[103.0, 103.5, 104.0, 103.2]);
        let worse = host(&[115.0, 115.5, 116.0, 115.2]);
        let better = host(&[80.0, 80.5, 81.0, 80.2]);
        let v = |b| verdict(Kind::Host, Better::Lower, 0.10, &a, b);
        assert_eq!(v(&same), Verdict::Same);
        assert_eq!(v(&worse), Verdict::Worse);
        assert_eq!(v(&better), Verdict::Better);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = host(&[100.0, 130.0, 101.0, 140.0]);
        let b = host(&[104.0, 135.0, 99.0, 138.0]);
        assert_eq!(
            verdict(Kind::Host, Better::Lower, 0.10, &a, &b),
            Verdict::Unresolved
        );
        // Wide, but every reading of B beats every reading of A.
        let clear = host(&[50.0, 60.0, 55.0, 52.0]);
        assert_eq!(
            verdict(Kind::Host, Better::Lower, 0.10, &a, &clear),
            Verdict::Better
        );
    }

    #[test]
    fn heap_metrics_use_their_small_bound() {
        let a = Estimate::of(vec![41.5650, 41.5652]);
        let near = Estimate::of(vec![41.5651, 41.5653]);
        let more = Estimate::of(vec![42.1, 42.1]);
        let v = |b| verdict(Kind::NearExact, Better::Lower, 0.01, &a, b);
        assert_eq!(v(&near), Verdict::Same);
        assert_eq!(v(&more), Verdict::Worse);
    }

    fn report(quick: bool, pass_ms: f64) -> Value {
        let metric = Value::obj()
            .with("value", pass_ms)
            .with("unit", "ms")
            .with("q1", pass_ms)
            .with("q3", pass_ms)
            .with("samples", vec![Value::Num(pass_ms)]);
        Value::obj()
            .with("tool", "cor-benchmark")
            .with("quick", quick)
            .with("mode", "interleaved")
            .with("seconds", 10u64)
            .with("rounds", 12u64)
            .with(
                "workloads",
                Value::obj().with(
                    "fleet_storm",
                    Value::obj().with("end_to_end", Value::obj().with("pass_ms", metric)),
                ),
            )
    }

    #[test]
    fn quick_and_full_runs_do_not_mix() {
        assert!(incomparable(&report(true, 1.0), &report(false, 1.0))
            .is_some_and(|why| why.contains("quick")));
        assert!(incomparable(&report(false, 1.0), &report(false, 2.0)).is_none());
        assert!(incomparable(&Value::obj(), &report(false, 1.0)).is_some());
    }

    #[test]
    fn rows_carry_the_verdict_per_workload_and_metric() {
        let rows = rows(&report(false, 100.0), &report(false, 120.0));
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].metric.as_str()),
            ("fleet_storm", "pass_ms")
        );
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].delta - 0.2).abs() < 1e-12);
    }
}
