//! Turning measurements into the report: the JSON document `compare`
//! reads, the lines a person reads, and the one-line result the external
//! driver reads.

use crate::harness::{Config, Measurement, Metric, Traced};
use crate::json::Value;
use crate::ladder::{self, Rung};
use crate::metrics;
use crate::redrive::PHASES;
use crate::workloads::SPECS;

/// Phase shares predicted in the issue before anything was measured, as
/// (workload, phase, share of the pass).
pub const PREDICTED_SHARES: [(&str, &str, f64); 4] = [
    ("paper_matrix", "cor-workloads.build", 0.38),
    ("paper_matrix", "cor-migrate.migrate", 0.22),
    ("paper_matrix", "cor-kernel.run", 0.36),
    ("fleet_storm", "cor-kernel.run", 0.70),
];

/// Everything measured about one workload in one invocation.
pub struct WorkloadReport {
    pub name: &'static str,
    /// The untraced measurement (absent in a `--trace 1` driver run).
    pub measured: Option<Measurement>,
    /// The traced run (absent in a `--trace 0` driver run).
    pub traced: Option<Traced>,
}

fn metric_json(m: &Metric) -> Value {
    let mut v = Value::obj().with("value", m.est.value).with("unit", m.unit);
    if m.est.samples.len() > 1 {
        v = v.with("q1", m.est.q1).with("q3", m.est.q3).with(
            "samples",
            m.est
                .samples
                .iter()
                .map(|&s| Value::Num(s))
                .collect::<Vec<_>>(),
        );
    }
    v = v.with("n", m.est.samples.len() as u64);
    if !m.flags.is_empty() {
        v = v.with(
            "flags",
            m.flags.iter().map(|&f| Value::from(f)).collect::<Vec<_>>(),
        );
    }
    v
}

fn metrics_json(ms: &[Metric]) -> Value {
    ms.iter()
        .fold(Value::obj(), |obj, m| obj.with(&m.name, metric_json(m)))
}

fn host_json() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Value::obj()
        .with("nproc", ladder::nproc() as u64)
        .with("cpu", cpu)
}

impl WorkloadReport {
    fn json(&self) -> Value {
        let mut v = Value::obj();
        if let Some(m) = &self.measured {
            v = v
                .with("passes_per_round", m.passes_per_round())
                .with("attempted", m.attempted)
                .with("failed", m.failed)
                .with(
                    "checks",
                    m.ready
                        .notes
                        .iter()
                        .map(|n| Value::from(n.as_str()))
                        .collect::<Vec<_>>(),
                )
                .with("end_to_end", metrics_json(&m.metrics()));
        }
        if let Some(t) = &self.traced {
            let shares = PHASES
                .iter()
                .filter(|p| t.phase_ms(p) > 0.0)
                .fold(Value::obj(), |obj, p| {
                    obj.with(p, t.phase_ms(p) / t.layers_ms())
                });
            v = v
                .with(
                    "traced",
                    Value::obj()
                        .with("pairs", t.pairs as u64)
                        .with("untraced_ms", t.untraced_ms)
                        .with("traced_ms", t.traced_ms())
                        .with("layers_ms", t.layers_ms())
                        .with("image_checks", t.extras.image_checks)
                        .with("image_mismatches", t.extras.image_mismatches)
                        .with("attempted", t.attempted)
                        .with("failed", t.failed),
                )
                .with("phase_shares", shares)
                .with("per_layer", metrics_json(&t.metrics()));
        }
        v
    }
}

/// The full report document.
pub fn document(
    cfg: &Config,
    mode: &str,
    workloads: &[WorkloadReport],
    ladder: Option<&[Rung]>,
) -> Value {
    let mut doc = Value::obj()
        .with("tool", "cor-benchmark")
        .with("schema", 1u64)
        .with("mode", mode)
        .with("quick", cfg.quick)
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("rounds", cfg.rounds() as u64)
        .with("host", host_json())
        .with(
            "workloads",
            workloads
                .iter()
                .fold(Value::obj(), |obj, w| obj.with(w.name, w.json())),
        );
    if let Some(rungs) = ladder {
        doc = doc.with(
            "ladder",
            rungs.iter().fold(Value::obj(), |obj, r| {
                obj.with(
                    r.name,
                    Value::obj()
                        .with("value", r.value)
                        .with("unit", r.unit)
                        .with("n", r.rounds as u64),
                )
            }),
        );
    }
    doc
}

fn metric_line(scope: &str, m: &Metric) -> String {
    let mut line = format!(
        "{scope:<18} {:<38} {:>16.6} {:<14}",
        m.name, m.est.value, m.unit
    );
    if m.est.samples.len() > 1 {
        line.push_str(&format!(
            " q1 {:.6} q3 {:.6} spread {:.2}%",
            m.est.q1,
            m.est.q3,
            100.0 * m.est.spread()
        ));
    }
    line.push_str(&format!(" n={}", m.est.samples.len()));
    for flag in &m.flags {
        line.push_str(&format!(" [{flag}]"));
    }
    line
}

/// Every metric by name with its unit and sample count, for a person.
pub fn human(workloads: &[WorkloadReport], ladder: Option<&[Rung]>) -> String {
    let mut out = String::new();
    for w in workloads {
        if let Some(m) = &w.measured {
            out.push_str(&format!(
                "== {} — {} passes/round, {} ({} attempted, {} failed)\n",
                w.name,
                m.passes_per_round(),
                m.ready.notes.join(", "),
                m.attempted,
                m.failed
            ));
            for metric in m.metrics() {
                out.push_str(&metric_line(w.name, &metric));
                out.push('\n');
            }
        }
        if let Some(t) = &w.traced {
            out.push_str(&format!(
                "-- {} traced: best of {} pairs; untraced {:.3} ms, layer phases {:.3} ms ({:+.1}% of the pass), \
                 {} memory images vs pure-copy twins, {} mismatches\n",
                w.name,
                t.pairs,
                t.untraced_ms,
                t.layers_ms(),
                100.0 * (t.layers_ms() - t.untraced_ms) / t.untraced_ms,
                t.extras.image_checks,
                t.extras.image_mismatches
            ));
            for metric in t.metrics() {
                out.push_str(&metric_line(w.name, &metric));
                out.push('\n');
            }
            for phase in PHASES.iter().filter(|p| t.phase_ms(p) > 0.0) {
                let predicted = PREDICTED_SHARES
                    .iter()
                    .find(|(wl, p, _)| *wl == w.name && p == phase)
                    .map_or(String::new(), |(_, _, s)| {
                        format!(" (predicted {:.0}%)", 100.0 * s)
                    });
                out.push_str(&format!(
                    "{:<18} share {:<32} {:>5.1}%{predicted}\n",
                    w.name,
                    phase,
                    100.0 * t.phase_ms(phase) / t.layers_ms()
                ));
            }
        }
    }
    if let Some(rungs) = ladder {
        out.push_str("== ladder — fastest round per rung\n");
        for r in rungs {
            out.push_str(&format!(
                "{:<18} {:<38} {:>16.6} {:<14} n={}\n",
                "ladder", r.name, r.value, r.unit, r.rounds
            ));
        }
    }
    out
}

/// The one-line result the external driver reads: `--trace 0` carries the
/// end-to-end metrics defined on every workload, `--trace 1` every
/// per-layer metric (0 where this workload bypasses the layer) and the
/// modelled metrics defined on some workloads only.
pub fn driver_line(w: &WorkloadReport, ladder: Option<&[Rung]>) -> Value {
    let (attempted, failed, measured, declared): (u64, u64, Vec<Metric>, Vec<String>);
    if let Some(t) = &w.traced {
        (attempted, failed) = (t.attempted, t.failed);
        let mut ms = t.metrics();
        ms.extend(
            ladder
                .into_iter()
                .flatten()
                .map(|r| Metric::exact(r.name, r.unit, r.value)),
        );
        ms.extend(metrics::contract_partial_model().map(|def| {
            let value = t.reference.model.iter().find(|(n, _)| *n == def.name);
            Metric::exact(def.name, def.unit, value.map_or(0.0, |&(_, v)| v))
        }));
        measured = ms;
        declared = metrics::contract_per_layer()
            .into_iter()
            .map(|l| l.name)
            .collect();
    } else {
        let m = w
            .measured
            .as_ref()
            .expect("an untraced run measured the workload");
        (attempted, failed) = (m.attempted, m.failed);
        measured = m.metrics();
        declared = metrics::contract_end_to_end()
            .map(|d| d.name.to_string())
            .collect();
    }
    // Exactly the declared names, in declared order.
    let out = declared.iter().fold(Value::obj(), |obj, name| {
        let m = measured
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("{name} is declared but was not measured"));
        obj.with(
            name,
            Value::obj().with("value", m.est.value).with("unit", m.unit),
        )
    });
    Value::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", out)
}

/// `BENCHMARK.json`, generated from the catalogue so the declared names
/// cannot drift from the printed ones.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = SPECS
        .iter()
        .map(|s| Value::obj().with("name", s.name).with("why", s.why))
        .collect();
    let end_to_end: Vec<Value> = metrics::contract_end_to_end()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", m.driver_bound.expect("gated by the driver"))
        })
        .collect();
    let per_layer: Vec<Value> = metrics::contract_per_layer()
        .into_iter()
        .map(|l| {
            Value::obj()
                .with("name", l.name)
                .with("unit", l.unit)
                .with("better", l.better.as_str())
        })
        .collect();
    Value::obj()
        .with(
            "command",
            [
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]
            .map(Value::from)
            .to_vec(),
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", crate::harness::REFERENCE_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use crate::json;

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(
            json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_stays_inside_the_drivers_limits() {
        let doc = manifest();
        let len = |key: &str| {
            doc.get(key)
                .and_then(Value::as_arr)
                .map_or(0, <[Value]>::len)
        };
        assert!((2..=8).contains(&len("workloads")));
        assert!((1..=16).contains(&len("end_to_end")));
        assert!((1..=128).contains(&len("per_layer")));
        assert!(len("command") <= 32);
        let e2e = doc.get("end_to_end").and_then(Value::as_arr).expect("list");
        assert!(e2e
            .iter()
            .any(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")));
        for m in e2e {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!((0.0..=0.25).contains(&bound));
        }
        for w in doc.get("workloads").and_then(Value::as_arr).expect("list") {
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
    }

    /// The result line carries exactly the declared names, each with a unit:
    /// the 7 everywhere-defined end-to-end metrics untraced, the 74
    /// per-layer names traced.
    #[test]
    fn driver_line_carries_exactly_the_declared_names() {
        let _arming = crate::alloc::ARMING_TESTS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let cfg = harness::Config {
            seed: 1,
            seconds: 10,
            quick: true,
        };
        let name = "fault_service";
        let spec = crate::workloads::spec(name).expect("declared");
        let mut m = harness::Measurement::prepare(spec, &cfg);
        m.round();
        m.round();
        let traced = harness::traced_run(&m.ready, &cfg);
        let names = |line: &Value| -> Vec<String> {
            let Some(Value::Obj(fields)) = line.get("metrics") else {
                panic!("no metrics object");
            };
            for (k, v) in fields {
                assert!(v.get("value").and_then(Value::as_f64).is_some(), "{k}");
                assert!(v.get("unit").and_then(Value::as_str).is_some(), "{k}");
            }
            fields.iter().map(|(k, _)| k.clone()).collect()
        };

        let untraced = WorkloadReport {
            name,
            measured: Some(m),
            traced: None,
        };
        let line = driver_line(&untraced, None);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(line
            .get("attempted")
            .and_then(Value::as_f64)
            .is_some_and(|a| a >= 1.0));
        let declared: Vec<String> = metrics::contract_end_to_end()
            .map(|d| d.name.to_string())
            .collect();
        assert_eq!(names(&line), declared);

        let rungs: Vec<Rung> = metrics::LADDER
            .iter()
            .map(|&(name, unit)| Rung {
                name,
                unit,
                value: 1.0,
                rounds: 12,
            })
            .collect();
        let traced = WorkloadReport {
            name,
            measured: None,
            traced: Some(traced),
        };
        let line = driver_line(&traced, Some(&rungs));
        let declared: Vec<String> = metrics::contract_per_layer()
            .into_iter()
            .map(|l| l.name)
            .collect();
        assert_eq!(names(&line), declared);

        // The full document of the same run parses back and keeps its mode.
        let doc = document(&cfg, "single", &[untraced, traced], Some(&rungs));
        let back = json::parse(&doc.pretty()).expect("round trip");
        assert_eq!(back.get("quick"), Some(&Value::Bool(true)));
        assert_eq!(back.get("mode").and_then(Value::as_str), Some("single"));
    }
}
