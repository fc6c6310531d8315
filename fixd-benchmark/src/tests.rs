//! Smoke tests: every workload at `--scale smoke`, and the metric
//! tables against `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::harness::Args;
use crate::json::{self, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::{run_workload, WORKLOADS};

fn smoke(trace: bool) -> Args {
    Args {
        seed: 5,
        seconds: 0.0,
        trace,
        smoke: true,
    }
}

fn benchmark_json() -> Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// name → (unit, better, bound) of one section of `BENCHMARK.json`.
fn section(doc: &Value, key: &str) -> BTreeMap<String, (String, String, f64)> {
    doc.get(key)
        .expect("section present")
        .as_arr()
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            (s("name"), (s("unit"), s("better"), bound))
        })
        .collect()
}

fn table(defs: &[MetricDef]) -> BTreeMap<String, (String, String, f64)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                (d.unit.to_string(), d.better.to_string(), d.bound),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_and_the_tables_cannot_drift() {
    let doc = benchmark_json();
    assert_eq!(section(&doc, "end_to_end"), table(END_TO_END));
    assert_eq!(section(&doc, "per_layer"), table(PER_LAYER));
    assert_eq!(table(END_TO_END).len(), END_TO_END.len(), "duplicate name");
    assert_eq!(table(PER_LAYER).len(), PER_LAYER.len(), "duplicate name");
    let named: Vec<&str> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(named, WORKLOADS);
}

/// Every metric named in `BENCHMARK.json` is emitted exactly once, with
/// its unit and a finite value; none is emitted that is not named.
#[test]
fn every_workload_emits_exactly_the_named_metrics() {
    for workload in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let out = run_workload(workload, &smoke(trace)).unwrap();
            assert_eq!(out.ledger.failed, 0, "{workload}: {:?}", out.ledger.reasons);
            assert!(out.ledger.attempted > 0);
            let emitted = json::parse(&out.metrics.to_json(defs, !trace)).unwrap();
            let emitted = emitted.as_obj().unwrap();
            assert_eq!(
                emitted.keys().map(String::as_str).collect::<Vec<_>>(),
                table(defs).keys().map(String::as_str).collect::<Vec<_>>(),
                "{workload} trace {trace}"
            );
            for d in defs {
                let m = &emitted[d.name];
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite() && (trace || v > 0.0), "{workload}.{}", d.name);
            }
            // Nothing measured outside the emitted table (`Metrics::set`
            // rejects unknown names; this rejects the other table's).
            for d in if trace { END_TO_END } else { PER_LAYER } {
                assert!(out.metrics.get(d.name).is_none(), "{workload}.{}", d.name);
            }
            if trace {
                let coverage = out.metrics.get("trace.coverage_frac").unwrap();
                assert!(coverage > 0.0 && coverage <= 1.0, "{workload}: {coverage}");
            }
        }
    }
}

#[test]
fn two_smoke_runs_give_identical_counts() {
    for workload in WORKLOADS {
        let a = run_workload(workload, &smoke(false)).unwrap();
        let b = run_workload(workload, &smoke(false)).unwrap();
        assert!(!a.counts.is_empty(), "{workload}");
        assert_eq!(a.counts, b.counts, "{workload}");
        assert_eq!(a.ledger.attempted, b.ledger.attempted, "{workload}");
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run_workload("steady", &smoke(false)).is_none());
}
