//! `--compare a.json b.json`: one row per (metric, workload) with both
//! medians and quartiles, the relative change and the bound. A pair
//! whose run-to-run spread exceeds its bound is `unresolved`, never
//! `unchanged`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::def;
use crate::stats::{median, quartiles, spread};

/// (workload, metric) → values, one per run, in file order.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc
        .get("runs")
        .map(Value::as_arr)
        .filter(|r| !r.is_empty())
        .ok_or_else(|| format!("{path}: no \"runs\""))?;
    let mut table = Table::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run without a workload"))?;
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{path}: {workload}: a run without metrics"))?;
        for (name, m) in metrics {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{path}: {workload}.{name}: no value"))?;
            table
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(table)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    /// A per-layer metric: no bound to judge by.
    Informational,
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

/// Judge `b` against `a`. `worse` is the relative change in the
/// direction that is worse for this metric.
pub fn judge(a: &[f64], b: &[f64], better: &str, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if better == "higher" { -change } else { change };
    let verdict = if bound == 0.0 {
        Verdict::Informational
    } else if a.len().min(b.len()) < 4 || spread(a).max(spread(b)) > bound {
        // Fewer than four runs a side give no quartiles to speak of.
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<22} {:<38} {:>13} {:>27} {:>13} {:>27} {:>8} {:>6}  verdict",
        "workload", "metric", "median a", "[q1, q3] a", "median b", "[q1, q3] b", "worse", "bound"
    );
    let mut regressed = 0;
    for ((workload, metric), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            println!("{workload:<22} {metric:<38} only in {path_a}");
            continue;
        };
        let (better, bound) = def(metric).map_or(("lower", 0.0), |d| (d.better, d.bound));
        let (worse, verdict) = judge(va, vb, better, bound);
        regressed += usize::from(verdict == Verdict::Regressed);
        let ((a1, a3), (b1, b3)) = (quartiles(va), quartiles(vb));
        println!(
            "{workload:<22} {metric:<38} {:>13.4} [{a1:>12.4}, {a3:>12.4}] {:>13.4} [{b1:>12.4}, {b3:>12.4}] {:>+7.2}% {:>6}  {}",
            median(va),
            median(vb),
            worse * 100.0,
            if bound == 0.0 { "-".to_string() } else { format!("{:.0}%", bound * 100.0) },
            format!("{verdict:?}").to_lowercase()
        );
    }
    for key in b.keys().filter(|k| !a.contains_key(*k)) {
        println!("{:<22} {:<38} only in {path_b}", key.0, key.1);
    }
    if regressed > 0 {
        eprintln!("{regressed} (metric, workload) pairs regressed beyond their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let scaled = |k: f64| steady.map(|v| v * k);
        let v = |b: &[f64], better, bound| judge(&steady, b, better, bound).1;
        assert_eq!(v(&scaled(1.02), "lower", 0.10), Verdict::Unchanged);
        assert_eq!(v(&scaled(1.2), "lower", 0.10), Verdict::Regressed);
        assert_eq!(v(&scaled(1.2), "higher", 0.10), Verdict::Improved);
        assert_eq!(v(&scaled(0.8), "higher", 0.10), Verdict::Regressed);
        assert_eq!(v(&scaled(1.2), "lower", 0.0), Verdict::Informational);
        // A spread beyond the bound is unresolved even when the medians agree.
        let noisy = [100.0, 130.0, 70.0, 100.0, 100.0, 135.0, 65.0];
        assert_eq!(v(&noisy, "lower", 0.10), Verdict::Unresolved);
        assert_eq!(v(&steady[..3], "lower", 0.10), Verdict::Unresolved);
    }
}
