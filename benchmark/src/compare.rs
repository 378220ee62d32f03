//! `compare A.json B.json`: applies the bounds of `BENCHMARK.json` to
//! two result files, one row per (end-to-end metric, workload).

use crate::json::Json;
use crate::spec::{MetricSpec, Spec};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

/// Judges one metric: `base` and `new` are the values of every run.
pub fn judge(metric: &MetricSpec, base: &[f64], new: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (b, n) = (median(base), median(new));
    let worse_by = if metric.lower_is_better {
        (n - b) / b.abs()
    } else {
        (b - n) / b.abs()
    };
    let better = |x: f64, y: f64| {
        if metric.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let wide = [base, new]
        .iter()
        .any(|v| spread(v).is_some_and(|s| s > bound));
    if wide {
        // unless every new run reads better than every base run
        let all_better = new.iter().all(|&x| base.iter().all(|&y| better(x, y)));
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn values_of(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("results")?
        .as_array()?
        .iter()
        .find(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_array()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints the rows; `Ok(true)` when no row regressed.
pub fn compare(spec: &Spec, base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let mut clean = true;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(b), Some(n)) = (
                values_of(&base, workload, &metric.name),
                values_of(&new, workload, &metric.name),
            ) else {
                return Err(format!("{workload}/{}: missing from a file", metric.name));
            };
            let verdict = judge(metric, &b, &n);
            clean &= verdict != Verdict::Regressed;
            let widest = [&b, &n]
                .iter()
                .filter_map(|v| spread(v))
                .fold(0.0, f64::max);
            println!(
                "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.4} {:>6.2}% {:>6.2}%  {}",
                workload,
                metric.name,
                median(&b),
                median(&n),
                median(&n) / median(&b),
                100.0 * widest,
                100.0 * metric.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn a_median_past_the_bound_regresses() {
        let m = metric(true, 0.07);
        assert_eq!(
            judge(&m, &[10.0, 10.1, 9.9], &[10.5, 10.6, 10.4]),
            Verdict::Ok
        );
        assert_eq!(
            judge(&m, &[10.0, 10.1, 9.9], &[11.0, 11.1, 10.9]),
            Verdict::Regressed
        );
        // getting better is never a regression
        assert_eq!(judge(&m, &[10.0, 10.1, 9.9], &[5.0, 5.1, 4.9]), Verdict::Ok);
        let throughput = metric(false, 0.07);
        assert_eq!(
            judge(&throughput, &[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let m = metric(true, 0.05);
        let noisy = [10.0, 12.0, 8.0, 11.0, 9.0];
        assert_eq!(judge(&m, &noisy, &[10.2, 10.1, 10.3]), Verdict::Unresolved);
        assert_eq!(judge(&m, &noisy, &[7.0, 7.5, 7.9]), Verdict::Ok);
    }

    #[test]
    fn a_single_run_has_no_spread_and_is_judged_by_ratio() {
        let m = metric(true, 0.07);
        assert_eq!(judge(&m, &[10.0], &[10.5]), Verdict::Ok);
        assert_eq!(judge(&m, &[10.0], &[11.0]), Verdict::Regressed);
    }
}
