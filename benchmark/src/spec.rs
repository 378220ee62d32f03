//! `BENCHMARK.json` is the one list of workloads, metric names, units,
//! directions and bounds. The harness reads it at run time, so a
//! metric the code emits but the file does not name (or the reverse,
//! for an end-to-end metric) is an error in every run, not only in a
//! check script.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The repo root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits one level below the repo root")
        .to_path_buf()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let path = repo_root().join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::from_json(&Json::parse(&text)?)
    }

    pub fn from_json(root: &Json) -> Result<Spec, String> {
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json: `{key}` is not a list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let text = |field: &str| {
                        m.get(field)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
                    };
                    Ok(MetricSpec {
                        name: text("name")?,
                        unit: text("unit")?,
                        lower_is_better: text("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Turns measured values into the `metrics` object of a result
    /// line. Every end-to-end metric must have been measured. A
    /// per-layer metric nobody set reads 0: that layer is not on this
    /// workload's path. A measured name the file does not list is an
    /// error either way.
    pub fn render(&self, values: &Metrics, trace: bool) -> Result<Json, String> {
        let section = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        if let Some(unknown) = values
            .0
            .keys()
            .find(|k| !section.iter().any(|m| &m.name == *k))
        {
            return Err(format!(
                "metric `{unknown}` is not listed in BENCHMARK.json"
            ));
        }
        let mut fields = Vec::with_capacity(section.len());
        for m in section {
            let value = match values.0.get(&m.name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric `{}` was not measured", m.name)),
            };
            fields.push((
                m.name.clone(),
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            ));
        }
        Ok(Json::Obj(fields))
    }
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::from_json(
            &Json::parse(
                r#"{"run_seconds": 3, "workloads": [{"name": "w", "why": "x"}],
                    "end_to_end": [{"name": "a_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                    "per_layer": [{"name": "l.x", "unit": "count", "better": "higher"}]}"#,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn render_demands_every_end_to_end_metric_and_no_stranger() {
        let spec = spec();
        let mut m = Metrics::default();
        assert!(spec.render(&m, false).is_err());
        m.set("a_ms", 1.5);
        let line = spec.render(&m, false).unwrap().to_line();
        assert_eq!(line, r#"{"a_ms":{"value":1.5,"unit":"ms"}}"#);
        m.set("typo", 1.0);
        assert!(spec.render(&m, false).is_err());
    }

    #[test]
    fn unset_layer_metrics_read_zero() {
        let line = spec().render(&Metrics::default(), true).unwrap().to_line();
        assert_eq!(line, r#"{"l.x":{"value":0,"unit":"count"}}"#);
    }

    #[test]
    fn the_committed_file_parses_and_meets_the_contract_limits() {
        let spec = Spec::load().unwrap();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.lower_is_better));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
