//! What the benchmark reports, read from the two files that define it:
//! `BENCHMARK.json` (the workloads and every metric's name and unit) and
//! `design.json` (each workload's reference rate and what each per-layer
//! metric should move). Both are compiled in, so the binary and the files
//! cannot disagree.

use std::collections::BTreeMap;

use decisive::federation::{json, Value};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const DESIGN: &str = include_str!("../design.json");

/// A metric's name and unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// Where a per-layer metric should show up, from `design.json`.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// The end-to-end metrics it should move.
    pub moves: String,
    /// The workloads it should move them on.
    pub on: String,
    /// The workloads it should stay flat on.
    pub flat_on: String,
}

/// The benchmark's definition.
#[derive(Debug)]
pub struct Spec {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Each workload with the ops per second it completed on a 2-vCPU
    /// machine when the benchmark was introduced.
    pub workloads: Vec<(String, f64)>,
    /// Per-layer metric name to its prediction.
    pub predictions: BTreeMap<String, Prediction>,
}

fn list<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    value.get(key).and_then(Value::as_list).ok_or_else(|| format!("no `{key}` list"))
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    value.get(key).and_then(Value::as_str).map(str::to_owned).ok_or_else(|| format!("no `{key}`"))
}

fn metrics(bench: &Value, key: &str) -> Result<Vec<Metric>, String> {
    list(bench, key)?
        .iter()
        .map(|m| Ok(Metric { name: text(m, "name")?, unit: text(m, "unit")? }))
        .collect()
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let bench = json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let design = json::parse(DESIGN).map_err(|e| format!("design.json: {e}"))?;
        let mut rates = BTreeMap::new();
        for w in list(&design, "workloads")? {
            let rate = w.get("ops_per_s").and_then(Value::as_f64).ok_or("no `ops_per_s`")?;
            rates.insert(text(w, "name")?, rate);
        }
        let workloads = list(&bench, "workloads")?
            .iter()
            .map(|w| {
                let name = text(w, "name")?;
                let rate = *rates.get(&name).ok_or(format!("design.json: no rate for {name}"))?;
                Ok((name, rate))
            })
            .collect::<Result<_, String>>()?;
        let mut predictions = BTreeMap::new();
        for row in list(&design, "predictions")? {
            let prediction = Prediction {
                moves: text(row, "moves")?,
                on: text(row, "on")?,
                flat_on: text(row, "flat_on")?,
            };
            for metric in list(row, "metrics")? {
                let name = metric.as_str().ok_or("a metric name that is not a string")?;
                predictions.insert(name.to_owned(), prediction.clone());
            }
        }
        Ok(Spec {
            end_to_end: metrics(&bench, "end_to_end")?,
            per_layer: metrics(&bench, "per_layer")?,
            workloads,
            predictions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_record_predicts_every_layer_metric() {
        let spec = Spec::load().expect("both files parse");
        assert_eq!(spec.workloads.len(), 3);
        for metric in &spec.per_layer {
            assert!(
                spec.predictions.contains_key(&metric.name),
                "no prediction for {}",
                metric.name
            );
        }
    }
}
