//! The benchmark's definition, `BENCHMARK.json` at the repository root,
//! compiled in. It is the one list of workloads and of every metric's
//! name, unit, direction and bound: a run reports exactly the metrics it
//! lists, and `compare` judges with its bounds.

use serde_json::Value;

use crate::json;

const TEXT: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// How much worse, as a share of the base median, still counts as
    /// unchanged; end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Default `--seconds`.
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// The compiled-in definition.
    pub fn load() -> Spec {
        Spec::parse(TEXT).expect("BENCHMARK.json is a valid benchmark definition")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| doc[key].as_array().ok_or(format!("no {key} list"));
        let text_of = |v: &Value, key: &str| {
            v[key]
                .as_str()
                .map(str::to_string)
                .ok_or(format!("entry without {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m["bound"].as_f64(),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc["run_seconds"].as_u64().ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn the_definition_names_the_workloads_the_code_runs() {
        let spec = Spec::load();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
