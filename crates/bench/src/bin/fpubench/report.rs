//! The result of one run and the three forms it is written in: one
//! `name value unit` line per metric, an optional result document
//! (`--out`), and — always last on stdout — the one-line summary
//! `{"correct", "attempted", "failed", "metrics"}`.

use serde_json::{json, Value};

use crate::spec::MetricDef;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
        }
    }

    /// One metric per definition, in its order, valued from `values` by
    /// name; a definition the run did not measure reads NaN, which makes
    /// the run incorrect.
    pub fn per_def(defs: &[MetricDef], values: &[(String, f64)]) -> Vec<Metric> {
        defs.iter()
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(f64::NAN, |&(_, v)| v);
                Metric::new(d.name.as_str(), v, &d.unit)
            })
            .collect()
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Requests (or batch calls) issued, warm-up passes included.
    pub attempted: u64,
    /// Refused, shed, timed out, failed, lost, or not equal to the oracle.
    pub failed: u64,
    /// The metrics the run is judged on (end-to-end, or per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// Context that is reported but not judged.
    pub diag: Vec<Metric>,
    pub host: Option<Value>,
}

impl Report {
    /// Every output matched its oracle, nothing was refused, and every
    /// metric was measured.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// 0 when correct, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }

    fn metrics_json(metrics: &[Metric]) -> Value {
        Value::Object(
            metrics
                .iter()
                .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
                .collect(),
        )
    }

    /// The one-line summary printed last.
    pub fn summary(&self) -> Value {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Report::metrics_json(&self.metrics),
        })
    }

    /// The full result document `fpubench compare` reads.
    pub fn document(&self) -> Value {
        json!({
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.traced,
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.error_rate(),
            "metrics": Report::metrics_json(&self.metrics),
            "diag": Report::metrics_json(&self.diag),
            "host": self.host.clone().unwrap_or(Value::Null),
        })
    }

    /// Human-readable lines: metrics, then `diag.`-prefixed context.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{} {} {}", m.name, m.value, m.unit))
            .collect();
        out.push(format!(
            "diag.error_rate {} fraction ({} of {} failed)",
            self.error_rate(),
            self.failed,
            self.attempted
        ));
        out.extend(
            self.diag
                .iter()
                .map(|m| format!("diag.{} {} {}", m.name, m.value, m.unit)),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(failed: u64) -> Report {
        Report {
            workload: "serve_light",
            attempted: 10,
            failed,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            ..Report::default()
        }
    }

    #[test]
    fn the_summary_has_exactly_the_four_keys() {
        assert_eq!(
            serde_json::to_string(&report(0).summary()).expect("serializes"),
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }

    #[test]
    fn any_failure_or_unmeasured_metric_makes_the_run_incorrect() {
        assert_eq!(report(0).exit_code(), 0);
        let bad = report(1);
        assert!(!bad.correct());
        assert_eq!(bad.exit_code(), 1);
        assert_eq!(bad.error_rate(), 0.1);
        let def = |name: &str| MetricDef {
            name: name.into(),
            unit: "s".into(),
            higher_is_better: false,
            bound: None,
        };
        let mut unmeasured = report(0);
        unmeasured.metrics = Metric::per_def(
            &[def("setup_s"), def("latency_p50_us")],
            &[("setup_s".into(), 0.25)],
        );
        assert_eq!(unmeasured.metrics[0], Metric::new("setup_s", 0.25, "s"));
        assert!(unmeasured.metrics[1].value.is_nan());
        assert_eq!(unmeasured.exit_code(), 1);
    }
}
