//! The run's output: one `name value unit (n=…)` line per metric, any
//! notes, and — always last — the one-line JSON result.

use telemetry::json::Json;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured (never rounded).
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests started in the measured part of the run.
    pub attempted: usize,
    /// Of those, requests that failed (never wrong: a wrong answer aborts).
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The JSON result line.
    pub fn json_line(&self) -> String {
        let mut metrics = Json::object();
        for m in &self.metrics {
            metrics.set(
                m.name,
                Json::object()
                    .with("value", Json::F64(m.value))
                    .with("unit", Json::from(m.unit)),
            );
        }
        Json::object()
            .with("correct", Json::Bool(true))
            .with("attempted", Json::from(self.attempted as u64))
            .with("failed", Json::from(self.failed as u64))
            .with("metrics", metrics)
            .to_string()
    }

    /// Prints the notes, the metric lines, and the JSON line last.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!("{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
        }
        println!("{}", self.json_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric {
                name: "latency_p50_ms",
                value: 0.012_345_678_9,
                unit: "ms",
                samples: 2,
            }],
            notes: Vec::new(),
        };
        let json = Json::parse(&report.json_line()).unwrap();
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.012_345_678_9));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
