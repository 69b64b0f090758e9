//! The metric catalogue and the result a run prints.
//!
//! The tables here and `BENCHMARK.json` describe the same metrics; a unit
//! test keeps them in agreement.

use crate::stats::Better;
use std::fmt::Write as _;

/// One metric's name, unit, direction and (end-to-end only) bound.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("reads_per_s", "1/s", Higher, 0.2),
    e2e("batch_p50_ms", "ms", Lower, 0.2),
    e2e("batch_p90_ms", "ms", Lower, 0.24),
    e2e("rtt_p50_ms", "ms", Lower, 0.2),
    e2e("rtt_p99_ms", "ms", Lower, 0.24),
    e2e("recall", "share", Higher, 0.01),
    e2e("precision", "share", Higher, 0.01),
    e2e("ok_share", "share", Higher, 0.01),
    e2e("sim_cycles_per_read", "cycles/read", Lower, 0.01),
    e2e("sim_energy_nj_per_read", "nJ/read", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 32] = [
    layer("prefilter.us_per_read", "us", Lower),
    layer("prefilter.us_per_read_w1", "us", Lower),
    layer("prefilter.contention_x", "x", Lower),
    layer("prefilter.build_s", "s", Lower),
    layer("prefilter.shortlist_len_mean", "rows", Lower),
    layer("prefilter.fallback_share", "share", Lower),
    layer("prefilter.hit_share", "share", Higher),
    layer("prefilter.self_share", "share", Lower),
    layer("backend.us_per_read", "us", Lower),
    layer("backend.ns_per_row_sensed", "ns", Lower),
    layer("backend.rows_sensed_per_read", "rows/read", Lower),
    layer("backend.searches_per_read", "searches/read", Lower),
    layer("backend.self_share", "share", Lower),
    layer("device.store_s", "s", Lower),
    layer("extension.us_per_read", "us", Lower),
    layer("extension.us_per_call", "us", Lower),
    layer("extension.calls_per_read", "calls/read", Lower),
    layer("extension.aligned_share", "share", Higher),
    layer("extension.self_share", "share", Lower),
    layer("kernels.ed_star_ns", "ns", Lower),
    layer("executor.worker_scaling", "x", Higher),
    layer("executor.overhead_share", "share", Lower),
    layer("executor.self_us_per_batch", "us", Lower),
    layer("pipeline.glue_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("coalescer.queue_us_p50", "us", Lower),
    layer("coalescer.queue_us_p99", "us", Lower),
    layer("coalescer.batch_reads_mean", "reads", Higher),
    layer("coalescer.overload_share", "share", Lower),
    layer("server.pipeline_busy_share", "share", Lower),
    layer("server.service_us_p50", "us", Lower),
    layer("socket.overhead_us_p50", "us", Lower),
];

/// Looks a metric up in either table.
#[must_use]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests or reads attempted.
    pub attempted: u64,
    /// Of those, failed (refused, lost, or rejected).
    pub failed: u64,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable findings printed above the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric; the name must be in the catalogue.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name (a benchmark bug).
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the catalogue");
        self.metrics.push((name, value));
    }

    /// Records a finding.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Checks that exactly the metrics of `table` were recorded, all
    /// finite.
    ///
    /// # Errors
    ///
    /// Names the first missing, extra or non-finite metric.
    pub fn check_complete(&self, table: &[MetricDef]) -> Result<(), String> {
        for d in table {
            match self.metrics.iter().find(|(n, _)| *n == d.name) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some((_, v)) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite: {v}", d.name))
                }
                Some(_) => {}
            }
        }
        if self.metrics.len() != table.len() {
            return Err("a metric was recorded twice or from the wrong table".to_string());
        }
        Ok(())
    }

    /// The human-readable table: name, value, unit, direction.
    #[must_use]
    pub fn table(&self, prefix: &str) -> String {
        let mut out = String::new();
        for &(name, value) in &self.metrics {
            let d = def(name).expect("catalogued");
            let _ = writeln!(
                out,
                "  {:<36} {:>16} {:<14} {} is better",
                format!("{prefix}{name}"),
                format_value(value),
                d.unit,
                d.better.word()
            );
        }
        out
    }
}

/// A value with all its digits (Rust's shortest round-trip form).
#[must_use]
pub fn format_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value:.1}")
    } else {
        format!("{value}")
    }
}

/// JSON string literal.
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed`, and each metric's
/// value and unit, optionally prefixed (`all` runs prefix the workload).
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &'static str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                format_value(*value),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, d) in all.iter().enumerate() {
            assert!(d.name.len() <= 64 && d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(all[i + 1..].iter().all(|o| o.name != d.name), "{}", d.name);
        }
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
        let setup = def("setup_s").unwrap();
        let largest = END_TO_END
            .iter()
            .filter_map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid JSON");
        let check = |key: &str, table: &[MetricDef]| {
            let list = doc.get(key).and_then(Value::as_array).expect(key);
            assert_eq!(list.len(), table.len(), "{key}");
            for (entry, d) in list.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(d.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(d.better.word()),
                    "{}",
                    d.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    d.bound,
                    "{}",
                    d.name
                );
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, ["map-aligned", "map-contaminated", "serve-loopback"]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            1000,
            2,
            &[
                ("reads_per_s".to_string(), 61234.5625, "1/s"),
                ("setup_s".to_string(), 2.0, "s"),
            ],
        );
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(1000.0));
        let metrics = doc.get("metrics").unwrap();
        let rate = metrics.get("reads_per_s").unwrap();
        assert_eq!(rate.get("value").and_then(Value::as_f64), Some(61234.5625));
        assert_eq!(rate.get("unit").and_then(Value::as_str), Some("1/s"));
    }

    #[test]
    fn incomplete_outcomes_are_refused() {
        let mut outcome = Outcome::default();
        for d in &END_TO_END[..11] {
            outcome.put(d.name, 1.0);
        }
        assert!(outcome.check_complete(&END_TO_END).is_err());
        outcome.put("peak_rss_mb", f64::NAN);
        assert!(outcome.check_complete(&END_TO_END).is_err());
    }
}
