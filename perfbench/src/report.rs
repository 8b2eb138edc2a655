//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`per_layer`] mirror `BENCHMARK.json` (a test
//! keeps them equal). Every run prints a human-readable table, then, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: every end-to-end metric in an untraced run, every
//! per-layer metric in a traced one. A layer a workload does not use
//! reports 0 there (no calls, no work).

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("sustained_rps", "1/s"),
    ("server_cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
    ("pipeline_s", "s"),
];

/// Methods served by some workload, for the per-method layer metrics.
pub const SERVED_METHODS: &[&str] =
    &["EWMA", "CUSUM", "Histogram", "kNN", "LOF", "AE", "SpectralResidual"];
/// Batch AD methods of `pipeline-batch`.
pub const BATCH_METHODS: &[&str] = &["AE", "LSTM", "kNN"];
/// ED methods of `pipeline-batch`.
pub const ED_METHODS: &[&str] = &["MacroBase", "EXstream", "LIME"];

/// Layer timings reported as p50, p99 and call count of self time.
pub const TIMED_LAYERS: &[(&str, &str)] = &[
    ("wire.parse_ns", "ns"),
    ("wire.format_ns", "ns"),
    ("registry.lookup_ns", "ns"),
    ("spill.restore_ns", "ns"),
    ("spill.spill_ns", "ns"),
    ("checkpoint.encode_ns", "ns"),
    ("checkpoint.decode_ns", "ns"),
    ("pca.transform_ns", "ns"),
    ("scale.update_ns", "ns"),
    ("route.ring_ns", "ns"),
];

/// Single-valued layer metrics: `(name, unit, better)`.
pub const SCALAR_LAYERS: &[(&str, &str, &str)] = &[
    ("serve.residual_us", "us", "lower"),
    ("serve.reject_share", "share", "lower"),
    ("serve.allocs_per_req", "count", "lower"),
    ("registry.hit_ratio", "share", "higher"),
    ("registry.evictions_per_kreq", "count", "lower"),
    ("spill.restores_per_kreq", "count", "lower"),
    ("spill.spills_per_kreq", "count", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("pca.allocs", "count", "lower"),
    ("scale.allocs", "count", "lower"),
    ("route.hop_us", "us", "lower"),
    ("route.shed_share", "share", "lower"),
    ("route.retry_share", "share", "lower"),
    ("route.upstream_error_share", "share", "lower"),
    ("route.proxy_allocs_per_req", "count", "lower"),
    ("client.lag_p99_us", "us", "lower"),
    ("client.backlog_max", "count", "lower"),
    ("client.samples", "count", "higher"),
    ("sparksim.build_s", "s", "lower"),
    ("partition.s", "s", "lower"),
    ("transform.fit_s", "s", "lower"),
    ("transform.apply_s", "s", "lower"),
    ("evaluate.threshold_s", "s", "lower"),
    ("par.overlap", "ratio", "higher"),
    ("trace.overhead_latency_p50_us", "us", "lower"),
    ("trace.overhead_cpu_us_per_req", "us", "lower"),
    ("trace.overhead_pipeline_s", "s", "lower"),
];

/// Every per-layer metric: `(name, unit, better)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    let timed = |out: &mut Vec<_>, name: String, unit: &'static str| {
        out.push((format!("{name}.p50"), unit, "lower"));
        out.push((format!("{name}.p99"), unit, "lower"));
        out.push((format!("{name}.calls"), "count", "lower"));
    };
    for &(name, unit) in TIMED_LAYERS {
        timed(&mut out, name.to_string(), unit);
    }
    for m in SERVED_METHODS {
        timed(&mut out, format!("stream.update_ns.{m}"), "ns");
        out.push((format!("stream.allocs.{m}"), "count", "lower"));
    }
    for &(name, unit, better) in SCALAR_LAYERS {
        out.push((name.to_string(), unit, better));
    }
    for m in BATCH_METHODS {
        out.push((format!("model.train_s.{m}"), "s", "lower"));
        out.push((format!("evaluate.score_s.{m}"), "s", "lower"));
    }
    for m in ED_METHODS {
        out.push((format!("edrun.explain_s.{m}"), "s", "lower"));
    }
    out
}

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)`; units come from the tables above.
    pub values: Vec<(String, f64)>,
    /// Extra human-readable lines (not part of the JSON).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Print the table, then the JSON result line.
    pub fn print(&self, traced: bool) {
        let wanted: Vec<(String, &str)> = if traced {
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        for note in &self.notes {
            println!("{note}");
        }
        for (name, unit) in &wanted {
            if let Some(v) = self.get(name) {
                println!("  {name:<36} {v:>16.6} {unit}");
            }
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..at + entry[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u, _)| (n, u.to_string())).collect();
        assert_eq!(section("per_layer"), layers);
        assert!(layers.len() <= 128);
    }
}
