//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("nets_per_s", "nets/s"),
    ("p50_us", "us"),
    ("p90_us", "us"),
    ("eco_edits_per_s", "edits/s"),
    ("hypervolume", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Provenance labels the route-boundary metrics are bucketed by.
pub const ROUTE_LABELS: [&str; 5] = [
    "closed-form",
    "exact-lut",
    "cache-hit",
    "local-search",
    "reused",
];

/// Per-layer metrics, printed by every traced run of every workload (0
/// where the workload does not exercise the layer).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("route.closed-form.share", "ratio"),
    ("route.closed-form.p50_us", "us"),
    ("route.closed-form.p99_us", "us"),
    ("route.exact-lut.share", "ratio"),
    ("route.exact-lut.p50_us", "us"),
    ("route.exact-lut.p99_us", "us"),
    ("route.cache-hit.share", "ratio"),
    ("route.cache-hit.p50_us", "us"),
    ("route.cache-hit.p99_us", "us"),
    ("route.local-search.share", "ratio"),
    ("route.local-search.p50_us", "us"),
    ("route.local-search.p99_us", "us"),
    ("route.reused.share", "ratio"),
    ("route.reused.p50_us", "us"),
    ("route.reused.p99_us", "us"),
    ("lut.classify_ns", "ns"),
    ("lut.lookup_ns", "ns"),
    ("lut.score_ns", "ns"),
    ("lut.materialize_ns", "ns"),
    ("lut.candidates_per_net", "count"),
    ("lut.survivors_per_net", "count"),
    ("lut.survivor_ratio", "ratio"),
    ("cache.hit_share", "ratio"),
    ("ls.seed_us", "us"),
    ("ls.select_us", "us"),
    ("ls.subroute_us", "us"),
    ("ls.splice_us", "us"),
    ("ls.refine_us", "us"),
    ("ls.prune_us", "us"),
    ("ls.rounds_per_net", "count"),
    ("ls.candidates_per_net", "count"),
    ("ls.refine_calls_per_net", "count"),
    ("ls.kept_ratio", "ratio"),
    ("ls.replica_mismatch", "count"),
    ("batch.utilization", "ratio"),
    ("batch.min_worker_utilization", "ratio"),
    ("batch.steals", "count"),
    ("batch.failed_steals", "count"),
    ("eco.replayed_share", "ratio"),
    ("ladder.degraded", "count"),
    ("ladder.attempts_per_net", "count"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.rejected", "count"),
    ("serve.retries", "count"),
    ("serve.gen_lag_p99_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("setup.lut_build_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (workload properties, sample counts) printed
    /// before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts a failed operation or check, with its reason.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        let what = what.into();
        if self.failed <= 20 {
            eprintln!("check failed: {what}");
        }
    }

    /// Prints the notes, every metric of `names` with its unit, and the
    /// result line. Returns whether the run is correct: every operation
    /// and check passed and every metric is a finite number. With
    /// `unmeasured_is_zero` (per-layer metrics), a layer the workload does
    /// not exercise reads 0 instead.
    pub fn print(&self, names: &[(&'static str, &'static str)], unmeasured_is_zero: bool) -> bool {
        for line in &self.notes {
            println!("{line}");
        }
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let fallback = if unmeasured_is_zero { 0.0 } else { f64::NAN };
            let value = self.metrics.get(name).copied().unwrap_or(fallback);
            println!("{name} = {value} {unit}");
            let value = if value.is_finite() {
                value
            } else {
                eprintln!("metric {name} was not measured");
                correct = false;
                0.0
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "failed_frac = {frac} ratio ({} of {})",
            self.failed, self.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (integral values keep a `.0`).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') {
        format!("{v}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> patlabor_serve::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        patlabor_serve::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_and_units(json: &patlabor_serve::Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str())
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let json = manifest();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_and_units(&json, "end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units(&json, "per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.123456789012), "0.123456789012");
        assert_eq!(json_number(1e21), "1000000000000000000000");
    }
}
