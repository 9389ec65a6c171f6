//! Metric names, units, and the result line.
//!
//! The lists here and `BENCHMARK.json` name the same metrics (a test keeps
//! them in step); README.md documents each one.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("ok_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("ok_frac", "frac"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
    ("cpu_us_per_ok", "us"),
];

/// Per-layer metrics (`--trace 1`) that do not depend on the solver list.
const LAYER_FIXED: [(&str, &str); 24] = [
    ("client.encode_request_us", "us"),
    ("client.wait_us", "us"),
    ("client.decode_response_us", "us"),
    ("client.verify_us", "us"),
    ("client.cpu_us_per_req", "us"),
    ("net.frame_us", "us"),
    ("wire.decode_request_us", "us"),
    ("wire.encode_body_us", "us"),
    ("wire.encode_response_us", "us"),
    ("service.telemetry_commit_us", "us"),
    ("service.cache_key_us", "us"),
    ("service.cache_get_us", "us"),
    ("service.cache_insert_us", "us"),
    ("core.canon_decode_us", "us"),
    ("runtime.run_us", "us"),
    ("sim.fanout_efficiency", "ratio"),
    ("sim.bits_per_req", "bits"),
    ("wire.bytes_in_per_req", "bytes"),
    ("wire.bytes_out_per_req", "bytes"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count"),
    ("net.readiness_batch_mean", "count"),
    ("service.ctx_switches_per_req", "count"),
    ("residual_us", "us"),
];

/// Tracing overhead: traced minus untraced end-to-end figures.
const OVERHEAD: [(&str, &str); 2] =
    [("trace.overhead_p50_us", "us"), ("trace.overhead_ok_rps", "1/s")];

/// Per-solver per-layer metric prefixes: `<prefix>.<solver>`.
const PER_SOLVER: [(&str, &str); 3] =
    [("sim.run_us", "us"), ("core.certify_us", "us"), ("sim.rounds", "count")];

/// Every per-layer metric, name and unit, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (prefix, unit) in PER_SOLVER {
        for d in anonet_service::solvers() {
            out.push((format!("{prefix}.{}", d.name), unit));
        }
    }
    out.extend(OVERHEAD.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One run's result.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed and the run was valid.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that were not solved.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Human-readable `name value unit` lines for the given metric list,
    /// then the machine-readable JSON object (the last line).
    pub fn render(&self, metrics: &[(String, &str)]) -> String {
        let mut text = String::new();
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let v = self.values.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            let _ = writeln!(text, "{name} {v} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        text + &json
    }
}
