//! Metric names, quantiles, and the result line.

/// The end-to-end metrics with their units, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("correct_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer timings. Each is reported as its p50 under the bare name,
/// with its p99 under `NAME.p99` and its sample count under `NAME.n`.
pub const LAYER_TIMINGS: [(&str, &str); 16] = [
    ("engine.process_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.emit_us", "us"),
    ("registry.lookup_us", "us"),
    ("admission.admit_us", "us"),
    ("cache.key_us", "us"),
    ("cache.hit_lookup_us", "us"),
    ("cache.miss_lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("backend.arbiter_build_us", "us"),
    ("game.cdcl_compile_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.proof_check_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("reductions.apply_us", "us"),
    ("contract.lint_us", "us"),
];

/// The other per-layer metrics: single values, ratios (each followed by
/// its base), and per-decision counts.
pub const LAYER_VALUES: [(&str, &str); 18] = [
    ("server.transport_ms", "ms"),
    ("runtime.batch_speedup", "ratio"),
    ("runtime.batch_flights", "count"),
    ("admission.shed_ratio", "ratio"),
    ("admission.calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.classes", "count"),
    ("backend.decide_ms_p50", "ms"),
    ("backend.decide_ms_p99", "ms"),
    ("backend.decides", "count"),
    ("game.table_runs_per_decide", "count"),
    ("game.cnf_clauses_per_decide", "count"),
    ("sat.conflicts_per_decide", "count"),
    ("machine.steps_per_decide", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_replay_ms", "ms"),
    ("replay.requests", "count"),
];

/// Every per-layer metric name with its unit, in output order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit) in LAYER_TIMINGS {
        out.push((name.to_owned(), unit));
        out.push((format!("{name}.p99"), unit));
        out.push((format!("{name}.n"), "count"));
    }
    out.extend(
        LAYER_VALUES
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit)),
    );
    out
}

/// `v`, sorted ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of an ascending slice by the nearest-rank rule (0 for
/// an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie above the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// `a / b`, or 0 when there is no base.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One run's result.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Prints every metric on a line of its own, then the result object
    /// as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no spelling for NaN or infinity.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}
