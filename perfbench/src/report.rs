//! The metric catalog and the result line.
//!
//! Every workload prints every metric: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. A per-layer metric
//! a workload never touches reads 0, which is itself the prediction that
//! the workload does not exercise that layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_geomean_ms", "ms"),
    ("success_rate", "ratio"),
    ("wan_bytes_per_query", "bytes"),
    ("sim_wan_ms_per_query", "sim_ms"),
    ("plan_cost_ms", "sim_ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced pass: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_ms", "ms"),
    ("parser.lower_ms", "ms"),
    ("core.normalize_ms", "ms"),
    ("core.explore_ms", "ms"),
    ("core.annotate_ms", "ms"),
    ("core.site_select_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.phase_sum_ratio", "ratio"),
    ("core.audit_ms", "ms"),
    ("core.memo_exprs", "count"),
    ("core.candidates", "count"),
    ("core.dp_states", "count"),
    ("policy.invocations", "count"),
    ("policy.eta", "count"),
    ("policy.memo_hit_rate", "ratio"),
    ("server.derived_queue_wait_p50_ms", "ms"),
    ("server.derived_queue_wait_p99_ms", "ms"),
    ("server.cache_ms", "ms"),
    ("server.cache_hit_rate", "ratio"),
    ("server.cache_evictions", "count"),
    ("server.churn_reruns", "count"),
    ("server.rerun_ratio", "ratio"),
    ("server.update_ms", "ms"),
    ("server.admission_rejects", "count"),
    ("exec.columnar_ms", "ms"),
    ("runtime.checkpoint_ms", "ms"),
    ("runtime.checkpoint_bytes", "bytes"),
    ("net.transfers", "count"),
    ("net.bytes", "bytes"),
    ("net.sim_cost_ms", "sim_ms"),
    ("net.faults", "count"),
    ("tpch.populate_s", "s"),
    ("tpch.policy_gen_ms", "ms"),
    ("tpch.adhoc_gen_ms", "ms"),
    ("bench.gen_lag_p99_ms", "ms"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.backlog_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_coverage", "ratio"),
    ("bench.traced_ops", "count"),
];

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (queries and policy writes).
    pub attempted: u64,
    /// Operations that failed, were refused, returned a wrong answer or
    /// failed audit.
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Hash of the run's exact counters.
    pub counters: Option<u64>,
}

impl Report {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record a correctness problem.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Record one failed operation and why.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.problem(what);
    }

    /// Whether every answer, audit and exact counter checked out.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line: end-to-end metrics, or per-layer ones when
    /// `trace` is set.
    pub fn json(&self, trace: bool) -> String {
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}
