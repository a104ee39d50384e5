//! Metric declarations, operation accounting and the printed lines.

use std::panic::{catch_unwind, AssertUnwindSafe};

use er_matchers::AlgorithmKind;

/// End-to-end metrics `(name, unit)`, printed by the plain run of every
/// workload, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("graphs_per_s", "1/s"),
    ("records_per_s", "1/s"),
    ("f1_mean", "ratio"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
];

/// Short names of the linkage-ooc similarity functions.
pub const FUNCTION_TAGS: [&str; 3] = ["lev", "cos", "sem"];

/// Per-layer metrics `(name, unit)`, printed by the traced run of every
/// workload, in `BENCHMARK.json` order. A workload that makes no call
/// into a layer reports that layer's metrics as 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    add("datasets.generate_ms".into(), "ms");
    add("pipeline.dense_build_ms".into(), "ms");
    for f in FUNCTION_TAGS {
        add(format!("pipeline.build_ms.{f}"), "ms");
        add(format!("pipeline.ns_per_scored_pair.{f}"), "ns");
        add(format!("pipeline.generated_pairs.{f}"), "count");
        add(format!("pipeline.scored_pairs.{f}"), "count");
        add(format!("pipeline.pruned_pairs.{f}"), "count");
        add(format!("pipeline.retained_edges.{f}"), "count");
        add(format!("pipeline.retained_per_generated.{f}"), "ratio");
        add(format!("pipeline.peak_resident_edges.{f}"), "count");
        add(format!("pipeline.spilled_bytes.{f}"), "bytes");
        add(format!("pipeline.merged_bytes.{f}"), "bytes");
    }
    add("core.sort_ms".into(), "ms");
    for f in FUNCTION_TAGS {
        add(format!("core.store_open_ms.{f}"), "ms");
        add(format!("core.store_bytes.{f}"), "bytes");
    }
    add("matchers.prepare_ms".into(), "ms");
    for a in AlgorithmKind::ALL.map(AlgorithmKind::name) {
        add(format!("matchers.run_ms.{a}"), "ms");
    }
    for f in FUNCTION_TAGS {
        add(format!("matchers.prepare_ms.{f}"), "ms");
        add(format!("matchers.resident_edge_copies.{f}"), "count");
    }
    add("eval.sweep_all_ms".into(), "ms");
    for a in AlgorithmKind::ALL.map(AlgorithmKind::name) {
        add(format!("eval.sweep_ms.{a}"), "ms");
    }
    for f in FUNCTION_TAGS {
        add(format!("eval.sweep_all_ms.{f}"), "ms");
    }
    add("service.load_ms".into(), "ms");
    for op in [
        "insert",
        "remove",
        "neighbors_left",
        "neighbors_right",
        "match_of",
    ] {
        add(format!("service.{op}_us.p50"), "us");
        add(format!("service.{op}_us.p99"), "us");
    }
    add("service.compactions".into(), "count");
    add("service.tombstone_ratio_end".into(), "ratio");
    add("service.edges_end".into(), "count");
    add("service.gen_late_p99_us".into(), "us");
    add("trace.spans".into(), "count");
    add("trace.rate_untraced".into(), "1/s");
    add("trace.rate_traced".into(), "1/s");
    add("trace.overhead_pct".into(), "%");
    m
}

/// Named values a workload measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Record (or overwrite) one value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Attempted and failed operations. An operation fails when it returns
/// an error, panics, or its output check finds a mismatch; a failure is
/// counted and the run goes on.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations started.
    pub attempted: u64,
    /// Operations that errored, panicked or failed their output check.
    pub failed: u64,
    /// The subset of `failed` caught by an output check.
    pub mismatched: u64,
    reported: Vec<String>,
}

impl Ops {
    /// Run one operation, catching errors and panics.
    pub fn attempt<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => return Some(r),
            Ok(Err(e)) => e,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or_else(|| "panic".to_string(), |s| format!("panic: {s}")),
        };
        self.failed += 1;
        self.note(err);
        None
    }

    /// Count a completed operation whose output check failed.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.mismatched += 1;
        self.note(format!("output check failed: {}", what.into()));
    }

    /// Report each distinct failure once, on standard error.
    fn note(&mut self, msg: String) {
        if !self.reported.contains(&msg) {
            eprintln!("operation failed: {msg}");
            self.reported.push(msg);
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation accounting.
    pub ops: Ops,
    /// End-to-end metrics (with tracing on, they are the traced values).
    pub e2e: Metrics,
    /// Per-layer metrics; empty unless traced.
    pub layer: Metrics,
    /// Inputs of the run, for the record line.
    pub inputs: Vec<(&'static str, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every declared
/// metric with its unit. A declared metric the workload did not record
/// is reported as 0.
pub fn result_line(ops: &Ops, values: &Metrics, declared: &[(String, &str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.mismatched == 0,
        ops.attempted,
        ops.failed,
        metrics.join(", ")
    )
}

/// The record line: inputs and host fingerprint of the run.
pub fn record_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// End-to-end metrics as `(name, unit)` pairs owning their names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reports_every_declared_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        let ops = Ops {
            attempted: 4,
            failed: 1,
            ..Ops::default()
        };
        let line = result_line(&ops, &m, &end_to_end());
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }

    #[test]
    fn per_layer_names_are_unique_and_valid() {
        let names = per_layer();
        for (i, (n, _)) in names.iter().enumerate() {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(names[..i].iter().all(|(m, _)| m != n), "duplicate {n}");
        }
    }
}
