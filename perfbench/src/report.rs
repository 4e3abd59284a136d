//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 8] = [
    ("slot_p50_ms", "ref-ms"),
    ("slot_p95_ms", "ref-ms"),
    ("decisions_per_s", "1/ref-s"),
    ("bill_per_slot", "cost/slot"),
    ("served_ratio", "ratio"),
    ("setup_s", "s"),
    ("resume_s", "ref-s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs): name and unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("runtime.slot_self_ms", "ref-ms"),
    ("runtime.slot_samples", "count"),
    ("queue.depth_p95", "count"),
    ("queue.dropped", "count"),
    ("queue.expired", "count"),
    ("fallback.attempts_per_slot", "count"),
    ("fallback.activations", "count"),
    ("fallback.headroom.self_ms", "ref-ms"),
    ("fallback.alap.self_ms", "ref-ms"),
    ("fallback.postcard.self_ms", "ref-ms"),
    ("fallback.flow-lp.self_ms", "ref-ms"),
    ("fallback.flow-greedy.self_ms", "ref-ms"),
    ("core.admission_retry_share", "ratio"),
    ("core.build_ms", "ref-ms"),
    ("lp.solve_ms_p50", "ref-ms"),
    ("lp.solve_ms_p95", "ref-ms"),
    ("lp.pivots_per_solve_p50", "count"),
    ("lp.pivots_per_solve_p95", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.iteration_limit_hits", "count"),
    ("delta.hit_ratio", "ratio"),
    ("delta.rebuilds", "count"),
    ("headroom.commit_share", "ratio"),
    ("headroom.declined", "count"),
    ("alap.us_per_request", "ref-us"),
    ("alap.rebase_ms", "ref-ms"),
    ("alap.admit_ratio", "ratio"),
    ("net.bill_us", "ref-us"),
    ("snapshot.checkpoint_ms", "ref-ms"),
    ("snapshot.bytes", "bytes"),
    ("shard.max_ms", "ref-ms"),
    ("shard.imbalance", "ratio"),
    ("shard.merge_ms", "ref-ms"),
    ("shard.conflicts", "count"),
    ("setup.parse_ms", "ref-ms"),
    ("setup.runtime_new_ms", "ref-ms"),
    ("trace.slot_p50_untraced_ms", "ref-ms"),
    ("trace.slot_p50_traced_ms", "ref-ms"),
    ("trace.overhead_pct", "%"),
    ("host.ref_kernel_ms", "ms"),
];

/// Named metric values in a fixed order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, &'static str, f64)>,
}

impl Metrics {
    /// Sets `name` (which must be listed in `table`) to `value`.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from `table`: every reported metric must be
    /// declared.
    pub fn set(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values.push((name, unit, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| *n == name).map(|(_, _, v)| *v)
    }

    /// A human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, unit, value) in &self.values {
            let _ = writeln!(out, "  {name:<30} {value:>16.6} {unit}");
        }
        out
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`. Non-finite values are
    /// written as 0 (JSON has no NaN).
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit, value)) in self.values.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// `(name, unit)` pairs of one section of BENCHMARK.json, found by
    /// scanning its objects for `"name"` and `"unit"` fields.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = open + rest[open..].find('"')?;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .filter_map(|obj| Some((field(obj, "name")?, field(obj, "unit")?)))
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_declared_in_benchmark_json() {
        for (table, section) in [(&END_TO_END[..], "end_to_end"), (&PER_LAYER[..], "per_layer")] {
            let declared = declared(section);
            assert_eq!(declared.len(), table.len(), "{section}: same number of metrics");
            for (name, unit) in table {
                assert!(valid_name(name), "{name} matches [A-Za-z0-9_.-]+");
                assert!(
                    declared.iter().any(|(n, u)| n == name && u == unit),
                    "{name} ({unit}) is declared in BENCHMARK.json {section}"
                );
            }
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set(&END_TO_END, "slot_p50_ms", 1.25);
        m.set(&END_TO_END, "setup_s", f64::NAN);
        let line = m.result_line(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"slot_p50_ms\": {\"value\": 1.25, \"unit\": \"ref-ms\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(m.get("slot_p50_ms"), Some(1.25));
    }
}
