//! The metric vocabulary and the result line.
//!
//! An untraced run prints exactly [`END_TO_END`]; a traced run prints
//! exactly [`PER_LAYER`]. Both lists mirror `BENCHMARK.json` (a test
//! keeps them in step). Every workload prints every metric; a layer a
//! workload never enters reads 0.

use std::collections::BTreeMap;

use crate::trace::{valid_metric_name, valid_unit};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ci_halfwidth_pct", "%"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.load_s", "s"),
    ("core.ff_mips", "MIPS"),
    ("core.ff_warm_s", "s"),
    ("core.ff_warm_mips", "MIPS"),
    ("core.capture_s", "s"),
    ("core.capture_us_per_unit", "us"),
    ("ckpt.append_s", "s"),
    ("ckpt.append_us_per_unit", "us"),
    ("ckpt.bytes_per_unit", "B"),
    ("ckpt.store_mib", "MiB"),
    ("ckpt.open_s", "s"),
    ("ckpt.decode_s", "s"),
    ("ckpt.decode_us_per_unit", "us"),
    ("ckpt.records_decoded_per_replayed", "ratio"),
    ("core.restore_s", "s"),
    ("stats.select_s", "s"),
    ("stats.units_selected_frac", "ratio"),
    ("uarch.detail_warm_s", "s"),
    ("uarch.detail_warm_kips", "KIPS"),
    ("uarch.measure_s", "s"),
    ("uarch.measure_kips", "KIPS"),
    ("core.merge_s", "s"),
    ("exec.wall_over_layers", "ratio"),
    ("server.submit_p50_ms", "ms"),
    ("server.queue_p50_ms", "ms"),
    ("server.queue_p90_ms", "ms"),
    ("server.warm_p50_ms", "ms"),
    ("server.replay_p50_ms", "ms"),
    ("server.result_p50_ms", "ms"),
    ("server.cold_p50_ms", "ms"),
    ("server.store_p50_ms", "ms"),
    ("server.cache_p50_ms", "ms"),
    ("server.cache_hit_frac", "ratio"),
    ("server.store_hit_frac", "ratio"),
    ("server.warm_passes", "count"),
    ("model.predicted_over_measured", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("bench.latency_samples", "count"),
    ("host.nproc", "count"),
    ("host.two_thread_ratio", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets one metric. Non-finite values (a ratio over nothing) read 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The JSON object of the metrics a run of this `trace` mode prints.
    ///
    /// # Panics
    ///
    /// When an end-to-end metric was never set — every workload must
    /// measure all of them.
    pub fn to_json(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let fields: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                assert!(
                    valid_metric_name(name) && valid_unit(unit),
                    "{name} [{unit}]"
                );
                let value = match self.values.get(name) {
                    Some(&v) => v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line of a run's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smarts_server::json::{parse, Json};

    #[test]
    fn every_name_and_unit_obeys_the_grammar_once() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks `{key}`");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn lists_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = parse(text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        for &(name, _) in END_TO_END {
            m.set(name, 1.25);
        }
        m.set("wall_s", f64::NAN);
        let line = result_line(true, 3, 0, &m.to_json(false));
        let doc = parse(&line).expect("result line parses");
        let Some(Json::Obj(fields)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        assert_eq!(fields.len(), END_TO_END.len());
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.0));
        // Traced runs print every per-layer metric, unmeasured ones as 0.
        let traced = parse(&m.to_json(true)).unwrap();
        let Json::Obj(fields) = traced else {
            panic!("not an object")
        };
        assert_eq!(fields.len(), PER_LAYER.len());
    }
}
