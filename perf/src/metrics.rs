//! The metrics a run reports, by name and unit. `/BENCHMARK.json` declares
//! the same names (a unit test holds the two lists together); README.md has
//! the glossary.

use std::collections::BTreeMap;
use sympack_trace::json::Obj;

/// `(name, unit)` of every end-to-end metric an untraced run reports.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("analyze_s", "s"),
    ("factor_s", "s"),
    ("solve_s", "s"),
    ("solve_p90_s", "s"),
    ("refactor_s", "s"),
    ("solve_panel_s", "s"),
    ("peak_rss_bytes", "bytes"),
];

/// `(name, unit)` of every per-layer metric a traced run reports.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("sparse.permute_s", "s"),
    ("sparse.residual_s", "s"),
    ("sparse.nnz", "count"),
    ("ordering.time_s", "s"),
    ("ordering.fill_ratio", "ratio"),
    ("symbolic.time_s", "s"),
    ("symbolic.supernodes", "count"),
    ("symbolic.blocks", "count"),
    ("symbolic.l_nnz", "count"),
    ("symbolic.flops", "count"),
    ("core.taskgraph_s", "s"),
    ("core.pattern_hash_s", "s"),
    ("core.plan_other_s", "s"),
    ("dense.replay_s", "s"),
    ("dense.replay_gflops", "Gflop/s"),
    ("dense.calls", "count"),
    ("dense.potrf_s", "s"),
    ("dense.trsm_s", "s"),
    ("dense.syrk_s", "s"),
    ("dense.gemm_s", "s"),
    ("gpu.model_s", "s"),
    ("gpu.model_over_wall", "ratio"),
    ("core.factor_gflops", "Gflop/s"),
    ("core.factor_tasks", "count"),
    ("core.factor_virtual_s", "s"),
    ("core.model_over_wall", "ratio"),
    ("core.kernel_share", "ratio"),
    ("core.runtime_tax_s", "s"),
    ("core.solve16_s", "s"),
    ("core.solve_rhs_per_s", "1/s"),
    ("core.solve_tasks", "count"),
    ("core.solve_virtual_s", "s"),
    ("core.driver_tax_s", "s"),
    ("core.first_call_ratio", "ratio"),
    ("core.max_residual", "ratio"),
    ("pgas.rgets", "count"),
    ("pgas.rpcs", "count"),
    ("pgas.bytes", "bytes"),
    ("pgas.rget_flood_gbps", "GB/s"),
    ("pgas.run_floor_us", "us"),
    ("multifrontal.factor_s", "s"),
    ("baseline.rightlooking_s", "s"),
    ("baseline.fanin_s", "s"),
    ("baseline.fanboth_s", "s"),
    ("service.session_new_s", "s"),
    ("service.refactor_overhead_s", "s"),
    ("service.solve_overhead_s", "s"),
    ("service.factor_bytes", "bytes"),
    ("trace.telemetry_overhead", "ratio"),
    ("trace.tracing_overhead", "ratio"),
    ("bench.span_overhead", "ratio"),
    ("bench.span_accounted", "ratio"),
    ("bench.machine_speed", "ratio"),
];

/// Values by metric name, as measured.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let fresh = self.0.insert(name, value).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the declared
    /// metrics, in declared order, with their units.
    ///
    /// # Panics
    /// Panics when a declared metric was not measured, or an undeclared one
    /// was: either is a bug in the benchmark.
    pub fn to_json(&self, declared: &[(&str, &str)]) -> String {
        assert_eq!(self.0.len(), declared.len(), "undeclared metric measured");
        let mut o = Obj::new();
        for (name, unit) in declared {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} not measured"));
            o = o.raw(
                name,
                &Obj::new().f64("value", value).str("unit", unit).finish(),
            );
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sympack_trace::json;

    /// `/BENCHMARK.json` and the code declare the same metrics, units and
    /// workloads, within the limits of the benchmark contract.
    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
        let list = |key: &str| -> Vec<(String, String)> {
            let items = doc.get(key).and_then(|v| v.as_array()).expect(key);
            items
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
                    assert!(matches!(field("better").as_str(), "lower" | "higher"));
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |d: &[(&str, &str)]| -> Vec<(String, String)> {
            d.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), owned(&END_TO_END));
        assert_eq!(list("per_layer"), owned(&PER_LAYER));
        for m in doc
            .get("end_to_end")
            .and_then(|v| v.as_array())
            .expect("end_to_end")
        {
            let bound = m.get("bound").and_then(|v| v.as_f64()).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .map(|w| {
                assert!(w.get("why").and_then(|v| v.as_str()).expect("why").len() <= 200);
                w.get("name").and_then(|v| v.as_str()).expect("name")
            })
            .collect();
        let names: Vec<&str> = crate::inputs::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, names);
        assert_eq!(doc.get("paths"), Some(&json::parse(r#"["perf"]"#).unwrap()));
    }

    #[test]
    fn result_metrics_round_trip_with_all_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123_456_789_012_345_67);
        m.set("peak_rss_bytes", 123_456_789_012.0);
        let declared = [("setup_s", "s"), ("peak_rss_bytes", "bytes")];
        let doc = json::parse(&m.to_json(&declared)).expect("JSON");
        let value = |n: &str| {
            doc.get(n)
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
        };
        assert_eq!(value("setup_s"), Some(0.123_456_789_012_345_67));
        assert_eq!(value("peak_rss_bytes"), Some(123_456_789_012.0));
        let unit = doc.get("peak_rss_bytes").and_then(|v| v.get("unit"));
        assert_eq!(unit.and_then(|v| v.as_str()), Some("bytes"));
    }
}
