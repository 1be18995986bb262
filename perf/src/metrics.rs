//! The metric schema: every name the benchmark reports, with its unit.
//! `BENCHMARK.json` lists the same names (a test holds the two in step);
//! direction and regression bound live there, not here.

/// End-to-end metrics as `(name, unit, exact)`: reported by every workload
/// in the untraced run. An `exact` metric is a virtual-clock number: at a
/// fixed seed and core count it repeats bit for bit, and `compare` insists
/// that it does when both sides ran the same inputs.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("decisions_per_s", "1/s", false),
    ("decision_p50_ms", "ms", false),
    ("advised_cost_s", "s", true),
    ("advised_vs_default", "ratio", true),
    ("peak_rss_mb", "MiB", false),
];

/// Per-layer metrics as `(name, unit, exact)`: reported by every workload in
/// the traced run (0 where the workload bypasses the layer). Counts are per
/// round; `_s` metrics are mean seconds per round. `exact` as above, for
/// counts too.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("sql.statements", "count", true),
    ("sql.parse_bind_us_per_stmt", "us", false),
    ("sql.errors", "count", true),
    ("optimizer.whatif_calls", "count", true),
    ("optimizer.whatif_us_per_call", "us", false),
    ("optimizer.whatif_busy_s", "s", false),
    ("optimizer.plan_us_per_query", "us", false),
    ("calibrate.cells", "count", true),
    ("calibrate.probe_runs", "count", true),
    ("calibrate.busy_s", "s", false),
    ("calibrate.ms_per_cell", "ms", false),
    ("calibrate.retries", "count", true),
    ("calibrate.degraded_cells", "count", true),
    ("calibrate.probedb_build_s", "s", false),
    ("engine.query_runs", "count", true),
    ("engine.busy_s", "s", false),
    ("engine.pages_per_s", "1/s", false),
    ("engine.cycles_charged", "count", true),
    ("storage.bufpool_hit_ratio", "ratio", true),
    ("storage.bufpool_evictions", "count", true),
    ("storage.pages_read_seq", "count", true),
    ("storage.pages_read_random", "count", true),
    ("core.search_busy_s", "s", false),
    ("core.evaluations", "count", true),
    ("core.cache_hit_ratio", "ratio", true),
    ("core.default_cost_s", "s", true),
    ("core.model_error_pct", "%", true),
    ("vmm.sched_busy_s", "s", false),
    ("vmm.sched_runs", "count", true),
    ("vmm.sched_events", "count", true),
    ("vmm.sched_events_per_s", "1/s", false),
    ("vmm.sched_vms_touched_per_event", "count", true),
    ("vmm.sched_heap_peak", "count", true),
    ("fleet.place_cold_busy_s", "s", false),
    ("fleet.place_warm_busy_s", "s", false),
    ("fleet.prewarm_cells", "count", true),
    ("fleet.solves", "count", true),
    ("fleet.memo_hit_ratio", "ratio", true),
    ("fleet.ls_moves", "count", true),
    ("fleet.optimality_gap_pct", "%", true),
    ("fleet.sim_busy_s", "s", false),
    ("fleet.model_error_pct", "%", true),
    ("controller.run_busy_s", "s", false),
    ("controller.epochs_per_s", "1/s", false),
    ("controller.resolves", "count", true),
    ("controller.switches", "count", true),
    ("controller.drift_detections", "count", true),
    ("controller.dropped_observations", "count", true),
    ("controller.regret_pct", "%", true),
    ("controller.regret_busy_s", "s", false),
    ("design.advise_busy_s", "s", false),
    ("design.whatif_calls", "count", true),
    ("design.cache_hit_ratio", "ratio", true),
    ("design.candidates", "count", true),
    ("design.alternations", "count", true),
    ("design.optimality_gap_pct", "%", true),
    ("design.model_error_pct", "%", true),
    ("tpch.generate_s", "s", false),
    ("telemetry.overhead_pct", "%", false),
    ("telemetry.spans_recorded", "count", true),
    ("share.sql_pct", "%", false),
    ("share.optimizer_pct", "%", false),
    ("share.calibrate_pct", "%", false),
    ("share.engine_pct", "%", false),
    ("share.vmm_pct", "%", false),
    ("share.core_pct", "%", false),
    ("share.fleet_pct", "%", false),
    ("share.controller_pct", "%", false),
    ("share.design_pct", "%", false),
    ("share.perf_pct", "%", false),
    ("perf.decisions", "count", true),
    ("perf.rounds", "count", false),
    ("perf.decision_tail_ms", "ms", false),
    ("perf.decision_tail_rank", "%", false),
    ("perf.verify_s", "s", false),
    ("perf.coverage_pct", "%", false),
    ("perf.wall_decisions_per_s", "1/s", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;
    use dbvirt_calibrate::json::Json;

    /// `BENCHMARK.json` is what the driver and `compare` read; this table is
    /// what the binary prints. They must list the same names and units.
    #[test]
    fn benchmark_json_lists_this_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (text("name"), text("unit"))
                })
                .collect()
        };
        let own = |schema: Vec<(&str, &str)>| -> Vec<(String, String)> {
            schema
                .into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        assert_eq!(
            listed("per_layer"),
            own(PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect())
        );
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, NAMES);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<(&str, &str)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, u, _)| (n, u))
            .collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(ok_name(name), "bad metric name {name}");
            assert!(ok_unit(unit), "bad unit {unit}");
            assert!(
                all[..i].iter().all(|(n, _)| n != name),
                "{name} listed twice"
            );
        }
        assert!(END_TO_END.contains(&("setup_s", "s", false)));
    }
}
