//! Layer attribution for the traced run.
//!
//! The harness opens its own spans (through `dbvirt_telemetry`, so they
//! share one clock and one parent tree with the spans the crates already
//! emit) around every call into a layer. After each traced round the
//! registry is drained: every span's **self time** — its duration minus the
//! part of that interval its direct children cover — is credited to the
//! layer its name belongs to. Children on worker threads may overlap each
//! other, so coverage is the *union* of child intervals; self times of
//! parallel workers add up, which makes a layer's busy time thread time,
//! not wall time, wherever the program itself goes parallel.

use dbvirt_calibrate::json::Json;
use dbvirt_core::{CoreError, CostModel, DesignProblem};
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_telemetry::{self as telemetry, Snapshot, SpanRecord};
use dbvirt_vmm::ResourceVector;
use std::collections::BTreeMap;
use std::time::Instant;

/// The root span the harness opens around every decision.
pub const DECISION_SPAN: &str = "perf.decision";

/// The layers with the metric reporting each one's share of all self time,
/// in report order. `perf` is the harness itself (input plumbing between
/// layer calls).
pub const LAYERS: [(&str, &str); 10] = [
    ("sql", "share.sql_pct"),
    ("optimizer", "share.optimizer_pct"),
    ("calibrate", "share.calibrate_pct"),
    ("engine", "share.engine_pct"),
    ("vmm", "share.vmm_pct"),
    ("core", "share.core_pct"),
    ("fleet", "share.fleet_pct"),
    ("controller", "share.controller_pct"),
    ("design", "share.design_pct"),
    ("perf", "share.perf_pct"),
];

/// The layer a span name is credited to. Names are `<module>.<what>`; the
/// exceptions are the executor's operator spans (`exec.*`), the measured
/// oracle (`measure.*` lives in `dbvirt-core` but is engine work), the
/// scheduler (`sched.*` is `dbvirt-vmm`), and the design advisor's what-if
/// sweep, which is the optimizer replanning under hypothetical indexes.
pub fn layer_of(span: &str) -> &'static str {
    if span.starts_with("design.whatif") {
        return "optimizer";
    }
    match span.split('.').next().unwrap_or("") {
        "sql" => "sql",
        "optimizer" => "optimizer",
        "calibrate" => "calibrate",
        "engine" | "exec" | "measure" => "engine",
        "sched" | "vmm" => "vmm",
        "core" | "search" | "advisor" => "core",
        "fleet" => "fleet",
        "controller" => "controller",
        "design" => "design",
        _ => "perf",
    }
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAgg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Nanoseconds of `[start, end]` covered by the union of `children`
/// (each clipped to the interval).
fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let s = s.max(cursor);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Per-name count, total and self time over `spans`, plus the covered and
/// total nanoseconds of the [`DECISION_SPAN`] roots (the coverage ratio).
pub fn aggregate(spans: &[SpanRecord]) -> (BTreeMap<&'static str, SpanAgg>, u64, u64) {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    let (mut root_covered, mut root_total) = (0, 0);
    for s in spans {
        let dur = s.duration_ns();
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let agg = by_name.entry(s.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur - covered;
        if s.name == DECISION_SPAN {
            root_covered += covered;
            root_total += dur;
        }
    }
    (by_name, root_covered, root_total)
}

/// What the traced rounds recorded.
#[derive(Debug, Default)]
pub struct TraceTotals {
    /// Traced rounds drained.
    pub rounds: u64,
    /// Span totals summed over all traced rounds.
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// Covered / total nanoseconds of the decision roots, all rounds.
    pub root_covered_ns: u64,
    pub root_total_ns: u64,
    /// Counters and gauges of the first traced round: every round repeats
    /// the same decisions, so these are exact per-round counts.
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    /// Nanoseconds inside the wrapped cost model, all rounds (a measurement,
    /// unlike the first-round counts).
    pub whatif_ns: u64,
    /// Spans recorded in the first traced round.
    pub spans_recorded: u64,
    /// Chrome trace of the first traced round.
    pub chrome_trace: String,
}

impl TraceTotals {
    /// Drains the global registry after one traced round.
    pub fn drain_round(&mut self) -> Result<(), String> {
        let snap: Snapshot = telemetry::snapshot();
        snap.validate()?;
        let (by_name, covered, total) = aggregate(&snap.spans);
        for (name, agg) in by_name {
            let t = self.spans.entry(name).or_default();
            t.count += agg.count;
            t.total_ns += agg.total_ns;
            t.self_ns += agg.self_ns;
        }
        self.root_covered_ns += covered;
        self.root_total_ns += total;
        self.whatif_ns += snap.counter(WHATIF_NS).unwrap_or(0);
        if self.rounds == 0 {
            self.counters = snap.counters.iter().cloned().collect();
            self.gauges = snap.gauges.iter().cloned().collect();
            self.spans_recorded = snap.spans.len() as u64;
            self.chrome_trace = snap.to_chrome_trace();
        }
        self.rounds += 1;
        telemetry::reset();
        Ok(())
    }

    /// A first-round counter (0 when the layer never ran).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean per-round total seconds of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.per_round_s(self.spans.get(name).map_or(0, |a| a.total_ns))
    }

    /// Mean per-round count of the spans named `name`.
    pub fn count(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0, |a| a.count) as f64 / self.rounds.max(1) as f64
    }

    fn per_round_s(&self, ns: u64) -> f64 {
        ns as f64 / 1e9 / self.rounds.max(1) as f64
    }

    /// Mean per-round self seconds of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.per_round_s(self.spans.get(name).map_or(0, |a| a.self_ns))
    }

    /// Mean per-round self seconds per layer. The what-if time the
    /// [`TimedCostModel`] clocked is moved from `whatif_host` — the layer
    /// whose spans enclose the cost-model calls — to `optimizer`.
    pub fn layer_self_s(&self, whatif_host: &'static str) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|&(l, _)| (l, 0.0)).collect();
        for (name, agg) in &self.spans {
            *out.get_mut(layer_of(name)).expect("known layer") += self.per_round_s(agg.self_ns);
        }
        // Clocking a call costs a little itself, so on a host that does
        // nothing but call the model the difference can dip below zero.
        let host = out.get_mut(whatif_host).expect("known layer");
        let whatif = self.whatif_busy_s().min(*host);
        *host -= whatif;
        *out.get_mut("optimizer").expect("known layer") += whatif;
        out
    }

    /// Mean per-round seconds inside the wrapped cost model.
    pub fn whatif_busy_s(&self) -> f64 {
        self.per_round_s(self.whatif_ns)
    }

    /// Per-round count, total and self seconds of every span name, with the
    /// layer it is credited to — the table behind the layer metrics.
    pub fn spans_json(&self) -> Json {
        Json::Obj(
            self.spans
                .iter()
                .map(|(&name, agg)| {
                    let row = Json::obj([
                        ("layer", Json::Str(layer_of(name).to_string())),
                        ("count", Json::Num(self.count(name))),
                        ("total_s", Json::Num(self.per_round_s(agg.total_ns))),
                        ("self_s", Json::Num(self.per_round_s(agg.self_ns))),
                    ]);
                    (name.to_string(), row)
                })
                .collect(),
        )
    }

    /// Share of the decision roots' wall clock covered by layer spans.
    pub fn coverage_pct(&self) -> f64 {
        if self.root_total_ns == 0 {
            return 0.0;
        }
        100.0 * self.root_covered_ns as f64 / self.root_total_ns as f64
    }
}

static TM_SQL_STATEMENTS: telemetry::Counter = telemetry::Counter::new("perf.sql_statements");
static TM_SQL_ERRORS: telemetry::Counter = telemetry::Counter::new("perf.sql_errors");

/// Parses and binds a tenant's SQL text under a `sql.parse_bind` span,
/// counting statements and errors for the `sql.*` layer metrics.
pub fn parse_statements(db: &Database, sqls: &[String]) -> Result<Vec<LogicalPlan>, String> {
    let _span = telemetry::span("sql.parse_bind");
    TM_SQL_STATEMENTS.add(sqls.len() as u64);
    sqls.iter()
        .map(|sql| {
            dbvirt_sql::parse_query(sql, db).map_err(|e| {
                TM_SQL_ERRORS.add(1);
                format!("{sql}: {e}")
            })
        })
        .collect()
}

/// Telemetry counter names the [`TimedCostModel`] records into.
pub const WHATIF_CALLS: &str = "perf.whatif_calls";
pub const WHATIF_QUERIES: &str = "perf.whatif_queries";
const WHATIF_NS: &str = "perf.whatif_ns";
static TM_WHATIF_CALLS: telemetry::Counter = telemetry::Counter::new(WHATIF_CALLS);
static TM_WHATIF_QUERIES: telemetry::Counter = telemetry::Counter::new(WHATIF_QUERIES);
static TM_WHATIF_NS: telemetry::Counter = telemetry::Counter::new(WHATIF_NS);

/// Splits optimizer what-if time out of the search that calls it: a
/// pass-through [`CostModel`] that, while telemetry is enabled, clocks every
/// call into the wrapped model. With telemetry off (the timed run) it only
/// forwards.
pub struct TimedCostModel<'m> {
    inner: &'m dyn CostModel,
}

impl<'m> TimedCostModel<'m> {
    pub fn new(inner: &'m dyn CostModel) -> TimedCostModel<'m> {
        TimedCostModel { inner }
    }
}

impl CostModel for TimedCostModel<'_> {
    fn cost(
        &self,
        problem: &DesignProblem<'_>,
        w_idx: usize,
        shares: ResourceVector,
    ) -> Result<f64, CoreError> {
        if !telemetry::is_enabled() {
            return self.inner.cost(problem, w_idx, shares);
        }
        let t0 = Instant::now();
        let cost = self.inner.cost(problem, w_idx, shares);
        TM_WHATIF_NS.add(t0.elapsed().as_nanos() as u64);
        TM_WHATIF_CALLS.add(1);
        TM_WHATIF_QUERIES.add(problem.workloads[w_idx].queries.len() as u64);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            tid: 0,
            start_ns: start,
            end_ns: end,
            vstart_us: 0,
            vend_us: 0,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let spans = vec![
            span(1, None, DECISION_SPAN, 0, 100),
            span(2, Some(1), "calibrate.grid", 10, 60),
            // Two overlapping workers under the grid span: their union
            // covers [15, 55], not 30 + 30.
            span(3, Some(2), "calibrate.grid_worker", 15, 45),
            span(4, Some(2), "calibrate.grid_worker", 25, 55),
            span(5, Some(3), "engine.run_plan", 20, 40),
            span(6, Some(1), "core.search", 60, 90),
        ];
        let (by_name, covered, total) = aggregate(&spans);
        assert_eq!(by_name[DECISION_SPAN].self_ns, 100 - 50 - 30);
        assert_eq!(by_name["calibrate.grid"].self_ns, 50 - 40);
        assert_eq!(
            by_name["calibrate.grid_worker"],
            SpanAgg {
                count: 2,
                total_ns: 60,
                self_ns: 10 + 30
            }
        );
        assert_eq!(by_name["engine.run_plan"].self_ns, 20);
        assert_eq!(by_name["core.search"].self_ns, 30);
        assert_eq!((covered, total), (80, 100));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span(1, None, "a.x", 10, 20),
            span(2, Some(1), "b.y", 5, 12),
            span(3, Some(1), "b.y", 18, 30),
        ];
        let (by_name, _, _) = aggregate(&spans);
        assert_eq!(by_name["a.x"].self_ns, 10 - 2 - 2);
    }

    #[test]
    fn span_names_map_to_layers() {
        assert_eq!(layer_of("sched.co_schedule"), "vmm");
        assert_eq!(layer_of("measure.workload"), "engine");
        assert_eq!(layer_of("engine.run_plan"), "engine");
        assert_eq!(layer_of("exec.seq_scan"), "engine");
        assert_eq!(layer_of("search.run"), "core");
        assert_eq!(layer_of("design.whatif_worker"), "optimizer");
        assert_eq!(layer_of("design.alternate"), "design");
        assert_eq!(layer_of(DECISION_SPAN), "perf");
        for (layer, _) in LAYERS {
            assert_eq!(layer_of(&format!("{layer}.anything")), layer);
        }
    }

    /// A model whose cost depends on every input, so a wrapper that dropped
    /// or reordered an argument would change the bits.
    struct Probe;
    impl CostModel for Probe {
        fn cost(
            &self,
            problem: &DesignProblem<'_>,
            w_idx: usize,
            shares: ResourceVector,
        ) -> Result<f64, CoreError> {
            Ok(problem.workloads.len() as f64 * 0.1
                + w_idx as f64 / 3.0
                + 1.0 / shares.cpu().fraction()
                + 0.7 / shares.memory().fraction())
        }
    }

    #[test]
    fn timed_cost_model_returns_the_wrapped_models_bits() {
        use dbvirt_core::WorkloadSpec;
        use dbvirt_engine::Database;
        use dbvirt_optimizer::LogicalPlan;
        use dbvirt_storage::{DataType, Field, Schema};
        use dbvirt_vmm::MachineSpec;

        let mut db = Database::new();
        let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
        let problem = DesignProblem::new(
            MachineSpec::tiny(),
            (0..3)
                .map(|i| WorkloadSpec::new(format!("w{i}"), &db, vec![LogicalPlan::scan(t)]))
                .collect(),
        )
        .unwrap();
        let timed = TimedCostModel::new(&Probe);
        // Both paths of the wrapper: forwarding only, and clocked.
        for enabled in [false, true] {
            if enabled {
                telemetry::enable();
            }
            for w in 0..3 {
                for (c, m) in [(0.125, 0.5), (0.75, 0.25), (1.0, 1.0)] {
                    let shares = ResourceVector::from_fractions(c, m, 0.25).unwrap();
                    let want = Probe.cost(&problem, w, shares).unwrap();
                    let got = timed.cost(&problem, w, shares).unwrap();
                    assert_eq!(want.to_bits(), got.to_bits());
                }
            }
        }
        telemetry::disable();
        assert_eq!(telemetry::snapshot().counter(WHATIF_CALLS), Some(9));
    }
}
