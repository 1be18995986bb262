//! End-to-end telemetry contract tests.
//!
//! Pins the two guarantees DESIGN.md §3.9 makes about `dbvirt-telemetry`:
//!
//! 1. **Zero-cost observation** — enabling telemetry must not change any
//!    computed result: calibration outputs and advisor recommendations are
//!    bit-identical with the global registry enabled and disabled.
//! 2. **Well-formed artifacts** — both exporters emit JSON the in-tree
//!    parser (`dbvirt_calibrate::json`, the strictest consumer we ship)
//!    accepts, with span/counter content surviving the round trip.
//!
//! The global registry is process-wide, so tests that flip the enabled
//! flag serialize on a lock (cargo runs tests in threads of one process).

use dbvirt_calibrate::json::Json;
use dbvirt_core::{
    DesignProblem, Recommendation, SearchAlgorithm, TelemetrySummary, VirtualizationAdvisor,
    WorkloadSpec,
};
use dbvirt_engine::{Database, Expr};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_telemetry as telemetry;
use dbvirt_vmm::MachineSpec;
use std::sync::Mutex;

/// Serializes tests that flip the global telemetry flag.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn fixture() -> Database {
    let mut db = Database::new();
    let t = db.create_table(
        "t",
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("pad", DataType::Str),
        ]),
    );
    db.insert_rows(
        t,
        (0..20_000).map(|i| Tuple::new(vec![Datum::Int(i), Datum::str("xxxxxxxxxxxxxxxx")])),
    )
    .unwrap();
    db.analyze_all().unwrap();
    db
}

fn make_problem(db: &Database) -> DesignProblem<'_> {
    let t = db.table_id("t").unwrap();
    let heavy_pred = Expr::and_all(
        (0..10)
            .map(|i| Expr::ge(Expr::add(Expr::col(0), Expr::int(i)), Expr::int(-1)))
            .collect(),
    );
    DesignProblem::new(
        MachineSpec::paper_testbed(),
        vec![
            WorkloadSpec::new("io", db, vec![LogicalPlan::scan(t)]),
            WorkloadSpec::new(
                "cpu",
                db,
                vec![LogicalPlan::scan_filtered(t, heavy_pred); 2],
            ),
        ],
    )
    .unwrap()
}

fn assert_bit_identical(a: &Recommendation, b: &Recommendation, what: &str) {
    assert_eq!(a.allocation, b.allocation, "{what}: allocation");
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluations");
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{what}: objective"
    );
    assert_eq!(
        a.total_cost.to_bits(),
        b.total_cost.to_bits(),
        "{what}: total cost"
    );
    assert_eq!(a.per_workload_costs.len(), b.per_workload_costs.len());
    for (i, (x, y)) in a
        .per_workload_costs
        .iter()
        .zip(&b.per_workload_costs)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: per-workload cost {i}");
    }
}

#[test]
fn recommendations_are_bit_identical_with_telemetry_enabled() {
    let _g = TELEMETRY_LOCK.lock().unwrap();
    telemetry::disable();
    telemetry::reset();

    let db = fixture();
    let problem = make_problem(&db);
    let machine = MachineSpec::paper_testbed();

    // Baselines with telemetry disabled: calibration + DP and greedy
    // recommendations.
    let advisor_off = VirtualizationAdvisor::calibrate(machine, 2, 4).unwrap();
    let base_dp = advisor_off
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .unwrap();
    let base_greedy = advisor_off
        .recommend(&problem, SearchAlgorithm::Greedy)
        .unwrap();

    // The disabled runs must leave the registry untouched. (Counter
    // *names* registered by other tests persist across `reset()` — cells
    // cached in statics stay valid — so check values, not presence.)
    let snap = telemetry::snapshot();
    assert!(snap.spans.is_empty(), "disabled run recorded spans");
    assert!(
        snap.counters.iter().all(|(_, v)| *v == 0),
        "disabled run bumped counters: {:?}",
        snap.counters
    );

    // Same pipeline with telemetry on, including calibration itself.
    telemetry::enable();
    let advisor_on = VirtualizationAdvisor::calibrate(machine, 2, 4).unwrap();
    let on_dp = advisor_on
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .unwrap();
    let on_greedy = advisor_on
        .recommend(&problem, SearchAlgorithm::Greedy)
        .unwrap();
    let summary = advisor_on.telemetry_summary();
    telemetry::disable();

    assert_bit_identical(&base_dp, &on_dp, "dp on vs off");
    assert_bit_identical(&base_greedy, &on_greedy, "greedy on vs off");

    // And the enabled run must have actually observed the pipeline.
    let snap = telemetry::snapshot();
    snap.validate().unwrap();
    assert_eq!(snap.open_spans, 0);
    assert!(snap.last_span("advisor.recommend").is_some());
    assert!(snap.last_span("search.run").is_some());
    assert!(snap.last_span("calibrate.cell").is_some());
    assert!(snap.counter("search.cache.misses").unwrap_or(0) > 0);
    assert!(summary.enabled);
    assert!(summary.cache_misses > 0);
    assert!(summary.recommend_wall_ms.is_some());
    assert_eq!(summary.open_spans, 0);

    telemetry::reset();
}

#[test]
fn exporters_round_trip_through_the_calibrate_json_parser() {
    let _g = TELEMETRY_LOCK.lock().unwrap();
    telemetry::disable();
    telemetry::reset();
    telemetry::enable();

    static HITS: telemetry::Counter = telemetry::Counter::new("rt.hits");
    static RATIO: telemetry::Gauge = telemetry::Gauge::new("rt.ratio");
    static BAD: telemetry::Gauge = telemetry::Gauge::new("rt.nonfinite");
    static LAT: telemetry::Histogram = telemetry::Histogram::new("rt.latency_us");
    {
        let mut outer = telemetry::span("rt.outer");
        outer.set_attr("label", "needs \"escaping\"\n");
        let parent = outer.id();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = telemetry::span_with_parent("rt.worker", parent);
                HITS.add(7);
                LAT.record_micros(123);
                LAT.record_micros(4_567);
            });
        });
        telemetry::advance_virtual_micros(42);
        RATIO.set(0.75);
        BAD.set(f64::NAN);
    }
    telemetry::disable();
    let snap = telemetry::snapshot();
    snap.validate().unwrap();

    // --- JSON dump round trip -------------------------------------------
    let dump = Json::parse(&snap.to_json()).expect("dump parses");
    let spans = dump.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(spans.len(), snap.spans.len());
    let outer = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("rt.outer"))
        .unwrap();
    assert_eq!(
        outer
            .get("attrs")
            .and_then(|a| a.get("label"))
            .and_then(Json::as_str),
        Some("needs \"escaping\"\n"),
        "attribute strings survive escaping"
    );
    let worker = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("rt.worker"))
        .unwrap();
    assert_eq!(
        worker.get("parent").and_then(Json::as_f64),
        outer.get("id").and_then(Json::as_f64),
        "cross-thread parenting survives"
    );
    assert_eq!(
        dump.get("counters")
            .and_then(|c| c.get("rt.hits"))
            .and_then(Json::as_f64),
        Some(7.0)
    );
    assert_eq!(
        dump.get("gauges")
            .and_then(|g| g.get("rt.ratio"))
            .and_then(Json::as_f64),
        Some(0.75)
    );
    // Non-finite floats are exported as `null`: one JSON writer serves
    // the exporters and dbvirt-calibrate's own serializer.
    assert_eq!(
        dump.get("gauges").and_then(|g| g.get("rt.nonfinite")),
        Some(&Json::Null)
    );
    let hist = dump.get("histograms").and_then(|h| h.get("rt.latency_us")).unwrap();
    assert_eq!(hist.get("count").and_then(Json::as_f64), Some(2.0));
    assert_eq!(hist.get("sum").and_then(Json::as_f64), Some(4_690.0));
    assert_eq!(dump.get("virtual_us").and_then(Json::as_f64), Some(42.0));

    // --- Chrome trace round trip ----------------------------------------
    let chrome = Json::parse(&snap.to_chrome_trace()).expect("chrome trace parses");
    let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    assert_eq!(complete.len(), snap.spans.len(), "one X event per span");
    for e in &complete {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("ts").and_then(Json::as_f64).is_some());
        assert!(e.get("dur").and_then(Json::as_f64).is_some());
    }
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("C")),
        "counter events present"
    );

    telemetry::reset();
    let _ = TelemetrySummary::capture(); // smoke: capture works post-reset
}
