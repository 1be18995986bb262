//! End-to-end telemetry contract tests.
//!
//! Pins the guarantees DESIGN.md §3.9 makes about `dbvirt-telemetry`:
//!
//! 1. **Zero-cost observation** — enabling telemetry must not change any
//!    computed result: calibration outputs and advisor recommendations are
//!    bit-identical with the global registry enabled and disabled.
//! 2. **Well-formed artifacts** — both exporters emit JSON the in-tree
//!    parser (`dbvirt_calibrate::json`, the strictest consumer we ship)
//!    accepts, with span/counter content surviving the round trip.
//! 3. **A traced pipeline accounts for its time** (EXT-TRACE) — a
//!    consolidation scenario at experiment scale leaves a valid snapshot
//!    with no open span, its root `advisor.recommend` span ≥ 95 % covered
//!    by direct children, and the design advisor's spans and counters.
//!
//! The global registry is process-wide, so tests that flip the enabled
//! flag serialize on a lock (cargo runs tests in threads of one process).

use dbvirt_bench::experiment_machine;
use dbvirt_calibrate::json::Json;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::measure::measure_workload_seconds;
use dbvirt_core::{
    DesignProblem, Recommendation, SearchAlgorithm, VirtualizationAdvisor, WorkloadSpec,
};
use dbvirt_design::{DesignAdvisor, DesignConfig};
use dbvirt_engine::{Database, Expr};
use dbvirt_optimizer::LogicalPlan;
use dbvirt_sql::parse_query;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};
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
    assert!(telemetry::is_enabled());
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
    assert!(snap.counter("search.cache.hits").unwrap_or(0) > 0);

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
    let hist = dump
        .get("histograms")
        .and_then(|h| h.get("rt.latency_us"))
        .unwrap();
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
    let cleared = telemetry::snapshot();
    assert_eq!(cleared.counter("search.cache.hits").unwrap_or(0), 0);
    assert_eq!(cleared.counter("search.cache.misses").unwrap_or(0), 0);
    assert_eq!(cleared.open_spans, 0);
}

#[test]
fn a_traced_consolidation_accounts_for_its_root_span() {
    let _g = TELEMETRY_LOCK.lock().unwrap();
    telemetry::disable();
    telemetry::reset();
    telemetry::enable();

    // Experiment scale (not `tiny`): the root `advisor.recommend` span must
    // be long enough that per-span bookkeeping stays well under the 5 %
    // coverage budget checked below.
    let machine = experiment_machine();
    let t = TpchDb::generate(TpchConfig::experiment()).unwrap();
    let advisor = VirtualizationAdvisor::calibrate(machine, 3, 10).unwrap();
    let mixes = [
        Workload::compose(&t, &[(TpchQuery::Q4, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q13, 3)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)]),
    ];
    let specs = mixes
        .iter()
        .map(|w| WorkloadSpec::new(w.name.clone(), &t.db, w.queries.clone()))
        .collect();
    let problem = DesignProblem::new(machine, specs).unwrap();
    // The first recommendation absorbs one-time initialization (counter
    // registration, the workloads' analysis), so the coverage check reads
    // the second, steady-state root span.
    let recommend = || {
        advisor
            .recommend(&problem, SearchAlgorithm::DynamicProgramming)
            .unwrap()
    };
    let (warmup, rec) = (recommend(), recommend());
    assert_eq!(warmup.objective.to_bits(), rec.objective.to_bits());

    // One measured run: the engine's operator spans, the buffer-pool
    // counters and the virtual clock.
    measure_workload_seconds(&t.db, &mixes[0].queries, machine, rec.allocation.row(0)).unwrap();

    // A compact joint index + allocation design, so the design advisor's
    // instrumentation is traced too. Its lookup columns avoid the stock
    // TPC-H indexes, so the enumerator has candidates to price.
    let points = vec![0.25, 0.5, 0.75, 1.0];
    let grid = CalibrationGrid::calibrate(machine, points.clone(), points, 0.5).unwrap();
    let lookups = [
        "SELECT l_suppkey, l_quantity FROM lineitem WHERE l_suppkey = 17",
        "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_quantity = 3",
    ]
    .iter()
    .map(|sql| parse_query(sql, &t.db).unwrap())
    .collect();
    let design_problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new("lookups", &t.db, lookups),
            WorkloadSpec::new("scans", &t.db, mixes[0].queries.clone()),
        ],
    )
    .unwrap();
    let designer = DesignAdvisor::new(&grid, DesignConfig::new(4, 2).with_budget(4096));
    let design_on = designer.advise(&design_problem).unwrap();

    telemetry::disable();
    let snap = telemetry::snapshot();
    snap.validate().unwrap();
    assert_eq!(snap.open_spans, 0, "spans leaked");
    let root = snap.last_span("advisor.recommend").unwrap();
    let coverage = snap.child_coverage(root.id);
    println!(
        "advisor.recommend: {:.3} ms wall, {:.1}% covered by direct children",
        root.duration_ns() as f64 / 1e6,
        coverage * 100.0
    );
    assert!(
        coverage >= 0.95,
        "child spans cover {:.1}% of the root span, need >= 95%",
        coverage * 100.0
    );
    for name in [
        "design.advise",
        "design.enumerate",
        "design.whatif",
        "design.alternate",
    ] {
        assert!(snap.last_span(name).is_some(), "no {name} span");
    }
    for name in [
        "design.candidates",
        "design.whatif_calls",
        "design.cache_hits",
        "design.alternations",
    ] {
        assert!(snap.counter(name).unwrap_or(0) > 0, "{name} did not move");
    }
    assert!(
        snap.counter("design.pruned").is_some(),
        "design.pruned never registered"
    );

    // Observation only: the same advice untraced is bit-identical.
    let design_off = designer.advise(&design_problem).unwrap();
    assert_eq!(design_on.fingerprint, design_off.fingerprint);
    assert_eq!(
        design_on.objective.to_bits(),
        design_off.objective.to_bits()
    );

    telemetry::reset();
}
