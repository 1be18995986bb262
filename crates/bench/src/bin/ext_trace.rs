//! EXT-TRACE — the telemetry end-to-end exercise and CI smoke gate.
//!
//! Runs a representative (small) consolidation scenario with global
//! telemetry enabled — calibrate an advisor, recommend an allocation, then
//! validate one workload through the measured oracle — and writes both
//! exporter artifacts:
//!
//! * `TRACE_dump.json` — the self-contained JSON snapshot dump;
//! * `TRACE_chrome.json` — the Chrome `chrome://tracing` / Perfetto
//!   trace-event file (open via `chrome://tracing` or
//!   <https://ui.perfetto.dev>).
//!
//! Before writing, the snapshot must pass the structural validator
//! ([`dbvirt_telemetry::Snapshot::validate`]: zero leaked spans, parented
//! intervals nest), and the root `advisor.recommend` span's direct
//! children must account for ≥ 95% of its wall clock — the instrumented
//! pipeline is not allowed to lose time to untracked gaps. `scripts/
//! tier1.sh` runs this binary as the telemetry smoke gate; any failure
//! here exits non-zero.

use dbvirt_bench::experiment_machine;
use dbvirt_calibrate::CalibrationGrid;
use dbvirt_core::measure::measure_workload_seconds;
use dbvirt_core::{
    DesignProblem, SearchAlgorithm, TelemetrySummary, VirtualizationAdvisor, WorkloadSpec,
};
use dbvirt_design::{DesignAdvisor, DesignConfig};
use dbvirt_sql::parse_query;
use dbvirt_telemetry as telemetry;
use dbvirt_tpch::{TpchConfig, TpchDb, TpchQuery, Workload};

fn main() {
    telemetry::enable();
    let machine = experiment_machine();
    // Experiment scale (not `tiny`): the root `advisor.recommend` span
    // must be long enough that per-span bookkeeping overhead stays well
    // under the 5% coverage budget checked below.
    let cfg = TpchConfig::experiment();
    println!("Generating TPC-H (SF {:.3}) ...", cfg.scale);
    let mut t = TpchDb::generate(cfg).expect("tpch generation");

    let n = 3;
    let units = 10;
    println!("Calibrating the advisor grid ({units} units, {n} workloads) ...");
    let advisor = VirtualizationAdvisor::calibrate(machine, n, units).expect("advisor calibration");

    let mixes: Vec<Workload> = vec![
        Workload::compose(&t, &[(TpchQuery::Q4, 1)]),
        Workload::compose(&t, &[(TpchQuery::Q13, 3)]),
        Workload::compose(&t, &[(TpchQuery::Q1, 1), (TpchQuery::Q6, 1)]),
    ];
    let problem = DesignProblem::new(
        machine,
        mixes
            .iter()
            .map(|w| WorkloadSpec::new(w.name.clone(), &t.db, w.queries.clone()))
            .collect(),
    )
    .expect("problem");

    println!("Recommending (DP) ...");
    // Warm-up recommend: absorbs one-time lazy initialization (telemetry
    // cell registration, the workloads' analysis) so the coverage check below
    // runs against a steady-state root span. The coverage check uses the
    // *last* `advisor.recommend` span.
    let warmup = advisor
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .expect("warm-up recommendation");
    let rec = advisor
        .recommend(&problem, SearchAlgorithm::DynamicProgramming)
        .expect("recommendation");
    assert_eq!(
        warmup.objective.to_bits(),
        rec.objective.to_bits(),
        "repeat recommendation must be deterministic"
    );
    println!(
        "Recommended allocation for {n} workloads: objective {:.3}s, {} evaluations.",
        rec.objective, rec.evaluations
    );

    // One measured-oracle run: exercises the engine operator spans, the
    // buffer-pool counters, and the virtual clock.
    let measured = measure_workload_seconds(
        &mut t.db,
        &mixes[0].queries,
        machine,
        rec.allocation.row(0),
    )
    .expect("measured validation");
    println!(
        "Measured {} under its recommended shares: {measured:.3}s simulated.",
        mixes[0].name
    );

    // --- Design-advisor exercise ----------------------------------------
    // A compact joint index+allocation run so the design.* instrumentation
    // lands in the same smoke gate: the subsystem's spans must be
    // recorded, its counters must move, and (checked below, after the
    // snapshot) the recommendation must be bit-identical with telemetry
    // disabled — tracing is observation-only.
    println!("Advising a joint index+allocation design (2 VMs) ...");
    let design_points = vec![0.25, 0.5, 0.75, 1.0];
    let design_grid =
        CalibrationGrid::calibrate(machine, design_points.clone(), design_points, 0.5)
            .expect("design grid calibration");
    // Lookup columns deliberately avoid the stock TPC-H index set so the
    // enumerator has real candidates to price.
    let lookups: Vec<_> = [
        "SELECT l_suppkey, l_quantity FROM lineitem WHERE l_suppkey = 17",
        "SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_quantity = 3",
    ]
    .iter()
    .map(|s| parse_query(s, &t.db).expect("lookup SQL"))
    .collect();
    let design_problem = DesignProblem::new(
        machine,
        vec![
            WorkloadSpec::new("lookups".to_string(), &t.db, lookups),
            WorkloadSpec::new("scans".to_string(), &t.db, mixes[0].queries.clone()),
        ],
    )
    .expect("design problem");
    let design_advisor = DesignAdvisor::new(&design_grid, DesignConfig::new(4, 2).with_budget(4096));
    let design_on = design_advisor.advise(&design_problem).expect("joint design advice");
    println!(
        "Joint design: objective {:.3}s, {} alternations, {} evaluations.",
        design_on.objective, design_on.alternations, design_on.evaluations
    );

    telemetry::disable();
    let snap = telemetry::snapshot();

    // --- Smoke-gate checks ---------------------------------------------
    if let Err(e) = snap.validate() {
        eprintln!("FAIL: telemetry snapshot is structurally invalid: {e}");
        std::process::exit(1);
    }
    if snap.open_spans != 0 {
        eprintln!("FAIL: {} spans leaked (still open)", snap.open_spans);
        std::process::exit(1);
    }
    let root = snap
        .last_span("advisor.recommend")
        .expect("advisor.recommend span recorded");
    let coverage = snap.child_coverage(root.id);
    println!(
        "Root span advisor.recommend: {:.3}ms wall, {:.1}% covered by direct children.",
        root.duration_ns() as f64 / 1e6,
        coverage * 100.0
    );
    if coverage < 0.95 {
        eprintln!(
            "FAIL: child spans cover only {:.1}% of the root span (need >= 95%)",
            coverage * 100.0
        );
        std::process::exit(1);
    }

    // Design subsystem instrumentation: the advise run above must have
    // recorded the whole span family and moved the what-if counters.
    for name in [
        "design.advise",
        "design.enumerate",
        "design.whatif",
        "design.alternate",
    ] {
        if snap.last_span(name).is_none() {
            eprintln!("FAIL: no {name} span recorded");
            std::process::exit(1);
        }
    }
    for name in [
        "design.candidates",
        "design.whatif_calls",
        "design.cache_hits",
        "design.alternations",
    ] {
        match snap.counter(name) {
            Some(v) if v > 0 => {}
            other => {
                eprintln!("FAIL: counter {name} did not move (got {other:?})");
                std::process::exit(1);
            }
        }
    }
    if snap.counter("design.pruned").is_none() {
        eprintln!("FAIL: counter design.pruned was never registered");
        std::process::exit(1);
    }
    println!(
        "Design instrumentation: {} what-if calls, {} cache hits, {} candidates.",
        snap.counter("design.whatif_calls").unwrap_or(0),
        snap.counter("design.cache_hits").unwrap_or(0),
        snap.counter("design.candidates").unwrap_or(0),
    );

    // Telemetry must be observation-only: the same advise with tracing
    // disabled returns the identical recommendation, bit for bit.
    let design_off = design_advisor
        .advise(&design_problem)
        .expect("design advice with telemetry off");
    assert_eq!(
        design_on.fingerprint, design_off.fingerprint,
        "design recommendation fingerprint changed when telemetry was disabled"
    );
    assert_eq!(
        design_on.objective.to_bits(),
        design_off.objective.to_bits(),
        "design objective bits changed when telemetry was disabled"
    );
    println!("Design on/off check OK: telemetry is invisible in the recommendation.");

    // --- Artifacts ------------------------------------------------------
    for (file, json) in [
        ("TRACE_dump.json", snap.to_json()),
        ("TRACE_chrome.json", snap.to_chrome_trace()),
    ] {
        std::fs::write(file, json + "\n").expect("write trace artifact");
        println!("Wrote {file}");
    }

    let summary = TelemetrySummary::capture();
    println!(
        "Telemetry summary: {} spans, {} counters, cache {}h/{}m (hit rate {}), \
         virtual clock {:.3}s.",
        snap.spans.len(),
        snap.counters.len(),
        summary.cache_hits,
        summary.cache_misses,
        summary
            .cache_hit_rate
            .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
        snap.virtual_us as f64 / 1e6,
    );
    println!("OK: snapshot valid, zero leaked spans, coverage >= 95%.");
}
