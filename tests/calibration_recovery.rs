//! Integration: the calibration pipeline recovers the physical laws the
//! VMM substrate implements — without ever reading the engine's hidden
//! cycle constants — and keeps recovering them when the measurement path
//! is noisy, flaky, or outright hostile.

use dbvirt::calibrate::runner::{calibrate_with, calibrate_with_config};
use dbvirt::calibrate::{CalibrationConfig, CalibrationGrid, ProbeDb};
use dbvirt::vmm::{FaultInjector, MachineSpec, NoiseModel, ResourceVector};

fn shares(cpu: f64, mem: f64, disk: f64) -> ResourceVector {
    ResourceVector::from_fractions(cpu, mem, disk).unwrap()
}

#[test]
fn cpu_parameters_scale_inversely_with_cpu_share() {
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let at = |cpu: f64| {
        calibrate_with(&pdb, spec, shares(cpu, 0.5, 0.5))
            .unwrap()
            .params
    };
    let p25 = at(0.25);
    let p50 = at(0.5);
    let p75 = at(0.75);
    // The CPU parameters are ratios to the (CPU-share-independent) seq
    // page fetch, so they should scale almost exactly as 1/share.
    for (name, f) in [
        (
            "cpu_tuple_cost",
            &(|p: &dbvirt::optimizer::OptimizerParams| p.cpu_tuple_cost) as &dyn Fn(_) -> f64,
        ),
        (
            "cpu_operator_cost",
            &|p: &dbvirt::optimizer::OptimizerParams| p.cpu_operator_cost,
        ),
        (
            "cpu_index_tuple_cost",
            &|p: &dbvirt::optimizer::OptimizerParams| p.cpu_index_tuple_cost,
        ),
    ] {
        let r1 = f(&p25) / f(&p50);
        let r2 = f(&p50) / f(&p75);
        assert!((r1 - 2.0).abs() < 0.25, "{name}: 25->50 ratio {r1}");
        assert!((r2 - 1.5).abs() < 0.2, "{name}: 50->75 ratio {r2}");
    }
}

#[test]
fn unit_seconds_scales_inversely_with_disk_share() {
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let at = |disk: f64| {
        calibrate_with(&pdb, spec, shares(0.5, 0.5, disk))
            .unwrap()
            .params
            .unit_seconds
    };
    let u25 = at(0.25);
    let u50 = at(0.5);
    let u75 = at(0.75);
    assert!((u25 / u50 - 2.0).abs() < 0.15, "{u25} vs {u50}");
    assert!((u50 / u75 - 1.5).abs() < 0.15, "{u50} vs {u75}");
}

#[test]
fn random_to_sequential_ratio_reflects_the_simulated_disk() {
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let p = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5))
        .unwrap()
        .params;
    // Physical truth: one random I/O takes 1/130 s, one sequential page
    // ~98 us (plus a little CPU); ratio ~60-90 for this disk. The
    // calibrated ratio should land in that physical ballpark — far from
    // PostgreSQL's cache-optimistic default of 4.
    let physical = spec.random_page_seconds() / spec.seq_page_seconds();
    assert!(
        p.random_page_cost > physical * 0.5 && p.random_page_cost < physical * 1.5,
        "calibrated {} vs physical {}",
        p.random_page_cost,
        physical
    );
}

#[test]
fn fit_quality_is_tight_across_the_share_space() {
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    for cpu in [0.25, 0.5, 0.75] {
        for disk in [0.25, 0.75] {
            let cal = calibrate_with(&pdb, spec, shares(cpu, 0.5, disk)).unwrap();
            let scale = cal.measured_seconds.iter().fold(0.0f64, |a, &b| a.max(b));
            assert!(
                cal.rms_residual_seconds < 0.05 * scale,
                "cpu {cpu} disk {disk}: rms {} vs scale {scale}",
                cal.rms_residual_seconds
            );
        }
    }
}

#[test]
fn calibration_is_deterministic() {
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let a = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
    let b = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
    assert_eq!(a.params, b.params);
    assert_eq!(a.measured_seconds, b.measured_seconds);
}

/// True if `a` and `b` agree within a relative factor of `tol`.
fn within(a: f64, b: f64, tol: f64) -> bool {
    a > 0.0 && b > 0.0 && a / b < 1.0 + tol && b / a < 1.0 + tol
}

#[test]
fn parameters_survive_ten_percent_jitter_across_seeds() {
    // Seeded property sweep: under ≤10% multiplicative jitter, the robust
    // loop (5-trial median + outlier screening) must land within the
    // documented tolerances of the noise-free fit for every seed — no
    // cherry-picking.
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5))
        .unwrap()
        .params;
    for seed in 0..10u64 {
        let injector = FaultInjector::new(NoiseModel::uniform_jitter(0.10), seed);
        let cfg = CalibrationConfig::robust().with_injector(injector);
        let noisy = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let p = noisy.params;
        assert!(
            within(p.unit_seconds, clean.unit_seconds, 0.15),
            "seed {seed}: unit_seconds {} vs {}",
            p.unit_seconds,
            clean.unit_seconds
        );
        assert!(
            within(p.random_page_cost, clean.random_page_cost, 0.30),
            "seed {seed}: random_page_cost {} vs {}",
            p.random_page_cost,
            clean.random_page_cost
        );
        assert!(
            within(p.cpu_tuple_cost, clean.cpu_tuple_cost, 0.50),
            "seed {seed}: cpu_tuple_cost {} vs {}",
            p.cpu_tuple_cost,
            clean.cpu_tuple_cost
        );
    }
}

#[test]
fn transient_failures_recover_by_retry_across_seeds() {
    // Failures only (no measurement noise): whatever survives retry is
    // exact, so every seed must reproduce the clean parameters bit for
    // bit while the report shows the retries that made it possible.
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5))
        .unwrap()
        .params;
    for seed in 0..10u64 {
        let injector = FaultInjector::new(NoiseModel::none().with_failures(0.3), seed);
        let cfg = CalibrationConfig::robust().with_injector(injector);
        let cal = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(cal.report.dropped_probes, 0, "seed {seed}: {}", cal.report);
        assert!(
            cal.report.total_retries() > 0,
            "seed {seed}: {}",
            cal.report
        );
        assert_eq!(
            cal.params.unit_seconds.to_bits(),
            clean.unit_seconds.to_bits(),
            "seed {seed}"
        );
    }
}

#[test]
fn grid_sweep_under_realistic_noise_completes_with_health_accounting() {
    // The acceptance scenario: a full grid sweep under the composite
    // fault model (jitter + heavy-tailed spikes + transient failures +
    // timeouts) must finish without a panic, stay within tolerance of
    // the noise-free sweep on every non-degraded cell, and account for
    // the recovery work in the health summary.
    let machine = MachineSpec::paper_testbed();
    let cpu_axis = vec![0.25, 0.5, 0.75];
    let mem_axis = vec![0.25, 0.75];
    let clean =
        CalibrationGrid::calibrate(machine, cpu_axis.clone(), mem_axis.clone(), 0.5).unwrap();
    for seed in 1..=3u64 {
        let injector = FaultInjector::new(NoiseModel::realistic(0.05), seed);
        let rcfg = CalibrationConfig::robust().with_injector(injector);
        let noisy = CalibrationGrid::calibrate_with_config(
            machine,
            cpu_axis.clone(),
            mem_axis.clone(),
            0.5,
            &rcfg,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let health = noisy.health();
        assert!(
            health.total_retries > 0,
            "seed {seed}: 5% failure rate must cause retries: {health}"
        );
        for (c, _) in cpu_axis.iter().enumerate() {
            for (m, _) in mem_axis.iter().enumerate() {
                let report = noisy.report_at(c, m);
                if report.degraded {
                    continue; // interpolated cells carry their own flag
                }
                let p = noisy.at_point(c, m);
                let q = clean.at_point(c, m);
                assert!(
                    within(p.unit_seconds, q.unit_seconds, 0.15),
                    "seed {seed} cell ({c},{m}): unit_seconds {} vs {} ({report})",
                    p.unit_seconds,
                    q.unit_seconds
                );
                assert!(
                    within(p.random_page_cost, q.random_page_cost, 0.40),
                    "seed {seed} cell ({c},{m}): random_page_cost {} vs {}",
                    p.random_page_cost,
                    q.random_page_cost
                );
            }
        }
    }
}

#[test]
fn forced_singular_fit_takes_the_ridge_path_not_a_panic() {
    // condition_limit = 0 declares every system "too ill-conditioned":
    // the sweep must route through the Tikhonov ridge, flag it, and still
    // land on the plain solution (λ is tiny).
    let spec = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    let clean = calibrate_with(&pdb, spec, shares(0.5, 0.5, 0.5)).unwrap();
    let cfg = CalibrationConfig {
        condition_limit: 0.0,
        ..CalibrationConfig::robust()
    };
    let ridged = calibrate_with_config(&pdb, spec, shares(0.5, 0.5, 0.5), &cfg).unwrap();
    assert!(ridged.report.used_ridge);
    assert!(!ridged.report.is_clean());
    assert!(within(
        ridged.params.unit_seconds,
        clean.params.unit_seconds,
        1e-3
    ));
}

/// Seeds per noise level in the chaos sweep, and the first of them.
const SWEEP_SEEDS: u64 = 6;
const FIRST_SEED: u64 = 1;

/// Every parameter of `noisy` outside its tolerance of `clean` (the bounds
/// DESIGN.md documents), labelled with `at`.
fn violations(
    at: &str,
    noisy: &dbvirt::optimizer::OptimizerParams,
    clean: &dbvirt::optimizer::OptimizerParams,
) -> Vec<String> {
    [
        ("unit_seconds", noisy.unit_seconds, clean.unit_seconds, 0.15),
        (
            "random_page_cost",
            noisy.random_page_cost,
            clean.random_page_cost,
            0.40,
        ),
        (
            "cpu_tuple_cost",
            noisy.cpu_tuple_cost,
            clean.cpu_tuple_cost,
            0.50,
        ),
    ]
    .into_iter()
    .filter(|&(_, a, b, tol)| !within(a, b, tol))
    .map(|(name, a, b, tol)| format!("{at}: {name} {a:.4e} vs clean {b:.4e} (tol {tol})"))
    .collect()
}

/// The chaos sweep: point calibrations and full grid sweeps under the
/// composite fault model (jitter, heavy-tailed spikes, transient failures,
/// timeouts) at three jitter levels, then a hostile mode of 50 % failures
/// with no retries. No panic, no unexpected error, and every non-degraded
/// fit within tolerance of the noise-free one; the injector is seeded, so
/// any failure replays by seed. Opt-in (`CHAOS=1 scripts/tier1.sh`):
/// `cargo test --release --test calibration_recovery -- --ignored --nocapture`.
#[test]
#[ignore = "the chaos sweep; run with --ignored"]
fn chaos_sweep_recovers_or_fails_typed() {
    let machine = MachineSpec::paper_testbed();
    let pdb = ProbeDb::build().unwrap();
    pdb.validate().unwrap();
    let (cpu_axis, mem_axis) = (vec![0.25, 0.5, 0.75], vec![0.25, 0.75]);
    let clean =
        CalibrationGrid::calibrate(machine, cpu_axis.clone(), mem_axis.clone(), 0.5).unwrap();
    let seeds = FIRST_SEED..FIRST_SEED + SWEEP_SEEDS;

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let record = |rows: &mut Vec<_>, label, counts: [usize; 5], found: &[String]| {
        let mut row = vec![label];
        row.extend(counts.map(|c| c.to_string()));
        row.push(found.len().to_string());
        rows.push(row);
    };
    for jitter in [0.02, 0.05, 0.10] {
        for seed in seeds.clone() {
            let injector = FaultInjector::new(NoiseModel::realistic(jitter), seed);
            let rcfg = CalibrationConfig::robust().with_injector(injector);
            let run = format!("jitter {jitter} seed {seed}");

            // Point calibrations at three allocations.
            let (mut retries, mut outliers, mut ridge, mut found) = (0, 0, 0, Vec::new());
            let allocations = [(0.5, 0.5, 0.5), (0.25, 0.75, 0.5), (0.75, 0.25, 0.5)];
            for (cpu, mem, disk) in allocations {
                let at = shares(cpu, mem, disk);
                let base = calibrate_with(&pdb, machine, at).unwrap();
                match calibrate_with_config(&pdb, machine, at, &rcfg) {
                    Ok(noisy) => {
                        retries += noisy.report.total_retries();
                        outliers += noisy.report.rejected_outliers.len();
                        ridge += usize::from(noisy.report.used_ridge);
                        let label = format!("{run} at ({cpu},{mem},{disk})");
                        found.extend(violations(&label, &noisy.params, &base.params));
                    }
                    Err(e) => found.push(format!("{run} at ({cpu},{mem},{disk}): {e}")),
                }
            }
            let counts = [allocations.len(), 0, retries, outliers, ridge];
            record(
                &mut rows,
                format!("point j={jitter:.2} s={seed}"),
                counts,
                &found,
            );
            failures.extend(found);

            // A full grid sweep: degraded cells are interpolated, flagged
            // and held to no tolerance.
            let label = format!("grid j={jitter:.2} s={seed}");
            let sweep = CalibrationGrid::calibrate_with_config(
                machine,
                cpu_axis.clone(),
                mem_axis.clone(),
                0.5,
                &rcfg,
            );
            let noisy = match sweep {
                Ok(noisy) => noisy,
                Err(e) => {
                    failures.push(format!("{run}: sweep failed: {e}"));
                    continue;
                }
            };
            let mut found = Vec::new();
            for c in 0..cpu_axis.len() {
                for m in 0..mem_axis.len() {
                    if !noisy.report_at(c, m).degraded {
                        let at = format!("{run} cell ({c},{m})");
                        found.extend(violations(&at, noisy.at_point(c, m), clean.at_point(c, m)));
                    }
                }
            }
            let h = noisy.health();
            let counts = [
                h.cells,
                h.degraded_cells,
                h.total_retries,
                h.total_rejected_outliers,
                h.ridge_cells,
            ];
            record(&mut rows, label, counts, &found);
            failures.extend(found);
        }
    }

    // Hostile mode: 50 % transient failures, no retries, single trials. A
    // sweep may degrade cells or end in a typed `InsufficientProbes` — both
    // graceful — but never panic.
    for seed in seeds {
        let injector = FaultInjector::new(NoiseModel::none().with_failures(0.5), seed);
        let rcfg = CalibrationConfig {
            trials: 1,
            max_retries: 0,
            ..CalibrationConfig::robust()
        }
        .with_injector(injector);
        let label = format!("hostile s={seed}");
        let sweep = CalibrationGrid::calibrate_with_config(
            machine,
            cpu_axis.clone(),
            mem_axis.clone(),
            0.5,
            &rcfg,
        );
        match sweep {
            Ok(g) => {
                let h = g.health();
                let counts = [
                    h.cells,
                    h.degraded_cells,
                    h.total_retries,
                    h.total_rejected_outliers,
                    h.ridge_cells,
                ];
                record(&mut rows, label, counts, &[]);
            }
            Err(dbvirt::calibrate::CalError::InsufficientProbes { .. }) => {
                rows.push(vec![label, "typed error".to_string()]);
            }
            Err(e) => failures.push(format!("hostile seed {seed}: unexpected error {e}")),
        }
    }

    dbvirt_bench::print_table(
        "calibration under injected faults",
        &[
            "scenario",
            "cells",
            "degraded",
            "retries",
            "outliers",
            "ridge",
            "violations",
        ],
        &rows,
    );
    assert!(
        failures.is_empty(),
        "chaos sweep failed:\n{}",
        failures.join("\n")
    );
}
