//! Calibration benchmarks: the solver is trivial; the probe executions
//! dominate, which is exactly why the paper flags calibration as "a
//! fairly lengthy process" and motivates the EXT-GRID interpolation
//! experiment.

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_calibrate::runner::calibrate_with;
use dbvirt_calibrate::{solver, ProbeDb};
use dbvirt_vmm::{MachineSpec, ResourceVector, Share};
use std::hint::black_box;

fn bench_solver(c: &mut Criterion) {
    // A representative 8x5 weighted system.
    let a: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..5)
                .map(|j| ((i * 5 + j) as f64 * 0.37).sin().abs() + 0.1)
                .collect()
        })
        .collect();
    let x_true = [1.0, 2.0, 0.5, 0.25, 3.0];
    let b_vec: Vec<f64> = a
        .iter()
        .map(|row| row.iter().zip(&x_true).map(|(aij, xj)| aij * xj).sum())
        .collect();

    c.bench_function("calibration/least_squares_8x5", |bch| {
        bch.iter(|| {
            let x = solver::least_squares(&a, &b_vec).unwrap();
            black_box(x[0]);
        });
    });
}

fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(10);

    group.bench_function("probe_db_build", |b| {
        b.iter(|| {
            let pdb = ProbeDb::build().unwrap();
            black_box(pdb.db.total_pages());
        });
    });

    group.bench_function("one_allocation", |b| {
        let pdb = ProbeDb::build().unwrap();
        b.iter(|| {
            let cal = calibrate_with(
                &pdb,
                MachineSpec::paper_testbed(),
                ResourceVector::uniform(Share::HALF),
            )
            .unwrap();
            black_box(cal.params.cpu_tuple_cost);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_solver, bench_calibration);
criterion_main!(benches);
