//! Control-loop micro-benchmarks: the micro view of what `perf/`'s
//! `control_loop` workload shows end to end. Capped `co_schedule` at the
//! controller's epoch shape (8 VMs × 4 queries) and at a fleet machine's
//! (64 VMs × 16 queries), then `run_controller` and `account_regret` over
//! 128 epochs of eight VMs on twelve share units — once stationary (quiet
//! epochs: one placement, then only simulation and statistics) and once
//! drifting (re-solves, and regret replays that leave the controller's
//! trajectory).

use criterion::{criterion_group, criterion_main, Criterion};
use dbvirt_controller::{
    account_regret, run_controller, ControllerConfig, ProblemTemplate, Scenario, VmTemplate,
    WorkloadProfile,
};
use dbvirt_core::SearchConfig;
use dbvirt_engine::Database;
use dbvirt_optimizer::LogicalPlan;
use dbvirt_storage::{DataType, Datum, Field, Schema, Tuple};
use dbvirt_vmm::kernel::SplitMix64;
use dbvirt_vmm::sched::{co_schedule, SchedMode, VmJob};
use dbvirt_vmm::{AllocationMatrix, MachineSpec, ResourceDemand};
use std::hint::black_box;

const VMS: usize = 8;
const UNITS: u32 = 12;

/// Mixed CPU / disk streams with the odd zero-demand query, fixed by shape.
fn fleet(vms: usize, queries: usize) -> Vec<VmJob> {
    let mut mix = SplitMix64((vms as u64) << 32 | queries as u64);
    (0..vms)
        .map(|_| {
            VmJob::new(
                (0..queries)
                    .map(|_| {
                        let r = mix.next();
                        match r % 8 {
                            0 => ResourceDemand::ZERO,
                            _ => ResourceDemand {
                                cpu_cycles: ((r >> 8) % 2_000_000_000) as f64,
                                seq_page_reads: (r >> 40) % 1_200,
                                random_page_reads: (r >> 50) % 120,
                                page_writes: r % 40,
                            },
                        }
                    })
                    .collect(),
            )
        })
        .collect()
}

fn bench_co_schedule(c: &mut Criterion) {
    let spec = MachineSpec::paper_testbed();
    for (vms, queries) in [(8usize, 4usize), (64, 16)] {
        let alloc = AllocationMatrix::equal_split(vms).unwrap();
        let jobs = fleet(vms, queries);
        c.bench_function(&format!("sched/capped_{vms}vms_{queries}q"), |b| {
            b.iter(|| {
                black_box(co_schedule(spec, &alloc, black_box(&jobs), SchedMode::Capped).unwrap())
            });
        });
    }
}

fn cpu_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2.0e8,
        cold_seq_reads: 20.0,
        cold_random_reads: 5.0,
        page_writes: 0.0,
        reread_seq: 40.0,
        reread_random: 10.0,
        working_set_pages: 800.0,
        queries_per_epoch: 4.0,
    }
}

fn io_heavy() -> WorkloadProfile {
    WorkloadProfile {
        cpu_cycles: 2.0e7,
        cold_seq_reads: 400.0,
        cold_random_reads: 60.0,
        page_writes: 20.0,
        reread_seq: 2000.0,
        reread_random: 300.0,
        working_set_pages: 6000.0,
        queries_per_epoch: 2.0,
    }
}

fn bench_control_loop(c: &mut Criterion) {
    let mut db = Database::new();
    let t = db.create_table("t", Schema::new(vec![Field::new("a", DataType::Int)]));
    db.insert_rows(t, (0..10).map(|i| Tuple::new(vec![Datum::Int(i)])))
        .unwrap();
    db.analyze_all().unwrap();
    let machine = MachineSpec::tiny();
    let template = ProblemTemplate {
        machine,
        vms: (0..VMS)
            .map(|i| VmTemplate {
                name: format!("vm{i}"),
                db: &db,
                base_query: LogicalPlan::scan(t),
            })
            .collect(),
    };
    let config = ControllerConfig::new(SearchConfig::for_workloads(UNITS, VMS));
    let sized = |even: WorkloadProfile, odd: WorkloadProfile| -> Vec<WorkloadProfile> {
        (0..VMS)
            .map(|i| if i % 2 == 0 { even } else { odd }.scaled(0.7 + 0.1 * i as f64))
            .collect()
    };
    let (fwd, rev) = (
        sized(cpu_heavy(), io_heavy()),
        sized(io_heavy(), cpu_heavy()),
    );
    let scenarios = [
        Scenario::stationary("stationary", machine, fwd.clone(), 128, 11),
        Scenario::drifting("drifting", machine, fwd, 64, rev, 64, 11),
    ];
    for scenario in &scenarios {
        let name = &scenario.name;
        c.bench_function(&format!("controller/run_{name}_128epochs"), |b| {
            b.iter(|| {
                black_box(
                    run_controller(scenario, &template, &config)
                        .unwrap()
                        .total_cost,
                )
            });
        });
        let outcome = run_controller(scenario, &template, &config).unwrap();
        c.bench_function(&format!("controller/regret_{name}_128epochs"), |b| {
            b.iter(|| {
                let report = account_regret(scenario, &template, &config, &outcome).unwrap();
                black_box(report.oracle_cost + report.never_cost)
            });
        });
    }
}

criterion_group!(benches, bench_co_schedule, bench_control_loop);
criterion_main!(benches);
